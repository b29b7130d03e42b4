"""The package's comments and docstrings state rules, not measurements.

A measured memory or time figure goes stale with the next change to the
code or the host; CHANGES.md records such figures instead.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "homchip"
#: A number followed by a memory or time unit.  Physics units (nm, ps, dB,
#: fs^2) and percentages are not caught.
FIGURE = re.compile(r"\d\s*(?:KB|KiB|MB|MiB|ms|µs|us|ns)\b")


def prose_lines(text: str):
    """(line number, text) of every comment and docstring line of a module."""
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                for offset, line in enumerate(doc.splitlines()):
                    yield node.body[0].lineno + offset, line


@pytest.mark.parametrize(
    "line, caught",
    [
        ("0.92 MB each at N = 4096", True),
        ("an entry holds 404 KB", True),
        ("a cos/sin pair costs 22-29 ns per entry", True),
        ("whose temporary holds 256 KiB or more", True),
        ("warm scans take 8.5ms", True),
        ("about 3 µs per call", True),
        ("delay line of up to 12 ps at 1551.7 nm", False),
        ("17 dB extinction, 2.4 fs² of dispersion", False),
        ("a heralding efficiency of 5% and a 5 % bound", False),
        ("N = 4096 samples in 2 modes", False),
    ],
)
def test_figure_pattern(line, caught):
    assert bool(FIGURE.search(line)) is caught


def test_prose_lines_finds_comments_and_docstrings():
    text = '"""Module, 1 MB."""\n\n\ndef f():\n    """One\n    2 ns."""\n    return "3 ms"  # 4 KB\n'
    assert [n for n, line in prose_lines(text) if FIGURE.search(line)] == [7, 1, 6]


def test_no_measured_figures_in_package_prose():
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in prose_lines(path.read_text(encoding="utf-8"))
        if FIGURE.search(line)
    ]
    assert not found, "measured figures in comments or docstrings:\n" + "\n".join(found)
