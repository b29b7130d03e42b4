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


# ---------------------------------------------------------------- one implementation per job

#: Modules that one file alone may import: the import machinery, for the
#: package root's lazy loader.  importlib.resources reads the shipped data
#: file; it loads no module.
OWNERS = {"importlib": "__init__.py"}
NOT_MACHINERY = ("importlib.resources",)


def bindings(stmt):
    """(bound name, dotted name) of each name an import statement binds:
    `import a.b` binds a and imports a.b, `from a import b as c` binds c and
    imports a.b; a relative module keeps its leading dots."""
    if isinstance(stmt, ast.Import):
        return [(alias.asname or alias.name.split(".")[0], alias.name) for alias in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        module = "." * stmt.level + (stmt.module or "")
        sep = "." if stmt.module else ""
        return [(alias.asname or alias.name, module + sep + alias.name) for alias in stmt.names]
    return []


def read_names(tree):
    """Every name a module reads, and every string constant that is one (an
    __all__ entry names what it exports)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def sources():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_module_level_import_is_read():
    unread = [
        f"{name}: {bound} ({dotted})"
        for name, tree in sources()
        for stmt in tree.body
        for bound, dotted in bindings(stmt)
        if bound not in read_names(tree)
    ]
    assert not unread, "imported but never read:\n" + "\n".join(unread)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def private_definitions(tree):
    """(name, node) of every private function of a module, at any depth, and
    every method of a private class; dunders are called by the language."""
    methods = {
        id(item): f"{cls.name}.{item.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name.startswith("_")
        for item in cls.body
        if isinstance(item, FUNCTIONS)
    }
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS) or re.fullmatch(r"__\w+__", node.name):
            continue
        if id(node) in methods or node.name.startswith("_"):
            yield methods.get(id(node), node.name), node


def reads_outside(trees, skipped):
    """Every name the trees read, as a name, an attribute or a string
    constant, outside the nodes of skipped."""
    inside = {id(node) for node in ast.walk(skipped)}
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_private_definition_is_read_in_the_package():
    # a path the program no longer runs leaves the package; a test that uses
    # it as a reference keeps its own copy.  Public names are library API.
    trees = dict(sources())
    unread = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if node.name not in reads_outside(trees.values(), node)
    ]
    assert not unread, "defined but never read in the package:\n" + "\n".join(unread)


def test_import_machinery_has_one_owner():
    imported = {
        (name, dotted)
        for name, tree in sources()
        for node in ast.walk(tree)
        for _, dotted in bindings(node)
    }
    # every kept array lives on the heap, read-only through grid._read_only:
    # the package has no second store
    assert not [name for name, dotted in imported if dotted.split(".")[0] == "mmap"]
    found = {
        (name, dotted)
        for name, dotted in imported
        if dotted.split(".")[0] in OWNERS and not dotted.startswith(NOT_MACHINERY)
    }
    strays = sorted(
        f"{name} imports {dotted}" for name, dotted in found if OWNERS[dotted.split(".")[0]] != name
    )
    assert not strays, "\n".join(strays)
    assert {name for name, _ in found} == set(OWNERS.values())  # each owner still imports it
