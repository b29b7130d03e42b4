"""The golden CLI matrix (cli_matrix.py) keeps its outputs.

Every run goes in-process through cli.main.  Each CSV's sampled rows are
checked against the record on every platform: text cells exactly,
numbers within 1e-12.  Where numpy's version and the platform are the
record's, every output's sha256 must equal the recorded one as well.
Elsewhere the bytes may move at rounding level, so the test warns and
compares the digests of stdout and the text files alone; the SVGs are
drawn from the values the CSVs hold.  A failing run (FAILING_RUNS)
must keep its exit code, its stderr and its empty stdout as recorded
text, and write no file, on every platform.  A change that moves an
output regenerates the record (cli_matrix.py record) and names each
changed file in CHANGES.md.
"""

import json
import warnings

import pytest

import cli_matrix
from homchip.cli import main

RECORD = json.loads(cli_matrix.RECORD.read_text(encoding="utf-8"))
RECORDED = {}
for key, digest in RECORD["digests"].items():
    run, name = key.split("/")
    RECORDED.setdefault(run, {})[name] = digest
SAME_ENVIRONMENT = cli_matrix.environment() == RECORD["environment"]
TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def outputs():
    return cli_matrix.run_in_process(main)


def test_record_holds_every_run():
    assert list(RECORDED) == list(cli_matrix.RUNS)
    assert list(RECORD["failures"]) == list(cli_matrix.FAILING_RUNS)


def assert_sampled_rows(data: bytes, samples: dict, name: str):
    rows = cli_matrix.csv_rows(data)
    assert len(rows) - 1 == max(int(i) for i in samples), f"{name}: row count"
    for i, expected in samples.items():
        row = rows[int(i)]
        assert len(row) == len(expected), f"{name} row {i}"
        for got, want in zip(row, expected):
            if isinstance(want, str):
                assert got == want, f"{name} row {i}"
            else:
                assert abs(got - want) <= TOLERANCE, f"{name} row {i}: {got!r} != {want!r}"


@pytest.mark.parametrize("run", list(cli_matrix.RUNS))
def test_run_keeps_its_outputs(outputs, run):
    files, recorded = outputs[run], RECORDED[run]
    assert sorted(files) == sorted(recorded)
    for name, data in files.items():
        if name.endswith(".csv"):
            assert_sampled_rows(data, RECORD["csv_samples"][recorded[name]], name)
    compared = list(files)
    if not SAME_ENVIRONMENT:
        warnings.warn(
            f"digests recorded on {RECORD['environment']}, running on "
            f"{cli_matrix.environment()}: CSVs checked by sampled values, SVGs not compared"
        )
        compared = [name for name in files if not name.endswith((".csv", ".svg"))]
    changed = [name for name in compared if cli_matrix.sha256(files[name]) != recorded[name]]
    assert changed == []


@pytest.mark.parametrize("run", list(cli_matrix.FAILING_RUNS))
def test_failing_run_keeps_its_exit_code_and_message(outputs, run):
    files = {name: data.decode("utf-8") for name, data in outputs[run].items()}
    assert files == RECORD["failures"][run]


def test_digest_changes_names_each_moved_output():
    old = {"a/x.csv": "1", "a/stdout.txt": "2", "b/gone.svg": "3"}
    new = {"a/x.csv": "1", "a/stdout.txt": "9", "c/new.csv": "4"}
    assert cli_matrix.digest_changes(old, new) == [
        "changed a/stdout.txt", "gone b/gone.svg", "new c/new.csv"
    ]
    assert cli_matrix.digest_changes(old, old) == []

