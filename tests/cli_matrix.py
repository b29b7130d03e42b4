"""The golden CLI matrix: a fixed table of CLI runs whose outputs must keep
their bytes, and the tool that runs it and records its digests.

RUNS maps a run name to the command line it runs (without --out), and
FAILING_RUNS the same for runs that must exit nonzero; LAYOUTS holds the
text of the layout files the table writes for itself.  A run's outputs
are every file the command writes into its own directory plus its
stdout, kept as stdout.txt; a failing run's also hold its stderr and
exit code, as stderr.txt and exit_code.txt.

    python tests/cli_matrix.py record
        runs the matrix in-process with the homchip on sys.path and writes
        tests/cli_digests.json: a sha256 per output of RUNS and the numpy
        version and machine they were recorded on, sampled rows of each
        CSV, which test_cli_matrix.py checks where numpy or the machine
        differ, and each failing run's outputs as text.
        Regenerate with PYTHONPATH=src.  Prints each run/output whose
        digest (or failing text) changed, appeared or disappeared against
        the record it overwrites, for CHANGES.md.
    python tests/cli_matrix.py run OUT
        runs the matrix as subprocesses (python -m homchip, so the
        PYTHONPATH in force picks the code) and writes each run's outputs
        into OUT/<run name>/, with an exit_code.txt for every run; two
        trees can then be compared with diff -r.  It makes every run and
        only then fails, naming each run whose exit status disagrees with
        the table: code from before a run moved between RUNS and
        FAILING_RUNS disagrees on that run.
"""

import contextlib
import csv
import hashlib
import io
import json
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "cli_digests.json"

#: Layout files the table writes: the shipped layouts have no branch
#: mismatch, and none sits off the reference temperature and pump.
LAYOUTS = {
    "branch_mismatch.layout": (
        "branch_mismatch_mm = 0.02\npbs_extinction_db = 17\n"
        "pc_conversion_db = 20\npc0_efficiency = 0.99\n"
    ),
    "warm.layout": "temperature_c = 41.3\npump_wavelength_nm = 776.0\n",
    # phasematch's failing runs: a pump whose +-6 nm window lies outside the
    # dispersion range, converter resonances past each end of the window,
    # and a temperature whose +-10 C sweep leaves the tuning lines' trust range
    "uv_pump.layout": "pump_wavelength_nm = 200\n",
    "hot.layout": "temperature_c = 53\n",
    "cold.layout": "temperature_c = 36\n",
    "hotter.layout": "temperature_c = 54\n",
}
CHARACTERIZED = "layouts/characterized_device.layout"
SVG = ["--format", "csv+svg"]
CSV = ["--format", "csv"]

#: run name -> argv without --out.  A --layout value names a LAYOUTS file
#: or a path from the repository root.
RUNS = {
    # the five commands as CSV+SVG, and as CSV alone
    **{cmd: [cmd] + SVG for cmd in ("delay-schedule", "hom-scan", "dip", "phasematch", "rates")},
    **{f"{cmd}-csv": [cmd] + CSV for cmd in ("delay-schedule", "hom-scan", "dip", "phasematch", "rates")},
    "dip-8192": ["dip", "--grid-samples", "8192"] + SVG,
    # the +-10 ps delay axis needs 30 samples on the +-6 nm grid
    "dip-1024": ["dip", "--grid-samples", "1024"] + CSV,
    "hom-scan-paper": ["hom-scan", "--preset", "paper", "--filter", "lorentz:1.2"] + SVG,
    # a rectangular filter's weight is 0 outside its band, so these scans
    # run the converters on the detection window alone
    "hom-scan-paper-rect": ["hom-scan", "--preset", "paper", "--filter", "rect:2.3"] + SVG,
    "hom-scan-paper-rect-8192": [
        "hom-scan", "--preset", "paper", "--filter", "rect:1.5", "--grid-samples", "8192"
    ] + SVG,
    "hom-scan-paper-no-filter": ["hom-scan", "--preset", "paper", "--filter", "none"] + SVG,
    # one first-converter state kept: one series per plot, normalized
    # against the off branch all the same
    "hom-scan-pc0-on": ["hom-scan", "--preset", "paper", "--filter", "lorentz:1.2", "--pc0", "on"] + SVG,
    "hom-scan-pc0-off": ["hom-scan", "--pc0", "off"] + SVG,
    "hom-scan-characterized": ["hom-scan", "--layout", CHARACTERIZED] + SVG,
    "dip-characterized": ["dip", "--layout", CHARACTERIZED] + SVG,
    "delay-schedule-characterized": ["delay-schedule", "--layout", CHARACTERIZED] + SVG,
    "hom-scan-characterized-ideal-rect": [
        "hom-scan", "--layout", CHARACTERIZED, "--preset", "ideal", "--filter", "rect:2.3"
    ] + SVG,
    "phasematch-as-built": ["phasematch", "--layout", "layouts/as_built.layout"] + SVG,
    # the fold's mismatch path under the paper imperfections
    "hom-scan-mismatch": ["hom-scan", "--layout", "branch_mismatch.layout"] + SVG,
    "hom-scan-mismatch-rect": ["hom-scan", "--layout", "branch_mismatch.layout", "--filter", "rect:3.0"] + SVG,
    # the mismatch's n_gV term of the delay schedule
    "delay-schedule-mismatch": ["delay-schedule", "--layout", "branch_mismatch.layout"] + SVG,
    # off the reference temperature and pump, the tuning crossing still prints
    "phasematch-warm": ["phasematch", "--layout", "warm.layout"] + SVG,
}

#: run name -> argv without --out of a run that exits 1 and writes no file:
#: at a grid check (the quantum module docstring's grid rule), at the
#: dispersion model's range check, or at a check of phasematch's window or
#: its tuning lines' trust range
FAILING_RUNS = {
    # the +-10 ps delay axis aliases on the +-6 nm grid below 30 samples
    "dip-aliased-delays": ["dip", "--grid-samples", "28"] + CSV,
    "hom-scan-coarse-lobe": ["hom-scan", "--grid-samples", "32"] + CSV,
    "hom-scan-coarse-filter": [
        "hom-scan", "--preset", "paper", "--filter", "lorentz:1.2", "--grid-samples", "40"
    ] + CSV,
    "dip-narrow-window": ["dip", "--grid-halfwidth-nm", "1"] + CSV,
    "hom-scan-out-of-range": [
        "hom-scan", "--grid-halfwidth-nm", "1500", "--grid-samples", "65536"
    ] + CSV,
    "phasematch-pump-out-of-range": ["phasematch", "--layout", "uv_pump.layout"] + CSV,
    # the converter resonance moves by -0.7 nm/C, past the short and the
    # long end of the fixed +-6 nm window
    "phasematch-converter-clipped-short": ["phasematch", "--layout", "hot.layout"] + CSV,
    "phasematch-converter-clipped-long": ["phasematch", "--layout", "cold.layout"] + SVG,
    # the sweep reaches 64 C, more than 20 C from the reference
    "phasematch-sweep-beyond-trust-range": ["phasematch", "--layout", "hotter.layout"] + CSV,
}
ALL_RUNS = {**RUNS, **FAILING_RUNS}


def argv_for(name: str, layouts: Path, out: Path) -> list:
    """RUNS[name] or FAILING_RUNS[name] with its layout paths made absolute
    and --out appended."""
    argv = list(ALL_RUNS[name])
    for i, value in enumerate(argv[:-1]):
        if value == "--layout":
            given = argv[i + 1]
            argv[i + 1] = str(layouts / given if given in LAYOUTS else ROOT / given)
    return argv + ["--out", str(out)]


def write_layouts(directory: Path) -> Path:
    for name, text in LAYOUTS.items():
        (directory / name).write_text(text, encoding="utf-8", newline="\n")
    return directory


def exit_agrees(name: str, code: int) -> bool:
    """Whether a run of RUNS exited 0, or one of FAILING_RUNS nonzero."""
    return (code != 0) == (name in FAILING_RUNS)


def run_in_process(main) -> dict:
    """Every run through main (homchip.cli.main): {run name: {file name:
    bytes}}, stdout as stdout.txt, and for a failing run stderr.txt and
    exit_code.txt.  Raises if a run exits otherwise than its table says."""
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        layouts = write_layouts(Path(tmp))
        for name in ALL_RUNS:
            out = Path(tmp) / "runs" / name
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv_for(name, layouts, out))
            if not exit_agrees(name, code):
                raise RuntimeError(f"run {name} exited {code}")
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            files["stdout.txt"] = stdout.getvalue().encode("utf-8")
            if name in FAILING_RUNS:
                files["stderr.txt"] = stderr.getvalue().encode("utf-8")
                files["exit_code.txt"] = f"{code}\n".encode("utf-8")
            outputs[name] = files
    return outputs


def run_subprocesses(out_root: Path) -> None:
    """Every run as python -m homchip, outputs, stdout.txt and exit_code.txt
    in out_root/<name>/, and for a failing run stderr.txt.  Raises after the
    last run if any exited otherwise than its table says, naming each."""
    out_root.mkdir(parents=True, exist_ok=True)
    disagree = []
    with tempfile.TemporaryDirectory() as tmp:
        layouts = write_layouts(Path(tmp))
        for name in ALL_RUNS:
            out = out_root / name
            out.mkdir()
            with open(out / "stdout.txt", "wb") as stdout:
                done = subprocess.run(
                    [sys.executable, "-m", "homchip"] + argv_for(name, layouts, out),
                    stdout=stdout,
                    stderr=subprocess.PIPE if name in FAILING_RUNS else None,
                )
            (out / "exit_code.txt").write_text(f"{done.returncode}\n", encoding="utf-8")
            if name in FAILING_RUNS:
                (out / "stderr.txt").write_bytes(done.stderr)
            if not exit_agrees(name, done.returncode):
                disagree.append(f"run {name} exited {done.returncode}")
    if disagree:
        raise RuntimeError("exit status disagrees with the table: " + "; ".join(disagree))


def environment() -> dict:
    """What the digests hold for: numpy's version and the platform."""
    import numpy

    return {"numpy": numpy.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


#: A numpy or machine other than the record's checks each CSV at most this
#: many rows (at an even stride) and its last row, against recorded values.
SAMPLED_ROWS = 64


def csv_rows(data: bytes) -> list:
    """A CSV's rows, each cell a float where it parses as one."""

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(data.decode("utf-8")))]


def sampled_rows(rows: list) -> dict:
    """{index: row} for SAMPLED_ROWS rows at an even stride, the header
    first, and the last row."""
    stride = -(-len(rows) // SAMPLED_ROWS)
    return {str(i): rows[i] for i in sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(record: dict) -> dict:
    """{run/output: sha256} of a record: its digests, and each failing
    run's outputs hashed from their text."""
    failures = {
        f"{run}/{name}": sha256(text.encode("utf-8"))
        for run, files in record["failures"].items()
        for name, text in files.items()
    }
    return {**record["digests"], **failures}


def digest_changes(old: dict, new: dict) -> list:
    """'changed', 'new' or 'gone' and the key, for each run/output whose
    digest differs between two output_digests maps, in key order."""
    return [
        f"{'new' if key not in old else 'gone' if key not in new else 'changed'} {key}"
        for key in sorted(old.keys() | new.keys())
        if old.get(key) != new.get(key)
    ]


def record(path: Path = RECORD) -> None:
    from homchip.cli import main

    outputs = run_in_process(main)
    digests = {f"{run}/{name}": sha256(data) for run in RUNS for name, data in outputs[run].items()}
    # each distinct CSV once, by digest
    samples = {
        sha256(data): sampled_rows(csv_rows(data))
        for run in RUNS
        for name, data in outputs[run].items()
        if name.endswith(".csv")
    }
    failures = {
        run: {name: data.decode("utf-8") for name, data in outputs[run].items()}
        for run in FAILING_RUNS
    }
    fresh = {"environment": environment(), "digests": digests, "csv_samples": samples, "failures": failures}
    if path.exists():
        before = output_digests(json.loads(path.read_text(encoding="utf-8")))
        for line in digest_changes(before, output_digests(fresh)):
            print(line)
    text = json.dumps(fresh, indent=1)
    text = re.sub(r"\[[^\[\]{}]*\]", lambda row: " ".join(row[0].split()), text)  # a row a line
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["record"]:
        record()
    elif len(sys.argv) == 3 and sys.argv[1] == "run":
        run_subprocesses(Path(sys.argv[2]))
    else:
        sys.exit(__doc__)
