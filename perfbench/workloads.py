"""Seeded request generators, operations and output checks of the three workloads.

Each workload is a closed loop with one client.  Requests come in blocks of
fixed composition: the seed draws the physical values and the order inside
a block, while the mix of cost classes (16 or 14 delay settings, tau-grid
length, CLI command, grid size, output format) is the same for every seed.
A run measures whole blocks, so the median operation always falls in the
same cost class and differs between seeds only by the drawn values.

The package receives only the generated inputs: layout-file text, keyword
arguments of its public functions, or command-line arguments.
"""

import csv
import hashlib
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

OPERATING_TEMPERATURE_C = 43.6
CENTER_NM = 1551.7
GRID_SAMPLES = 4096
GRID_HALF_WIDTH_NM = 6.0
UNFILTERED_HALF_WIDTH_NM = 300.0
TAU_W_PS = 0.0805 * 20.7e-3 / 299792458.0 * 1e12  # triangle half-width of criterion 3

#: imperfection presets, as the CLI defines them
PRESETS = {
    "ideal": dict(pbs_extinction_db=math.inf, pc_conversion_db=None,
                  pc0_efficiency=1.0, flat_converters=True),
    "paper": dict(pbs_extinction_db=17.0, pc_conversion_db=20.0,
                  pc0_efficiency=0.99, flat_converters=False),
}
CHARACTERIZED_GEOMETRY = "disabled_segments = 10\n"  # 14 of 16 settings remain

# Input ranges, recorded in BENCHMARK.json's reasons and README.md as well.
TEMPERATURE_SPREAD_C = 1.0
LORENTZ_WIDTH_NM = (0.8, 2.0)
RECT_WIDTH_NM = (1.5, 3.0)  # every width keeps the criterion-5 overshoot
EXTINCTION_DB = (10.0, 30.0)
CONVERSION_DB = (15.0, 25.0)
DRIVE_EFFICIENCY = (0.95, 1.0)
TAU_GRIDS_PS = {  # name: (start, stop, step); "cli" is the CLI's 401-point grid
    "cli": (-10.0, 10.0, 0.05),
    "short": (-7.0, 7.0, 0.05),
    "long": (-14.0, 14.0, 0.05),
}


def fmt9(value) -> str:
    """A number as the CLI's CSV writer formats it (9 significant digits)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.9g}"


def sha256_lines(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _temperature(rng):
    return rng.uniform(OPERATING_TEMPERATURE_C - TEMPERATURE_SPREAD_C,
                       OPERATING_TEMPERATURE_C + TEMPERATURE_SPREAD_C)


def _filter(rng):
    if rng.random() < 0.5:
        return "lorentz", rng.uniform(*LORENTZ_WIDTH_NM)
    return "rect", rng.uniform(*RECT_WIDTH_NM)


def _drawn_imperfections(rng):
    return dict(pbs_extinction_db=rng.uniform(*EXTINCTION_DB),
                pc_conversion_db=rng.uniform(*CONVERSION_DB),
                pc0_efficiency=rng.uniform(*DRIVE_EFFICIENCY),
                flat_converters=False)


def _layout_text(temperature_c, flt, characterized=False, imperfections=None):
    lines = [f"temperature_c = {temperature_c!r}",
             f"filter_shape = {flt[0]}", f"filter_width_nm = {flt[1]!r}"]
    if imperfections:
        lines += [f"pbs_extinction_db = {imperfections['pbs_extinction_db']!r}",
                  f"pc_conversion_db = {imperfections['pc_conversion_db']!r}",
                  f"pc0_efficiency = {imperfections['pc0_efficiency']!r}"]
    return (CHARACTERIZED_GEOMETRY if characterized else "") + "\n".join(lines) + "\n"


@dataclass
class Outcome:
    """What one operation produced: its output digest and failed checks."""

    digest: str = ""
    problems: list = field(default_factory=list)
    command: str = ""


# ---------------------------------------------------------------------------
# scan: hom_scan -> normalize_scan -> visibility at N = 4096, +-6 nm


@dataclass(frozen=True)
class ScanRequest:
    layout_text: str
    imperfections: dict
    kind: str  # "ideal", "paper" or "drawn"

    def describe(self):
        return f"{self.kind} {self.layout_text!r}"


class ScanWorkload:
    name = "scan"
    in_process = True

    def __init__(self, seed):
        self.rng = random.Random(seed)
        import homchip.cli  # noqa: F401  (the tracer wraps cli and svgplot too)
        from homchip import chip, dispersion, elements, quantum
        from homchip.grid import SpectralGrid
        self.chip, self.quantum, self.elements = chip, quantum, elements
        self.dispersion, self.SpectralGrid = dispersion, SpectralGrid

    def block(self):
        """Five scans: ideal preset at 43.6 C, paper preset, and three drawn
        imperfection sets, one of which uses the characterized 14-setting
        layout."""
        rng = self.rng
        requests = [
            ScanRequest(_layout_text(OPERATING_TEMPERATURE_C, _filter(rng)),
                        PRESETS["ideal"], "ideal"),
            ScanRequest(_layout_text(_temperature(rng), _filter(rng)),
                        PRESETS["paper"], "paper"),
        ]
        for characterized in (False, False, True):
            requests.append(ScanRequest(
                _layout_text(_temperature(rng), _filter(rng), characterized),
                _drawn_imperfections(rng), "drawn"))
        rng.shuffle(requests)
        return requests

    def execute(self, request):
        q = self.quantum
        config = self.chip.parse_layout(request.layout_text)
        imp = dict(request.imperfections)
        template = replace(config.setting, pc0_efficiency=imp.pop("pc0_efficiency"))
        settings = self.chip.enumerate_settings(config.layout, template)
        grid = self.SpectralGrid(center_wavelength_nm=config.center_wavelength_nm,
                                 half_width_nm=GRID_HALF_WIDTH_NM, samples=GRID_SAMPLES)
        pm = self.elements.PmSpec(pdc_length_mm=config.layout.pdc_length_mm)
        points = q.normalize_scan(q.hom_scan(
            config.layout, settings, pm, grid, filters=config.filter,
            model=self.dispersion.default_model(), temperature_c=config.temperature_c, **imp))
        return config, points, q.visibility(points)

    def outcome(self, request, result):
        config, points, vis = result
        lines = [",".join((p.label, fmt9(p.setting.pc0_on), fmt9(p.setting.triple_index),
                           fmt9(p.delay_ps), fmt9(p.raw), fmt9(p.normalized)))
                 for p in points]
        lines.append(f"visibility,{fmt9(vis)}")
        return Outcome(sha256_lines(lines), self._check(request, config, points, vis))

    def _check(self, request, config, points, vis):
        problems = []
        expected = 14 if request.layout_text.startswith(CHARACTERIZED_GEOMETRY) else 16
        if len(points) != expected:
            problems.append(f"{len(points)} scan points, expected {expected}")
        values = [v for p in points for v in (p.delay_ps, p.raw, p.normalized)]
        if not all(math.isfinite(v) for v in values):
            problems.append("non-finite scan value")
        if not all(-1e-12 <= p.raw <= 1.0 + 1e-9 for p in points):
            problems.append("raw coincidence probability outside [0, 1]")
        # the reference is the longest-delay setting of the undriven branch
        off = [p for p in points if not p.setting.pc0_on]
        ref = max(off, key=lambda p: p.setting.triple_index)
        if ref.normalized != 1.0:
            problems.append(f"reference {ref.label} normalized to {ref.normalized!r}, not 1")
        if not 0.0 <= vis <= 1.0:
            problems.append(f"visibility {vis!r} outside [0, 1]")
        if request.kind == "ideal":  # acceptance criterion 8
            best = min(points, key=lambda p: p.normalized)
            if best.label != "on-2":
                problems.append(f"ideal-preset minimum at {best.label}, not on-2")
            if config.temperature_c == OPERATING_TEMPERATURE_C and best.normalized > 0.02:
                problems.append(f"ideal-preset minimum {best.normalized:.3g} > 0.02")
        return problems


# ---------------------------------------------------------------------------
# dip: dip_scenarios on the +-6 nm grid plus the +-300 nm unfiltered grid


@dataclass(frozen=True)
class DipRequest:
    taus: str  # key of TAU_GRIDS_PS
    temperature_c: float
    pc0_efficiency: float
    rect_width_nm: float
    lorentz_width_nm: float

    def describe(self):
        return repr(self)


class DipWorkload:
    name = "dip"
    in_process = True

    def __init__(self, seed):
        self.rng = random.Random(seed)
        import numpy as np
        import homchip.cli  # noqa: F401  (the tracer wraps cli and svgplot too)
        from homchip import dispersion, elements, quantum
        from homchip.chip import ChipLayout
        from homchip.grid import SpectralGrid
        self.np, self.quantum, self.dispersion = np, quantum, dispersion
        self.pm = elements.PmSpec()
        self.layout = ChipLayout()
        self.grid = SpectralGrid(CENTER_NM, GRID_HALF_WIDTH_NM, GRID_SAMPLES)
        self.wide = SpectralGrid(CENTER_NM, UNFILTERED_HALF_WIDTH_NM, GRID_SAMPLES)
        self.taus = {name: np.arange(a, b + 1e-9, step)
                     for name, (a, b, step) in TAU_GRIDS_PS.items()}

    def block(self):
        """Four calls: two on the CLI's tau grid (one at exactly 43.6 C, where
        the triangle oracle applies), one on the short and one on the long grid."""
        rng = self.rng
        requests = []
        for taus, temperature in (("cli", OPERATING_TEMPERATURE_C), ("cli", None),
                                  ("short", None), ("long", None)):
            requests.append(DipRequest(
                taus=taus,
                temperature_c=temperature or _temperature(rng),
                pc0_efficiency=rng.uniform(*DRIVE_EFFICIENCY),
                rect_width_nm=rng.uniform(*RECT_WIDTH_NM),
                lorentz_width_nm=rng.uniform(*LORENTZ_WIDTH_NM),
            ))
        rng.shuffle(requests)
        return requests

    def execute(self, request):
        return self.quantum.dip_scenarios(
            self.pm, self.grid, self.taus[request.taus], layout=self.layout,
            model=self.dispersion.default_model(), temperature_c=request.temperature_c,
            pc0_efficiency=request.pc0_efficiency, rect_width_nm=request.rect_width_nm,
            lorentz_width_nm=request.lorentz_width_nm, unfiltered_grid=self.wide)

    def outcome(self, request, curves):
        taus = self.taus[request.taus]
        lines = [f"{fmt9(t)},{fmt9(v)},{name}"
                 for name, p in curves.items() for t, v in zip(taus, p)]
        return Outcome(sha256_lines(lines), self._check(request, taus, curves))

    def _check(self, request, taus, curves):
        np = self.np
        problems = []
        for name, p in curves.items():
            if p.shape != taus.shape or not np.all(np.isfinite(p)):
                problems.append(f"{name}: wrong shape or non-finite values")
            elif np.min(p) < -1e-12 or np.max(p) > 1.0 + 1e-12:
                problems.append(f"{name}: probability outside [0, 1]")
        if problems:
            return problems
        if request.temperature_c == OPERATING_TEMPERATURE_C:  # acceptance criterion 3
            oracle = 0.5 * np.minimum(1.0, np.abs(taus) / TAU_W_PS)
            dev = float(np.max(np.abs(curves["unfiltered"] - oracle)))
            if dev > 1e-3:
                problems.append(f"unfiltered dip deviates {dev:.2e} from the triangle")
            if curves["unfiltered"][len(taus) // 2] > 1e-6:
                problems.append("unfiltered dip does not reach zero at tau = 0")
        # acceptance criterion 5; every drawn width and tau grid reaches the overshoot
        if np.max(curves["rectangular"]) <= 0.5:
            problems.append("rectangular-filter dip shows no overshoot above 1/2")
        return problems


# ---------------------------------------------------------------------------
# cli: python -m homchip <command>, one child at a time

EXPECTED_FILES = {  # command: (always, with csv+svg)
    "delay-schedule": (["delays.csv"], ["delays.svg"]),
    "hom-scan": (["scan.csv"], ["scan_vs_triple.svg", "scan_vs_delay.svg"]),
    "dip": (["dip.csv"], ["dip.svg"]),
    "phasematch": (["phasematch_spectra.csv", "phasematch_tuning.csv"],
                   ["phasematch_spectra.svg", "phasematch_tuning.svg"]),
    "rates": (["rates.txt", "rates.csv"], []),
}
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class CliRequest:
    argv: tuple  # homchip arguments without --out and --layout
    layout_text: str | None = None

    @property
    def command(self):
        return self.argv[0]

    def describe(self):
        return " ".join(self.argv) + (f" --layout {self.layout_text!r}" if self.layout_text else "")


class CliWorkload:
    name = "cli"
    in_process = False

    def __init__(self, seed, env, scratch_dir):
        self.rng = random.Random(seed)
        self.env = env
        self.scratch = Path(scratch_dir)
        self.child = Path(__file__).with_name("child.py")
        self.count = 0

    def block(self):
        """Eleven runs covering all five commands.  Seven are startup-bound
        (delay-schedule, phasematch, rates), so the median run is one of
        them; dip and three hom-scan runs (both presets with a drawn filter,
        a characterized layout with drawn imperfections, 8192 samples)
        complete the block."""
        rng = self.rng

        def flt():
            shape, width = _filter(rng)
            return f"{shape}:{width!r}"

        requests = [
            CliRequest(("delay-schedule", "--format", "csv+svg")),
            CliRequest(("delay-schedule", "--format", "csv"),
                       _layout_text(_temperature(rng), _filter(rng), characterized=True)),
            CliRequest(("delay-schedule", "--format", "csv+svg"),
                       _layout_text(_temperature(rng), _filter(rng))),
            CliRequest(("phasematch", "--format", "csv+svg")),
            CliRequest(("phasematch", "--format", "csv"),
                       _layout_text(_temperature(rng), _filter(rng))),
            CliRequest(("rates", "--format", "csv")),
            CliRequest(("rates", "--format", "csv+svg")),
            CliRequest(("dip", "--format", "csv+svg"),
                       _layout_text(_temperature(rng), _filter(rng))),
            CliRequest(("hom-scan", "--preset", "ideal", "--filter", flt(),
                        "--format", "csv+svg")),
            CliRequest(("hom-scan", "--format", "csv"),
                       _layout_text(_temperature(rng), _filter(rng), characterized=True,
                                    imperfections=_drawn_imperfections(rng))),
            CliRequest(("hom-scan", "--preset", "paper", "--filter", flt(),
                        "--grid-samples", "8192", "--format", "csv")),
        ]
        rng.shuffle(requests)
        return requests

    def prepare(self, request, traced):
        """Fresh directory and the child's command line; the caller times run().
        A traced child writes its spans to spans.json in the directory."""
        self.count += 1
        workdir = self.scratch / f"op{self.count:05d}"
        out = workdir / "out"
        out.mkdir(parents=True)
        argv = list(request.argv) + ["--out", str(out)]
        if request.layout_text is not None:
            layout = workdir / "chip.layout"
            layout.write_text(request.layout_text, encoding="utf-8")
            argv += ["--layout", str(layout)]
        if traced:
            program = [sys.executable, str(self.child), str(workdir / "spans.json")]
        else:
            program = [sys.executable, "-m", "homchip"]
        return workdir, program + argv

    def run(self, argv, workdir):
        with open(workdir / "stderr.txt", "wb") as err:
            try:
                return subprocess.run(argv, env=self.env, cwd=workdir, stdin=subprocess.DEVNULL,
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=CHILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                return None

    def outcome(self, request, returncode, workdir):
        problems = []
        if returncode != 0:
            tail = (workdir / "stderr.txt").read_text(errors="replace").strip()[-300:]
            status = "timed out" if returncode is None else f"exit code {returncode}"
            problems.append(f"{status}: {tail}")
        out = workdir / "out"
        always, with_svg = EXPECTED_FILES[request.command]
        fmt = request.argv[request.argv.index("--format") + 1]
        expected = always + (with_svg if fmt == "csv+svg" else [])
        missing = [f for f in expected if not (out / f).is_file()]
        if missing:
            problems.append(f"missing {', '.join(missing)}")
        digest = hashlib.sha256()
        for name in sorted(f for f in always if f.endswith(".csv") and f not in missing):
            data = (out / name).read_bytes()
            digest.update(name.encode() + b"\0" + data)
            problems += [f"{name}: {p}" for p in csv_problems(data.decode())]
        return Outcome(digest.hexdigest(), problems, request.command)


def csv_problems(text):
    """A CSV parses when it has a header and at least one row, every row has
    the header's width, and every column whose first value is a number
    holds finite numbers only."""
    rows = list(csv.reader(text.splitlines()))
    if len(rows) < 2:
        return ["no data rows"]
    header, data = rows[0], rows[1:]
    if any(len(r) != len(header) for r in data):
        return ["ragged rows"]

    def number(text):
        try:
            return float(text)
        except ValueError:
            return None

    problems = []
    for col, name in enumerate(header):
        if number(data[0][col]) is None:
            continue
        values = [number(r[col]) for r in data]
        if any(v is None or not math.isfinite(v) for v in values):
            problems.append(f"column {name} holds a non-number")
    return problems
