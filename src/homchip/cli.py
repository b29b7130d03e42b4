"""Command-line front end: run the named experiments, write CSV and SVG.

Commands: delay-schedule, hom-scan, dip, phasematch, rates.  Outputs are
deterministic (identical configuration gives byte-identical files).

main() parses the flags, makes the output directory and, for every
command but rates, resolves one ChipConfig (resolve()) and loads the
dispersion model.  Its flags (a --preset counts as flags) override the
layout-file keys, which override the built-in as-built defaults.  The
README's Command line section lists the keys each command reads; rates
reads no configuration.

Importing this module executes no other package module and no numpy:
the package root binds them lazily.  A run executes only the modules
its command reads.  For hom-scan and dip, right after parsing, main()
executes quantum (which executes the other engine modules) and then
numpy.  delay-schedule and phasematch execute only chip, dispersion,
elements and grid, and compute on Python floats with numpy's bits
(phasematch's axis and sweep by _linspace and _arange), and rates
executes only rates, so all three run without numpy.  svgplot executes
only when write_record writes a plot.  Package names are read as module
attributes inside functions: a `from` import, a default or an
annotation evaluated at import would execute the module.

A configured command is called as cmd(config, model, args), args for
hom-scan's --pc0.  It computes and checks everything, then returns one
record and writes nothing itself.  The record is the tuple (files, plots, summary):

- files: (name, content) in write order; content is a (header, rows)
  pair for a CSV or a string for a text file (rates.txt);
- plots: (name, series, title, xlabel, ylabel, hline) per SVG, each
  series a (label, x, y, markers) tuple of svgplot.Series' fields;
- summary: the text printed on stdout.

This module reads no numpy.  Rows and series hold Python numbers:
dip's delay axis is a list of floats, and hom-scan and dip turn each
array the engine returns into a list once (tolist), so the writers
format no numpy scalars and dip's summary takes its minima from those
lists.  write_record() is the one writer: every file through
write_csv (or as text), the plots through svgplot.write_plot only under
--format csv+svg, then the summary.  So a command that fails leaves no
file.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import chip, dispersion, elements, grid, quantum, rates, svgplot


#: Imperfection presets: hom_scan keywords plus the first converter's drive efficiency.
PRESETS = {
    "ideal": dict(
        pbs_extinction_db=float("inf"), pc_conversion_db=None, pc0_efficiency=1.0, flat_converters=True
    ),
    "paper": dict(
        pbs_extinction_db=17.0, pc_conversion_db=20.0, pc0_efficiency=0.99, flat_converters=False
    ),
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.9g}"


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def resolve(args: argparse.Namespace) -> "chip.ChipConfig":
    """The configuration a command reads: the flags it was given over its
    layout file (or the as-built defaults) parsed by parse_layout."""
    text = Path(args.layout).read_text(encoding="utf-8") if args.layout else ""
    config = chip.parse_layout(text)
    given = vars(args)
    flags = dict(PRESETS.get(given.get("preset"), {}))
    for name in ("grid_samples", "grid_halfwidth_nm"):
        if given.get(name) is not None:
            flags[name] = given[name]
    if given.get("filter") is not None:
        flags["filter"] = chip.parse_filter(given["filter"], config.center_wavelength_nm)
    if "pc0_efficiency" in flags:
        flags["setting"] = replace(config.setting, pc0_efficiency=flags.pop("pc0_efficiency"))
    return replace(config, **flags)


# ---------------------------------------------------------------------------
# commands: each returns its record (module docstring)


def _branch_series(rows, x, y):
    """One marked series per first-converter state among rows (column 1)."""
    series = []
    for on, label in ((False, "first converter off"), (True, "first converter on")):
        chosen = [r for r in rows if r[1] == on]
        if chosen:
            series.append((label, [r[x] for r in chosen], [r[y] for r in chosen], True))
    return series


def cmd_delay_schedule(config, model, args):
    rows = []
    for s in chip.enumerate_settings(config.layout, config.setting):
        delay = chip.delay_schedule(config.layout, s, model)
        rows.append((s.label, s.pc0_on, s.triple_index, delay, abs(delay) < 0.01))
    title = "Arrival-time difference at the balanced splitter"
    return (
        [("delays.csv", (["setting_id", "pc0_on", "triple", "delay_ps", "synchronized"], rows))],
        [("delays.svg", _branch_series(rows, 2, 3), title, "driven triple index", "delay (ps)", 0.0)],
        f"{len(rows)} settings; synchronized at: " + (", ".join(r[0] for r in rows if r[4]) or "none"),
    )


def cmd_hom_scan(config, model, args):
    points = quantum.normalize_scan(
        quantum.hom_scan(
            config.layout,
            chip.enumerate_settings(config.layout, config.setting),
            config.pm,
            config.grid,
            filters=config.filter,
            model=model,
            temperature_c=config.temperature_c,
            pbs_extinction_db=config.pbs_extinction_db,
            pc_conversion_db=config.pc_conversion_db,
            flat_converters=config.flat_converters,
        )
    )
    rows = [
        (p.label, p.setting.pc0_on, p.setting.triple_index, p.delay_ps, p.raw, p.normalized)
        for p in points
        if args.pc0 == "both" or p.setting.pc0_on == (args.pc0 == "on")
    ]
    title, ylabel = "Normalized coincidences", "normalized coincidence"
    return (
        [("scan.csv", (["setting_id", "pc0_on", "triple", "delay_ps", "raw", "normalized"], rows))],
        [
            ("scan_vs_triple.svg", _branch_series(rows, 2, 5), title, "driven triple index", ylabel, 1.0),
            ("scan_vs_delay.svg", _branch_series(rows, 3, 5), title, "delay (ps)", ylabel, 1.0),
        ],
        f"{len(rows)} settings; visibility = {quantum.visibility(points):.4f}",
    )


def cmd_dip(config, model, args):
    taus = [i * 0.05 for i in range(-200, 201)]  # integer steps, so the centre row is exactly 0
    curves = quantum.dip_scenarios(
        config.pm,
        config.grid,
        taus,
        layout=config.layout,
        model=model,
        temperature_c=config.temperature_c,
    )
    ys = {name: p.tolist() for name, p in curves.items()}
    rows = [(t, v, name) for name, y in ys.items() for t, v in zip(taus, y)]
    series = [(name, taus, y, False) for name, y in ys.items()]
    return (
        [("dip.csv", (["tau_ps", "probability", "scenario"], rows))],
        [("dip.svg", series, "Coincidence dip profiles", "relative delay (ps)",
          "coincidence probability", 0.5)],
        "; ".join(f"{name}: min {min(y):.4g}" for name, y in ys.items()),
    )


def _linspace(start, stop, num):
    """np.linspace(start, stop, num).tolist() for floats, without numpy:
    sample i is i * step + start, and the last one is stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _arange(start, stop, step):
    """np.arange(start, stop, step).tolist() for floats, without numpy:
    ceil((stop - start) / step) samples, start, start + step, then sample
    i at start + i * ((start + step) - start)."""
    count = math.ceil((stop - start) / step)
    delta = (start + step) - start
    return [start, start + step][:count] + [start + i * delta for i in range(2, count)]


def _fwhm(x, y, name):
    """Width at half maximum of the lists x and y, each crossing
    interpolated linearly between the two samples that straddle it."""
    half = max(y) / 2.0
    above = [i for i, v in enumerate(y) if v >= half]
    if above[0] == 0 or above[-1] == len(y) - 1:
        raise ValueError(
            f"{name} half maximum reaches the edge of the "
            f"{x[0]:.9g}-{x[-1]:.9g} nm window; its FWHM would be clipped"
        )
    if len(above) < grid.MIN_FEATURE_SAMPLES:
        raise ValueError(
            f"{name} FWHM is not resolved: {len(above)} samples at or above half maximum "
            f"on the {x[1] - x[0]:.3g} nm step; need at least {grid.MIN_FEATURE_SAMPLES:g}"
        )

    def crossing(i, j):
        return x[i] + (half - y[i]) / (y[j] - y[i]) * (x[j] - x[i])

    return crossing(above[-1], above[-1] + 1) - crossing(above[0] - 1, above[0])


def cmd_phasematch(config, model, args):
    # Python floats throughout, with numpy's bits (_linspace, _arange and
    # the spectra's docstrings), so the command executes no numpy
    pm, t_op, center = config.pm, config.temperature_c, config.center_wavelength_nm
    lam = _linspace(center - 6.0, center + 6.0, 2401)
    dispersion.check_range(model, (lam[0], lam[-1]))
    shg = elements.shg_spectrum(pm, lam, temperature_c=t_op, model=model)
    pc = elements.PcSpec(length_mm=config.layout.pc0_length_mm, temperature_c=t_op)
    transmission = elements.pc_transmission_spectrum(pc, lam, model, pm)
    temps = _arange(t_op - 10.0, t_op + 10.0 + 1e-9, 0.5)
    pdc_line = [elements.pm_center_vs_temperature(pm, "PDC", t) for t in temps]
    pc_line = [elements.pm_center_vs_temperature(pm, "PC", t) for t in temps]
    w_pdc = _fwhm(lam, shg, "source spectrum")
    w_pc = _fwhm(lam, [1.0 - t for t in transmission], "converter spectrum")
    spectra = (["wavelength_nm", "shg_normalized", "pc_transmission"], list(zip(lam, shg, transmission)))
    tuning = (["temperature_c", "pdc_center_nm", "pc_center_nm"], list(zip(temps, pdc_line, pc_line)))
    spectra_series = [
        ("frequency doubling (pair source)", lam, shg, False),
        ("converter transmission", lam, transmission, False),
    ]
    tuning_series = [
        ("pair source center", temps, pdc_line, False),
        ("converter center", temps, pc_line, False),
    ]
    return (
        [("phasematch_spectra.csv", spectra), ("phasematch_tuning.csv", tuning)],
        [
            ("phasematch_spectra.svg", spectra_series, "Phase-matching spectra", "wavelength (nm)",
             "normalized response", None),
            ("phasematch_tuning.svg", tuning_series, "Temperature tuning of the phase-matched centers",
             "temperature (C)", "center wavelength (nm)", None),
        ],
        # the tuning lines are exactly linear and cross at pm's reference point
        f"tuning crossing at ({pm.reference_temperature_c:.9g} C, {pm.center_nm:.9g} nm); "
        f"slopes {pm.pdc_slope_nm_per_c:.9g} and {pm.pc_slope_nm_per_c:.9g} nm/C; "
        f"source FWHM {w_pdc:.3f} nm, converter FWHM {w_pc:.3f} nm "
        f"(ratio {w_pdc / w_pc:.3f}); "
        f"uncalibrated group-index residual {dispersion.calibration_residual(model):+.2e}",
    )


def cmd_rates():
    budget = rates.default_loss_budget()
    report = rates.expected_rates(rates.SourceSpec(), (0.05, 0.05))
    klyshko = rates.klyshko_efficiency(2000.0, 100.0)
    lines = ["loss budget", "-" * 42]
    lines += [f"  {label:<28s} {db:6.2f} dB" for label, db in budget.items]
    lines += [
        f"  {'itemized total':<28s} {budget.total_db:6.2f} dB",
        f"  {'itemized transmission':<28s} {budget.transmission:8.4f}",
        "",
        "expected rates",
        "-" * 42,
        f"  {'pair rate':<28s} {report.pair_rate_hz:10.1f} Hz",
        f"  {'singles per arm':<28s} {report.singles_hz[0]:10.1f} Hz",
        f"  {'coincidences':<28s} {report.coincidences_hz:10.1f} Hz",
        f"  {'heralding (2 kHz, 100 Hz)':<28s} {klyshko:10.2%}",
        "",
        "note: " + rates.reconciliation_note(budget),
    ]
    rows = [(label, db, "dB") for label, db in budget.items] + [
        ("itemized_total", budget.total_db, "dB"),
        ("itemized_transmission", budget.transmission, ""),
        ("pair_rate", report.pair_rate_hz, "Hz"),
        ("singles_per_arm", report.singles_hz[0], "Hz"),
        ("coincidences", report.coincidences_hz, "Hz"),
        ("klyshko_efficiency", klyshko, ""),
    ]
    text = "\n".join(lines)
    return [("rates.txt", text + "\n"), ("rates.csv", (["quantity", "value", "unit"], rows))], [], text


COMMANDS = {
    "delay-schedule": cmd_delay_schedule,
    "hom-scan": cmd_hom_scan,
    "dip": cmd_dip,
    "phasematch": cmd_phasematch,
    "rates": cmd_rates,
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, each with only the flags it reads, so
    a flag a command would ignore is a usage error (exit 2)."""
    parser = argparse.ArgumentParser(
        prog="homchip",
        description="Simulator for the electro-optic two-photon interference chip",
    )
    output = argparse.ArgumentParser(add_help=False)  # every command; rates writes CSV anyway
    output.add_argument("--out", metavar="DIR", default=".", help="output directory")
    output.add_argument("--format", choices=["csv", "csv+svg"], default="csv+svg")
    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument("--layout", metavar="PATH", help="layout file (defaults to the as-built geometry)")
    grid = argparse.ArgumentParser(add_help=False)  # defaults: ChipConfig's
    grid.add_argument("--grid-samples", type=int, metavar="N")
    grid.add_argument("--grid-halfwidth-nm", type=float, metavar="X")
    scan = argparse.ArgumentParser(add_help=False)
    scan.add_argument("--filter", metavar="SHAPE:WIDTH", help="detection filter, e.g. lorentz:1.2 or none")
    scan.add_argument("--preset", choices=sorted(PRESETS))
    scan.add_argument("--pc0", choices=["on", "off", "both"], default="both")
    parents = {
        "delay-schedule": [output, layout],
        "hom-scan": [output, layout, grid, scan],
        "dip": [output, layout, grid],
        "phasematch": [output, layout],
        "rates": [output],
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=parents[name])
    return parser


def write_record(record, out: Path, svg: bool) -> None:
    """Write a command's record (module docstring) into out; plots only if svg."""
    files, plots, summary = record
    for name, content in files:
        if isinstance(content, str):
            (out / name).write_text(content, encoding="utf-8", newline="\n")
        else:
            write_csv(out / name, *content)
    if svg:
        for name, series, title, xlabel, ylabel, hline in plots:
            series = [svgplot.Series(*s) for s in series]
            svgplot.write_plot(
                out / name, series, title=title, xlabel=xlabel, ylabel=ylabel, hline=hline
            )
    print(summary)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("hom-scan", "dip"):
        # execute quantum, the engine module both commands read (it imports
        # the other engine modules in turn), then numpy (a plain import
        # executes the lazy module, or names a missing numpy), before any
        # array exists: executed between a command's allocations, or numpy
        # before the engine, they raised the process's peak resident set
        quantum.__name__
        import numpy  # noqa: F401
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "rates":
            record = cmd_rates()
        else:
            record = COMMANDS[args.command](resolve(args), dispersion.default_model(), args)
        write_record(record, out, args.format == "csv+svg")
        return 0
    except (ValueError, OSError) as exc:  # LayoutError and WavelengthRangeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
