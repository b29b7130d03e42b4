"""Command-line front end: run the named experiments, write CSV and SVG.

Commands: delay-schedule, hom-scan, dip, phasematch, rates.  Outputs are
deterministic (identical configuration gives byte-identical files).

Every command but rates reads one ChipConfig from resolve(): its flags
(a --preset counts as flags) override the layout-file keys, which override
the built-in as-built defaults.  What each command reads of it:

- hom-scan: all of it.
- dip: the geometry, temperature_c and the pump.  Its four scenarios fix
  their own filters and drive, so it ignores the filter keys, the
  imperfection keys, pc0_efficiency and disabled_segments.
- delay-schedule: the geometry and disabled_segments.
- phasematch: the source and first-converter lengths, temperature_c and
  the pump.

rates reads no configuration.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import chip as chip_mod
from . import quantum as q
from . import rates as rates_mod
from .dispersion import WavelengthRangeError, calibration_residual, check_range, default_model
from .elements import PcSpec, pc_transmission_spectrum, pm_center_vs_temperature, shg_spectrum
from .svgplot import Series, write_plot

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


def resolve(args: argparse.Namespace) -> chip_mod.ChipConfig:
    """The configuration a command reads: the flags it was given over its
    layout file (or the as-built defaults) parsed by parse_layout."""
    text = Path(args.layout).read_text(encoding="utf-8") if args.layout else ""
    config = chip_mod.parse_layout(text)
    given = vars(args)
    flags = dict(PRESETS.get(given.get("preset"), {}))
    for name in ("grid_samples", "grid_halfwidth_nm"):
        if given.get(name) is not None:
            flags[name] = given[name]
    if given.get("filter") is not None:
        flags["filter"] = chip_mod.parse_filter(given["filter"], config.center_wavelength_nm)
    if "pc0_efficiency" in flags:
        flags["setting"] = replace(config.setting, pc0_efficiency=flags.pop("pc0_efficiency"))
    return replace(config, **flags)


# ---------------------------------------------------------------------------
# commands


def cmd_delay_schedule(args: argparse.Namespace) -> int:
    config = resolve(args)
    model = default_model()
    out = Path(args.out)
    settings = chip_mod.enumerate_settings(config.layout, config.setting)
    rows = []
    for s in settings:
        delay = chip_mod.delay_schedule(config.layout, s, model)
        rows.append((s.label, s.pc0_on, s.triple_index, delay, abs(delay) < 0.01))
    write_csv(
        out / "delays.csv",
        ["setting_id", "pc0_on", "triple", "delay_ps", "synchronized"],
        rows,
    )
    if args.format == "csv+svg":
        off = [(r[2], r[3]) for r in rows if not r[1]]
        on = [(r[2], r[3]) for r in rows if r[1]]
        write_plot(
            out / "delays.svg",
            [
                Series("first converter off", [p[0] for p in off], [p[1] for p in off], markers=True),
                Series("first converter on", [p[0] for p in on], [p[1] for p in on], markers=True),
            ],
            title="Arrival-time difference at the balanced splitter",
            xlabel="driven triple index",
            ylabel="delay (ps)",
            hline=0.0,
        )
    sync = [r for r in rows if r[4]]
    print(f"{len(rows)} settings; synchronized at: "
          + (", ".join(r[0] for r in sync) if sync else "none"))
    return 0


def cmd_hom_scan(args: argparse.Namespace) -> int:
    config = resolve(args)
    model = default_model()
    out = Path(args.out)
    settings = chip_mod.enumerate_settings(config.layout, config.setting)
    points = q.normalize_scan(
        q.hom_scan(
            config.layout,
            settings,
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
    vis = q.visibility(points)
    if args.pc0 != "both":
        keep = args.pc0 == "on"
        points = [p for p in points if p.setting.pc0_on == keep]

    rows = [
        (p.label, p.setting.pc0_on, p.setting.triple_index, p.delay_ps, p.raw, p.normalized)
        for p in points
    ]
    write_csv(
        out / "scan.csv",
        ["setting_id", "pc0_on", "triple", "delay_ps", "raw", "normalized"],
        rows,
    )
    if args.format == "csv+svg":
        for fname, xkey, xlabel in (
            ("scan_vs_triple.svg", lambda p: p.setting.triple_index, "driven triple index"),
            ("scan_vs_delay.svg", lambda p: p.delay_ps, "delay (ps)"),
        ):
            series = []
            for state, label in ((False, "first converter off"), (True, "first converter on")):
                sel = [p for p in points if p.setting.pc0_on == state]
                if sel:
                    series.append(
                        Series(label, [xkey(p) for p in sel], [p.normalized for p in sel], markers=True)
                    )
            write_plot(
                out / fname,
                series,
                title="Normalized coincidences",
                xlabel=xlabel,
                ylabel="normalized coincidence",
                hline=1.0,
            )
    print(f"{len(rows)} settings; visibility = {vis:.4f}")
    return 0


def cmd_dip(args: argparse.Namespace) -> int:
    config = resolve(args)
    model = default_model()
    out = Path(args.out)
    taus = np.arange(-200, 201) * 0.05  # integer steps, so the centre row is exactly 0
    grid = config.grid
    curves = q.dip_scenarios(
        config.pm,
        grid,
        taus,
        layout=config.layout,
        model=model,
        temperature_c=config.temperature_c,
        # the unfiltered dip needs the wide window whatever --grid-halfwidth-nm says
        unfiltered_grid=replace(grid, half_width_nm=300.0),
    )
    rows = []
    for name, p in curves.items():
        rows.extend((t, v, name) for t, v in zip(taus, p))
    write_csv(out / "dip.csv", ["tau_ps", "probability", "scenario"], rows)
    if args.format == "csv+svg":
        write_plot(
            out / "dip.svg",
            [Series(name, list(taus), list(p)) for name, p in curves.items()],
            title="Coincidence dip profiles",
            xlabel="relative delay (ps)",
            ylabel="coincidence probability",
            hline=0.5,
        )
    mins = {name: float(np.min(p)) for name, p in curves.items()}
    print("; ".join(f"{name}: min {v:.4g}" for name, v in mins.items()))
    return 0


def cmd_phasematch(args: argparse.Namespace) -> int:
    config = resolve(args)
    model = default_model()
    out = Path(args.out)
    pm = config.pm
    t_op = config.temperature_c

    lam = np.linspace(
        config.center_wavelength_nm - 6.0, config.center_wavelength_nm + 6.0, 2401
    )
    check_range(model, lam)
    shg = shg_spectrum(pm, lam, temperature_c=t_op, model=model)
    pc = PcSpec(length_mm=config.layout.pc0_length_mm, temperature_c=t_op)
    transmission = pc_transmission_spectrum(pc, lam, model, pm)

    temps = np.arange(t_op - 10.0, t_op + 10.0 + 1e-9, 0.5)
    pdc_line = [pm_center_vs_temperature(pm, "PDC", t) for t in temps]
    pc_line = [pm_center_vs_temperature(pm, "PC", t) for t in temps]

    def fwhm(x, y, name):
        i = int(np.argmax(y))
        half = y[i] / 2.0
        above = np.where(y >= half)[0]
        if above[0] == 0 or above[-1] == len(y) - 1:
            raise ValueError(
                f"{name} half maximum reaches the edge of the "
                f"{x[0]:.9g}-{x[-1]:.9g} nm window; its FWHM would be clipped"
            )
        return x[above[-1]] - x[above[0]]

    w_pdc = fwhm(lam, shg, "source spectrum")
    w_pc = fwhm(lam, 1.0 - transmission, "converter spectrum")

    # every number is checked; only now are the files written
    write_csv(
        out / "phasematch_spectra.csv",
        ["wavelength_nm", "shg_normalized", "pc_transmission"],
        list(zip(lam, shg, transmission)),
    )
    write_csv(
        out / "phasematch_tuning.csv",
        ["temperature_c", "pdc_center_nm", "pc_center_nm"],
        list(zip(temps, pdc_line, pc_line)),
    )

    if args.format == "csv+svg":
        write_plot(
            out / "phasematch_spectra.svg",
            [
                Series("frequency doubling (pair source)", list(lam), list(shg)),
                Series("converter transmission", list(lam), list(transmission)),
            ],
            title="Phase-matching spectra",
            xlabel="wavelength (nm)",
            ylabel="normalized response",
        )
        write_plot(
            out / "phasematch_tuning.svg",
            [
                Series("pair source center", list(temps), pdc_line),
                Series("converter center", list(temps), pc_line),
            ],
            title="Temperature tuning of the phase-matched centers",
            xlabel="temperature (C)",
            ylabel="center wavelength (nm)",
        )
    # the tuning lines are exactly linear and cross at pm's reference point
    print(
        f"tuning crossing at ({pm.reference_temperature_c:.9g} C, {pm.center_nm:.9g} nm); "
        f"slopes {pm.pdc_slope_nm_per_c:.9g} and {pm.pc_slope_nm_per_c:.9g} nm/C; "
        f"source FWHM {w_pdc:.3f} nm, converter FWHM {w_pc:.3f} nm "
        f"(ratio {w_pdc / w_pc:.3f}); "
        f"uncalibrated group-index residual {calibration_residual(model):+.2e}"
    )
    return 0


def cmd_rates(args: argparse.Namespace) -> int:
    out = Path(args.out)
    budget = rates_mod.default_loss_budget()
    source = rates_mod.SourceSpec()
    report = rates_mod.expected_rates(source, (0.05, 0.05))
    klyshko = rates_mod.klyshko_efficiency(2000.0, 100.0)
    note = rates_mod.reconciliation_note(budget)

    lines = ["loss budget", "-" * 42]
    for label, db in budget.items:
        lines.append(f"  {label:<28s} {db:6.2f} dB")
    lines.append(f"  {'itemized total':<28s} {budget.total_db:6.2f} dB")
    lines.append(f"  {'itemized transmission':<28s} {budget.transmission:8.4f}")
    lines.append("")
    lines.append("expected rates")
    lines.append("-" * 42)
    lines.append(f"  {'pair rate':<28s} {report.pair_rate_hz:10.1f} Hz")
    lines.append(f"  {'singles per arm':<28s} {report.singles_hz[0]:10.1f} Hz")
    lines.append(f"  {'coincidences':<28s} {report.coincidences_hz:10.1f} Hz")
    lines.append(f"  {'heralding (2 kHz, 100 Hz)':<28s} {klyshko:10.2%}")
    lines.append("")
    lines.append("note: " + note)
    text = "\n".join(lines) + "\n"
    (out / "rates.txt").write_text(text, encoding="utf-8", newline="\n")

    rows = [(label, db, "dB") for label, db in budget.items]
    rows += [
        ("itemized_total", budget.total_db, "dB"),
        ("itemized_transmission", budget.transmission, ""),
        ("pair_rate", report.pair_rate_hz, "Hz"),
        ("singles_per_arm", report.singles_hz[0], "Hz"),
        ("coincidences", report.coincidences_hz, "Hz"),
        ("klyshko_efficiency", klyshko, ""),
    ]
    write_csv(out / "rates.csv", ["quantity", "value", "unit"], rows)
    print(text, end="")
    return 0


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](args)
    except (chip_mod.LayoutError, WavelengthRangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
