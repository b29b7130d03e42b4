import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np

from homchip import cli, svgplot
from homchip.chip import ChipLayout, LayoutError, parse_filter, parse_layout
from homchip.cli import PRESETS, build_parser, main, resolve
from homchip.dispersion import default_model
from homchip.elements import FilterSpec, PcSpec, PmSpec, pc_transmission_spectrum, shg_spectrum
from homchip.grid import SpectralGrid

import references

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"
README = Path(__file__).resolve().parent.parent / "README.md"
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def read_lines(path):
    return path.read_text().splitlines()


def test_delay_schedule_default_layout(tmp_path, capsys):
    assert main(["delay-schedule", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "delays.csv")
    assert lines[0] == "setting_id,pc0_on,triple,delay_ps,synchronized"
    assert len(lines) == 17  # header + 16 settings
    flagged = [l for l in lines[1:] if l.endswith(",1")]
    assert flagged == [l for l in lines if l.startswith("on-2,")]
    assert "synchronized at: on-2" in capsys.readouterr().out
    assert (tmp_path / "delays.svg").exists()


def test_delay_schedule_broken_segment(tmp_path):
    layout = tmp_path / "device.layout"
    layout.write_text("disabled_segments = 10\n")
    assert main(["delay-schedule", "--layout", str(layout), "--out", str(tmp_path)]) == 0
    assert len(read_lines(tmp_path / "delays.csv")) == 15  # header + 14


def test_hom_scan_ideal_preset(tmp_path, capsys):
    assert (
        main(
            [
                "hom-scan",
                "--out",
                str(tmp_path),
                "--preset",
                "ideal",
                "--filter",
                "lorentz:1.2",
                "--grid-samples",
                "1024",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "visibility = 1.0000" in out
    lines = read_lines(tmp_path / "scan.csv")
    assert lines[0] == "setting_id,pc0_on,triple,delay_ps,raw,normalized"
    assert len(lines) == 17
    row = dict(zip(lines[0].split(","), [l for l in lines[1:] if l.startswith("on-2,")][0].split(",")))
    assert float(row["normalized"]) <= 0.02
    assert (tmp_path / "scan_vs_triple.svg").exists()
    assert (tmp_path / "scan_vs_delay.svg").exists()


def test_hom_scan_pc0_filter_keeps_reference(tmp_path, capsys):
    assert (
        main(
            [
                "hom-scan",
                "--out",
                str(tmp_path),
                "--preset",
                "ideal",
                "--filter",
                "lorentz:1.2",
                "--grid-samples",
                "1024",
                "--pc0",
                "on",
            ]
        )
        == 0
    )
    lines = read_lines(tmp_path / "scan.csv")
    assert len(lines) == 9  # header + 8 on-branch rows, normalized against off
    assert all(l.split(",")[1] == "1" for l in lines[1:])


def test_dip_outputs_four_scenarios(tmp_path, capsys):
    assert main(["dip", "--out", str(tmp_path), "--grid-samples", "2048"]) == 0
    lines = read_lines(tmp_path / "dip.csv")
    assert lines[0] == "tau_ps,probability,scenario"
    scenarios = {l.split(",")[2] for l in lines[1:]}
    assert scenarios == {
        "unfiltered",
        "rectangular",
        "segmented_lorentz_pc0_off",
        "two_converters_lorentz_pc0_on",
    }
    assert len(lines) == 1 + 4 * 401
    assert (tmp_path / "dip.svg").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid-samples", "8192"],
        ["--layout", str(LAYOUTS / "characterized_device.layout"), "--grid-samples", "2048"],
    ],
)
def test_dip_probabilities_are_never_negative(tmp_path, capsys, argv):
    # both runs leave a rounding residue below zero at tau = 0 unless it is clipped
    assert main(["dip", "--out", str(tmp_path), "--format", "csv"] + argv) == 0
    rows = [line.split(",") for line in read_lines(tmp_path / "dip.csv")[1:]]
    probabilities = [float(p) for _, p, _ in rows]
    assert min(probabilities) >= 0.0
    assert max(probabilities) <= 1.0


def test_phasematch_summary(tmp_path, capsys):
    assert main(["phasematch", "--out", str(tmp_path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "crossing at (43.6 C, 1551.7 nm)" in out
    assert (tmp_path / "phasematch_spectra.csv").exists()
    assert (tmp_path / "phasematch_tuning.csv").exists()
    assert not (tmp_path / "phasematch_spectra.svg").exists()


def test_rates_outputs(tmp_path, capsys):
    assert main(["rates", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "2.0 dB gap" in out
    text = (tmp_path / "rates.txt").read_text()
    assert "90.0 Hz" in text
    assert "5.00%" in text
    assert (tmp_path / "rates.csv").exists()


def test_layout_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.layout"
    bad.write_text("segment_count = 2\n")
    assert main(["delay-schedule", "--layout", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "segment_count" in err


def test_layout_disabling_every_segment_is_a_layout_error(tmp_path, capsys):
    # without the check the parser picked triples[0] of an empty list: an IndexError
    bad = tmp_path / "bad.layout"
    bad.write_text("disabled_segments = " + ", ".join(map(str, range(1, 11))) + "\n")
    assert main(["delay-schedule", "--layout", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: disabled_segments: no valid triple remains with these disabled segments\n"


@pytest.mark.parametrize("command", ["delay-schedule", "dip", "hom-scan"])
def test_negative_branch_mismatch_is_a_layout_error(command, tmp_path, capsys):
    # the key is the upper branch's extra length; a negative value once
    # shifted the delay schedule, and failed hom-scan naming neither key nor line
    bad = tmp_path / "bad.layout"
    bad.write_text("branch_mismatch_mm = -0.02\n")
    out = tmp_path / "out"
    assert main([command, "--layout", str(bad), "--out", str(out)]) == 1
    assert "error: branch_mismatch_mm: must be >= 0" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_unknown_filter_argument(tmp_path, capsys):
    code = main(
        ["hom-scan", "--out", str(tmp_path), "--filter", "gauss:1.0", "--grid-samples", "1024"]
    )
    assert code == 1
    assert "filter" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["abc", ""])
def test_unreadable_filter_width_names_the_width(tmp_path, capsys, width):
    # float() once failed with its own message, naming neither flag nor width
    out = tmp_path / "out"
    spelling = f"lorentz:{width}"
    assert main(["hom-scan", "--filter", spelling, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: filter {spelling!r}: width {width!r} is not a number\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize("series", [[], [("empty", [], [], False)]])
def test_line_plot_refuses_nothing_to_plot(series):
    # without the check min() of no samples raised its own ValueError
    with pytest.raises(ValueError, match="^nothing to plot$"):
        svgplot.line_plot(series)


def test_parse_filter_arg():
    # the --filter spellings, read by the parser the layout keys share
    f = parse_filter("rect:2.3", 1551.7)
    assert f.shape == "rectangular" and f.width_nm == 2.3
    f = parse_filter("lorentz:1.2", 1551.7)
    assert f.shape == "lorentzian"
    assert parse_filter("none", 1551.7) is None
    with pytest.raises(ValueError):
        parse_filter("rect", 1551.7)
    with pytest.raises(ValueError, match="unknown filter shape 'none'"):
        parse_filter("none:1", 1551.7)


def test_parse_filter_layout_keys():
    # a layout gives the bare shape and filter_width_nm; 'none' ignores the width
    f = parse_filter("RECT", 1551.7, 2.3)
    assert f == parse_filter("rect:2.3", 1551.7)
    assert parse_filter("none", 1551.7, 1.2) is None
    assert parse_layout("filter_shape = NONE\nfilter_width_nm = 1.2\n").filter is None
    with pytest.raises(LayoutError) as err:
        parse_filter("lorentz", 1551.7)
    assert err.value.key == "filter_width_nm"


# ---------------------------------------------------------------- precedence
# flags (a preset counts as flags) over the layout file over the defaults

CONFIGURED = ("delay-schedule", "hom-scan", "dip", "phasematch")


def resolve_argv(tmp_path, argv, layout_text=None):
    if layout_text is not None:
        layout = tmp_path / "chip.layout"
        layout.write_text(layout_text)
        argv = argv + ["--layout", str(layout)]
    return resolve(build_parser().parse_args(argv))


@pytest.mark.parametrize("command", CONFIGURED)
def test_resolve_bare_command_is_the_as_built_default(command):
    assert resolve(build_parser().parse_args([command])) == parse_layout("")


#: Every layout key that some command reads, away from its default.
LAYOUT_TEXT = """
pdc_length_mm = 21
pc0_length_mm = 7
segment_length_mm = 2.5
disabled_segments = 10
temperature_c = 44
pump_wavelength_nm = 776
pbs_extinction_db = 17
pc_conversion_db = 20
pc0_efficiency = 0.9
filter_shape = rect
filter_width_nm = 2
"""


@pytest.mark.parametrize("command", CONFIGURED)
def test_resolve_layout_over_default(tmp_path, command):
    config = resolve_argv(tmp_path, [command], LAYOUT_TEXT)
    assert config == parse_layout(LAYOUT_TEXT)
    assert config.layout == ChipLayout(pdc_length_mm=21, pc0_length_mm=7, segment_length_mm=2.5)
    assert config.setting.disabled_segments == {10}
    assert config.setting.pc0_efficiency == 0.9
    assert (config.temperature_c, config.center_wavelength_nm) == (44, 1552)
    assert (config.pbs_extinction_db, config.pc_conversion_db) == (17, 20)
    assert config.filter == FilterSpec("rectangular", 1552, 2)
    assert config.pm == PmSpec(pdc_length_mm=21)


@pytest.mark.parametrize("spelling", ["lorentz:1.2", "none"])
def test_resolve_filter_flag_over_layout(tmp_path, spelling):
    config = resolve_argv(tmp_path, ["hom-scan", "--filter", spelling], LAYOUT_TEXT)
    assert config.filter == parse_filter(spelling, 1552)
    assert replace(config, filter=parse_layout(LAYOUT_TEXT).filter) == parse_layout(LAYOUT_TEXT)


@pytest.mark.parametrize("command", ["hom-scan", "dip"])
def test_resolve_grid_flags_over_default(tmp_path, command):
    argv = [command, "--grid-samples", "2048", "--grid-halfwidth-nm", "3.5"]
    config = resolve_argv(tmp_path, argv, LAYOUT_TEXT)
    assert config.grid == SpectralGrid(1552, 3.5, 2048)  # centred on the layout's pump
    assert parse_layout(LAYOUT_TEXT).grid == SpectralGrid(1552, 6.0, 4096)
    assert replace(config, grid_samples=4096, grid_halfwidth_nm=6.0) == parse_layout(LAYOUT_TEXT)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_resolve_preset_over_layout(tmp_path, preset):
    config = resolve_argv(tmp_path, ["hom-scan", "--preset", preset], LAYOUT_TEXT)
    values = PRESETS[preset]
    assert config.pbs_extinction_db == values["pbs_extinction_db"]
    assert config.pc_conversion_db == values["pc_conversion_db"]
    assert config.setting.pc0_efficiency == values["pc0_efficiency"]
    assert config.flat_converters is values["flat_converters"]
    # the layout's other keys stand
    layout = parse_layout(LAYOUT_TEXT)
    assert not layout.flat_converters
    assert config.setting == replace(layout.setting, pc0_efficiency=values["pc0_efficiency"])
    assert (config.layout, config.filter, config.temperature_c) == (
        layout.layout, layout.filter, layout.temperature_c
    )


def test_dip_ignores_the_filter_imperfection_and_drive_keys(tmp_path, capsys):
    # its scenarios fix their own filters and drive; disabled segments change no dip
    ignored = tmp_path / "ignored.layout"
    ignored.write_text(
        "filter_shape = rect\nfilter_width_nm = 5\npc0_efficiency = 0.5\n"
        "pbs_extinction_db = 3\npc_conversion_db = 4\ndisabled_segments = 10\n"
    )
    base = ["dip", "--grid-samples", "2048", "--format", "csv"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--layout", str(ignored), "--out", str(b)]) == 0
    assert (a / "dip.csv").read_bytes() == (b / "dip.csv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["delay-schedule"],
        ["rates"],
        ["phasematch", "--format", "csv"],
        ["hom-scan", "--preset", "ideal", "--filter", "lorentz:1.2", "--grid-samples", "1024", "--format", "csv"],
    ],
)
def test_byte_identical_reruns(tmp_path, argv, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "homchip", "rates", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "heralding" in result.stdout


def test_dip_halfwidth_flag_keeps_unfiltered_window(tmp_path, capsys):
    # --grid-halfwidth-nm narrows only the filtered grid; the unfiltered
    # curve is closed form on no grid, so it does not move (+-5 nm still
    # covers the phase-matching lobes the filtered grid must hold)
    base = ["dip", "--grid-samples", "2048", "--format", "csv"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--grid-halfwidth-nm", "5", "--out", str(b)]) == 0

    def rows(out, scenario):
        return [l for l in read_lines(out / "dip.csv") if l.endswith("," + scenario)]

    assert rows(a, "unfiltered") == rows(b, "unfiltered")
    assert rows(a, "rectangular") != rows(b, "rectangular")


def test_one_dip_run_builds_the_phase_tables_once(tmp_path, capsys):
    # one grid and one delay axis: the kernel's tables miss the memo once
    from homchip import quantum

    quantum._dip_phase_tables.cache_clear()
    assert main(["dip", "--format", "csv", "--out", str(tmp_path)]) == 0
    assert quantum._dip_phase_tables.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv, layout_text",
    [
        (["hom-scan", "--filter", "lorentz:nan"], None),
        (["hom-scan", "--filter", "rect:inf"], None),
        (["hom-scan", "--grid-halfwidth-nm", "nan"], None),
        (["hom-scan", "--grid-halfwidth-nm", "0"], None),
        (["hom-scan", "--grid-samples", "0"], None),
        (["dip", "--grid-halfwidth-nm", "0"], None),
        (["dip", "--grid-samples", "0"], None),
        (["hom-scan", "--grid-halfwidth-nm", "2000"], None),
        (["dip", "--grid-halfwidth-nm", "2000"], None),
        (["dip", "--grid-samples", "28"], None),
        (["dip", "--grid-halfwidth-nm", "1"], None),
        (["hom-scan", "--grid-halfwidth-nm", "1500", "--grid-samples", "65536"], None),
        (["dip", "--grid-halfwidth-nm", "1500", "--grid-samples", "65536"], None),
        (["hom-scan", "--grid-samples", "2"], None),
        (["hom-scan", "--grid-samples", "16"], None),
        (["hom-scan", "--grid-samples", "32"], None),
        (["hom-scan", "--filter", "lorentz:1.2", "--grid-samples", "34"], None),
        (["hom-scan"], "temperature_c = nan\n"),
        (["delay-schedule"], "pdc_length_mm = nan\n"),
        (["phasematch"], "pump_wavelength_nm = -775\n"),
        (["phasematch"], "pump_wavelength_nm = 200\n"),
        (["phasematch"], "temperature_c = 60\n"),
        (["phasematch"], "temperature_c = 54\n"),
        (["phasematch"], "temperature_c = 53\n"),
        (["phasematch"], "temperature_c = 36\n"),
    ],
    ids=[
        "filter-nan",
        "filter-inf",
        "halfwidth-nan",
        "halfwidth-0",
        "samples-0",
        "dip-halfwidth-0",
        "dip-samples-0",
        "halfwidth-reaches-zero-frequency",
        "dip-halfwidth-reaches-zero-frequency",
        "dip-delay-axis-aliased",
        "dip-filtered-grid-too-narrow",
        "halfwidth-beyond-dispersion-range",
        "dip-halfwidth-beyond-dispersion-range",
        "samples-2",
        "samples-16",
        "samples-32",
        "filter-undersampled",
        "layout-temperature-nan",
        "layout-pdc-length-nan",
        "layout-pump-negative",
        "phasematch-pump-outside-dispersion-range",
        "phasematch-spectra-and-sweep-beyond-trust-range",
        "phasematch-sweep-beyond-trust-range",
        "phasematch-converter-fwhm-clipped-short-side",
        "phasematch-converter-fwhm-clipped-long-side",
    ],
)
def test_bad_numbers_exit_1_without_output(tmp_path, capsys, argv, layout_text):
    out = tmp_path / "out"
    if layout_text is not None:
        layout = tmp_path / "chip.layout"
        layout.write_text(layout_text)
        argv = argv + ["--layout", str(layout)]
    assert main(argv + ["--out", str(out), "--format", "csv"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(out.iterdir())


def test_clipped_fwhm_names_its_spectrum(tmp_path, capsys):
    # the converter resonance moves by -0.7 nm/C, out of the fixed +-6 nm window
    layout = tmp_path / "chip.layout"
    layout.write_text("temperature_c = 53\n")
    argv = ["phasematch", "--layout", str(layout), "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "converter spectrum half maximum reaches the edge" in capsys.readouterr().err


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    temperature_c=st.one_of(st.just(43.6), st.floats(42.6, 44.6)),
    pump_nm=st.floats(775.0, 776.7),
    pdc_length_mm=st.floats(5.0, 1000.0),
    pc0_length_mm=st.floats(5.0, 1000.0),
)
@example(temperature_c=43.6, pump_nm=775.85, pdc_length_mm=20.7, pc0_length_mm=7.62)
def test_phasematch_float_spectra_keep_the_array_bits(
    temperature_c, pump_nm, pdc_length_mm, pc0_length_mm
):
    # phasematch's axis, sweep and spectra run on Python floats; each must
    # equal numpy's array form bit for bit, the converter's |amplitude|
    # through libm's hypot (math.hypot rounds otherwise on a few samples)
    model = default_model()
    pm = PmSpec(pdc_length_mm=pdc_length_mm)
    center = 2.0 * pump_nm
    lam = cli._linspace(center - 6.0, center + 6.0, 2401)
    assert bits(lam) == bits(np.linspace(center - 6.0, center + 6.0, 2401))
    sweep = (temperature_c - 10.0, temperature_c + 10.0 + 1e-9, 0.5)
    assert bits(cli._arange(*sweep)) == bits(np.arange(*sweep))
    shg = shg_spectrum(pm, lam, temperature_c=temperature_c, model=model)
    assert bits(shg) == bits(references.shg_spectrum(pm, lam, temperature_c, model))
    pc = PcSpec(length_mm=pc0_length_mm, temperature_c=temperature_c)
    transmission = pc_transmission_spectrum(pc, lam, model, pm)
    assert bits(transmission) == bits(references.pc_transmission_spectrum(pc, lam, model, pm))
    assert all(type(v) is float for v in lam + shg + transmission)


@pytest.mark.parametrize(
    "spectrum, lengths_mm",
    [("source", (20.7, 100.0, 300.0, 1000.0)), ("converter", (7.62, 100.0, 300.0, 1000.0))],
)
def test_phasematch_fwhm_scales_as_one_over_length(spectrum, lengths_mm):
    # both bands are functions of (detuning x length) alone, so their widths
    # go as 1 / L; the interpolated crossings keep that down to a few samples
    model = default_model()
    pm = PmSpec()
    lam = cli._linspace(pm.center_nm - 6.0, pm.center_nm + 6.0, 2401)  # phasematch's axis
    products = []
    for length in lengths_mm:
        if spectrum == "source":
            y = shg_spectrum(replace(pm, pdc_length_mm=length), lam, model=model)
        else:
            y = [1.0 - t for t in pc_transmission_spectrum(PcSpec(length_mm=length), lam, model, pm)]
        products.append(cli._fwhm(lam, y, spectrum) * length)
    assert max(products) / min(products) - 1.0 <= 0.01, products


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, layout_text, message",
    [
        (["phasematch"], "pc0_length_mm = 1e5\n",
         "converter spectrum FWHM is not resolved: 1 samples at or above half maximum "
         "on the 0.005 nm step; need at least 4"),
        (["phasematch"], "pdc_length_mm = 5000\n",
         "source spectrum FWHM is not resolved: 1 samples at or above half maximum "
         "on the 0.005 nm step; need at least 4"),
        (["hom-scan", "--filter", "lorentz:1.2"], "segment_length_mm = 2000\n",
         "grid puts 1.68 samples across the 6000 mm converter's phase-matching lobe "
         "at 4096 samples; need at least 4"),
        (["hom-scan", "--filter", "lorentz:1.2"], "pc0_length_mm = 10000\n",
         "grid puts 1.01 samples across the 10000 mm converter's phase-matching lobe "
         "at 4096 samples; need at least 4"),
    ],
    ids=["phasematch-converter", "phasematch-source", "hom-scan-triple", "hom-scan-first-converter"],
)
def test_unresolved_spectra_exit_1_without_output(tmp_path, capsys, argv, layout_text, message):
    # each band is narrower than the step it is sampled on, so its answer
    # would depend on the step
    layout = tmp_path / "chip.layout"
    layout.write_text(layout_text)
    out = tmp_path / "out"
    assert main(argv + ["--layout", str(layout), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(out.iterdir())


def test_density_floor_message_reads_below_floor(tmp_path, capsys):
    # 40 samples put 3.9999999999999996 samples across the filter
    argv = ["hom-scan", "--preset", "paper", "--filter", "lorentz:1.2", "--grid-samples", "40"]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "grid puts 3.99 samples across the 1.2 nm lorentzian filter" in err
    assert "need at least 4" in err


@pytest.mark.parametrize("samples", ["48", "64"])
def test_sparse_grid_above_density_floor_converges(tmp_path, capsys, samples):
    # the density floor sits below the smallest grid that gives the converged value
    assert main(["hom-scan", "--grid-samples", samples, "--out", str(tmp_path), "--format", "csv"]) == 0
    assert "visibility = 0.7906" in capsys.readouterr().out


def test_runtime_imports_no_scipy(tmp_path):
    # importing the CLI executes no engine module, so every command runs
    # first, with its output silenced, and only then are the modules listed
    code = (
        "import contextlib, io, sys, homchip.cli\n"
        "runs = [[c, '--out', sys.argv[1], '--format', 'csv'] for c in homchip.cli.COMMANDS]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [homchip.cli.main(argv) for argv in runs]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == f"{[0] * len(cli.COMMANDS)} []"


def test_rates_runs_without_numpy(tmp_path, capsys):
    # `python -m homchip rates` in a fresh interpreter where importing
    # numpy fails; its files carry the bytes of an in-process run
    code = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.argv = ['homchip', 'rates', '--out', sys.argv[1]]\n"
        "runpy.run_module('homchip', run_name='__main__')\n"
    )
    lean = tmp_path / "lean"
    result = subprocess.run(
        [sys.executable, "-c", code, str(lean)], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert main(["rates", "--out", str(tmp_path / "full")]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in lean.iterdir()) == ["rates.csv", "rates.txt"]
    for name in ("rates.csv", "rates.txt"):
        assert (lean / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


@pytest.mark.parametrize("layout", [None, "characterized_device.layout", "branch_mismatch"])
@pytest.mark.parametrize("fmt", ["csv", "csv+svg"])
def test_delay_schedule_runs_without_numpy(tmp_path, capsys, layout, fmt):
    # as test_rates_runs_without_numpy: the scalar path from the layout file
    # through the Sellmeier group indices to delays.csv needs no numpy
    flags = ["--format", fmt]
    if layout == "branch_mismatch":  # the n_gV term of the schedule
        (tmp_path / "mismatch.layout").write_text("branch_mismatch_mm = 0.02\n")
        flags += ["--layout", str(tmp_path / "mismatch.layout")]
    elif layout:
        flags += ["--layout", str(LAYOUTS / layout)]
    code = (
        "import runpy, sys\n"
        "sys.modules['numpy'] = None\n"
        "sys.argv = ['homchip', 'delay-schedule', '--out', sys.argv[1]] + sys.argv[2:]\n"
        "runpy.run_module('homchip', run_name='__main__')\n"
    )
    lean = tmp_path / "lean"
    result = subprocess.run(
        [sys.executable, "-c", code, str(lean), *flags], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert main(["delay-schedule", "--out", str(tmp_path / "full"), *flags]) == 0
    assert result.stdout == capsys.readouterr().out
    names = sorted(p.name for p in (tmp_path / "full").iterdir())
    assert names == (["delays.csv", "delays.svg"] if fmt == "csv+svg" else ["delays.csv"])
    assert sorted(p.name for p in lean.iterdir()) == names
    for name in names:
        assert (lean / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name


def test_package_root_and_cli_import_no_numpy():
    # the package root binds numpy lazily (homchip._lazy), so 'numpy' is in
    # sys.modules from the first import on; numpy has executed once any of
    # its submodules is imported
    code = (
        "import sys\n"
        "def executed(): return any(m.startswith('numpy.') for m in sys.modules)\n"
        "import homchip\n"
        "loaded = [executed()]\n"
        "import homchip.cli\n"
        "loaded.append(executed())\n"
        "from homchip import chip, dispersion\n"
        "ok = chip.ChipLayout().segment_count > 0\n"
        "loaded.append(executed())\n"
        "chip.parse_layout('')\n"
        "loaded.append(executed())\n"
        "dispersion.default_model()\n"
        "print(loaded, ok, executed(), 'numpy' in sys.modules)\n"
        "try:\n"
        "    homchip.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == [
        "[False, False, False, False] True False True",
        "module 'homchip' has no attribute 'no_such_name'",
    ]


#: The package modules each command executes besides cli, and whether it
#: executes numpy; svgplot executes besides these only when a plot is written.
EXECUTED = {
    "rates": ({"rates"}, False),
    "delay-schedule": ({"chip", "dispersion", "elements", "grid"}, False),
    "phasematch": ({"chip", "dispersion", "elements", "grid"}, False),
    "hom-scan": ({"chip", "dispersion", "elements", "grid", "quantum"}, True),
    "dip": ({"chip", "dispersion", "elements", "grid", "quantum"}, True),
}


@pytest.mark.parametrize("fmt", ["csv", "csv+svg"])
@pytest.mark.parametrize("command", sorted(EXECUTED))
def test_each_command_executes_only_the_modules_it_reads(tmp_path, command, fmt):
    # a module the package root binds lazily stays an importlib.util
    # _LazyModule until it executes; numpy has executed once any of its
    # submodules is imported.  A fresh interpreter, as `python -m homchip`
    code = (
        "import contextlib, importlib.util, io, sys, homchip.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = homchip.cli.main(sys.argv[1:])\n"
        "executed = sorted(name.removeprefix('homchip.') for name, module in sys.modules.items()\n"
        "                  if name.startswith('homchip.')\n"
        "                  and not isinstance(module, importlib.util._LazyModule))\n"
        "print(code, executed, any(m.startswith('numpy.') for m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, command, "--out", str(tmp_path), "--format", fmt],
        capture_output=True, text=True, check=True,
    )
    modules, executes_numpy = EXECUTED[command]
    modules = modules | {"cli"} | ({"svgplot"} if fmt == "csv+svg" and command != "rates" else set())
    assert result.stdout.strip() == f"0 {sorted(modules)} {executes_numpy}"


def test_lazy_returns_what_is_there():
    import homchip

    assert homchip._numpy is sys.modules["numpy"] is np  # imported before homchip here
    assert homchip._lazy("numpy") is np
    assert homchip._lazy("homchip.no_such_module") is None  # not installed


def test_tracer_targets_exist_after_importing_the_cli():
    # perfbench/tracing.py wraps these module attributes right after
    # `import homchip.cli`; a fresh interpreter, so no other test's import
    # hides a module the CLI no longer loads
    code = (
        "import importlib.util, sys; "
        f"spec = importlib.util.spec_from_file_location('tracing', {str(TRACING)!r}); "
        "tracing = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracing); "
        "import homchip.cli; "
        "print([f'{m}.{f}' for m, f, _ in tracing.TARGETS "
        "if m not in sys.modules or not callable(getattr(sys.modules[m], f, None))])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


#: The package root's public names: those of the README's "Library use"
#: example, and default_model, which the benchmark's start-up probe calls.
ROOT_NAMES = {
    "ChipLayout", "PmSpec", "SpectralGrid", "FilterSpec", "enumerate_settings",
    "hom_scan", "normalize_scan", "visibility", "default_model",
}


def test_package_root_holds_the_library_use_names(capsys):
    import homchip

    # the root resolves its names on first access, so they are read
    # through dir() and getattr, not from the module's namespace
    public = {
        name for name in dir(homchip)
        if not name.startswith("_") and not isinstance(getattr(homchip, name), ModuleType)
    }
    assert public == ROOT_NAMES
    assert isinstance(homchip.__version__, str)
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert re.fullmatch(r"visibility = 0\.\d{3}\n", capsys.readouterr().out)


#: The flags each command reads; every command takes --out and --format.
READ_FLAGS = {
    "delay-schedule": {"--out", "--format", "--layout"},
    "hom-scan": {
        "--out", "--format", "--layout", "--grid-samples", "--grid-halfwidth-nm",
        "--filter", "--preset", "--pc0",
    },
    "dip": {"--out", "--format", "--layout", "--grid-samples", "--grid-halfwidth-nm"},
    "phasematch": {"--out", "--format", "--layout"},
    "rates": {"--out", "--format"},
}
FLAG_VALUES = {
    "--out": "results",
    "--format": "csv",
    "--layout": "chip.layout",
    "--grid-samples": "2048",
    "--grid-halfwidth-nm": "3.5",
    "--filter": "rect:0.5",
    "--preset": "ideal",
    "--pc0": "on",
}


@pytest.mark.parametrize("command", sorted(READ_FLAGS))
def test_command_takes_only_the_flags_it_reads(command, capsys):
    parser = build_parser()
    for flag, value in FLAG_VALUES.items():
        if flag in READ_FLAGS[command]:
            parsed = parser.parse_args([command, flag, value])
            assert str(getattr(parsed, flag[2:].replace("-", "_"))) == value
        else:
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args([command, flag, value])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: " + flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rates", "--layout", "/nonexistent"],
        ["dip", "--filter", "rect:0.5", "--preset", "ideal", "--pc0", "on"],
        ["delay-schedule", "--grid-samples", "3", "--filter", "bogus"],
    ],
    ids=["rates-layout", "dip-scan-flags", "delay-schedule-grid-and-filter"],
)
def test_unread_flag_exits_2_without_output(tmp_path, argv):
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "homchip"] + argv + ["--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "unrecognized arguments" in result.stderr
    assert not out.exists()
