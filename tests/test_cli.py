import subprocess
import sys
from pathlib import Path

import pytest

from homchip.cli import main, parse_filter_arg

LAYOUTS = Path(__file__).resolve().parent.parent / "layouts"


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


def test_unknown_filter_argument(tmp_path, capsys):
    code = main(
        ["hom-scan", "--out", str(tmp_path), "--filter", "gauss:1.0", "--grid-samples", "1024"]
    )
    assert code == 1
    assert "filter" in capsys.readouterr().err


def test_parse_filter_arg():
    f = parse_filter_arg("rect:2.3", 1551.7)
    assert f.shape == "rectangular" and f.width_nm == 2.3
    f = parse_filter_arg("lorentz:1.2", 1551.7)
    assert f.shape == "lorentzian"
    assert parse_filter_arg("none", 1551.7).shape == "none"
    with pytest.raises(ValueError):
        parse_filter_arg("rect", 1551.7)


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
    # triangle keeps its +-300 nm window and is not truncated
    base = ["dip", "--grid-samples", "2048", "--format", "csv"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--grid-halfwidth-nm", "3", "--out", str(b)]) == 0

    def rows(out, scenario):
        return [l for l in read_lines(out / "dip.csv") if l.endswith("," + scenario)]

    assert rows(a, "unfiltered") == rows(b, "unfiltered")
    assert rows(a, "rectangular") != rows(b, "rectangular")


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
        (["dip", "--grid-samples", "1024"], None),
        (["hom-scan", "--grid-halfwidth-nm", "1500", "--grid-samples", "65536"], None),
        (["dip", "--grid-halfwidth-nm", "1500", "--grid-samples", "65536"], None),
        (["hom-scan", "--grid-samples", "2"], None),
        (["hom-scan", "--grid-samples", "16"], None),
        (["hom-scan", "--grid-samples", "32"], None),
        (["hom-scan", "--filter", "lorentz:1.2", "--grid-samples", "34"], None),
        (["hom-scan"], "temperature_c = nan\n"),
        (["delay-schedule"], "pdc_length_mm = nan\n"),
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
        "halfwidth-beyond-dispersion-range",
        "dip-halfwidth-beyond-dispersion-range",
        "samples-2",
        "samples-16",
        "samples-32",
        "filter-undersampled",
        "layout-temperature-nan",
        "layout-pdc-length-nan",
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


def test_runtime_imports_no_scipy():
    code = (
        "import sys, homchip.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
