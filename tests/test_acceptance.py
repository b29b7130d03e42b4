"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion; a pytest failure on any test is the FAIL line.
"""

import time
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

from homchip import cli
from homchip.chip import ChipLayout, SwitchSetting, delay_schedule, enumerate_settings
from homchip.dispersion import (
    calibrate,
    converter_gdd,
    default_model,
    group_index_difference,
    parse_coefficient_file,
    walk_off_time,
)
from homchip.elements import (
    BsSpec,
    FilterSpec,
    PcSpec,
    PmSpec,
    bs_transfer,
    pbs_transfer,
    pc_conversion_amplitude,
    pc_transfer,
    pdc_amplitude,
    pm_center_vs_temperature,
)
from homchip.grid import SpectralGrid
from homchip import quantum as q
from homchip.rates import (
    SourceSpec,
    expected_rates,
    klyshko_efficiency,
    reconciliation_note,
)

C = 299792458.0
LAM0 = 1551.7
TAU_W_PS = 0.0805 * 20.7e-3 / C * 1e12  # 5.5583


def ok(n, text):
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def pm():
    return PmSpec()


@pytest.fixture(scope="module")
def layout():
    return ChipLayout()


@pytest.fixture(scope="module")
def lorentz():
    return FilterSpec("lorentzian", LAM0, 1.2)


def dip_fwhm(taus, p):
    """Width of the dip at half the large-delay baseline."""
    half = p[0] / 2.0
    below = np.where(p < half)[0]
    lo, hi = below[0], below[-1]
    f1 = (half - p[lo - 1]) / (p[lo] - p[lo - 1])
    x1 = taus[lo - 1] + f1 * (taus[lo] - taus[lo - 1])
    f2 = (half - p[hi]) / (p[hi + 1] - p[hi])
    x2 = taus[hi] + f2 * (taus[hi + 1] - taus[hi])
    return x2 - x1


def spectrum_fwhm(x, y):
    i = int(np.argmax(y))
    half = y[i] / 2.0
    above = np.where(y >= half)[0]
    lo, hi = above[0], above[-1]
    f1 = (half - y[lo - 1]) / (y[lo] - y[lo - 1]) if lo > 0 else 0.0
    x1 = x[lo - 1] + f1 * (x[lo] - x[lo - 1]) if lo > 0 else x[lo]
    f2 = (y[hi] - half) / (y[hi] - y[hi + 1]) if hi + 1 < len(y) else 0.0
    x2 = x[hi] + f2 * (x[hi + 1] - x[hi]) if hi + 1 < len(y) else x[hi]
    return x2 - x1


def test_criterion_01_walk_off_constant():
    start = time.perf_counter()
    text = resources.files("homchip").joinpath("data/linbo3_sellmeier.txt").read_text()
    model = calibrate(parse_coefficient_file(text))
    assert float(group_index_difference(model, LAM0)) == pytest.approx(0.0805, abs=1e-12)
    step = walk_off_time(model, 2.54)
    assert step == pytest.approx(0.682, abs=0.005)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    ok(1, f"walk_off(2.54 mm) = {step:.4f} ps after calibration ({elapsed * 1e3:.0f} ms)")


def test_criterion_02_delay_schedule(layout, model):
    step = 0.0805 * 2.54e-3 / C * 1e12
    on = [delay_schedule(layout, SwitchSetting(True, m), model) for m in range(1, 9)]
    off = [delay_schedule(layout, SwitchSetting(False, m), model) for m in range(1, 9)]
    # affine with the walk-off step on both branches
    for seq in (on, off):
        assert np.allclose(np.diff(seq), step, atol=1e-9)
    assert abs(on[1]) <= 0.01  # zero at (on, triple 2)
    assert all(6.9 <= d <= 11.7 for d in off)
    # two branches, exactly one crossing of the synchronization line
    assert sum(1 for a, b in zip(on, on[1:]) if (a < 0) != (b < 0)) == 1
    assert all(d > 0 for d in off)
    assert len(enumerate_settings(layout)) == 16
    assert len(enumerate_settings(layout, SwitchSetting(disabled_segments={10}))) == 14
    ok(2, f"schedule affine (step {step:.4f} ps), zero at (on, 2), off branch "
          f"[{off[0]:.2f}, {off[-1]:.2f}] ps, 16/14 settings")


def test_criterion_03_triangular_dip_oracle(pm, model):
    taus = np.arange(-10.0, 10.0 + 1e-9, 0.05)  # 401 points
    grid = SpectralGrid(half_width_nm=300.0, samples=4096)
    start = time.perf_counter()
    p = q.dip_profile(pm, grid, None, taus, model=model)
    elapsed = time.perf_counter() - start
    oracle = 0.5 * np.minimum(1.0, np.abs(taus) / TAU_W_PS)
    dev = float(np.max(np.abs(p - oracle)))
    assert dev <= 1e-3
    assert p[len(taus) // 2] <= 1e-6
    assert elapsed < 30.0
    ok(3, f"triangle dip max |dev| = {dev:.2e}, P(0) = {p[len(taus) // 2]:.1e}, "
          f"{elapsed:.2f} s for {len(taus)} points")


def test_criterion_04_dip_width(pm, model, lorentz):
    taus = np.arange(-14.0, 14.0 + 1e-9, 0.02)
    wide = SpectralGrid(half_width_nm=300.0, samples=4096)
    narrow = SpectralGrid(half_width_nm=6.0, samples=4096)
    p_tri = q.dip_profile(pm, wide, None, taus, model=model)
    p_lor = q.dip_profile(pm, narrow, lorentz, taus, model=model)
    w_tri = dip_fwhm(taus, p_tri)  # equals the base half-width for a triangle
    w_lor = dip_fwhm(taus, p_lor)
    assert w_tri == pytest.approx(TAU_W_PS, rel=0.02)
    assert w_lor / w_tri > 1.3
    ok(4, f"unfiltered base half-width {w_tri:.3f} ps (target {TAU_W_PS:.3f}), "
          f"filtered/unfiltered width ratio {w_lor / w_tri:.2f}")


def test_criterion_05_rectangular_filter_overshoot(pm, model):
    taus = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    p = q.dip_profile(pm, grid, FilterSpec("rectangular", LAM0, 2.3), taus, model=model)
    peak = float(np.max(p))
    assert peak > 0.5
    ok(5, f"rectangular-filter dip overshoots to {peak:.4f} > 0.5")


def test_criterion_06_bandwidths(pm, model):
    grid = SpectralGrid(half_width_nm=4.0, samples=16384)
    lam = grid.wavelength_plus_nm
    w1 = abs(spectrum_fwhm(lam, np.abs(pdc_amplitude(pm, grid, model=model)) ** 2))
    pm2 = PmSpec(pdc_length_mm=2 * pm.pdc_length_mm)
    w2 = abs(spectrum_fwhm(lam, np.abs(pdc_amplitude(pm2, grid, model=model)) ** 2))
    assert w1 == pytest.approx(1.3, rel=0.2)
    assert w2 / w1 == pytest.approx(0.5, rel=0.02)
    lam_pc = np.linspace(1546.0, 1558.0, 24001)
    conv = np.abs(pc_conversion_amplitude(PcSpec(length_mm=7.62), lam_pc, model, pm)) ** 2
    w_pc = spectrum_fwhm(lam_pc, conv)
    assert w_pc == pytest.approx(3.2, rel=0.2)
    assert w1 / w_pc == pytest.approx(1.3 / 3.2, rel=0.2)
    ok(6, f"source FWHM {w1:.3f} nm (2L ratio {w2 / w1:.4f}), converter FWHM {w_pc:.3f} nm, "
          f"ratio {w1 / w_pc:.3f}")


def test_criterion_07_converter_gdd(model):
    gdd = converter_gdd(model, 7.5, 1550.0)
    assert gdd < 0
    assert -44.0 * 1.5 <= gdd <= -44.0 * 0.5
    ok(7, f"converter GDD(7.5 mm, 1550 nm) = {gdd:.1f} fs^2 (target -44, +-50%)")


def test_criterion_08_hom_scan(layout, pm, lorentz):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    settings = enumerate_settings(layout)

    ideal = q.normalize_scan(
        q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
    )
    best = min(ideal, key=lambda p: p.normalized)
    assert best.setting.pc0_on and best.setting.triple_index == 2
    assert best.normalized <= 0.02
    off_mean = np.mean([p.normalized for p in ideal if not p.setting.pc0_on])
    assert off_mean == pytest.approx(1.0, abs=0.02)

    def preset_visibility(pbs_db):
        preset = [replace(s, pc0_efficiency=0.99) for s in settings]
        pts = q.normalize_scan(
            q.hom_scan(
                layout, preset, pm, grid,
                filters=lorentz, pbs_extinction_db=pbs_db, pc_conversion_db=20.0,
            )
        )
        return q.visibility(pts)

    v_preset = preset_visibility(17.0)
    assert 0.85 <= v_preset < 1.0
    sweep = [preset_visibility(db) for db in (30.0, 25.0, 20.0, 15.0, 10.0)]
    assert all(a > b for a, b in zip(sweep, sweep[1:]))
    ok(8, f"ideal min {best.normalized:.2e} at (on, 2), off mean {off_mean:.4f}; "
          f"preset visibility {v_preset:.4f}, monotone over 30->10 dB "
          f"({', '.join(f'{v:.3f}' for v in sweep)})")


def test_criterion_09_unitarity_and_norm(layout, pm, model, lorentz):
    rng = np.random.default_rng(2024)
    lam = rng.uniform(1540.0, 1563.0, size=1000)
    worst = 0.0
    for u_frac in (0.0, 0.37, 1.0):
        pc = PcSpec(voltage_v=u_frac * PcSpec().full_voltage_v)
        m = pc_transfer(pc, lam, model, pm)
        gram = np.swapaxes(m.conj(), -1, -2) @ m
        worst = max(worst, float(np.max(np.abs(gram - np.eye(2)))))
    for mat in (
        pbs_transfer(17.0),
        pbs_transfer(),
        bs_transfer(BsSpec(u11_v=2.0, u12_v=-1.0)),
    ):
        gram = mat.conj().T @ mat
        worst = max(worst, float(np.max(np.abs(gram - np.eye(mat.shape[0])))))
    assert worst <= 1e-12

    grid = SpectralGrid(half_width_nm=6.0, samples=2048)
    state = q.build_source_state(pm, grid, model=model)
    drift = abs(state.norm() - 1.0)
    for transfer in q.chain_transfers(layout, SwitchSetting(True, 2), pm, grid, model=model):
        state = q.apply_element(state, transfer)
        drift = max(drift, abs(state.norm() - 1.0))
    assert drift <= 1e-10
    ok(9, f"element unitarity within {worst:.1e}, chain norm drift {drift:.1e}")


def test_criterion_10_contraction_oracle():
    rng = np.random.default_rng(99)
    grid = SpectralGrid(half_width_nm=6.0, samples=16)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(4, 4, 16)) + 1j * rng.normal(size=(4, 4, 16))
        u = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
        out = q.apply_element(q.TwoPhotonAmplitude(grid, a), q.ElementTransfer("r", u)).values
        ref = np.empty_like(a)
        for k in range(16):
            ref[:, :, k] = u[k] @ a[:, :, k] @ u[15 - k].T
        worst = max(worst, float(np.max(np.abs(out - ref))))
    assert worst <= 1e-12
    ok(10, f"apply_element vs dense contraction: max |dev| = {worst:.1e} over 200 states")


def test_criterion_11_rates():
    assert klyshko_efficiency(2000.0, 100.0) == 0.05
    report = expected_rates(SourceSpec(3.0e5, 0.1, 1.2), (0.05, 0.05))
    assert report.coincidences_hz == 90.0
    note = reconciliation_note()
    assert "11.0 dB" in note and "13.0 dB" in note
    ok(11, f"klyshko(2000, 100) = 5%, coincidences = {report.coincidences_hz:.0f} Hz, "
           "loss-budget reconciliation note emitted")


def test_criterion_12_phase_matching(pm):
    assert pm_center_vs_temperature(pm, "PDC", 43.6) == LAM0
    assert pm_center_vs_temperature(pm, "PC", 43.6) == LAM0
    temps = np.arange(33.6, 53.6 + 1e-9, 0.5)
    pdc_fit = np.polyfit(temps, [pm_center_vs_temperature(pm, "PDC", t) for t in temps], 1)
    pc_fit = np.polyfit(temps, [pm_center_vs_temperature(pm, "PC", t) for t in temps], 1)
    assert pdc_fit[0] == pytest.approx(-0.15, abs=1e-6)
    assert pc_fit[0] == pytest.approx(-0.7, abs=1e-6)
    t_cross = (pc_fit[1] - pdc_fit[1]) / (pdc_fit[0] - pc_fit[0])
    assert t_cross == pytest.approx(43.6, abs=1e-9)
    assert np.polyval(pdc_fit, t_cross) == pytest.approx(LAM0, abs=1e-9)
    ok(12, f"tuning crossing at ({t_cross:.4f} C, {np.polyval(pdc_fit, t_cross):.4f} nm), "
           f"fitted slopes {pdc_fit[0]:.6f} / {pc_fit[0]:.6f} nm/C")


def test_criterion_13_determinism(tmp_path):
    for argv in (
        ["delay-schedule"],
        ["hom-scan", "--preset", "ideal", "--filter", "lorentz:1.2",
         "--grid-samples", "1024", "--format", "csv"],
        ["dip", "--grid-samples", "2048", "--format", "csv"],
        ["rates"],
    ):
        a, b = tmp_path / f"a_{argv[0]}", tmp_path / f"b_{argv[0]}"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        for f in sorted(p.name for p in a.iterdir() if p.suffix == ".csv"):
            assert (a / f).read_bytes() == (b / f).read_bytes(), f
    ok(13, "byte-identical CSVs across repeated runs of every command")


def test_criterion_14_grid_convergence(layout, pm, model, lorentz):
    taus = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    worst = 0.0
    for half_width, filters in (
        (300.0, None),
        (6.0, FilterSpec("rectangular", LAM0, 2.3)),
        (6.0, lorentz),
    ):
        p1 = q.dip_profile(pm, SpectralGrid(half_width_nm=half_width, samples=4096),
                           filters, taus, model=model)
        p2 = q.dip_profile(pm, SpectralGrid(half_width_nm=half_width, samples=8192),
                           filters, taus, model=model)
        worst = max(worst, float(np.max(np.abs(p1 - p2))))

    settings = enumerate_settings(layout)
    scans = []
    for n in (4096, 8192):
        grid = SpectralGrid(half_width_nm=6.0, samples=n)
        scans.append(
            q.normalize_scan(
                q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
            )
        )
    worst = max(
        worst,
        max(abs(x.normalized - y.normalized) for x, y in zip(*scans)),
    )
    assert worst < 1e-4
    ok(14, f"doubling N from 4096 to 8192 changes probabilities by at most {worst:.1e}")
