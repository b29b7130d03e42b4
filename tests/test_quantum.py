import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homchip.chip import (
    ChipLayout,
    active_triple,
    LayoutError,
    SwitchSetting,
    delay_schedule,
    enumerate_settings,
    valid_triples,
)
from homchip.cli import PRESETS
from homchip.dispersion import (
    CALIBRATION_WAVELENGTH_NM,
    WavelengthRangeError,
    calibrate,
    default_model,
    group_index_difference,
    walk_off_time,
)
from homchip.elements import BsSpec, FilterSpec, PcSpec, PmSpec, pc_conversion_amplitude
from homchip.grid import SpectralGrid
from homchip import dispersion
from homchip import elements as el
from homchip import quantum as q

import references

C = 299792458.0
LAM0 = 1551.7


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
def grid():
    return SpectralGrid(half_width_nm=6.0, samples=2048)


@pytest.fixture(scope="module")
def lorentz():
    return FilterSpec("lorentzian", LAM0, 1.2)


def identity_transfer(grid):
    return q.ElementTransfer("identity", np.tile(np.eye(4, dtype=complex), (grid.samples, 1, 1)))


def propagation_element(grid, length_mm, model):
    """Dense transfer of a birefringent section on both paths."""
    phases = np.stack([el.propagation_transfer(pol, length_mm, grid, model) for pol in "HV"])
    return q._Step(f"propagation {length_mm:g} mm", "phase", phases).transfer(grid)


# ---------------------------------------------------------------- source


def test_source_state_norm_and_occupation(pm, grid, model):
    state = q.build_source_state(pm, grid, model=model)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    occupied = np.sum(np.abs(state.values) ** 2, axis=2) > 0
    assert occupied[0, 1]  # (upper,H) x (upper,V)
    assert occupied.sum() == 1
    mags = np.abs(state.values[0, 1])
    assert int(np.argmax(mags)) in (grid.samples // 2 - 1, grid.samples // 2)


def test_source_state_requires_lobe_coverage(pm, model):
    narrow = SpectralGrid(half_width_nm=1.0, samples=512)
    with pytest.raises(q.GridCoverageError):
        q.build_source_state(pm, narrow, model=model)


# ---------------------------------------------------------------- evolution


def test_apply_identity_keeps_state(pm, grid, model):
    state = q.build_source_state(pm, grid, model=model)
    out = q.apply_element(state, identity_transfer(grid))
    assert np.array_equal(out.values, state.values)


def test_apply_element_rejects_wrong_grid(pm, grid, model):
    state = q.build_source_state(pm, grid, model=model)
    other = identity_transfer(SpectralGrid(half_width_nm=6.0, samples=1024))
    # without the shape check einsum fails too, as a ValueError naming operands
    message = f"^transfer 'identity' sampled on 1024 points, state grid has {grid.samples}$"
    with pytest.raises(ValueError, match=message):
        q.apply_element(state, other)


def test_propagation_phase_additivity(pm, grid, model):
    state = q.build_source_state(pm, grid, model=model)
    a = q.apply_element(
        q.apply_element(state, propagation_element(grid, 3.0, model)),
        propagation_element(grid, 4.5, model),
    )
    b = q.apply_element(state, propagation_element(grid, 7.5, model))
    assert np.max(np.abs(a.values - b.values)) < 1e-9


def test_apply_element_matches_dense_contraction():
    rng = np.random.default_rng(7)
    g16 = SpectralGrid(half_width_nm=6.0, samples=16)
    worst = 0.0
    for _ in range(200):
        a = rng.normal(size=(4, 4, 16)) + 1j * rng.normal(size=(4, 4, 16))
        u = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
        state = q.TwoPhotonAmplitude(g16, a)
        out = q.apply_element(state, q.ElementTransfer("random", u)).values
        ref = np.empty_like(a)
        for k in range(16):
            ref[:, :, k] = u[k] @ a[:, :, k] @ u[15 - k].T
        worst = max(worst, float(np.max(np.abs(out - ref))))
    assert worst <= 1e-12


def test_apply_element_matches_quad_loops():
    # fully naive reference on a couple of states
    rng = np.random.default_rng(11)
    g16 = SpectralGrid(half_width_nm=6.0, samples=16)
    for _ in range(3):
        a = rng.normal(size=(4, 4, 16)) + 1j * rng.normal(size=(4, 4, 16))
        u = rng.normal(size=(16, 4, 4)) + 1j * rng.normal(size=(16, 4, 4))
        out = q.apply_element(q.TwoPhotonAmplitude(g16, a), q.ElementTransfer("r", u)).values
        ref = np.zeros_like(a)
        for k in range(16):
            for i in range(4):
                for j in range(4):
                    acc = 0.0 + 0.0j
                    for p in range(4):
                        for qq in range(4):
                            acc += u[k, i, p] * u[15 - k, j, qq] * a[p, qq, k]
                    ref[i, j, k] = acc
        assert np.max(np.abs(out - ref)) <= 1e-12


def test_norm_conserved_through_full_chain(layout, pm, grid, model):
    state = q.build_source_state(pm, grid, model=model)
    drift = abs(state.norm() - 1.0)
    for transfer in q.chain_transfers(
        layout, SwitchSetting(True, 2), pm, grid, model=model
    ):
        state = q.apply_element(state, transfer)
        drift = max(drift, abs(state.norm() - 1.0))
    assert drift <= 1e-10


# ---------------------------------------------------------------- coincidences


def test_coincidence_zero_at_synchronization(layout, pm, grid):
    state = q.run_chain(layout, SwitchSetting(True, 2), pm, grid, flat_converters=True)
    assert q.coincidence_probability(state) <= 1e-6


def test_coincidence_half_for_distinguishable(layout, pm, grid):
    state = q.run_chain(layout, SwitchSetting(False, 8), pm, grid, flat_converters=True)
    assert q.coincidence_probability(state) == pytest.approx(0.5, abs=1e-3)


def test_coincidence_one_for_bar_splitter(layout, pm, grid):
    bar = BsSpec(section_length_mm=3.0, kappa_per_mm=0.0)
    state = q.run_chain(
        layout, SwitchSetting(False, 2), pm, grid, bs=bar, flat_converters=True
    )
    assert q.coincidence_probability(state) == pytest.approx(1.0, abs=1e-9)


def test_disabled_splitter_gives_half(layout, pm, grid, model):
    # both photons kept in one waveguide: each splits independently at the
    # balanced coupler, so distinct-output coincidences stay at 1/2
    transfers = q.chain_transfers(
        layout, SwitchSetting(True, 2), pm, grid, model=model, flat_converters=True
    )
    transfers = [
        identity_transfer(grid) if t.label == "polarizing splitter" else t
        for t in transfers
    ]
    state = q.build_source_state(pm, grid, model=model)
    for t in transfers:
        state = q.apply_element(state, t)
    assert q.coincidence_probability(state) == pytest.approx(0.5, abs=1e-9)


def test_run_chain_requires_triple(layout, pm, grid):
    with pytest.raises(LayoutError):
        q.run_chain(layout, SwitchSetting(True, None), pm, grid)
    # hom_scan checks each setting itself, without building the step list
    for setting in (SwitchSetting(True, None), SwitchSetting(True, 2, disabled_segments={3})):
        with pytest.raises(LayoutError):
            q.hom_scan(layout, [setting], pm, grid)


def test_chain_rejects_mismatched_source_length(pm, grid, model):
    # pm's source length sets the bandwidth, the layout's the walk-off and
    # the delay schedule: two lengths would describe no one chip
    layout = ChipLayout(pdc_length_mm=41.4)
    setting = SwitchSetting(True, 2)
    for run in (q.hom_scan, q.chain_transfers, q.run_chain):
        args = (layout, [setting]) if run is q.hom_scan else (layout, setting)
        with pytest.raises(ValueError, match="pdc_length_mm"):
            run(*args, pm, grid, model=model)
    q.hom_scan(layout, [setting], replace(pm, pdc_length_mm=41.4), grid, model=model)


def test_both_photons_exit_vertical_at_sync(layout, pm, grid, model):
    transfers = q.chain_transfers(
        layout, SwitchSetting(True, 2), pm, grid, model=model, flat_converters=True
    )
    state = q.build_source_state(pm, grid, model=model)
    for t in transfers[:-1]:  # stop before the balanced splitter
        state = q.apply_element(state, t)
    weights = np.sum(np.abs(state.values) ** 2, axis=2) * grid.d_omega
    # slot 1 in (lower, V), slot 2 in (upper, V)
    assert weights[3, 1] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- scans


def test_scan_minimum_and_off_branch(layout, pm, grid, lorentz):
    settings = enumerate_settings(layout)
    points = q.normalize_scan(
        q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
    )
    best = min(points, key=lambda p: p.normalized)
    assert best.setting.pc0_on and best.setting.triple_index == 2
    assert best.normalized <= 0.02
    offs = [p for p in points if not p.setting.pc0_on]
    raws = [p.raw for p in offs]
    assert (max(raws) - min(raws)) / np.mean(raws) < 0.05
    norms = [p.normalized for p in offs]
    assert np.mean(norms) == pytest.approx(1.0, abs=0.02)
    # worst point (shortest off-delay) sits 2.1% low from the filter's
    # temporal tail; all others are within 2%
    assert all(abs(n - 1.0) < 0.025 for n in norms)


def test_scan_settings_order_independent(layout, pm, grid, lorentz):
    settings = enumerate_settings(layout)[:4]
    fwd = q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
    rev = q.hom_scan(
        layout, list(reversed(settings)), pm, grid, filters=lorentz, flat_converters=True
    )
    table = {p.label: p.raw for p in rev}
    assert all(table[p.label] == p.raw for p in fwd)


def test_normalize_reference_is_unity(layout, pm, grid, lorentz):
    settings = enumerate_settings(layout)
    points = q.normalize_scan(
        q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
    )
    ref = [p for p in points if not p.setting.pc0_on and p.setting.triple_index == 8]
    assert ref[0].normalized == pytest.approx(1.0, rel=1e-12)


def test_normalize_reference_respects_disabled_segment(layout, pm, grid, lorentz):
    template = SwitchSetting(disabled_segments={10})
    settings = enumerate_settings(layout, template)
    points = q.normalize_scan(
        q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
    )
    ref = [p for p in points if p.normalized == pytest.approx(1.0, rel=1e-12)]
    assert any(
        (not p.setting.pc0_on) and p.setting.triple_index == 7 for p in ref
    )


def test_normalize_empty_reference_errors(layout, pm, grid, lorentz):
    settings = [s for s in enumerate_settings(layout) if s.pc0_on]
    points = q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
    with pytest.raises(ValueError):
        q.normalize_scan(points)


def test_scan_through_a_filter_that_passes_no_pair(layout, pm, grid, model):
    # the 1569-1571 nm band lies outside the +-6 nm grid: every weight is 0,
    # the detection window is empty, and every raw is +0.0 as on the full grid
    band = FilterSpec("rectangular", 1570.0, 2.0)
    assert not np.any(q._filter_weight(grid, (band,)))
    points = q.hom_scan(layout, enumerate_settings(layout), pm, grid, band, model=model)
    assert [p.raw.hex() for p in points] == [(0.0).hex()] * 16
    with pytest.raises(ValueError, match="reference coincidence level is zero"):
        q.normalize_scan(points)


def test_rect_filter_can_exceed_unit_probability(layout, pm, lorentz):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    rect = FilterSpec("rectangular", LAM0, 2.3)
    settings = enumerate_settings(layout)
    points = q.normalize_scan(
        q.hom_scan(layout, settings, pm, grid, filters=rect, flat_converters=True)
    )
    assert max(p.normalized for p in points) > 1.0


def test_visibility_ideal_and_unbalanced(layout, pm, grid, lorentz):
    settings = enumerate_settings(layout)
    ideal = q.normalize_scan(
        q.hom_scan(layout, settings, pm, grid, filters=lorentz, flat_converters=True)
    )
    v_ideal = q.visibility(ideal)
    assert 0.999 <= v_ideal <= 1.0
    assert all(p.raw >= 0.0 for p in ideal)
    skew = BsSpec(section_length_mm=3.0, kappa_per_mm=math.asin(math.sqrt(0.6)) / 6.0)
    off = q.normalize_scan(
        q.hom_scan(
            layout, settings, pm, grid, filters=lorentz, bs=skew, flat_converters=True
        )
    )
    assert q.visibility(off) < v_ideal
    # 60:40 floor: |T-R|^2 / (T^2+R^2)
    assert 1.0 - q.visibility(off) == pytest.approx(0.04 / 0.52, rel=0.01)


def test_visibility_requires_normalized(layout, pm, grid, lorentz):
    pts = q.hom_scan(layout, enumerate_settings(layout)[:2], pm, grid, filters=lorentz)
    with pytest.raises(ValueError):
        q.visibility(pts)


def test_imperfect_chain_visibility_band(layout, pm, lorentz):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    settings = [
        replace(s, pc0_efficiency=0.99) for s in enumerate_settings(layout)
    ]
    points = q.normalize_scan(
        q.hom_scan(
            layout,
            settings,
            pm,
            grid,
            filters=lorentz,
            pbs_extinction_db=17.0,
            pc_conversion_db=20.0,
        )
    )
    v = q.visibility(points)
    assert 0.85 <= v < 1.0
    best = min(points, key=lambda p: p.normalized)
    assert best.setting.pc0_on and best.setting.triple_index == 2


def test_classical_bound_without_exchange_interference(layout, pm, grid, lorentz):
    def classical(state):
        a = state.values
        w = q._filter_weight(state.grid, (lorentz,))
        b1 = a[np.ix_(q.OUT_UPPER, q.OUT_LOWER)]
        b2 = q.grid_flip_swap(a)[np.ix_(q.OUT_UPPER, q.OUT_LOWER)]
        return float(np.sum((np.abs(b1) ** 2 + np.abs(b2) ** 2) * w) * state.grid.d_omega)

    p_min = classical(q.run_chain(layout, SwitchSetting(True, 2), pm, grid, flat_converters=True))
    p_ref = classical(q.run_chain(layout, SwitchSetting(False, 8), pm, grid, flat_converters=True))
    assert p_min / p_ref >= 0.5


# ---------------------------------------------------------------- dip profiles


def test_dip_triangle_matches_analytic_oracle(pm, model):
    dng = float(group_index_difference(model, LAM0))
    tau_w = dng * 20.7e-3 / C * 1e12
    taus = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    wide = SpectralGrid(half_width_nm=300.0, samples=4096)
    p = q.dip_profile(pm, wide, None, taus, model=model)
    oracle = 0.5 * np.minimum(1.0, np.abs(taus) / tau_w)
    assert np.max(np.abs(p - oracle)) <= 1e-3
    assert p[len(taus) // 2] <= 1e-6


def test_dip_rect_filter_overshoots(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    rect = FilterSpec("rectangular", LAM0, 2.3)
    taus = np.arange(-10.0, 10.0 + 1e-9, 0.05)
    p = q.dip_profile(pm, grid, rect, taus, model=model)
    assert np.max(p) > 0.5


def test_dip_symmetry(pm, model, lorentz):
    grid = SpectralGrid(half_width_nm=6.0, samples=2048)
    taus = np.arange(-8.0, 8.0 + 1e-9, 0.1)
    curves = q.dip_scenarios(pm, grid, taus, model=model)
    assert set(curves) == {
        "unfiltered",
        "rectangular",
        "segmented_lorentz_pc0_off",
        "two_converters_lorentz_pc0_on",
    }
    for name, p in curves.items():
        assert np.max(np.abs(p - p[::-1])) <= 1e-9, name
        assert np.all(p >= -1e-12), name


def test_dip_scenarios_baselines(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=2048)
    taus = np.array([-60.0, 0.0, 60.0])
    # +-60 ps is far outside every dip; the unfiltered curve is closed form
    curves = q.dip_scenarios(pm, grid, taus, model=model)
    for name, p in curves.items():
        assert p[0] == pytest.approx(0.5, abs=0.02), name
        assert p[1] <= 0.02, name


def test_dip_scenarios_unfiltered_is_closed_form(pm, model):
    # the bare source's curve on no grid; +-10 nm covers 3 lobes at 30 C
    grid = SpectralGrid(half_width_nm=10.0, samples=4096)
    taus = np.arange(-200, 201) * 0.05
    unfiltered = {
        t: q.dip_scenarios(pm, grid, taus, model=model, temperature_c=t)["unfiltered"]
        for t in (43.6, 45.0, 50.0, 30.0)
    }
    for t, p in unfiltered.items():
        assert np.array_equal(p, references.unfiltered_dip(pm, model, t, taus)), t
    # at the reference temperature the source is centered: the triangle
    tau_w = float(group_index_difference(model, LAM0)) * 20.7e-3 / C * 1e12
    triangle = 0.5 * np.minimum(1.0, np.abs(taus) / tau_w)
    assert np.max(np.abs(unfiltered[43.6] - triangle)) <= 1e-12
    assert unfiltered[43.6][len(taus) // 2] == 0.0


@pytest.mark.parametrize("temperature_c", [43.6, 45.0, 50.0, 30.0])
def test_unfiltered_dip_profile_approaches_closed_form_as_one_over_window(
    pm, model, temperature_c
):
    # the grid sum truncates the sinc^2 tails: its error halves as W doubles
    taus = np.arange(-200, 201) * 0.05
    exact = references.unfiltered_dip(pm, model, temperature_c, taus)
    errors = [
        np.max(np.abs(q.dip_profile(
            pm, _grid(half_width_nm, 8192), None, taus, model=model, temperature_c=temperature_c
        ) - exact))
        for half_width_nm in (150.0, 300.0, 600.0)
    ]
    assert errors[1] <= 2.4e-4, errors
    for wide, wider in zip(errors, errors[1:]):
        assert 1.8 <= wide / wider <= 2.2, errors


def test_unfiltered_grid_is_ignored(pm, model):
    # accepted for its old callers; no grid, checked or not, moves a curve
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    taus = np.arange(-200, 201) * 0.05
    curves = q.dip_scenarios(pm, grid, taus, model=model, temperature_c=44.1)
    # +-300 nm as the old default, one that aliases at 10 ps and FAR out of range
    for unfiltered_grid in (_grid(300, 4096), _grid(300, 1024), FAR):
        given_grid = q.dip_scenarios(
            pm, grid, taus, model=model, temperature_c=44.1, unfiltered_grid=unfiltered_grid
        )
        assert list(given_grid) == list(curves)
        for name, p in curves.items():
            assert np.array_equal(given_grid[name], p), name


def test_dip_lorentz_strictly_wider(pm, model, lorentz):
    taus = np.arange(-12.0, 12.0 + 1e-9, 0.05)
    wide = SpectralGrid(half_width_nm=300.0, samples=4096)
    narrow = SpectralGrid(half_width_nm=6.0, samples=4096)
    p_tri = q.dip_profile(pm, wide, None, taus, model=model)
    p_lor = q.dip_profile(pm, narrow, lorentz, taus, model=model)

    def fwhm(p):
        half = p[0] / 2.0
        below = np.where(p < half)[0]
        lo, hi = below[0], below[-1]
        f1 = (half - p[lo - 1]) / (p[lo] - p[lo - 1])
        x1 = taus[lo - 1] + f1 * (taus[lo] - taus[lo - 1])
        f2 = (half - p[hi]) / (p[hi + 1] - p[hi])
        x2 = taus[hi] + f2 * (taus[hi + 1] - taus[hi])
        return x2 - x1

    assert fwhm(p_lor) / fwhm(p_tri) > 1.3


def test_dip_envelopes_match_dense_oracle(pm, model, lorentz):
    # photon 2's envelope and filter are evaluated at omega0 - Omega here
    grid = SpectralGrid(half_width_nm=6.0, samples=1024)
    taus = np.array([-4.0, -0.3, 0.0, 1.1, 5.5])

    def photon1(lam):
        return np.exp(-(((lam - LAM0 + 0.5) / 2.0) ** 2) + 0.3j * (lam - LAM0))

    def photon2(lam):
        return np.exp(-(((lam - LAM0 - 0.8) / 1.5) ** 2) - 0.7j * (lam - LAM0) ** 2)

    p = q.dip_profile(pm, grid, lorentz, taus, (photon1,), (photon2,), model=model)
    lam_p = grid.wavelength_plus_nm
    lam_m = 2.0 * np.pi * C / (grid.omega0 - grid.detunings) * 1e9
    a = el.pdc_amplitude(pm, grid, model=model) * photon1(lam_p) * photon2(lam_m)
    a = a * el.filter_amplitude(lorentz, lam_p) * el.filter_amplitude(lorentz, lam_m)
    g = a * np.conj(a[::-1])
    kernel = np.real(g @ np.exp(1j * np.outer(grid.detunings, taus * 1e-12)))
    oracle = 0.5 * (1.0 - kernel / np.sum(np.abs(a) ** 2))
    assert np.max(np.abs(p - oracle)) <= 1e-12


def test_in_place_envelope_cannot_rewrite_the_grid(pm, model, lorentz):
    # an envelope reads the grid's own wavelength array; editing it in place
    # would shift every later result on that grid
    grid = SpectralGrid(half_width_nm=6.0, samples=1024)
    taus = np.arange(-20, 21) * 0.5
    first = q.dip_profile(pm, grid, lorentz, taus, model=model)

    def shifting(lam):
        lam -= 0.0005
        return np.ones_like(lam)

    with pytest.raises(ValueError, match="read-only"):
        q.dip_profile(pm, grid, lorentz, taus, (shifting,), model=model)
    for array in (grid.detunings, grid.omega_plus, grid.wavelength_plus_nm):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert np.array_equal(q.dip_profile(pm, grid, lorentz, taus, model=model), first)


def test_dip_vanishing_spectrum_errors(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=2048)
    off_band = FilterSpec("rectangular", 1600.0, 0.5)
    with pytest.raises(ValueError):
        q.dip_profile(pm, grid, off_band, [0.0], model=model)


def test_dip_profile_checks_its_filtered_grid(pm, model):
    # +-1 nm covers 0.69 lobes; unchecked, it gave P(+-5 ps) = 0.4369 against 0.4440
    rect = FilterSpec("rectangular", 1551.7, 2.3)
    with pytest.raises(q.GridCoverageError, match=r"grid covers 0.69 phase-matching lobes"):
        q.dip_profile(pm, SpectralGrid(half_width_nm=1.0), rect, [-5.0, 0.0, 5.0], model=model)
    narrow = FilterSpec("rectangular", 1551.7, 0.5)
    with pytest.raises(q.GridCoverageError, match=r"across the 0.5 nm rectangular filter"):
        q.dip_profile(pm, SpectralGrid(half_width_nm=6.0, samples=64), narrow, [0.0], model=model)
    p = q.dip_profile(pm, SpectralGrid(half_width_nm=6.0), rect, [-5.0, 0.0, 5.0], model=model)
    assert p[0] == pytest.approx(0.4440, abs=1e-4)


def test_dip_rejects_aliased_delay_axis(pm, model):
    # the +-300 nm grid at 1024 samples resolves |tau| < pi / dOmega = 6.85 ps
    grid = SpectralGrid(half_width_nm=300.0, samples=1024)
    limit_ps = math.pi / grid.d_omega * 1e12
    assert limit_ps == pytest.approx(6.85, abs=0.01)
    p = q.dip_profile(pm, grid, None, [-0.5, (1.0 - 1e-9) * limit_ps], model=model)
    assert np.all(np.isfinite(p))
    with pytest.raises(q.GridCoverageError, match=r"need at least 1026 samples"):
        q.dip_profile(pm, grid, None, [0.0, -(1.0 + 1e-9) * limit_ps], model=model)
    with pytest.raises(q.GridCoverageError, match=r"need at least 1496 samples"):
        q.dip_profile(pm, grid, None, [10.0], model=model)
    q.dip_profile(pm, SpectralGrid(half_width_nm=300.0, samples=1496), None, [10.0], model=model)
    with pytest.raises(q.GridCoverageError):
        q.dip_profile(pm, SpectralGrid(half_width_nm=300.0, samples=1494), None, [10.0], model=model)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            q.dip_profile(pm, grid, None, [0.0, bad], model=model)


def test_scan_rejects_undersampled_grid(layout, pm, model, lorentz):
    # +-6 nm puts 3.85 samples across the pi / a phase-matching lobe at 32
    # samples; the 1.2 nm filter gets 3.4 samples at 34 and 4.2 at 42
    settings = enumerate_settings(layout)[:1]

    def grid(samples):
        return SpectralGrid(half_width_nm=6.0, samples=samples)

    with pytest.raises(q.GridCoverageError, match=r"3\.85 samples across a phase-matching lobe"):
        q.hom_scan(layout, settings, pm, grid(32), model=model)
    with pytest.raises(q.GridCoverageError, match=r"lobe at 32 samples"):
        q.run_chain(layout, settings[0], pm, grid(32), model=model)
    q.hom_scan(layout, settings, pm, grid(34), model=model)
    with pytest.raises(q.GridCoverageError, match=r"3\.40 samples across the 1\.2 nm lorentzian"):
        q.hom_scan(layout, settings, pm, grid(34), lorentz, model=model)
    q.hom_scan(layout, settings, pm, grid(42), lorentz, model=model)


def test_dip_scenarios_apply_scan_grid_checks(pm, model):
    # the filtered grid needs what hom_scan needs: +-1 nm covers 0.69 lobes,
    # and 2048 samples on +-6 nm put 3.41 samples across a 0.02 nm filter
    taus = np.array([-1.0, 0.0, 1.0])
    narrow = SpectralGrid(half_width_nm=1.0, samples=4096)
    with pytest.raises(q.GridCoverageError, match=r"0\.69 phase-matching lobes"):
        q.dip_scenarios(pm, narrow, taus, model=model)
    grid = SpectralGrid(half_width_nm=6.0, samples=2048)
    with pytest.raises(q.GridCoverageError, match=r"3\.41 samples across the 0\.02 nm rectangular"):
        q.dip_scenarios(pm, grid, taus, model=model, rect_width_nm=0.02)
    with pytest.raises(q.GridCoverageError, match=r"across the 0\.02 nm lorentzian"):
        q.dip_scenarios(pm, grid, taus, model=model, lorentz_width_nm=0.02)


# The grid rule's messages and their order (module docstring of quantum):
# one input per failing check, then inputs failing two checks, whose first
# error the order fixes.  Recorded from the code before the checks became
# one function.  dip_scenarios checks one grid, so its rows pin the same
# order as dip_profile's: aliasing, range, temperature, lobes.
def _grid(half_width_nm, samples):
    return SpectralGrid(half_width_nm=half_width_nm, samples=samples)


def _rect(width_nm):
    return FilterSpec("rectangular", LAM0, width_nm)


def _lorentz(width_nm):
    return FilterSpec("lorentzian", LAM0, width_nm)


FAR = _grid(1500.0, 65536)  # reaches 46551 nm, past the model's 5000 nm
RANGE = "wavelength 789-46551.4 nm outside coefficient validity 500-5000 nm"
TEMPERATURE = (
    "temperature more than 20 C from the reference; the linear tuning model is not trusted there"
)
LOBES = "grid covers 0.69 phase-matching lobes; need at least 3"
LOBE_AT_32 = "grid puts 3.85 samples across a phase-matching lobe at 32 samples; need at least 4"
ALIASED_1024 = (
    "delay axis aliases: dOmega * max|tau| = 4.584 >= pi at 1024 samples; "
    "need at least 1496 samples"
)
#: the message of a 0.02 nm filter of the given shape on 2048 samples over +-6 nm
NARROW_FILTER = (
    "grid puts 3.41 samples across the 0.02 nm {} filter at 2048 samples; need at least 4"
)
SCALAR_DELAYS = "delays must be a 1-D array, not 0-D"
PLANE_DELAYS = "delays must be a 1-D array, not 2-D"
ALIASED_64 = (
    "delay axis aliases: dOmega * max|tau| = 3.667 >= pi at 64 samples; need at least 76 samples"
)
#: a 10 ps delay on +-6 nm at 28 samples, as dip --grid-samples 28 prints it
ALIASED_28 = (
    "delay axis aliases: dOmega * max|tau| = 3.353 >= pi at 28 samples; need at least 30 samples"
)
ALIASED_1500 = (
    "delay axis aliases: dOmega * max|tau| = 366.713 >= pi at 64 samples; "
    "need at least 7472 samples"
)
ALIASED_16 = (
    "delay axis aliases: dOmega * max|tau| = 9.779 >= pi at 16 samples; need at least 50 samples"
)


def _scan(grid, filters=None, **kwargs):
    def run(pm, model, layout):
        settings = enumerate_settings(layout)[:1]
        return q.hom_scan(layout, settings, pm, grid, filters, model=model, **kwargs)

    return run


def _source(grid, **kwargs):
    return lambda pm, model, layout: q.build_source_state(pm, grid, model=model, **kwargs)


def _detect(grid, filters):
    return lambda pm, model, layout: q.coincidence_probability(
        q.build_source_state(pm, grid, model=model), filters
    )


def _profile(grid, filters, taus, **kwargs):
    return lambda pm, model, layout: q.dip_profile(pm, grid, filters, taus, model=model, **kwargs)


def _scenarios(grid, taus, **kwargs):
    return lambda pm, model, layout: q.dip_scenarios(pm, grid, taus, model=model, **kwargs)


def _on(chip, call):
    """Run call on chip instead of the fixture's as-built layout."""
    return lambda pm, model, layout: call(pm, model, chip)


#: converters whose phase-matching lobes 4096 samples on +-6 nm do not resolve
LONG_TRIPLES = ChipLayout(segment_length_mm=2000.0)
LONG_PC0 = ChipLayout(pc0_length_mm=10000.0)
LONG_TRIPLE_AT_4096 = (
    "grid puts 1.68 samples across the 6000 mm converter's phase-matching lobe "
    "at 4096 samples; need at least 4"
)
LONG_PC0_AT_4096 = (
    "grid puts 1.01 samples across the 10000 mm converter's phase-matching lobe "
    "at 4096 samples; need at least 4"
)


GRID_CHECKS = [
    # one failing check each
    ("hom_scan range", _scan(FAR), WavelengthRangeError, RANGE),
    ("hom_scan temperature", _scan(_grid(6, 4096), temperature_c=70.0), ValueError, TEMPERATURE),
    # NaN fails the trust range too, where it enters, not as a NaN visibility
    ("hom_scan NaN temperature", _scan(_grid(6, 512), temperature_c=math.nan), ValueError,
     TEMPERATURE),
    ("hom_scan lobes", _scan(_grid(1, 4096)), q.GridCoverageError, LOBES),
    ("hom_scan lobe samples", _scan(_grid(6, 32)), q.GridCoverageError, LOBE_AT_32),
    ("hom_scan filter samples", _scan(_grid(6, 34), _lorentz(1.2)), q.GridCoverageError,
     "grid puts 3.40 samples across the 1.2 nm lorentzian filter at 34 samples; need at least 4"),
    ("build_source_state range", _source(FAR), WavelengthRangeError, RANGE),
    ("build_source_state temperature", _source(_grid(6, 4096), temperature_c=70.0), ValueError,
     TEMPERATURE),
    ("build_source_state lobes", _source(_grid(1, 512)), q.GridCoverageError, LOBES),
    ("build_source_state half-lobe grid", _source(_grid(0.5, 512)), q.GridCoverageError,
     "grid covers 0.35 phase-matching lobes; need at least 3"),
    # off the reference temperature the center moves, Omega_c != 0, toward one grid edge
    ("build_source_state lobes off center", _source(_grid(1, 512), temperature_c=45.6),
     q.GridCoverageError, "grid covers 0.48 phase-matching lobes; need at least 3"),
    ("build_source_state lobe samples", _source(_grid(6, 32)), q.GridCoverageError, LOBE_AT_32),
    ("coincidence_probability filter samples", _detect(_grid(6, 2048), _lorentz(0.02)),
     q.GridCoverageError, NARROW_FILTER.format("lorentzian")),
    ("dip_profile scalar delays", _profile(_grid(6, 4096), None, 0.5), ValueError, SCALAR_DELAYS),
    ("dip_profile 2-D delays", _profile(_grid(6, 4096), None, [[0.0], [0.5]]), ValueError,
     PLANE_DELAYS),
    ("dip_profile finite", _profile(_grid(6, 4096), None, [0.0, math.nan]), ValueError,
     "delays must be finite"),
    ("dip_profile aliasing", _profile(_grid(300, 1024), None, [10.0]), q.GridCoverageError,
     ALIASED_1024),
    ("dip_profile range", _profile(FAR, None, [0.0]), WavelengthRangeError, RANGE),
    ("dip_profile temperature", _profile(_grid(6, 4096), None, [0.0], temperature_c=70.0),
     ValueError, TEMPERATURE),
    ("dip_profile lobes", _profile(_grid(1, 4096), _rect(2.3), [0.0]), q.GridCoverageError, LOBES),
    ("dip_profile lobe samples", _profile(_grid(6, 32), _rect(2.3), [0.0]), q.GridCoverageError,
     LOBE_AT_32),
    ("dip_profile filter samples", _profile(_grid(6, 64), _rect(0.5), [0.0]), q.GridCoverageError,
     "grid puts 2.66 samples across the 0.5 nm rectangular filter at 64 samples; need at least 4"),
    ("dip_scenarios scalar delays", _scenarios(_grid(6, 4096), 0.5), ValueError, SCALAR_DELAYS),
    ("dip_scenarios 2-D delays", _scenarios(_grid(6, 4096), [[0.0], [0.5]]), ValueError,
     PLANE_DELAYS),
    ("dip_scenarios finite", _scenarios(_grid(6, 4096), [math.nan]), ValueError,
     "delays must be finite"),
    ("dip_scenarios filtered aliasing", _scenarios(_grid(6, 64), [25.0]), q.GridCoverageError,
     ALIASED_64),
    ("dip_scenarios range", _scenarios(FAR, [0.0]), WavelengthRangeError, RANGE),
    ("dip_scenarios temperature", _scenarios(_grid(6, 4096), [0.0], temperature_c=70.0),
     ValueError, TEMPERATURE),
    ("dip_scenarios NaN temperature", _scenarios(_grid(6, 4096), [0.0], temperature_c=math.nan),
     ValueError, TEMPERATURE),
    ("dip_scenarios lobes", _scenarios(_grid(1, 4096), [0.0]), q.GridCoverageError, LOBES),
    ("dip_scenarios lobe samples", _scenarios(_grid(6, 32), [0.0]), q.GridCoverageError,
     LOBE_AT_32),
    ("dip_scenarios rect samples", _scenarios(_grid(6, 2048), [0.0], rect_width_nm=0.02),
     q.GridCoverageError, NARROW_FILTER.format("rectangular")),
    ("dip_scenarios lorentz samples", _scenarios(_grid(6, 2048), [0.0], lorentz_width_nm=0.02),
     q.GridCoverageError, NARROW_FILTER.format("lorentzian")),
    # two failing checks each: the first in the rule's order wins
    ("hom_scan range before lobe samples", _scan(_grid(1500, 64)), WavelengthRangeError,
     "wavelength 795.1-32044.9 nm outside coefficient validity 500-5000 nm"),
    ("hom_scan temperature before lobes", _scan(_grid(1, 4096), temperature_c=70.0), ValueError,
     TEMPERATURE),
    ("hom_scan lobes before lobe samples", _scan(_grid(1, 16)), q.GridCoverageError, LOBES),
    ("hom_scan lobe samples before filter", _scan(_grid(6, 32), _lorentz(1.2)),
     q.GridCoverageError, LOBE_AT_32),
    ("dip_profile 1-D before finite", _profile(_grid(6, 4096), None, math.nan), ValueError,
     SCALAR_DELAYS),
    ("dip_scenarios 1-D before aliasing", _scenarios(_grid(6, 28), [[10.0]]), ValueError,
     PLANE_DELAYS),
    ("dip_profile finite before aliasing", _profile(_grid(300, 1024), None, [math.inf, 10.0]),
     ValueError, "delays must be finite"),
    ("dip_profile aliasing before range", _profile(_grid(1500, 64), None, [10.0]),
     q.GridCoverageError, ALIASED_1500),
    ("dip_profile aliasing before lobes", _profile(_grid(1, 16), _rect(2.3), [100.0]),
     q.GridCoverageError, ALIASED_16),
    ("dip_profile lobes before filter samples", _profile(_grid(1, 64), _rect(0.01), [0.0]),
     q.GridCoverageError, LOBES),
    ("dip_scenarios aliasing before lobe samples", _scenarios(_grid(6, 28), [10.0]),
     q.GridCoverageError, ALIASED_28),
    ("dip_scenarios aliasing before range", _scenarios(_grid(1500, 64), [10.0]),
     q.GridCoverageError, ALIASED_1500),
    ("dip_scenarios aliasing before lobes", _scenarios(_grid(1, 16), [100.0]), q.GridCoverageError,
     ALIASED_16),
    ("dip_scenarios lobe samples before filters",
     _scenarios(_grid(6, 32), [0.0], rect_width_nm=0.02, lorentz_width_nm=0.02),
     q.GridCoverageError, LOBE_AT_32),
    ("dip_scenarios rect before lorentz samples",
     _scenarios(_grid(6, 2048), [0.0], rect_width_nm=0.02, lorentz_width_nm=0.02),
     q.GridCoverageError, NARROW_FILTER.format("rectangular")),
    ("dip_scenarios range before temperature", _scenarios(FAR, [0.0], temperature_c=70.0),
     WavelengthRangeError, RANGE),
    ("dip_scenarios aliasing before temperature",
     _scenarios(_grid(6, 64), [25.0], temperature_c=70.0), q.GridCoverageError, ALIASED_64),
    ("dip_scenarios temperature before lobes", _scenarios(_grid(1, 4096), [0.0], temperature_c=70.0),
     ValueError, TEMPERATURE),
    # the converter floor: each frequency-dependent converter, after the filters
    ("hom_scan triple converter samples", _on(LONG_TRIPLES, _scan(_grid(6, 4096), _lorentz(1.2))),
     q.GridCoverageError, LONG_TRIPLE_AT_4096),
    ("hom_scan first converter samples", _on(LONG_PC0, _scan(_grid(6, 4096))),
     q.GridCoverageError, LONG_PC0_AT_4096),
    ("hom_scan first converter before triple",
     _on(replace(LONG_TRIPLES, pc0_length_mm=10000.0), _scan(_grid(6, 4096))),
     q.GridCoverageError, LONG_PC0_AT_4096),
    ("hom_scan filter before converter samples", _on(LONG_TRIPLES, _scan(_grid(6, 34), _lorentz(1.2))),
     q.GridCoverageError,
     "grid puts 3.40 samples across the 1.2 nm lorentzian filter at 34 samples; need at least 4"),
    ("dip_scenarios triple converter samples", _scenarios(_grid(6, 4096), [0.0], layout=LONG_TRIPLES),
     q.GridCoverageError, LONG_TRIPLE_AT_4096),
    ("dip_scenarios first converter samples", _scenarios(_grid(6, 4096), [0.0], layout=LONG_PC0),
     q.GridCoverageError, LONG_PC0_AT_4096),
    ("dip_scenarios filters before converter samples",
     _scenarios(_grid(6, 2048), [0.0], layout=LONG_TRIPLES, lorentz_width_nm=0.02),
     q.GridCoverageError, NARROW_FILTER.format("lorentzian")),
]


@pytest.mark.parametrize(
    "call, error, message", [pytest.param(*row[1:], id=row[0]) for row in GRID_CHECKS]
)
def test_grid_check_messages_and_order(pm, model, layout, call, error, message):
    with pytest.raises(error) as raised:
        call(pm, model, layout)
    assert str(raised.value) == message


def test_flat_converters_are_exempt_from_the_converter_floor(pm, model):
    # frequency-independent converters have no phase-matching lobe to resolve
    grid = _grid(6, 4096)
    settings = enumerate_settings(LONG_TRIPLES)[:1]
    with pytest.raises(q.GridCoverageError, match="6000 mm converter"):
        q.hom_scan(LONG_TRIPLES, settings, pm, grid, model=model)
    assert q.hom_scan(LONG_TRIPLES, settings, pm, grid, model=model, flat_converters=True)


def counted_group_index(calls):
    """dispersion.group_index with a fresh memo of its size, appending the
    arguments of each evaluation (each memo miss) to calls."""
    evaluate = dispersion.group_index.__wrapped__
    return lru_cache(maxsize=64)(lambda *a: calls.append(a) or evaluate(*a))


def test_converter_floor_adds_no_group_index_call(pm, model, monkeypatch):
    # the floor takes n_g at the grid center, memoized whatever the temperature
    calls = []
    monkeypatch.setattr(dispersion, "group_index", counted_group_index(calls))
    grid = _grid(6, 4096)
    q._check_grid(grid, (), None, pm, model, 44.1, (7.62, 7.62))
    for temperature_c in (43.9, 44.3):
        start = len(calls)
        q._check_grid(grid, (), None, pm, model, temperature_c)
        assert len(calls) - start == 2  # n_gH and n_gV at the source's new center
        q._check_grid(grid, (), None, pm, model, temperature_c, (7.62, 7.62))
        assert len(calls) - start == 2


def test_dip_scenarios_takes_each_group_index_once(pm, model, monkeypatch):
    calls = []
    monkeypatch.setattr(dispersion, "group_index", counted_group_index(calls))
    grid = _grid(6, 4096)
    taus = np.arange(-20, 21) * 0.5

    def scenarios(temperature_c):
        return q.dip_scenarios(pm, grid, taus, model=model, temperature_c=temperature_c)

    scenarios(43.6)
    start = len(calls)
    curves = scenarios(44.05)
    # n_gH and n_gV at the source's and at the converters' tuned centers
    assert sorted((a[1], a[2]) for a in calls[start:]) == sorted(
        (pol, el.pm_center_vs_temperature(pm, process, 44.05))
        for process in ("PDC", "PC")
        for pol in dispersion.Polarization
    )
    start = len(calls)
    again = scenarios(44.05)
    assert len(calls) == start
    for name, p in curves.items():
        assert np.array_equal(again[name], p), name


@pytest.mark.parametrize("half_width_nm", [1.0, 6.0, 300.0])
def test_dip_profile_no_filter_is_one_input(pm, model, half_width_nm):
    # None is the one "no filter", with no filter check: the unfiltered
    # curve is exempt from the lobe floors (+-1 nm covers 0.69), and no
    # FilterSpec spells it
    grid = _grid(half_width_nm, 4096)
    taus = np.arange(-200, 201) * 0.05
    none = q.dip_profile(pm, grid, None, taus, model=model)
    assert none.shape == taus.shape and np.all(np.isfinite(none))
    with pytest.raises(ValueError, match="^unknown filter shape 'none'$"):
        FilterSpec("none", grid.center_wavelength_nm, 1.0)


def test_scan_consistent_with_dip_at_doubled_delay(layout, pm, model, lorentz):
    # the chain's exchanged amplitudes beat at twice the detuning, so a
    # schedule delay dt lands at kernel delay tau = 2 dt
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    settings = enumerate_settings(layout)
    points = q.hom_scan(
        layout, settings, pm, grid, filters=lorentz, flat_converters=True
    )
    base = max(p.raw for p in points)
    taus = np.array([2.0 * p.delay_ps for p in points])
    dip = q.dip_profile(pm, grid, lorentz, taus, model=model)
    for p, d in zip(points, dip):
        assert abs(p.raw / base - d / 0.5) / 2.0 <= 0.01


def test_grid_convergence_of_scan(layout, pm, lorentz):
    settings = enumerate_settings(layout)
    a = q.normalize_scan(
        q.hom_scan(
            layout,
            settings,
            pm,
            SpectralGrid(half_width_nm=6.0, samples=2048),
            filters=lorentz,
        )
    )
    b = q.normalize_scan(
        q.hom_scan(
            layout,
            settings,
            pm,
            SpectralGrid(half_width_nm=6.0, samples=4096),
            filters=lorentz,
        )
    )
    assert max(abs(x.normalized - y.normalized) for x, y in zip(a, b)) < 1e-4


# ---------------------------------------------------------------- properties

# Inputs drawn by the property tests: layouts with and without a broken
# segment and a branch mismatch, settings with a first converter drive, a
# coupler trimmed off balance, temperatures within 2 C of the operating
# point, and the imperfections and filters the CLI offers.
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def detection_filters(draw):
    # the off-centre band keeps the overlap with its mirror image about the
    # degeneracy, so hom_scan's detection window shrinks asymmetrically
    # about the band
    width = draw(st.floats(1.5, 3.0))
    offset = draw(st.floats(-0.25, 0.25)) * width
    return draw(
        st.sampled_from(
            [
                None,
                FilterSpec("rectangular", LAM0, width),
                FilterSpec("rectangular", LAM0 + offset, width),
                FilterSpec("lorentzian", LAM0, draw(st.floats(0.8, 2.0))),
            ]
        )
    )


@st.composite
def drawn_couplers(draw):
    """None (the ideal coupler at 0 V) or the ideal coupler trimmed off balance."""
    volts = dict(u11_v=draw(st.floats(-2.0, 2.0)), u12_v=draw(st.floats(-2.0, 2.0)))
    return draw(st.sampled_from([None, replace(el.ideal_bs(), **volts)]))


@st.composite
def _drawn_scan_inputs(draw):
    layout = ChipLayout(
        branch_length_mismatch_mm=draw(st.sampled_from([0.0, 0.0, 0.004, 0.02]))
    )
    template = SwitchSetting(disabled_segments=draw(st.sampled_from([(), (4,), (10,)])))
    drives = st.sampled_from([1.0, draw(st.floats(0.9, 1.0))])
    chosen = [
        replace(s, pc0_efficiency=draw(drives))
        for s in draw(
            st.lists(st.sampled_from(enumerate_settings(layout, template)), min_size=1, max_size=5)
        )
    ]
    filters = draw(detection_filters())
    kwargs = dict(
        temperature_c=draw(st.floats(41.6, 45.6)),
        pbs_extinction_db=draw(st.one_of(st.just(math.inf), st.floats(10.0, 40.0))),
        pc_conversion_db=draw(st.one_of(st.none(), st.floats(15.0, 30.0))),
        flat_converters=draw(st.booleans()),
        bs=draw(drawn_couplers()),
    )
    return layout, chosen, filters, kwargs


@st.composite
def _cancellation_inputs(draw):
    # flat converters and an ideal splitter at the synchronized setting and
    # the operating temperature: the dip is an exact cancellation, left only
    # by a drive 1 - 10**-u short of full (raw ~ 1e-12..1e-8)
    u = draw(st.floats(4.0, 6.0))
    setting = SwitchSetting(True, 2, pc0_efficiency=1.0 - 10.0**-u)
    kwargs = dict(
        temperature_c=PmSpec().reference_temperature_c,
        pbs_extinction_db=math.inf,
        flat_converters=True,
    )
    return ChipLayout(), [setting], draw(detection_filters()), kwargs


def scan_inputs():
    return st.one_of(_drawn_scan_inputs(), _cancellation_inputs())


@PROPERTY_SETTINGS
@given(inputs=scan_inputs())
def test_hom_scan_matches_dense_oracle(inputs, pm, model):
    layout, chosen, filters, kwargs = inputs
    grid = SpectralGrid(half_width_nm=6.0, samples=512)
    points = q.hom_scan(layout, chosen, pm, grid, filters=filters, model=model, **kwargs)
    for setting, point in zip(chosen, points):
        state = q.run_chain(layout, setting, pm, grid, model=model, **kwargs)
        dense = q.coincidence_probability(state, filters)
        # both engines round cancelling amplitudes independently, which
        # leaves |d raw| ~ 1e-16 sqrt(raw) near an exact cancellation
        if dense >= 1e-12:
            assert abs(point.raw - dense) <= 1e-12 * dense + 1e-15 * math.sqrt(dense), setting
        else:
            assert abs(point.raw - dense) <= 1e-15, setting


@PROPERTY_SETTINGS
@given(
    samples=st.integers(32, 512).map(lambda h: 2 * h),
    seed=st.integers(0, 2**32 - 1),
    filters=detection_filters(),
)
def test_coincidence_invariant_under_photon_exchange(samples, seed, filters):
    grid = SpectralGrid(half_width_nm=6.0, samples=samples)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(4, 4, samples)) + 1j * rng.normal(size=(4, 4, samples))
    state = q.TwoPhotonAmplitude(grid, values)
    swapped = q.TwoPhotonAmplitude(grid, q.grid_flip_swap(values))
    p = q.coincidence_probability(state, filters)
    assert p > 0
    assert q.coincidence_probability(swapped, filters) == pytest.approx(p, rel=1e-12)


@PROPERTY_SETTINGS
@given(inputs=scan_inputs(), seed=st.integers(0, 2**32 - 1))
def test_every_chain_step_keeps_photon_norms(inputs, seed, pm, model):
    layout, chosen, _, kwargs = inputs
    grid = SpectralGrid(half_width_nm=6.0, samples=256)
    chain = q._Chain(layout, pm, grid, model=model, **kwargs)
    rng = np.random.default_rng(seed)
    # mode-major (4 modes, 2 photons, N), as the fast path holds them
    vectors = rng.normal(size=(4, 2, grid.samples)) + 1j * rng.normal(size=(4, 2, grid.samples))
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)

    def walk(vectors, steps):
        for step in steps:
            vectors = _apply(step, vectors)
            norms = np.linalg.norm(vectors, axis=0)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12, step.label
        return vectors

    vectors = walk(vectors, chain.prefix(chosen[0]))
    suffix = chain.suffix(chosen[0])
    folded, cross, unfolded = np.empty((3, 2, 2, 2, grid.samples), dtype=complex)
    chain.fold_suffix(vectors, folded, cross)
    chain.unfold(chosen[0].triple_index, folded, cross, unfolded)
    vectors = walk(vectors, suffix)
    # the folded suffix of hom_scan is the step list up to the phase common
    # to both paths, the product of the (H, V) phase rows
    common = reduce(np.multiply, [step.data for step in suffix if step.kind == "phase"])
    unfolded *= common[:, None]
    assert np.max(np.abs(unfolded.reshape(vectors.shape) - vectors)) <= 1e-12


@PROPERTY_SETTINGS
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    flat=st.booleans(),
    bs=drawn_couplers(),
    mismatch_mm=st.sampled_from([0.0, 0.02]),
    index=st.integers(0, 31),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_dense_form_matches_vector_form(preset, flat, bs, mismatch_mm, index, seed, pm, model):
    # each step's (N, 4, 4) embedding acting on a rank-one pair state equals
    # the rank-one state of its vector form: A[a, b](Omega) = u1[a](Omega)
    # u2[b](-Omega), photon 2 read on the flipped axis
    imp = PRESETS[preset]
    layout = ChipLayout(branch_length_mismatch_mm=mismatch_mm)
    settings = enumerate_settings(layout, SwitchSetting(pc0_efficiency=imp["pc0_efficiency"]))
    setting = settings[index % len(settings)]
    grid = SpectralGrid(half_width_nm=6.0, samples=256)
    chain = q._Chain(
        layout,
        pm,
        grid,
        model=model,
        temperature_c=pm.reference_temperature_c,
        pbs_extinction_db=imp["pbs_extinction_db"],
        pc_conversion_db=imp["pc_conversion_db"],
        flat_converters=flat,
        bs=bs,
    )
    steps = chain.prefix(setting) + chain.suffix(setting)
    assert {step.kind for step in steps} <= {"phase", "jones", "modes"}
    assert ("branch mismatch" in [step.label for step in steps]) == (mismatch_mm > 0)
    rng = np.random.default_rng(seed)

    def rank_one(vectors):
        return vectors[:, None, 0] * vectors[None, :, 1, ::-1]

    vectors = rng.normal(size=(4, 2, grid.samples)) + 1j * rng.normal(size=(4, 2, grid.samples))
    vectors /= np.linalg.norm(vectors, axis=0, keepdims=True)
    for step in steps:
        state = q.TwoPhotonAmplitude(grid, rank_one(vectors))
        dense = q.apply_element(state, step.transfer(grid)).values
        vectors = _apply(step, vectors)
        assert np.max(np.abs(dense - rank_one(vectors))) <= 1e-12, step.label


# ---------------------------------------------------------------- scan engine bits


@PROPERTY_SETTINGS
@given(inputs=scan_inputs(), lo=st.integers(0, 128))
def test_windowed_chain_is_the_full_chain_sliced(inputs, lo, pm, model):
    # every step of a chain on a symmetric window, the empty one (lo = 128)
    # included, holds the bits of the full-grid step on that window
    layout, chosen, _, kwargs = inputs
    grid = SpectralGrid(half_width_nm=6.0, samples=256)
    window = slice(lo, grid.samples - lo)
    full = q._Chain(layout, pm, grid, model=model, **kwargs)
    part = q._Chain(layout, pm, grid, model=model, window=window, **kwargs)

    def sliced(step):
        if step.kind == "phase":
            return step.data[..., window]
        return step.data[window] if step.data.ndim == 3 else step.data  # (N, 2, 2) jones

    for setting in chosen:
        steps = full.prefix(setting) + full.suffix(setting)
        for whole, step in zip(steps, part.prefix(setting) + part.suffix(setting)):
            assert step.data.shape == sliced(whole).shape, step.label
            assert step.data.tobytes() == sliced(whole).tobytes(), step.label


@pytest.mark.parametrize("extinction_db", [math.inf, 17.0])
@pytest.mark.parametrize("samples", [4096, 8192])
def test_splitter_step_same_bits_as_matmul(extinction_db, samples, layout, pm, model, lorentz):
    # the polarizing splitter mixes the prefix's two rows elementwise; its
    # first form was the (4, 2) @ (2, 2N) product of the matrix's read columns.
    # Bit for bit but the sign of an exact zero: BLAS sums onto +0, the
    # elementwise form from its first product (-0 where that is -0), and
    # adding +0 maps -0 to +0 alone.  No raw sees the sign: it sums squares.
    grid = SpectralGrid(half_width_nm=6.0, samples=samples)
    chain = q._Chain(
        layout, pm, grid, model=model, temperature_c=pm.reference_temperature_c,
        pbs_extinction_db=extinction_db, pc_conversion_db=20.0,
    )
    for setting in (SwitchSetting(False, 2), SwitchSetting(True, 2, pc0_efficiency=0.99)):
        *steps, splitter = chain.prefix(setting)
        assert splitter.kind == "modes"
        vectors = np.zeros((2, 2, samples), dtype=complex)
        vectors[0, 0] = vectors[1, 1] = 1.0
        vectors = _evolve(vectors, steps)
        matmul = (splitter.data[:, :2] @ vectors.reshape(2, -1)).reshape((4,) + vectors.shape[1:])
        assert (_apply(splitter, vectors) + 0.0).tobytes() == (matmul + 0.0).tobytes()


def _stacked_fold(chain, vectors):
    """fold_suffix as first written: np.stack and _mix temporaries, returning
    new (A, B) arrays."""
    j = chain.triple
    upper, lower = vectors[:2], vectors[2:]
    diagonal = np.stack([j[..., 0, 0] * upper[0], j[..., 1, 1] * upper[1]])
    cross = np.stack([j[..., 0, 1] * upper[1], j[..., 1, 0] * upper[0]])
    mismatch = chain.tables.mismatch
    if mismatch is not None:
        diagonal *= mismatch[:, None]
        cross *= mismatch[:, None]
    coupler = chain.coupler
    folded = np.empty((2,) + upper.shape, dtype=complex)
    q._mix(coupler, (diagonal, lower), folded)
    return folded, coupler[:, 0, None, None, None] * cross


def _out_of_place_coincidence(vectors, phi, weight, d_omega):
    """The rank-one detection as first written, every product a new array."""
    u1 = vectors[:, 0]
    u2 = vectors[:, 1, ::-1]
    block = (u1[:2] * phi)[:, None] * u2[None, 2:]
    partner = u1[None, 2:] * (u2[:2] * phi)[:, None]
    block += partner[:, :, ::-1]
    power = block.real**2 + block.imag**2
    return float(np.sum(power.reshape(4, -1) @ weight) * d_omega)


def _apply(step, vectors):
    """A step acting on per-photon mode vectors, mode-major (4, photons, N)
    and sampled at omega0 + Omega; rows 0-1 are the upper-path block.  A
    (2, photons, N) input is that block alone, the lower path empty, as it
    is up to the polarizing splitter, whose step expands it.  The shapes are
    explicit, since a -1 cannot size an empty window.  The reference walk:
    q._Chain.source_prefix runs the prefix in one pass with its bits."""
    if step.kind == "phase":  # (path, polarization, photon, N) times the rows
        blocks = vectors.reshape((len(vectors) // 2, 2) + vectors.shape[1:])
        return (blocks * step.data[:, None]).reshape(vectors.shape)
    if step.kind == "modes":  # an empty lower path leaves the matrix's columns 2-3 unread
        out = np.empty((q.N_MODES,) + vectors.shape[1:], dtype=complex)
        q._mix(step.data, vectors, out)
        return out
    out = np.empty_like(vectors, order="C")
    out[2:] = vectors[2:]
    q._mix(step.data, vectors[:2], out[:2])
    return out


def _evolve(vectors, steps):
    """Walk vectors through a step list with _apply."""
    for step in steps:
        vectors = _apply(step, vectors)
    return vectors


def _four_mode_scan_raws(layout, settings, pm, grid, filters=None, **kwargs):
    """hom_scan's raws from its engine as first written: the prefix evolved
    on all four modes (4, 2, N), settings in input order with a fold kept per
    key, and one folded + cross * [E_m, conj E_m] per setting.  Kept as the
    reference that q.hom_scan must match bit for bit."""
    chain = q._Chain(layout, pm, grid, **kwargs)
    phi = q._check_grid(grid, pm=pm, model=chain.model, temperature_c=chain.temperature_c)
    weight = q._filter_weight(grid, q._real_filters(filters))
    start = np.zeros((4, 2, grid.samples), dtype=complex)
    start[0, 0] = start[1, 1] = 1.0
    folds, raws = {}, []
    for setting in settings:
        m = active_triple(layout, setting)
        key = (setting.pc0_on, setting.pc0_efficiency)
        if key not in folds:
            folds[key] = _stacked_fold(chain, _evolve(start, chain.prefix(setting)))
        folded, cross = folds[key]
        e = chain.tables.walk_off[m - 1]
        vectors = folded + cross * np.stack([e, np.conj(e)])[:, None]
        raws.append(_out_of_place_coincidence(vectors.reshape(start.shape), phi, weight, grid.d_omega))
    return raws


@st.composite
def _scan_engine_inputs(draw):
    layout = ChipLayout(branch_length_mismatch_mm=draw(st.sampled_from([0.0, 0.02])))
    preset = draw(st.sampled_from(["ideal", "paper", "drawn"]))
    if preset == "drawn":
        imp = dict(
            pbs_extinction_db=draw(st.one_of(st.just(math.inf), st.floats(10.0, 40.0))),
            pc_conversion_db=draw(st.one_of(st.none(), st.floats(15.0, 30.0))),
            pc0_efficiency=draw(st.floats(0.9, 1.0)),
            flat_converters=draw(st.booleans()),
        )
    else:
        imp = PRESETS[preset]
    template = SwitchSetting(pc0_efficiency=imp["pc0_efficiency"])
    full = enumerate_settings(layout, template)
    # shuffled, some repeated
    chosen = draw(st.permutations(full + draw(st.lists(st.sampled_from(full), max_size=4))))
    kwargs = dict(
        temperature_c=draw(st.floats(41.6, 45.6)),
        pbs_extinction_db=imp["pbs_extinction_db"],
        pc_conversion_db=imp["pc_conversion_db"],
        flat_converters=imp["flat_converters"],
        bs=draw(drawn_couplers()),
    )
    samples = draw(st.sampled_from([512, 1000, 4096]))
    return layout, chosen, draw(detection_filters()), kwargs, samples


@PROPERTY_SETTINGS
@given(inputs=_scan_engine_inputs())
def test_hom_scan_matches_four_mode_engine_bit_for_bit(inputs, pm, model):
    layout, chosen, filters, kwargs, samples = inputs
    grid = SpectralGrid(half_width_nm=6.0, samples=samples)
    points = q.hom_scan(layout, chosen, pm, grid, filters=filters, model=model, **kwargs)
    reference = _four_mode_scan_raws(layout, chosen, pm, grid, filters, model=model, **kwargs)
    assert [p.setting for p in points] == chosen
    assert [p.raw.hex() for p in points] == [raw.hex() for raw in reference]
    assert [p.delay_ps for p in points] == [delay_schedule(layout, s, model) for s in chosen]


#: The traced peak of test_warm_scan_traced_memory_peak's scan, 2.108 MB
#: measured, plus a margin below half a (2, 2, 4096) complex array: a fold
#: array allocated per call (512 KiB) crosses it.
WARM_SCAN_PEAK_BYTES = 2_200_000
#: The traced peak of the same scan behind rect:2.3, whose detection window
#: holds 784 of the 4096 samples: 0.665 MB measured, plus a margin below
#: one (2, 2, 2, 784) complex fold array (98 KiB).  On the full grid it
#: would be about the Lorentzian scan's.
WARM_RECT_SCAN_PEAK_BYTES = 720_000


def _paper_scan_raws(pm, model, grid, filters):
    """The raws of the 16-setting scan with the paper preset on grid."""
    imp = PRESETS["paper"]
    layout = ChipLayout()
    settings = enumerate_settings(layout, SwitchSetting(pc0_efficiency=imp["pc0_efficiency"]))
    assert len(settings) == 16
    points = q.hom_scan(
        layout,
        settings,
        pm,
        grid,
        filters=filters,
        model=model,
        pbs_extinction_db=imp["pbs_extinction_db"],
        pc_conversion_db=imp["pc_conversion_db"],
        flat_converters=imp["flat_converters"],
    )
    return [p.raw.hex() for p in points]


def _warm_scan_traced_peak(pm, model, filters):
    """The traced memory peak of one warm paper-preset scan at N = 4096.
    The fold (A, B) lives in the thread's scratch, kept from the first
    scan; what the warm scan allocates is the mode vectors, the detector's
    scaled rows, block and power rows, and the chain's converter matrix."""
    grid = SpectralGrid(samples=4096)
    _paper_scan_raws(pm, model, grid, filters)
    tracemalloc.start()
    try:
        _paper_scan_raws(pm, model, grid, filters)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_scan_traced_memory_peak(pm, model):
    # lorentz:1.2 has no zero weight, so the scan runs on the full grid; a
    # reintroduced (2, 2, N) temporary (256 KiB) at the peak crosses the bound
    peak = _warm_scan_traced_peak(pm, model, FilterSpec("lorentzian", LAM0, 1.2))
    assert peak <= WARM_SCAN_PEAK_BYTES, peak


def test_warm_rect_scan_traced_memory_peak(pm, model):
    # rect:2.3 runs on its detection window; a window grown back to the full
    # grid crosses the bound
    peak = _warm_scan_traced_peak(pm, model, FilterSpec("rectangular", LAM0, 2.3))
    assert peak <= WARM_RECT_SCAN_PEAK_BYTES, peak


def test_scan_threads_do_not_share_the_scratch(pm, model):
    # three detection windows of different lengths: 4096, 784 and 2048 samples
    runs = (
        (SpectralGrid(samples=4096), FilterSpec("lorentzian", LAM0, 1.2)),
        (SpectralGrid(samples=4096), FilterSpec("rectangular", LAM0, 2.3)),
        (SpectralGrid(samples=2048), None),
    )
    serial = [_paper_scan_raws(pm, model, grid, filters) for grid, filters in runs]

    def worker(first):
        wrong = 0
        for call in range(12):
            index = (first + call) % len(runs)
            wrong += _paper_scan_raws(pm, model, *runs[index]) != serial[index]
        return wrong

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            assert list(pool.map(worker, range(3), timeout=120)) == [0, 0, 0]
    finally:
        sys.setswitchinterval(interval)


def test_scan_and_dip_share_one_scratch_per_thread(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    taus = np.arange(-200, 201) * 0.05  # the CLI's delay axis
    lorentz = FilterSpec("lorentzian", LAM0, 1.2)

    def dip():
        return q.dip_scenarios(pm, grid, taus, model=model)

    def scan():
        return _paper_scan_raws(pm, model, grid, lorentz)

    def on_a_fresh_thread(call):
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(call).result(timeout=120)

    dip_alone, scan_alone = on_a_fresh_thread(dip), on_a_fresh_thread(scan)

    def alternate():
        wrong = 0
        for _ in range(3):
            curves = dip()
            wrong += sum(not np.array_equal(curves[k], p) for k, p in dip_alone.items())
            wrong += scan() != scan_alone
        return wrong, len(q._scratch.buffer)

    wrong, size = on_a_fresh_thread(alternate)
    assert wrong == 0
    # the scan's fold, 16 N, and the dip product, T S P with S = 3
    blocks = q._dip_phase_tables(grid, (taus * 1e-12).tobytes())[0].shape[-1]
    assert size == max(16 * grid.samples, len(taus) * 3 * blocks)


LAYOUT_GEOMETRY = st.fixed_dictionaries(
    dict(
        pdc_length_mm=st.floats(5.0, 40.0),
        pc0_length_mm=st.floats(2.0, 15.0),
        pbs_length_mm=st.floats(1.0, 8.0),
        segment_length_mm=st.floats(0.5, 5.0),
        segment_count=st.integers(3, 16),
        bs_block_length_mm=st.floats(2.0, 20.0),
        branch_length_mismatch_mm=st.floats(0.0, 0.05),
    )
)


@PROPERTY_SETTINGS
@given(geometry=LAYOUT_GEOMETRY, broken=st.sets(st.integers(1, 16), max_size=2))
def test_delay_schedule_affine_over_random_layouts(geometry, broken, model):
    layout = ChipLayout(**geometry)
    disabled = {s for s in broken if s <= layout.segment_count}
    step = float(walk_off_time(model, layout.segment_length_mm))
    for pc0_on in (False, True):
        triples = valid_triples(layout, disabled)
        delays = [
            delay_schedule(layout, SwitchSetting(pc0_on, m, disabled), model) for m in triples
        ]
        for m, d in zip(triples[1:], delays[1:]):
            assert d - delays[0] == pytest.approx((m - triples[0]) * step, abs=1e-9)


@PROPERTY_SETTINGS
@given(geometry=LAYOUT_GEOMETRY, broken=st.sets(st.integers(1, 16), max_size=2))
def test_delay_schedule_is_route_delay_difference(geometry, broken, model):
    # the schedule against the chain's own phases: track each photon along
    # its route and sum the group delays of the geometry tables' sections
    layout = ChipLayout(**geometry)
    disabled = {s for s in broken if s <= layout.segment_count}
    # centered on the calibration wavelength, where the schedule takes n_g;
    # dOmega tau < pi for every section, so one sample step resolves tau
    grid = SpectralGrid(CALIBRATION_WAVELENGTH_NM, half_width_nm=0.5, samples=512)
    tables = q._geometry_tables(layout, grid, model)

    def group_delay(row):
        # exp(i w tau) advances by dOmega tau per sample; samples 0 and 1
        # share a phase block, so their ratio is rounded least
        return float(np.angle(row[1] * np.conj(row[0]))) / grid.d_omega

    h, v = 0, 1
    source, pc0_half, pbs = (
        [group_delay(rows[pol]) for pol in (h, v)]
        for rows in (tables.source_half, tables.pc0_half, tables.pbs_region)
    )
    for pc0_on in (False, True):
        for m in valid_triples(layout, disabled):
            arrival = {}
            for pol in (h, v):  # photon 1 is born H, photon 2 V, mid-source
                t = source[pol] + pc0_half[pol]
                if pc0_on:  # swapped at the first converter's midpoint
                    pol = 1 - pol
                t += pc0_half[pol] + pbs[pol]
                # the polarizing splitter sends H to the segmented branch
                arrival["segmented" if pol == h else "lower"] = t
            # the segmented photon turns V at triple m's midpoint z_m; up to
            # z_m it lags the lower (V) photon by tau_H - tau_V, the negative
            # of E_m's group delay
            arrival["segmented"] -= group_delay(tables.walk_off[m - 1])
            if tables.mismatch is not None:
                arrival["segmented"] += group_delay(tables.mismatch[v])
            expected_ps = (arrival["segmented"] - arrival["lower"]) * 1e12
            schedule = delay_schedule(layout, SwitchSetting(pc0_on, m, disabled), model)
            assert schedule == pytest.approx(expected_ps, abs=1e-9), (pc0_on, m)


# ---------------------------------------------------------------- geometry tables


def _scan_raws(layout, grid, model, pm, filters=None):
    points = q.hom_scan(layout, enumerate_settings(layout), pm, grid, filters=filters, model=model)
    return [p.raw for p in points]


def test_hom_scan_same_bits_on_cold_and_warm_tables(pm, model, lorentz):
    layout = ChipLayout(branch_length_mismatch_mm=0.02)
    grid = SpectralGrid(half_width_nm=6.0, samples=1024)
    q._geometry_tables.cache_clear()
    cold = _scan_raws(layout, grid, model, pm, lorentz)
    hits = q._geometry_tables.cache_info().hits
    warm = _scan_raws(layout, grid, model, pm, lorentz)
    assert q._geometry_tables.cache_info().hits > hits
    assert warm == cold


def _perturbed_model(model):
    coeffs = list(model.sellmeier_extraordinary)
    coeffs[0] *= 1.001
    return calibrate(replace(model, sellmeier_extraordinary=coeffs))


@pytest.mark.parametrize("differ", ["segment_length_mm", "samples", "model"])
def test_geometry_tables_interleaved_keys_match_cold(differ, pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=512)
    key = (ChipLayout(), grid, model)
    if differ == "segment_length_mm":
        other = (ChipLayout(segment_length_mm=2.6), grid, model)
    elif differ == "samples":
        other = (ChipLayout(), replace(grid, samples=640), model)
    else:  # calibrated to the same dng, so only the absolute phases differ
        other = (ChipLayout(), grid, _perturbed_model(model))
    cold = {}
    for k in (key, other):
        q._geometry_tables.cache_clear()
        tables = q._geometry_tables(*k)
        cold[k] = (np.array(tables.source_half), np.array(tables.walk_off), _scan_raws(*k, pm))
    assert not all(np.array_equal(a, b) for a, b in zip(cold[key][:2], cold[other][:2]))
    for k in (key, other, key, other):
        tables = q._geometry_tables(*k)
        assert np.array_equal(tables.source_half, cold[k][0])
        assert np.array_equal(tables.walk_off, cold[k][1])
        assert _scan_raws(*k, pm) == cold[k][2]


def test_grid_arrays_are_read_only():
    grid = SpectralGrid(samples=64)
    for array in (grid.detunings, grid.omega_plus, grid.wavelength_plus_nm):
        with pytest.raises(ValueError):
            array[0] = 1.0
        with pytest.raises(ValueError):  # read-only at the owner, not just by flag
            array.flags.writeable = True


def test_evicted_geometry_tables_stay_intact_while_held(model):
    layout = ChipLayout(branch_length_mismatch_mm=0.02)
    grids = [SpectralGrid(samples=64 + 2 * i) for i in range(q.GEOMETRY_CACHE_SIZE + 1)]
    q._geometry_tables.cache_clear()
    held = q._geometry_tables(layout, grids[0], model)
    names = ("source_half", "pc0_half", "pbs_region", "mismatch", "walk_off")
    copies = [np.array(getattr(held, name)) for name in names]
    for grid in grids[1:]:
        q._geometry_tables(layout, grid, model)
    info = q._geometry_tables.cache_info()
    assert (info.currsize, info.misses) == (q.GEOMETRY_CACHE_SIZE, len(grids))
    for name, copy in zip(names, copies):
        assert np.array_equal(getattr(held, name), copy), name
    rebuilt = q._geometry_tables(layout, grids[0], model)
    assert q._geometry_tables.cache_info().misses == len(grids) + 1  # it was evicted
    assert rebuilt is not held
    for name, copy in zip(names, copies):
        assert np.array_equal(getattr(rebuilt, name), copy), name
        assert np.array_equal(getattr(held, name), copy), name


def test_geometry_tables_are_read_only(model):
    layout = ChipLayout(branch_length_mismatch_mm=0.02)
    tables = q._geometry_tables(layout, SpectralGrid(samples=512), model)
    arrays = (tables.source_half, tables.pc0_half, tables.pbs_region, tables.mismatch)
    window = tables.window(slice(8, 64))
    for array in arrays + (tables.walk_off, window.source_half, window.walk_off):
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
        with pytest.raises(ValueError):  # read-only at the owner, not just by flag
            array.flags.writeable = True
    pm = PmSpec()
    chain = q._Chain(
        layout, pm, SpectralGrid(samples=512), model=model,
        temperature_c=pm.reference_temperature_c,
    )
    for step in chain.prefix(SwitchSetting()):
        if step.kind == "phase":
            with pytest.raises(ValueError):
                step.data[...] = 1.0


# ---------------------------------------------------------------- dip phase tables


def test_dip_phase_tables_interleaved_keys_match_cold(pm, model):
    # two grids times two delay axes; each within the +-300 nm grid's alias bound
    grids = (_grid(6.0, 1024), _grid(300.0, 1024))
    axes = (np.arange(-100, 101) * 0.05, np.arange(-30, 31) * 0.13)
    keys = [(grid, taus) for grid in grids for taus in axes]
    cold = []
    for grid, taus in keys:
        q._dip_phase_tables.cache_clear()
        tables = [np.array(t) for t in q._dip_phase_tables(grid, (taus * 1e-12).tobytes())]
        cold.append((tables, q.dip_profile(pm, grid, None, taus, model=model)))
    for cold_table, other in zip(cold[0][0], cold[2][0]):
        assert not np.array_equal(cold_table, other)  # the grids' tables differ
    for _ in range(2):
        for (grid, taus), (tables, profile) in zip(keys, cold):
            kept = q._dip_phase_tables(grid, (taus * 1e-12).tobytes())
            assert len(kept) == 2
            for table, cold_table in zip(kept, tables):
                assert np.array_equal(table, cold_table)
            assert np.array_equal(q.dip_profile(pm, grid, None, taus, model=model), profile)
    # the three keys the last cache_clear dropped are built once more, then kept
    assert q._dip_phase_tables.cache_info().misses == len(keys)


def test_dip_phase_tables_keyed_by_content(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=1024)
    taus = np.arange(-200, 201) * 0.05
    q._dip_phase_tables.cache_clear()
    first = q.dip_profile(pm, grid, None, taus, model=model)
    assert q._dip_phase_tables.cache_info().hits == 0
    # an equal copy of the axis, as an array and as a list, is the same key
    assert np.array_equal(q.dip_profile(pm, replace(grid), None, taus.copy(), model=model), first)
    assert np.array_equal(q.dip_profile(pm, grid, None, list(taus), model=model), first)
    info = q._dip_phase_tables.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def test_dip_phase_tables_are_read_only():
    grid = SpectralGrid(samples=512)
    starts, within = q._dip_phase_tables(grid, (np.arange(-20, 21) * 0.5e-12).tobytes())
    assert (starts.shape, within.shape) == ((41, 16), (41, 16))
    for table in (starts, within):
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        with pytest.raises(ValueError):  # read-only at the buffer, not just by flag
            table.flags.writeable = True


def test_evicted_dip_phase_tables_stay_intact_while_held():
    grid = SpectralGrid(samples=64)
    axes = [np.arange(-k, k + 1) * 0.1e-12 for k in range(q.DIP_TABLE_CACHE_SIZE + 1)]
    axes = [taus.tobytes() for taus in axes]
    q._dip_phase_tables.cache_clear()
    held = q._dip_phase_tables(grid, axes[0])
    copies = [np.array(table) for table in held]
    for taus_bytes in axes[1:]:
        q._dip_phase_tables(grid, taus_bytes)
    info = q._dip_phase_tables.cache_info()
    assert (info.currsize, info.misses) == (q.DIP_TABLE_CACHE_SIZE, len(axes))
    rebuilt = q._dip_phase_tables(grid, axes[0])
    assert q._dip_phase_tables.cache_info().misses == len(axes) + 1  # it was evicted
    assert rebuilt is not held
    for table, kept, copy in zip(rebuilt, held, copies):
        assert table is not kept
        assert np.array_equal(table, copy)
        assert np.array_equal(kept, copy)


def test_empty_delay_axis_gives_empty_curves(pm, model):
    # an empty axis is a zero-size memo entry; its tables stay read-only
    grid = _grid(6, 1024)
    assert q.dip_profile(pm, grid, None, [], model=model).shape == (0,)
    curves = q.dip_scenarios(pm, grid, np.array([]), model=model)
    assert len(curves) == 4
    assert all(p.shape == (0,) for p in curves.values())
    starts, within = q._dip_phase_tables(grid, np.array([]).tobytes())
    assert (starts.shape, within.shape) == ((0, 23), (0, 23))
    for table in (starts, within):
        with pytest.raises(ValueError):
            table[...] = 1.0
        with pytest.raises(ValueError):
            table.flags.writeable = True


def test_warm_dip_scenarios_evaluate_no_cos_sin(pm, model, monkeypatch):
    from homchip import grid as grid_mod

    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    taus = np.arange(-200, 201) * 0.05
    q.dip_scenarios(pm, grid, taus, model=model)
    calls = []
    cis = grid_mod._cis
    monkeypatch.setattr(grid_mod, "_cis", lambda angles: calls.append(np.shape(angles)) or cis(angles))
    q.dip_scenarios(pm, grid, taus, model=model)
    assert calls == []
    # a new delay axis builds its two tables on the one grid
    q.dip_scenarios(pm, grid, taus[1:], model=model)
    assert len(calls) == 2


#: The traced peak of a warm dip_scenarios call on the +-6 nm grid at
#: N = 4096 with 561 delays, 1.160 MB measured, plus a margin below the
#: 404 KB of a block-start table built on every call.
WARM_DIP_PEAK_BYTES = 1_500_000


def test_warm_dip_scenarios_traced_memory_peak(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    taus = np.arange(-14.0, 14.0 + 1e-9, 0.05)
    assert len(taus) == 561

    def scenarios():
        return q.dip_scenarios(pm, grid, taus, model=model)

    scenarios()
    tracemalloc.start()
    try:
        scenarios()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= WARM_DIP_PEAK_BYTES, peak


@pytest.mark.parametrize("scale, residue", [(1.0 + 1e-15, 0.0), (1.0 + 1e-9, None), (-1.01, None)])
def test_dip_curves_clip_residues_and_raise_on_defects(monkeypatch, scale, residue):
    grid = SpectralGrid(half_width_nm=6.0, samples=256)
    joint = np.exp(-(grid.detunings / grid.half_width_omega) ** 2)[None].astype(complex)
    taus_s = np.array([0.0])
    # Re K(0) = scale K(0): P(0) = (1 - scale) / 2, a residue below 0 at
    # 1 + 1e-15, a defect below 0 at 1 + 1e-9 and above 1 at -1.01
    k0 = np.sum(np.abs(joint) ** 2) * grid.d_omega
    monkeypatch.setattr(q, "_delay_kernel", lambda g, grid, taus: np.full((1, 1), scale * k0))
    if residue is None:
        with pytest.raises(ValueError, match="outside"):
            q._dip_curves(grid, joint, taus_s)
    else:
        assert q._dip_curves(grid, joint, taus_s)[0, 0] == residue


@st.composite
def kernel_inputs(draw):
    samples = draw(
        st.one_of(st.sampled_from([2, 1000, 8190, 8192]), st.integers(1, 4096).map(lambda h: 2 * h))
    )
    grid = SpectralGrid(half_width_nm=draw(st.floats(0.5, 300.0)), samples=samples)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # dip_profile's form g = a conj(flip a), one row per joint amplitude
    shape = (draw(st.integers(1, 3)), samples)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    g = a * np.conj(grid.flip(a))
    # unsorted, non-uniform delays inside the alias bound |tau| < pi / dOmega
    reach = draw(st.floats(0.0, 1.0, exclude_max=True)) * math.pi / grid.d_omega
    taus_s = rng.uniform(-reach, reach, size=draw(st.integers(0, 600)))
    return a, g, grid, taus_s


@PROPERTY_SETTINGS
@given(inputs=kernel_inputs())
def test_delay_kernel_matches_dense_exponential(inputs):
    a, g, grid, taus_s = inputs
    dense = np.real(g @ np.exp(1j * np.outer(grid.detunings, taus_s)) * grid.d_omega)
    folded = q._delay_kernel(a, grid, taus_s)
    assert folded.shape == (len(g),) + taus_s.shape
    bound = 1e-12 * np.sum(np.abs(g), axis=1, keepdims=True) * grid.d_omega
    assert np.all(np.abs(folded - dense) <= bound)


@PROPERTY_SETTINGS
@given(
    center=st.floats(1000.0, 2500.0),
    fraction=st.floats(1e-4, 0.99),
    samples=st.integers(1, 4096).map(lambda h: 2 * h),
)
def test_minus_wavelengths_are_flipped_plus_wavelengths(center, fraction, samples):
    grid = SpectralGrid(center, fraction * center, samples)
    lam_minus = 2.0 * np.pi * C / (grid.omega0 - grid.detunings) * 1e9
    assert np.array_equal(lam_minus, grid.flip(grid.wavelength_plus_nm))


def test_grid_sample_count_must_be_an_integer(pm, model):
    # a float count passes the parity check and would fail deep in the engine
    with pytest.raises(ValueError, match="samples must be an integer, not float"):
        SpectralGrid(samples=4096.0)
    grid = SpectralGrid(half_width_nm=6.0, samples=np.int64(512))  # numpy integers are counts
    assert grid == _grid(6, 512)
    state = q.build_source_state(pm, grid, model=model)
    assert np.array_equal(state.values, q.build_source_state(pm, _grid(6, 512), model=model).values)


@PROPERTY_SETTINGS
@given(
    samples=st.sampled_from([1000, 2048, 4096]),
    temperature_c=st.floats(42.6, 44.6),
    pc0_efficiency=st.floats(0.95, 1.0),
    rect_width_nm=st.floats(1.5, 3.0),
    lorentz_width_nm=st.floats(0.8, 2.0),
    taus_ps=st.sampled_from(
        [np.arange(-120, 121) * 0.05, np.array([3.7, -0.4, 0.0, 6.1, -2.9, 1.25])]
    ),
)
def test_dip_scenarios_match_separate_profiles(
    pm, model, samples, temperature_c, pc0_efficiency, rect_width_nm, lorentz_width_nm, taus_ps
):
    layout = ChipLayout()
    grid = SpectralGrid(half_width_nm=6.0, samples=samples)
    curves = q.dip_scenarios(
        pm, grid, taus_ps, layout=layout, model=model, temperature_c=temperature_c,
        pc0_efficiency=pc0_efficiency, rect_width_nm=rect_width_nm,
        lorentz_width_nm=lorentz_width_nm,
    )
    triple = PcSpec(length_mm=3.0 * layout.segment_length_mm, temperature_c=temperature_c)
    pc0 = PcSpec(length_mm=layout.pc0_length_mm, temperature_c=temperature_c)
    pc0 = pc0.with_drive_efficiency(pc0_efficiency)

    def conv(pc):
        return lambda lam: pc_conversion_amplitude(pc, lam, model, pm)

    lorentz = FilterSpec("lorentzian", LAM0, lorentz_width_nm)
    common = dict(taus_ps=taus_ps, model=model, temperature_c=temperature_c)
    # the unfiltered curve is dip_profile's on an unbounded window
    separate = {
        "unfiltered": references.unfiltered_dip(pm, model, temperature_c, taus_ps),
        "rectangular": q.dip_profile(
            pm, grid, FilterSpec("rectangular", LAM0, rect_width_nm), **common
        ),
        "segmented_lorentz_pc0_off": q.dip_profile(
            pm, grid, lorentz, photon1_envelopes=(conv(triple),), **common
        ),
        "two_converters_lorentz_pc0_on": q.dip_profile(
            pm, grid, lorentz, photon1_envelopes=(conv(pc0), conv(triple)),
            photon2_envelopes=(conv(pc0),), **common
        ),
    }
    assert list(curves) == list(separate)
    for name, p in separate.items():
        assert curves[name].shape == p.shape
        assert np.max(np.abs(curves[name] - p)) <= 1e-12, name


def _exp_delay_kernel(g, grid, taus_s):
    """The dip kernel as first factored: np.exp phase tables, np.pad, a
    transpose copy and an out-of-place block-start product.  Kept as the
    reference that q._delay_kernel must match bit for bit."""
    half = grid.samples // 2
    axis = grid.detunings[half:]
    block = math.isqrt(half - 1) + 1
    starts = np.exp(1j * np.multiply.outer(taus_s, axis[::block]))
    within = np.exp(1j * np.multiply.outer(taus_s, np.arange(block) * grid.d_omega))
    blocks, rows = starts.shape[-1], len(g)
    g_blocks = np.pad(g[:, half:], ((0, 0), (0, blocks * block - half)))
    g_blocks = g_blocks.reshape(rows, blocks, block).transpose(2, 0, 1).reshape(block, -1)
    inner = (within @ g_blocks).reshape(-1, rows, blocks)
    kernel = np.sum(starts[:, None, :] * inner, axis=-1)
    return 2.0 * grid.d_omega * kernel.real.T


def _exp_delay_kernel_of_joint(a, grid, taus_s):
    """_exp_delay_kernel on g = a conj(flip a) formed at full length: the
    reference for q._delay_kernel, which takes the joint amplitudes a and
    forms g itself on the Omega > 0 half."""
    return _exp_delay_kernel(a * np.conj(grid.flip(a)), grid, taus_s)


@pytest.mark.parametrize(
    "taus_ps",
    [
        np.arange(-200, 201) * 0.05,  # the CLI's delay axis
        np.arange(-10.0, 10.0 + 1e-9, 0.05),  # the benchmark's arange grids
        np.arange(-7.0, 7.0 + 1e-9, 0.05),
        np.arange(-14.0, 14.0 + 1e-9, 0.05),
    ],
    ids=["cli", "arange-10", "arange-7", "arange-14"],
)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    temperature_c=st.one_of(st.just(43.6), st.floats(42.6, 44.6)),
    pc0_efficiency=st.floats(0.95, 1.0),
    rect_width_nm=st.floats(1.5, 3.0),  # the benchmark's drawn widths
)
def test_dip_scenarios_same_bits_as_exponential_kernel(
    pm, model, taus_ps, temperature_c, pc0_efficiency, rect_width_nm
):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    kwargs = dict(
        model=model, temperature_c=temperature_c, pc0_efficiency=pc0_efficiency,
        rect_width_nm=rect_width_nm,
    )
    # a cold call (block starts built) and a warm one (read from the memo)
    q._dip_phase_tables.cache_clear()
    cold = q.dip_scenarios(pm, grid, taus_ps, **kwargs)
    warm = q.dip_scenarios(pm, grid, taus_ps, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(q, "_delay_kernel", _exp_delay_kernel_of_joint)
        reference = q.dip_scenarios(pm, grid, taus_ps, **kwargs)
    assert list(cold) == list(warm) == list(reference)
    for name, p in reference.items():
        assert np.array_equal(cold[name], p), name
        assert np.array_equal(warm[name], p), name


def test_rect_dip_profile_same_bits_as_exponential_kernel(pm, model):
    # a rectangular filter leaves whole blocks of the kernel's G at zero
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    flt = FilterSpec("rectangular", LAM0, 6.0)
    taus = np.arange(-200, 201) * 0.05
    p = q.dip_profile(pm, grid, flt, taus, model=model)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(q, "_delay_kernel", _exp_delay_kernel_of_joint)
        reference = q.dip_profile(pm, grid, flt, taus, model=model)
    assert p.tobytes() == reference.tobytes()


def test_warm_delay_kernel_equals_cold_and_allocates_no_product(monkeypatch):
    # a fresh thread-local store, so the product buffer grows and is reused here
    monkeypatch.setattr(q, "_scratch", threading.local())
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    rng = np.random.default_rng(26)
    a = rng.normal(size=(3, grid.samples)) + 1j * rng.normal(size=(3, grid.samples))
    g = a * np.conj(grid.flip(a))
    axes = {t: (np.arange(t) - t // 2) * 0.05e-12 for t in (0, 281, 401, 561)}
    for taus in axes.values():  # the phase tables are kept before any call is traced
        starts, _ = q._dip_phase_tables(grid, taus.tobytes())
    blocks = starts.shape[-1]
    order = [(281, 1), (0, 3), (401, 3), (281, 3), (561, 1), (0, 1), (401, 1), (561, 3)]
    cold, largest = {}, 0
    for taus, rows in order + order[::-1]:
        product = taus * rows * blocks * 16
        tracemalloc.start()
        try:
            kernel = q._delay_kernel(a[:rows], grid, axes[taus])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.shape == (rows, taus)
        assert np.array_equal(kernel, _exp_delay_kernel(g[:rows], grid, axes[taus]))
        assert np.array_equal(kernel, cold.setdefault((taus, rows), kernel))
        if product > largest:  # the buffer grows: the product is allocated once
            assert peak >= product, (taus, rows, peak)
            largest = product
        elif taus:
            assert peak < product, (taus, rows, peak)
    assert len(cold) == len(order)


def test_dip_threads_do_not_share_the_product(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=4096)
    axes = (
        np.arange(-7.0, 7.0 + 1e-9, 0.05),
        np.arange(-14.0, 14.0 + 1e-9, 0.05),
        np.arange(-200, 201) * 0.05,  # the CLI's delay axis
    )

    def scenarios(taus):
        return q.dip_scenarios(pm, grid, taus, model=model)

    serial = [scenarios(taus) for taus in axes]

    def worker(first):
        wrong = 0
        for call in range(30):
            index = (first + call) % len(axes)
            curves = scenarios(axes[index])
            wrong += sum(not np.array_equal(curves[k], p) for k, p in serial[index].items())
        return wrong

    with ThreadPoolExecutor(max_workers=3) as pool:
        assert list(pool.map(worker, range(3))) == [0, 0, 0]
