import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homchip.dispersion import default_model, group_index, group_index_difference
from homchip.elements import (
    BsSpec,
    FilterSpec,
    PcSpec,
    PmSpec,
    bs_transfer,
    coupler_section_matrix,
    filter_amplitude,
    ideal_bs,
    pbs_transfer,
    pc_chain_matrix,
    pc_conversion_amplitude,
    pc_transfer,
    pc_transmission_spectrum,
    pdc_amplitude,
    pm_center_vs_temperature,
    propagation_transfer,
    shg_spectrum,
)
from homchip.grid import SpectralGrid
from homchip import elements as el
from homchip import quantum as q

C = 299792458.0
LAM0 = 1551.7


def fwhm_nm(lam, y):
    """Full width at half maximum by linear interpolation of the crossings."""
    y = np.asarray(y, dtype=float)
    i = int(np.argmax(y))
    half = y[i] / 2.0
    left = right = None
    for j in range(i, 0, -1):
        if y[j - 1] < half <= y[j]:
            frac = (half - y[j - 1]) / (y[j] - y[j - 1])
            left = lam[j - 1] + frac * (lam[j] - lam[j - 1])
            break
    for j in range(i, len(y) - 1):
        if y[j] >= half > y[j + 1]:
            frac = (y[j] - half) / (y[j] - y[j + 1])
            right = lam[j] + frac * (lam[j + 1] - lam[j])
            break
    assert left is not None and right is not None, "half-max crossings not bracketed"
    return right - left


def assert_unitary(m, tol=1e-12):
    m = np.asarray(m)
    eye = np.eye(m.shape[-1])
    prod = np.swapaxes(m.conj(), -1, -2) @ m
    assert np.max(np.abs(prod - eye)) <= tol


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def pm():
    return PmSpec()


# ---------------------------------------------------------------- phase matching


def test_pm_crossing_point(pm):
    assert pm_center_vs_temperature(pm, "PDC", 43.6) == pytest.approx(1551.7)
    assert pm_center_vs_temperature(pm, "PC", 43.6) == pytest.approx(1551.7)


def test_pm_linear_slopes(pm):
    assert pm_center_vs_temperature(pm, "PDC", 44.6) == pytest.approx(1551.55)
    assert pm_center_vs_temperature(pm, "PC", 44.6) == pytest.approx(1551.0)


def test_pm_rejects_far_temperatures(pm):
    with pytest.raises(ValueError):
        pm_center_vs_temperature(pm, "PDC", 80.0)
    with pytest.raises(ValueError):
        pm_center_vs_temperature(pm, "SFG", 43.6)


def test_pm_slopes_must_be_negative():
    with pytest.raises(ValueError):
        PmSpec(pdc_slope_nm_per_c=0.15)


# ---------------------------------------------------------------- pair source


def test_pdc_amplitude_normalized_and_peaked(pm, model):
    grid = SpectralGrid(half_width_nm=6.0, samples=2048)
    res = pdc_amplitude(pm, grid, model=model)
    # the grid passes the source's lobe floors, so the main lobe is not clipped
    assert np.array_equal(q._check_grid(grid, pm=pm, model=model), res)
    norm = np.sum(np.abs(res) ** 2) * grid.d_omega
    assert norm == pytest.approx(1.0, rel=1e-12)
    peak = int(np.argmax(np.abs(res)))
    assert peak in (grid.samples // 2 - 1, grid.samples // 2)


def test_pdc_bandwidth_matches_device(pm, model):
    grid = SpectralGrid(half_width_nm=4.0, samples=8192)
    res = pdc_amplitude(pm, grid, model=model)
    width = fwhm_nm(grid.wavelength_plus_nm, np.abs(res) ** 2)
    assert abs(width) == pytest.approx(1.3, rel=0.2)
    assert abs(width) == pytest.approx(1.280, abs=0.005)  # frozen model value


def test_pdc_bandwidth_scales_inversely_with_length(pm, model):
    grid = SpectralGrid(half_width_nm=4.0, samples=16384)
    w1 = fwhm_nm(grid.wavelength_plus_nm, np.abs(pdc_amplitude(pm, grid, model=model)) ** 2)
    pm2 = PmSpec(pdc_length_mm=2 * pm.pdc_length_mm)
    w2 = fwhm_nm(grid.wavelength_plus_nm, np.abs(pdc_amplitude(pm2, grid, model=model)) ** 2)
    assert abs(w2 / w1) == pytest.approx(0.5, rel=0.02)


def test_tuning_dng_same_bits_as_group_index_difference(model):
    # the tuning reads dng from the memoized group indices; the values keep
    # the bits of the unmemoized difference across the trusted tuning range
    centers = np.random.default_rng(7).uniform(1531.7, 1571.7, 2000)
    for center in centers.tolist() + [LAM0]:
        unmemoized = group_index(model, "H", center) - group_index(model, "V", center)
        assert group_index_difference(model, center) == float(unmemoized)


def test_pdc_first_zero_at_main_lobe_edge(pm, model):
    # root of the implemented mismatch: delta-beta * L / 2 = pi
    dng = float(group_index_difference(model, LAM0))
    a = dng * pm.pdc_length_mm * 1e-3 / (2 * C)
    lam_m = LAM0 * 1e-9

    def amp_at_offset(d_nm):
        omega = 2 * np.pi * C / ((LAM0 + d_nm) * 1e-9) - 2 * np.pi * C / lam_m
        return np.sinc(a * omega / np.pi)

    # bisection on the sign change, independent of any package root finder
    lo, hi = 0.5, 2.5
    assert amp_at_offset(lo) * amp_at_offset(hi) < 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if amp_at_offset(lo) * amp_at_offset(mid) <= 0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    expected = lam_m**2 / (2 * a * C) * 1e9
    assert zero == pytest.approx(-expected, rel=1e-3) or zero == pytest.approx(
        expected, rel=1e-3
    )
    assert expected == pytest.approx(1.4447, abs=0.001)


def test_pdc_center_shifts_with_temperature(pm, model):
    grid = SpectralGrid(half_width_nm=4.0, samples=8192)
    res = pdc_amplitude(pm, grid, temperature_c=45.6, model=model)
    lam_peak = grid.wavelength_plus_nm[int(np.argmax(np.abs(res)))]
    assert lam_peak == pytest.approx(1551.7 - 0.15 * 2.0, abs=0.01)


def test_shg_peak_and_temperature_slope(pm, model):
    lam = np.linspace(1546.0, 1556.0, 4001)
    s = shg_spectrum(pm, lam, temperature_c=43.6, model=model)
    assert lam[int(np.argmax(s))] == pytest.approx(1551.7, abs=0.005)
    assert np.max(s) == pytest.approx(1.0, abs=1e-6)
    s2 = shg_spectrum(pm, lam, temperature_c=44.6, model=model)
    assert lam[int(np.argmax(s2))] == pytest.approx(1551.55, abs=0.005)


# ---------------------------------------------------------------- converter


def test_pc_full_drive_converts_completely(model, pm):
    pc = PcSpec()  # full drive by default
    m = pc_transfer(pc, LAM0, model, pm)
    assert abs(m[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-9)
    # fixed phase convention: conversion amplitude carries -i
    assert m[1, 0] == pytest.approx(-1j, abs=1e-6)


def test_pc_zero_drive_is_identity_up_to_phase(model, pm):
    pc = PcSpec(voltage_v=0.0)
    lam = np.linspace(1548.0, 1555.0, 7)
    m = pc_transfer(pc, lam, model, pm)
    assert np.max(np.abs(m[:, 0, 1])) == 0.0
    assert np.max(np.abs(np.abs(m[:, 0, 0]) - 1.0)) < 1e-12
    # chain variant is the exact identity
    mc = pc_chain_matrix(pc, lam, model, pm)
    assert np.max(np.abs(mc - np.eye(2))) < 1e-12


def test_pc_half_drive_half_conversion(model, pm):
    pc = PcSpec()
    half = PcSpec(voltage_v=pc.full_voltage_v / 2.0)
    m = pc_transfer(half, LAM0, model, pm)
    assert abs(m[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-9)


def test_pc_conversion_bandwidth(model, pm):
    pc = PcSpec(length_mm=7.62)
    lam = np.linspace(1546.0, 1558.0, 12001)
    conv = np.abs(pc_conversion_amplitude(pc, lam, model, pm)) ** 2
    width = fwhm_nm(lam, conv)
    assert width == pytest.approx(3.2, rel=0.2)
    assert width == pytest.approx(3.135, abs=0.01)  # frozen model value


def test_pc_conversion_monotone_in_voltage(model, pm):
    pc = PcSpec()
    drives = np.linspace(0.0, pc.full_voltage_v, 21)
    effs = [
        abs(pc_transfer(PcSpec(voltage_v=u), LAM0, model, pm)[1, 0]) ** 2
        for u in drives
    ]
    assert all(b >= a - 1e-15 for a, b in zip(effs, effs[1:]))
    assert all(0.0 <= e <= 1.0 + 1e-12 for e in effs)


def test_pc_transmission_spectrum_properties(model, pm):
    pc = PcSpec()
    lam_c = 1551.7
    offsets = np.linspace(-5.0, 5.0, 201)
    tr = pc_transmission_spectrum(pc, lam_c + offsets, model, pm)
    mid = len(offsets) // 2
    assert tr[mid] == pytest.approx(0.0, abs=1e-9)  # full conversion at center
    assert np.allclose(tr, tr[::-1], atol=1e-12)  # symmetric about center


def test_pc_transmission_center_tracks_temperature(model):
    pm = PmSpec()
    pc_cool = PcSpec(temperature_c=43.6)
    pc_warm = PcSpec(temperature_c=45.6)
    lam = np.linspace(1546.0, 1556.0, 10001)
    min_cool = lam[int(np.argmin(pc_transmission_spectrum(pc_cool, lam, model, pm)))]
    min_warm = lam[int(np.argmin(pc_transmission_spectrum(pc_warm, lam, model, pm)))]
    assert min_warm - min_cool == pytest.approx(-0.7 * 2.0, abs=0.01)


def test_pc_drive_helpers(model, pm):
    pc = PcSpec().with_conversion_db(20.0)
    m = pc_transfer(pc, LAM0, model, pm)
    assert 1.0 - abs(m[1, 0]) ** 2 == pytest.approx(0.01, abs=1e-9)
    pc2 = PcSpec().with_drive_efficiency(0.25)
    assert pc2.kappa_length == pytest.approx(math.pi / 4.0)
    with pytest.raises(ValueError):
        PcSpec().with_drive_efficiency(1.5)


def test_pc_full_voltage_matches_voltage_length_product():
    pc = PcSpec(length_mm=10.0, voltage_length_product_v_cm=15.0)
    assert pc.full_voltage_v == pytest.approx(15.0)
    assert PcSpec(length_mm=7.62).full_voltage_v == pytest.approx(19.685, abs=0.001)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    efficiency=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    length_mm=st.floats(1.0, 30.0),
    temperature_c=st.floats(41.6, 45.6),
    offsets_nm=st.lists(st.floats(-300.0, 300.0), min_size=0, max_size=50),
    scalar_offset_nm=st.one_of(st.just(0.0), st.floats(-300.0, 300.0)),
)
def test_pc_conversion_amplitude_is_transfer_entry_bit_for_bit(
    model, pm, efficiency, length_mm, temperature_c, offsets_nm, scalar_offset_nm
):
    pc = PcSpec(length_mm=length_mm, temperature_c=temperature_c).with_drive_efficiency(efficiency)
    # the phase-matched sample: gamma L = 0 for an undriven converter
    center = pm_center_vs_temperature(pm, "PC", temperature_c)
    lam = np.array([center] + [center + d for d in offsets_nm])
    for wavelengths in (lam, center + scalar_offset_nm, center):
        conv = pc_conversion_amplitude(pc, wavelengths, model, pm)
        entry = pc_transfer(pc, wavelengths, model, pm)[..., 1, 0]
        assert np.shape(conv) == np.shape(entry)
        assert np.array_equal(conv, entry)
    if efficiency == 0.0:
        assert pc_conversion_amplitude(pc, center, model, pm) == 0.0


def _elementwise_coupled_mode_matrix(kappa_l, delta_l):
    """The coupled-mode matrix written entry by entry into an (..., 2, 2)
    array, as it was built before its component-major layout."""
    gamma_l, sin_term, off = el._coupled_mode_terms(kappa_l, delta_l)
    d_frac = el._over_gamma(np.asarray(delta_l, dtype=float), gamma_l)
    diag = np.cos(gamma_l) + 1j * d_frac * sin_term
    out = np.empty(np.broadcast(kappa_l, delta_l).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = diag
    out[..., 1, 1] = np.conj(diag)
    out[..., 0, 1] = off
    out[..., 1, 0] = off
    return out


def _elementwise_pc_chain_matrix(pc, wavelength_nm, model, pm):
    delta_l = el._pc_delta_length(pc, wavelength_nm, model, pm)
    m = _elementwise_coupled_mode_matrix(pc.kappa_length, delta_l)
    phase = np.exp(-1j * np.asarray(delta_l))
    out = np.array(m)
    out[..., 0, 0] = m[..., 0, 0] * phase
    out[..., 1, 1] = m[..., 1, 1] * np.conj(phase)
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    efficiency=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    length_mm=st.floats(1.0, 30.0),
    temperature_c=st.floats(41.6, 45.6),
    samples=st.sampled_from([1, 7, 512, 4096]),
    scalar_offset_nm=st.one_of(st.just(0.0), st.floats(-300.0, 300.0)),
)
def test_converter_matrices_are_component_major_and_bit_identical(
    model, pm, efficiency, length_mm, temperature_c, samples, scalar_offset_nm
):
    # efficiency 0 is an undriven converter; the phase-matched center is
    # its gamma L = 0 sample
    pc = PcSpec(length_mm=length_mm, temperature_c=temperature_c).with_drive_efficiency(efficiency)
    center = pm_center_vs_temperature(pm, "PC", temperature_c)
    grid = SpectralGrid(center, half_width_nm=6.0, samples=2 * samples)
    for wavelengths in (grid.wavelength_plus_nm, center + scalar_offset_nm, center):
        delta_l = el._pc_delta_length(pc, wavelengths, model, pm)
        pairs = [
            (pc_chain_matrix(pc, wavelengths, model, pm),
             _elementwise_pc_chain_matrix(pc, wavelengths, model, pm)),
            (el._coupled_mode_matrix(pc.kappa_length, delta_l),
             _elementwise_coupled_mode_matrix(pc.kappa_length, delta_l)),
        ]
        for matrix, reference in pairs:
            assert matrix.shape == reference.shape == np.shape(wavelengths) + (2, 2)
            assert np.array_equal(matrix, reference)
            for a in (0, 1):
                for b in (0, 1):
                    assert matrix[..., a, b].flags.c_contiguous


# ---------------------------------------------------------------- splitters


def test_pbs_ideal_routing():
    m = pbs_transfer()
    # H at upper input exits toward the segmented (upper) branch
    assert m[0, 0] == pytest.approx(1.0)
    # V at upper input crosses to the lower branch
    assert m[3, 1] == pytest.approx(1.0)
    # modes are path-major: [0::2, 1::2] takes V to H, [1::2, 0::2] H to V
    assert not m[0::2, 1::2].any() and not m[1::2, 0::2].any()
    assert_unitary(m)


def test_pbs_finite_extinction():
    m = pbs_transfer(17.0)
    wrong_port = abs(m[2, 0]) ** 2  # H leaking into the lower branch
    assert wrong_port == pytest.approx(10 ** (-1.7), rel=1e-12)
    assert wrong_port == pytest.approx(0.020, abs=0.0005)
    # H and V never mix
    assert not m[0::2, 1::2].any() and not m[1::2, 0::2].any()
    assert_unitary(m)


def test_pbs_rejects_nonpositive_extinction():
    with pytest.raises(ValueError):
        pbs_transfer(0.0)


def test_bs_special_points():
    bal = ideal_bs()
    m = bs_transfer(bal)
    assert abs(m[1, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    full = BsSpec(section_length_mm=3.0, kappa_per_mm=math.pi / (4.0 * 3.0))
    assert abs(bs_transfer(full)[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert_unitary(m)


def test_bs_reversal_reduces_to_uniform_coupler():
    bs = BsSpec(kappa_per_mm=0.3, u11_v=0.0, u12_v=0.0)
    single = coupler_section_matrix(0.3, 0.0, 2 * bs.section_length_mm)
    assert np.max(np.abs(bs_transfer(bs) - single)) < 1e-12
    # equal per-section detunings compose like one uniform section
    bs2 = BsSpec(kappa_per_mm=0.3, u11_v=4.0, u12_v=-4.0)
    delta = bs2.detuning_per_volt_per_mm * 4.0
    single2 = coupler_section_matrix(0.3, delta, 2 * bs2.section_length_mm)
    assert np.max(np.abs(bs_transfer(bs2) - single2)) < 1e-12


# ---------------------------------------------------------------- propagation


def test_propagation_identity_at_zero_length(model):
    grid = SpectralGrid(samples=512)
    ph = propagation_transfer("H", 0.0, grid, model)
    assert np.allclose(ph, 1.0)


def test_propagation_relative_phase_slope_is_walk_off(model):
    from homchip.dispersion import walk_off_time

    grid = SpectralGrid(samples=1024)
    ph_h = propagation_transfer("H", 10.0, grid, model)
    ph_v = propagation_transfer("V", 10.0, grid, model)
    rel = np.unwrap(np.angle(ph_h * np.conj(ph_v)))
    slope = (rel[-1] - rel[0]) / (grid.detunings[-1] - grid.detunings[0])
    assert slope * 1e12 == pytest.approx(walk_off_time(model, 10.0), rel=1e-9)


@pytest.mark.parametrize("samples", [2, 1000, 4096, 8192])
def test_propagation_matches_direct_exponential(model, samples):
    # the phases come from sqrt(N)-wide block tables; B = ceil(sqrt N)
    # divides neither 1000 nor 8192, so the last block is trimmed
    grid = SpectralGrid(samples=samples)
    for pol in ("H", "V"):
        ng = float(group_index(model, pol, grid.center_wavelength_nm))
        for length_mm in (0.0, 1.27, 12.7, 25.4):
            direct = np.exp(1j * grid.omega_plus * ng * (length_mm * 1e-3) / C)
            phases = propagation_transfer(pol, length_mm, grid, model)
            assert phases.shape == (samples,)
            assert np.max(np.abs(phases - direct)) <= 1e-9


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lengths=st.lists(st.floats(0.0, 80.0), min_size=1, max_size=20),
    samples=st.one_of(st.sampled_from([2, 1000, 4096, 8192]), st.integers(1, 4096).map(lambda h: 2 * h)),
    half_width_nm=st.floats(0.5, 300.0),
)
def test_propagation_rows_equal_scalar_calls(model, lengths, samples, half_width_nm):
    grid = SpectralGrid(half_width_nm=half_width_nm, samples=samples)
    for pol in ("H", "V"):
        rows = propagation_transfer(pol, np.array(lengths), grid, model)
        assert rows.shape == (len(lengths), samples)
        for length_mm, row in zip(lengths, rows):
            assert np.array_equal(row, propagation_transfer(pol, length_mm, grid, model))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    samples=st.one_of(st.sampled_from([2, 4096, 8192]), st.integers(1, 4096).map(lambda h: 2 * h)),
    half_width_nm=st.floats(0.5, 300.0),
    on_half_detunings=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 40),
    reach_s=st.floats(1e-15, 1e-9),
)
def test_phase_blocks_equal_complex_exponential(
    samples, half_width_nm, on_half_detunings, seed, count, reach_s
):
    grid = SpectralGrid(half_width_nm=half_width_nm, samples=samples)
    # the dip kernel's Omega > 0 half axis, or the propagation phases' omega0 + Omega
    axis = grid.detunings[samples // 2 :] if on_half_detunings else grid.omega_plus
    rng = np.random.default_rng(seed)
    taus_s = np.concatenate([[0.0], rng.uniform(-reach_s, reach_s, count)])
    starts, within = grid.block_starts(taus_s, axis), grid.block_offsets(taus_s, axis)
    block = within.shape[-1]
    assert np.array_equal(starts, np.exp(1j * np.multiply.outer(taus_s, axis[::block])))
    assert np.array_equal(
        within, np.exp(1j * np.multiply.outer(taus_s, np.arange(block) * grid.d_omega))
    )
    # phases() assembles sample pB + q as starts[p] * within[q]
    k = np.arange(len(axis))
    assert np.array_equal(grid.phases(taus_s, axis), starts[:, k // block] * within[:, k % block])


def test_propagation_rejects_negative_lengths(model):
    with pytest.raises(ValueError):
        propagation_transfer("H", [1.0, -0.5], SpectralGrid(samples=64), model)


def test_propagation_composes_additively(model):
    grid = SpectralGrid(samples=512)
    two = propagation_transfer("V", 3.0, grid, model) * propagation_transfer(
        "V", 4.5, grid, model
    )
    one = propagation_transfer("V", 7.5, grid, model)
    assert np.max(np.abs(two - one)) < 1e-9


def test_propagation_pair_equals_explicit_delay_line(model):
    # H then V over the same length acts as a pure relative delay
    from homchip.dispersion import walk_off_time

    grid = SpectralGrid(samples=1024)
    ph = propagation_transfer("H", 5.0, grid, model) * np.conj(
        propagation_transfer("V", 5.0, grid, model)
    )
    tau = walk_off_time(model, 5.0) * 1e-12
    explicit = np.exp(1j * grid.detunings * tau)
    rel = ph / ph[grid.samples // 2]
    expl = explicit / explicit[grid.samples // 2]
    assert np.max(np.abs(rel - expl)) < 1e-9


# ---------------------------------------------------------------- filters


def test_filter_shapes():
    lam = np.array([1550.5, 1551.7, 1552.85, 1552.9])
    rect = FilterSpec("rectangular", 1551.7, 2.3)
    amp = filter_amplitude(rect, lam)
    assert amp[1] == 1.0
    assert amp[2] == 1.0  # edge inclusive
    assert amp[3] == 0.0
    lor = FilterSpec("lorentzian", 1551.7, 1.2)
    at_half = filter_amplitude(lor, np.array([1551.7 + 0.6]))
    assert abs(at_half[0]) ** 2 == pytest.approx(0.5, rel=1e-12)
    none = FilterSpec("none")
    assert np.all(filter_amplitude(none, lam) == 1.0)


def test_filter_amplitude_bounded():
    lam = np.linspace(1500.0, 1600.0, 2001)
    for flt in (
        FilterSpec("rectangular", 1551.7, 2.3),
        FilterSpec("lorentzian", 1551.7, 1.2),
        FilterSpec("none"),
    ):
        assert np.max(np.abs(filter_amplitude(flt, lam))) <= 1.0 + 1e-15


def test_filter_validation():
    with pytest.raises(ValueError):
        FilterSpec("gaussian", 1551.7, 1.0)
    with pytest.raises(ValueError):
        FilterSpec("rectangular", 1551.7, 0.0)


# ---------------------------------------------------------------- unitarity


def test_all_lossless_elements_unitary_at_random_wavelengths(model, pm):
    rng = np.random.default_rng(42)
    lam = rng.uniform(1545.0, 1558.0, size=250)
    for u_frac in (0.0, 0.3, 1.0):
        pc = PcSpec(voltage_v=u_frac * PcSpec().full_voltage_v)
        assert_unitary(pc_transfer(pc, lam, model, pm))
        assert_unitary(pc_chain_matrix(pc, lam, model, pm))
    for ext in (3.0, 17.0, math.inf):
        assert_unitary(pbs_transfer(ext))
    for u1, u2 in ((0.0, 0.0), (2.0, 2.0), (5.0, -3.0)):
        assert_unitary(bs_transfer(BsSpec(u11_v=u1, u12_v=u2)))
