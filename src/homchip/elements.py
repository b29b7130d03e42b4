"""Frequency-dependent transfer functions of the on-chip elements.

Covers the photon-pair source spectrum, the electro-optic polarization
converters (integrated folded-Solc filters), the polarizing splitter,
the two-section reversed-detuning coupler used as the balanced splitter,
birefringent propagation phases, and the detection filters.

Conventions:
  * Polarization converter: coupled-mode solution with per-length
    coupling kappa proportional to the drive voltage (full conversion at
    kappa*L = pi/2, i.e. at U_full = voltage_length_product / length)
    and half phase mismatch delta = (beta_H - beta_V - 2*pi/Lambda) / 2.
    The mismatch is linearized around the converter's phase-matched
    center wavelength, which the temperature tuning lines pin; the
    conversion amplitude carries a fixed -i.
  * Phase matching enters through linear temperature-tuning lines that
    cross at the operating point (43.6 C, 1551.7 nm) with slopes
    -0.15 nm/C (pair source) and -0.7 nm/C (converters).
  * All matrices are unitary; scalar losses live in the rate budget.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dispersion
from .grid import C_VACUUM, OPERATING_WAVELENGTH_NM, SpectralGrid
from .modes import N_MODES, Path, Polarization, mode_index

OPERATING_TEMPERATURE_C = 43.6


# ---------------------------------------------------------------------------
# element parameter records


@dataclass(frozen=True)
class PmSpec:
    """Phase-matching operating point and tuning slopes."""

    center_nm: float = OPERATING_WAVELENGTH_NM
    reference_temperature_c: float = OPERATING_TEMPERATURE_C
    pdc_slope_nm_per_c: float = -0.15
    pc_slope_nm_per_c: float = -0.7
    pdc_length_mm: float = 20.7

    def __post_init__(self):
        if self.pdc_slope_nm_per_c >= 0 or self.pc_slope_nm_per_c >= 0:
            raise ValueError("tuning slopes are negative as measured")
        if self.pdc_length_mm <= 0:
            raise ValueError("pdc_length_mm must be > 0")


@dataclass(frozen=True)
class PcSpec:
    """One polarization converter (or one driven triple of segments)."""

    length_mm: float = 7.62
    voltage_v: float | None = None  # None = full-conversion drive
    voltage_length_product_v_cm: float = 15.0
    temperature_c: float = OPERATING_TEMPERATURE_C

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ValueError("length_mm must be > 0")
        if self.voltage_length_product_v_cm <= 0:
            raise ValueError("voltage_length_product_v_cm must be > 0")

    @property
    def full_voltage_v(self) -> float:
        """Drive for complete conversion: U_full = (V*cm product) / length."""
        return self.voltage_length_product_v_cm / (self.length_mm * 0.1)

    @property
    def drive_voltage_v(self) -> float:
        return self.full_voltage_v if self.voltage_v is None else self.voltage_v

    @property
    def kappa_length(self) -> float:
        """kappa * L = (pi/2) * U / U_full."""
        return 0.5 * math.pi * self.drive_voltage_v / self.full_voltage_v

    def with_drive_efficiency(self, efficiency: float) -> "PcSpec":
        """Drive at kappa*L = (pi/2) * sqrt(efficiency)."""
        if not 0.0 <= efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        return replace(self, voltage_v=self.full_voltage_v * math.sqrt(efficiency))

    def with_conversion_db(self, conversion_db: float) -> "PcSpec":
        """Drive so the on-peak unconverted residual is -conversion_db."""
        if conversion_db <= 0:
            raise ValueError("conversion_db must be > 0")
        conv = 1.0 - 10.0 ** (-conversion_db / 10.0)
        kappa_l = math.asin(math.sqrt(conv))
        return replace(
            self, voltage_v=self.full_voltage_v * kappa_l / (0.5 * math.pi)
        )


@dataclass(frozen=True)
class BsSpec:
    """Two-section coupler with reversible detuning electrodes.

    The coupling constant and detuning-per-volt are not published for
    the device; the defaults are chosen so the balanced point is
    reachable with modest voltages.
    """

    section_length_mm: float = 3.0
    kappa_per_mm: float = 0.3
    detuning_per_volt_per_mm: float = 0.1
    u11_v: float = 0.0
    u12_v: float = 0.0

    def __post_init__(self):
        if self.section_length_mm <= 0 or self.kappa_per_mm < 0:
            raise ValueError("coupler geometry must be positive")


@dataclass(frozen=True)
class FilterSpec:
    shape: str = "none"  # rectangular | lorentzian | none
    center_nm: float = OPERATING_WAVELENGTH_NM
    width_nm: float = 0.0  # full width; FWHM of the intensity for lorentzian

    def __post_init__(self):
        if self.shape not in ("rectangular", "lorentzian", "none"):
            raise ValueError(f"unknown filter shape {self.shape!r}")
        if self.shape != "none" and not 0 < self.width_nm < math.inf:
            raise ValueError("width_nm must be positive and finite for a real filter")


# ---------------------------------------------------------------------------
# phase matching and the pair-source spectrum


def pm_center_vs_temperature(pm: PmSpec, process: str, temperature_c: float) -> float:
    """Phase-matched center wavelength of 'PDC' or 'PC' at a temperature."""
    if abs(temperature_c - pm.reference_temperature_c) > 20.0:
        raise ValueError(
            "temperature more than 20 C from the reference; the linear "
            "tuning model is not trusted there"
        )
    proc = process.upper()
    if proc == "PDC":
        slope = pm.pdc_slope_nm_per_c
    elif proc == "PC":
        slope = pm.pc_slope_nm_per_c
    else:
        raise ValueError(f"unknown process {process!r}; expected 'PDC' or 'PC'")
    return pm.center_nm + slope * (temperature_c - pm.reference_temperature_c)


def _wavelengths_of(grid_or_wavelengths):
    if isinstance(grid_or_wavelengths, SpectralGrid):
        return grid_or_wavelengths.wavelength_plus_nm
    return np.asarray(grid_or_wavelengths, dtype=float)


def _sinc(x):
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class PdcAmplitude:
    """Pair-source spectral amplitude on a grid, unit-normalized.

    lobe_coverage counts how many phase-matching lobes fit on the narrow
    side of the grid; below 1 the main lobe is clipped and the result is
    flagged rather than rejected.  lobe_samples counts the grid samples
    across one lobe width pi / a in Omega.
    """

    values: np.ndarray
    main_lobe_contained: bool
    lobe_coverage: float
    lobe_samples: float


def pdc_amplitude(
    pm: PmSpec,
    grid: SpectralGrid,
    temperature_c: float | None = None,
    model: dispersion.DispersionModel | None = None,
) -> PdcAmplitude:
    """Sinc-shaped phase-matching amplitude of the CW-pumped pair source.

    The wave-vector mismatch is expanded to first order in the
    group-velocity difference, so the amplitude is
    sinc(dng * L / (2c) * (Omega - Omega_c)) with the center detuning
    Omega_c set by the temperature-tuned degeneracy wavelength.
    Normalized to unit power on the grid; a too-narrow grid is flagged.
    A grid reaching outside the dispersion model's validity range raises
    WavelengthRangeError before anything else is computed.
    """
    model = model or dispersion.default_model()
    dispersion.check_range(model, grid.wavelength_plus_nm[[0, -1]])
    t = pm.reference_temperature_c if temperature_c is None else temperature_c
    center_nm = pm_center_vs_temperature(pm, "PDC", t)
    dng = float(dispersion.group_index_difference(model, center_nm))
    a = dng * pm.pdc_length_mm * 1e-3 / (2.0 * C_VACUUM)  # seconds

    omega_center = 2.0 * np.pi * C_VACUUM / (center_nm * 1e-9)
    omega_c = omega_center - grid.omega0
    phi = _sinc(a * (grid.detunings - omega_c))
    norm = np.sqrt(np.sum(np.abs(phi) ** 2) * grid.d_omega)
    phi = phi.astype(complex) / norm

    lobe_edge = np.pi / a
    coverage = (grid.half_width_omega - abs(omega_c)) / lobe_edge
    return PdcAmplitude(
        values=phi,
        main_lobe_contained=bool(coverage >= 1.0),
        lobe_coverage=float(coverage),
        lobe_samples=float(lobe_edge / grid.d_omega),
    )


def shg_spectrum(
    pm: PmSpec,
    grid_or_wavelengths,
    temperature_c: float | None = None,
    model: dispersion.DispersionModel | None = None,
) -> np.ndarray:
    """Normalized frequency-doubling response of the pair-source section.

    The reverse process maps out the same phase-matching curve, so this
    is the unit-peak sinc^2 around the temperature-tuned center.
    """
    model = model or dispersion.default_model()
    t = pm.reference_temperature_c if temperature_c is None else temperature_c
    center_nm = pm_center_vs_temperature(pm, "PDC", t)
    lam = _wavelengths_of(grid_or_wavelengths)
    dng = float(dispersion.group_index_difference(model, center_nm))
    a = dng * pm.pdc_length_mm * 1e-3 / (2.0 * C_VACUUM)
    # detuning of the fundamental from the phase-matched center
    omega = 2.0 * np.pi * C_VACUUM / (lam * 1e-9)
    omega_center = 2.0 * np.pi * C_VACUUM / (center_nm * 1e-9)
    return _sinc(a * (omega - omega_center)) ** 2


# ---------------------------------------------------------------------------
# polarization converter


def _pc_delta_length(pc: PcSpec, wavelength_nm, model, pm):
    """delta * L, with delta linearized around the converter center."""
    center_nm = pm_center_vs_temperature(pm, "PC", pc.temperature_c)
    dng = float(dispersion.group_index_difference(model, center_nm))
    lam = np.asarray(wavelength_nm, dtype=float)
    ddelta_dlam = -np.pi * dng / (center_nm * 1e-9) ** 2  # 1/m per m
    delta = ddelta_dlam * (lam - center_nm) * 1e-9
    return delta * pc.length_mm * 1e-3


def _coupled_mode_matrix(kappa_l, delta_l):
    """Codirectional coupled-mode matrix for products kappa*L, delta*L.

    [[cos g + i (d/g) sin g, -i (k/g) sin g],
     [-i (k/g) sin g,         cos g - i (d/g) sin g]]  with g = |(k, d)| L.
    """
    kappa_l = np.asarray(kappa_l, dtype=float)
    delta_l = np.asarray(delta_l, dtype=float)
    gamma_l = np.hypot(kappa_l, delta_l)
    sin_term = np.where(gamma_l > 0, np.sin(gamma_l), 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        k_frac = np.where(gamma_l > 0, kappa_l / np.where(gamma_l > 0, gamma_l, 1.0), 0.0)
        d_frac = np.where(gamma_l > 0, delta_l / np.where(gamma_l > 0, gamma_l, 1.0), 0.0)
    diag = np.cos(gamma_l) + 1j * d_frac * sin_term
    off = -1j * k_frac * sin_term
    out = np.empty(np.broadcast(kappa_l, delta_l).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = diag
    out[..., 1, 1] = np.conj(diag)
    out[..., 0, 1] = off
    out[..., 1, 0] = off
    return out


def pc_transfer(
    pc: PcSpec,
    wavelength_nm,
    model: dispersion.DispersionModel | None = None,
    pm: PmSpec | None = None,
) -> np.ndarray:
    """Converter Jones matrix on (H, V) at the given wavelength(s).

    Returns shape (2, 2) for a scalar wavelength, (N, 2, 2) for arrays.
    Unitary for any drive; U = 0 is the identity up to the mismatch
    propagation phases.
    """
    model = model or dispersion.default_model()
    pm = pm or PmSpec()
    delta_l = _pc_delta_length(pc, wavelength_nm, model, pm)
    return _coupled_mode_matrix(pc.kappa_length, delta_l)


def pc_chain_matrix(
    pc: PcSpec,
    wavelength_nm,
    model: dispersion.DispersionModel | None = None,
    pm: PmSpec | None = None,
) -> np.ndarray:
    """Converter matrix lumped at the element midpoint.

    Sandwiched between two half-length birefringent propagation phases
    this reproduces the exact coupled-mode solution up to constant gauge
    phases: the mismatch propagation factors exp(-/+ i delta L) dress the
    unconverted diagonal, the conversion amplitudes stay -i (kappa/gamma)
    sin(gamma L), and an undriven converter is the exact identity.  The
    converted wave then carries the mean of the two group delays, i.e.
    the polarization swap effectively happens at the element midpoint,
    matching the delay-schedule bookkeeping.
    """
    model = model or dispersion.default_model()
    pm = pm or PmSpec()
    delta_l = _pc_delta_length(pc, wavelength_nm, model, pm)
    m = _coupled_mode_matrix(pc.kappa_length, delta_l)
    phase = np.exp(-1j * np.asarray(delta_l))
    out = np.array(m)
    out[..., 0, 0] = m[..., 0, 0] * phase
    out[..., 1, 1] = m[..., 1, 1] * np.conj(phase)
    return out


def pc_flat_matrix(pc: PcSpec) -> np.ndarray:
    """Frequency-independent converter matrix (idealized: no phase mismatch
    anywhere, conversion set by the drive alone)."""
    return _coupled_mode_matrix(pc.kappa_length, 0.0)


def pc_conversion_amplitude(pc, wavelength_nm, model=None, pm=None) -> np.ndarray:
    """H->V conversion amplitude -i (kappa/gamma) sin(gamma L)."""
    return pc_transfer(pc, wavelength_nm, model, pm)[..., 1, 0]


def pc_transmission_spectrum(pc, grid_or_wavelengths, model=None, pm=None) -> np.ndarray:
    """Unconverted power 1 - |conversion|^2, as measured behind a polarizer."""
    lam = _wavelengths_of(grid_or_wavelengths)
    conv = pc_conversion_amplitude(pc, lam, model, pm)
    return 1.0 - np.abs(conv) ** 2


# ---------------------------------------------------------------------------
# polarizing splitter and balanced splitter


def pbs_transfer(extinction_db: float = math.inf) -> np.ndarray:
    """4x4 mode matrix of the polarizing splitter.

    H stays in its waveguide (bar state, toward the segmented branch),
    V crosses.  Finite extinction leaks amplitude sqrt(10^(-ext/10))
    into the wrong port through a lossless per-polarization unitary.
    The relative phase between the H and V wrong-port amplitudes is not
    pinned by the available characterization; the quadrature convention
    used here makes the leakage contribution to the coincidence floor
    equal to its phase-averaged expectation (neither cancelling nor
    coherently doubling), so visibility degrades monotonically with
    worsening extinction.
    """
    if extinction_db <= 0:
        raise ValueError("extinction_db must be > 0 (use inf for ideal)")
    eps = 0.0 if math.isinf(extinction_db) else 10.0 ** (-extinction_db / 10.0)
    r = math.sqrt(eps)
    t = math.sqrt(1.0 - eps)
    m = np.zeros((N_MODES, N_MODES), dtype=complex)
    uh, uv = mode_index(Path.UPPER, Polarization.H), mode_index(Path.UPPER, Polarization.V)
    lh, lv = mode_index(Path.LOWER, Polarization.H), mode_index(Path.LOWER, Polarization.V)
    # H block: bar-dominant rotation
    m[uh, uh], m[uh, lh] = t, -r
    m[lh, uh], m[lh, lh] = r, t
    # V block: cross-dominant, wrong-port amplitude in quadrature
    m[uv, uv], m[uv, lv] = -1j * r, t
    m[lv, uv], m[lv, lv] = t, -1j * r
    return m


def coupler_section_matrix(kappa_per_mm, delta_per_mm, length_mm) -> np.ndarray:
    """Single uniform coupler section on the two paths."""
    return _coupled_mode_matrix(kappa_per_mm * length_mm, delta_per_mm * length_mm)


def bs_transfer(bs: BsSpec) -> np.ndarray:
    """2x2 path matrix of the reversed-detuning two-section coupler.

    M = M_half(-delta2) @ M_half(+delta1), with delta_i set by the two
    control voltages.  Equal-and-opposite drive reduces to the uniform
    coupler of twice the section length.
    """
    d1 = bs.detuning_per_volt_per_mm * bs.u11_v
    d2 = bs.detuning_per_volt_per_mm * bs.u12_v
    first = coupler_section_matrix(bs.kappa_per_mm, +d1, bs.section_length_mm)
    second = coupler_section_matrix(bs.kappa_per_mm, -d2, bs.section_length_mm)
    return second @ first


def bs_cross_ratio(bs: BsSpec) -> float:
    """|cross amplitude|^2 of the coupler."""
    return float(np.abs(bs_transfer(bs)[1, 0]) ** 2)


def ideal_bs() -> BsSpec:
    """Coupler that is exactly balanced at zero volts (kappa*2l = pi/4)."""
    section = 3.0
    return BsSpec(section_length_mm=section, kappa_per_mm=math.pi / (8.0 * section))


def calibrate_bs(bs: BsSpec) -> BsSpec:
    """Trim the coupler to a 50:50 split via equal voltages on both sections.

    Works for total couplings kappa*(2l) in [pi/4, 3pi/4], where the
    undriven cross power is >= 1/2 and grows smaller with drive.  The
    drive is found by bisection below 200 V.
    """

    def imbalance(u):
        return bs_cross_ratio(replace(bs, u11_v=u, u12_v=u)) - 0.5

    f0 = imbalance(0.0)
    if abs(f0) <= 1e-15:
        return replace(bs, u11_v=0.0, u12_v=0.0)
    if f0 < 0:
        raise ValueError(
            "undriven cross power below 1/2; the equal-drive trim cannot reach 50:50"
        )
    lo, hi = 0.0, 1.0
    while imbalance(hi) > 0:
        lo, hi = hi, 2.0 * hi
        if hi > 200.0:
            raise ValueError("no balanced point below the voltage limit")
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if imbalance(mid) > 0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    return replace(bs, u11_v=u, u12_v=u)


# ---------------------------------------------------------------------------
# propagation and filters


def propagation_transfer(
    pol,
    length_mm,
    grid: SpectralGrid,
    model: dispersion.DispersionModel | None = None,
) -> np.ndarray:
    """Per-sample phases exp(i w tau), tau = n_g L / c, in the group-delay
    approximation, at w = omega0 + Omega.

    n_g is evaluated at the grid center (once per model, polarization and
    center), so the relative phase slope between the polarizations over
    the grid equals the walk-off time.
    The N phases are the outer product of the grid's two phase blocks
    (SpectralGrid.phase_blocks): about 2 sqrt(N) exponentials.

    length_mm may be a scalar, giving shape (N,), or an array of K
    lengths, giving (K, N); every row equals the scalar call for its
    length bit for bit, because the phase blocks are elementwise in tau.
    """
    lengths = np.asarray(length_mm, dtype=float)
    if np.any(lengths < 0):
        raise ValueError("length_mm must be >= 0")
    model = model or dispersion.default_model()
    ng = dispersion.group_index_at(model, pol, grid.center_wavelength_nm)
    starts, within = grid.phase_blocks(ng * (lengths * 1e-3) / C_VACUUM, grid.omega_plus)
    phases = starts[..., :, None] * within[..., None, :]
    return phases.reshape(lengths.shape + (-1,))[..., : grid.samples]


def filter_amplitude(flt: FilterSpec, grid_or_wavelengths) -> np.ndarray:
    """Field transmission of a detection filter, |amplitude| <= 1."""
    lam = _wavelengths_of(grid_or_wavelengths)
    if flt.shape == "none":
        return np.ones_like(lam, dtype=complex)
    detune = lam - flt.center_nm
    if flt.shape == "rectangular":
        inside = np.abs(detune) <= flt.width_nm / 2.0
        return inside.astype(complex)
    # lorentzian intensity with the given FWHM
    return np.sqrt(1.0 / (1.0 + (2.0 * detune / flt.width_nm) ** 2)).astype(complex)
