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
import sys
from dataclasses import dataclass, replace

from . import _numpy as np
from . import dispersion
from .grid import C_VACUUM, OPERATING_WAVELENGTH_NM, SpectralGrid, _cis

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
        if not all(-math.inf < s < 0 for s in (self.pdc_slope_nm_per_c, self.pc_slope_nm_per_c)):
            raise ValueError("tuning slopes are negative and finite as measured")
        if not 0 < self.pdc_length_mm < math.inf:
            raise ValueError("pdc_length_mm must be positive and finite")


@dataclass(frozen=True)
class PcSpec:
    """One polarization converter (or one driven triple of segments)."""

    length_mm: float = 7.62
    voltage_v: float | None = None  # None = full-conversion drive
    voltage_length_product_v_cm: float = 15.0
    temperature_c: float = OPERATING_TEMPERATURE_C

    def __post_init__(self):
        # written so that NaN fails each check, as in PmSpec
        if not 0 < self.length_mm < math.inf:
            raise ValueError("length_mm must be positive and finite")
        if not 0 < self.voltage_length_product_v_cm < math.inf:
            raise ValueError("voltage_length_product_v_cm must be positive and finite")
        if self.voltage_v is not None and not abs(self.voltage_v) < math.inf:
            raise ValueError("voltage_v must be finite (or None for full conversion)")
        if not abs(self.temperature_c) < math.inf:
            raise ValueError("temperature_c must be finite")

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
        if not conversion_db > 0:
            raise ValueError("conversion_db must be > 0 (inf for full conversion)")
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
        if not (0 < self.section_length_mm < math.inf and 0 <= self.kappa_per_mm < math.inf):
            raise ValueError("coupler geometry must be positive and finite")
        if not all(
            abs(v) < math.inf for v in (self.detuning_per_volt_per_mm, self.u11_v, self.u12_v)
        ):
            raise ValueError("coupler detuning and control voltages must be finite")


@dataclass(frozen=True)
class FilterSpec:
    """A real detection filter; None, wherever a filter is taken, is no filter."""

    shape: str  # rectangular | lorentzian
    center_nm: float
    width_nm: float  # full width; FWHM of the intensity for lorentzian

    def __post_init__(self):
        if self.shape not in ("rectangular", "lorentzian"):
            raise ValueError(f"unknown filter shape {self.shape!r}")
        if not 0 < self.width_nm < math.inf:
            raise ValueError("width_nm must be positive and finite for a real filter")
        if not 0 < self.center_nm < math.inf:
            raise ValueError("center_nm must be positive and finite")


# ---------------------------------------------------------------------------
# phase matching and the pair-source spectrum


def pm_center_vs_temperature(pm: PmSpec, process: str, temperature_c: float) -> float:
    """Phase-matched center wavelength of 'PDC' or 'PC' at a temperature."""
    if not abs(temperature_c - pm.reference_temperature_c) <= 20.0:  # NaN fails too
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


def _sinc(x):
    """sin(x) / x, and 1 at x = 0: np.sinc(x / pi), on a float or an array.
    A float runs np.sinc's operations in its order, its zero guard (eps
    for a zero) included, with math.sin, libm's sine as np.sin's float64
    loop is, so it gets the bits of its entry in an array."""
    if isinstance(x, float):
        y = math.pi * (x / math.pi)
        y = y or sys.float_info.epsilon
        return math.sin(y) / y
    return np.sinc(np.asarray(x) / np.pi)


def _pdc_tuning(pm: PmSpec, temperature_c, model) -> tuple:
    """(center_nm, a) of the pair source: the temperature-tuned degeneracy
    wavelength and the sinc scale a = dng L / (2c) in seconds, dng taken
    at that center."""
    t = pm.reference_temperature_c if temperature_c is None else temperature_c
    center_nm = pm_center_vs_temperature(pm, "PDC", t)
    dng = dispersion.group_index_difference(model, center_nm)
    return center_nm, dng * pm.pdc_length_mm * 1e-3 / (2.0 * C_VACUUM)


def _pdc_detuning(pm: PmSpec, grid: SpectralGrid, temperature_c, model) -> tuple:
    """(omega_c, a) of the pair source on a grid: the tuned center's
    angular frequency minus grid.omega0, rad/s, and a (_pdc_tuning)."""
    center_nm, a = _pdc_tuning(pm, temperature_c, model)
    omega_center = 2.0 * np.pi * C_VACUUM / (center_nm * 1e-9)
    return omega_center - grid.omega0, a


def pdc_amplitude(
    pm: PmSpec,
    grid: SpectralGrid,
    temperature_c: float | None = None,
    *,
    model: dispersion.DispersionModel,
) -> "np.ndarray":
    """Sinc-shaped phase-matching amplitude of the CW-pumped pair source.

    The wave-vector mismatch is expanded to first order in the
    group-velocity difference, so the amplitude is
    sinc(dng * L / (2c) * (Omega - Omega_c)) with the center detuning
    Omega_c set by the temperature-tuned degeneracy wavelength.
    Normalized to unit power on the grid.  A grid reaching outside the
    dispersion model's validity range raises WavelengthRangeError before
    anything else is computed.
    """
    lam = grid.wavelength_plus_nm
    dispersion.check_range(model, (float(lam[0]), float(lam[-1])))
    omega_c, a = _pdc_detuning(pm, grid, temperature_c, model)
    phi = _sinc(a * (grid.detunings - omega_c))
    norm = np.sqrt(np.sum(np.abs(phi) ** 2) * grid.d_omega)
    return phi.astype(complex) / norm


def shg_spectrum(
    pm: PmSpec,
    wavelength_nm: list,
    temperature_c: float | None = None,
    *,
    model: dispersion.DispersionModel,
) -> list:
    """Normalized frequency-doubling response of the pair-source section.

    The reverse process maps out the same phase-matching curve, so this
    is the unit-peak sinc^2 around the temperature-tuned center.

    wavelength_nm is a list of floats (phasematch's axis) and so is the
    result, computed without numpy: each sample runs the operations of
    the array form (tests/references.py) in its order, and the squared
    sinc is a product as np.square's, so it gets that form's bits.
    """
    center_nm, a = _pdc_tuning(pm, temperature_c, model)
    two_pi_c = 2.0 * math.pi * C_VACUUM
    omega_center = two_pi_c / (center_nm * 1e-9)
    spectrum = []
    for lam in wavelength_nm:
        # detuning of the fundamental from the phase-matched center
        s = _sinc(a * (two_pi_c / (lam * 1e-9) - omega_center))
        spectrum.append(s * s)
    return spectrum


# ---------------------------------------------------------------------------
# polarization converter


def _pc_delta_length(pc: PcSpec, wavelength_nm, model, pm):
    """delta * L, with delta linearized around the converter center, at
    each float of a list (phasematch's axis) or on a float array (anything
    else, a scalar as a 0-d array), with what does not depend on the
    wavelength computed once: the same operations in the same order on
    each, so a list's float gets the bits of its entry in an array."""
    center_nm = pm_center_vs_temperature(pm, "PC", pc.temperature_c)
    dng = dispersion.group_index_difference(model, center_nm)
    ddelta_dlam = -math.pi * dng / (center_nm * 1e-9) ** 2  # 1/m per m

    def delta_length(lam):
        return ddelta_dlam * (lam - center_nm) * 1e-9 * pc.length_mm * 1e-3

    if isinstance(wavelength_nm, list):
        return [delta_length(lam) for lam in wavelength_nm]
    return delta_length(np.asarray(wavelength_nm, dtype=float))


def pc_lobe_width_nm(length_mm, wavelength_nm, model) -> float:
    """Wavelength span over which a converter's delta L, linearized at
    wavelength_nm as _pc_delta_length does, moves by pi: lambda^2 / (dng L)."""
    dng = dispersion.group_index_difference(model, wavelength_nm)
    return wavelength_nm**2 * 1e-6 / (dng * length_mm)


def _over_gamma(x, gamma_l):
    """x / g, and 0 where g = 0."""
    out = np.zeros(np.broadcast(x, gamma_l).shape)
    return np.divide(x, gamma_l, out=out, where=gamma_l > 0)


def _coupled_mode_terms(kappa_l, delta_l):
    """g = |(k, d)| L, sin g and the conversion amplitude -i (k/g) sin g of
    the coupled-mode solution for the products kappa*L, delta*L; the sine
    and the amplitude are 0 where g = 0 (g >= 0, and sin 0 is 0).

    delta_l is a float (kappa_l a float too) or an array.  A float takes
    g as the abs of a complex, libm's hypot as np.hypot's (math.hypot has
    its own algorithm and differs in the last bit), and math.sin, so g, sin
    g and |amplitude| get the bits of their entries in an array."""
    if isinstance(delta_l, float):
        gamma_l = abs(complex(kappa_l, delta_l))
        sin_term = math.sin(gamma_l)
        return gamma_l, sin_term, -1j * (kappa_l / gamma_l if gamma_l > 0 else 0.0) * sin_term
    kappa_l = np.asarray(kappa_l, dtype=float)
    gamma_l = np.hypot(kappa_l, np.asarray(delta_l, dtype=float))
    sin_term = np.sin(gamma_l)
    return gamma_l, sin_term, -1j * _over_gamma(kappa_l, gamma_l) * sin_term


def _coupled_mode_matrix(kappa_l, delta_l):
    """Codirectional coupled-mode matrix for products kappa*L, delta*L.

    [[cos g + i (d/g) sin g, -i (k/g) sin g],
     [-i (k/g) sin g,         cos g - i (d/g) sin g]]  with g = |(k, d)| L.

    Shape (..., 2, 2), a view of component-major (2, 2, ...) rows
    (_coupled_mode_rows), so each entry [..., a, b] is one contiguous row.
    """
    return _entries_last(_coupled_mode_rows(kappa_l, delta_l))


def _coupled_mode_rows(kappa_l, delta_l):
    """_coupled_mode_matrix, component-major: entry [a, b] is row rows[a, b]."""
    delta_l = np.asarray(delta_l, dtype=float)  # the matrices take the array path
    gamma_l, sin_term, off = _coupled_mode_terms(kappa_l, delta_l)
    d_frac = _over_gamma(delta_l, gamma_l)
    rows = np.empty((2, 2) + np.broadcast(kappa_l, delta_l).shape, dtype=complex)
    rows[0, 0] = np.cos(gamma_l) + 1j * d_frac * sin_term
    rows[1, 1] = np.conj(rows[0, 0])
    rows[0, 1] = rows[1, 0] = off
    return rows


def _entries_last(rows):
    """The (..., 2, 2) view of component-major (2, 2, ...) matrix rows."""
    return np.moveaxis(rows, (0, 1), (-2, -1))


def pc_transfer(
    pc: PcSpec, wavelength_nm, model: dispersion.DispersionModel, pm: PmSpec
) -> "np.ndarray":
    """Converter Jones matrix on (H, V) at the given wavelength(s).

    Returns shape (2, 2) for a scalar wavelength, (N, 2, 2) for arrays.
    Unitary for any drive; U = 0 is the identity up to the mismatch
    propagation phases.
    """
    delta_l = _pc_delta_length(pc, wavelength_nm, model, pm)
    return _coupled_mode_matrix(pc.kappa_length, delta_l)


def pc_chain_matrix(
    pc: PcSpec, wavelength_nm, model: dispersion.DispersionModel, pm: PmSpec
) -> "np.ndarray":
    """Converter matrix lumped at the element midpoint.

    Sandwiched between two half-length birefringent propagation phases
    this reproduces the exact coupled-mode solution up to constant gauge
    phases: the mismatch propagation factors exp(-/+ i delta L) dress the
    unconverted diagonal, the conversion amplitudes stay -i (kappa/gamma)
    sin(gamma L), and an undriven converter is the identity to rounding
    only (no sample need be exactly I).  The converted wave then carries
    the mean of the two group delays, i.e. the polarization swap
    effectively happens at the element midpoint, matching the
    delay-schedule bookkeeping.
    Shape and layout as for _coupled_mode_matrix.
    """
    delta_l = _pc_delta_length(pc, wavelength_nm, model, pm)
    rows = _coupled_mode_rows(pc.kappa_length, delta_l)
    phase = _cis(-delta_l)  # the bits of np.exp(-1j * delta_l)
    # in place; for a scalar wavelength rows[0, 0] is a copy, since a
    # product onto its own 0-d row rounds differently
    np.multiply(rows[0, 0], phase, out=rows[0, 0, ...])
    np.multiply(rows[1, 1], np.conj(phase), out=rows[1, 1, ...])
    return _entries_last(rows)


def pc_flat_matrix(pc: PcSpec) -> "np.ndarray":
    """Frequency-independent converter matrix (idealized: no phase mismatch
    anywhere, conversion set by the drive alone)."""
    return _coupled_mode_matrix(pc.kappa_length, 0.0)


def pc_conversion_amplitude(pc, wavelength_nm, model, pm) -> "np.ndarray":
    """H->V conversion amplitude -i (kappa/gamma) sin(gamma L): the [1, 0]
    entry of pc_transfer, bit for bit, without building the matrix."""
    return _coupled_mode_terms(pc.kappa_length, _pc_delta_length(pc, wavelength_nm, model, pm))[2]


def pc_transmission_spectrum(pc, wavelength_nm: list, model, pm) -> list:
    """Unconverted power 1 - |conversion|^2, as measured behind a polarizer.

    wavelength_nm is a list of floats (phasematch's axis) and so is the
    result, computed without numpy: delta L once per spectrum's constants
    (_pc_delta_length), then per sample the float path of
    _coupled_mode_terms, whose libm hypot gives the array form's bits
    (tests/references.py), and |conversion|^2 as a product, as np.square.
    """
    kappa_l = pc.kappa_length
    spectrum = []
    for delta_l in _pc_delta_length(pc, wavelength_nm, model, pm):
        conv = abs(_coupled_mode_terms(kappa_l, delta_l)[2])
        spectrum.append(1.0 - conv * conv)
    return spectrum


# ---------------------------------------------------------------------------
# polarizing splitter and balanced splitter


def pbs_transfer(extinction_db: float = math.inf) -> "np.ndarray":
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
    if not extinction_db > 0:
        raise ValueError("extinction_db must be > 0 (use inf for ideal)")
    eps = 0.0 if math.isinf(extinction_db) else 10.0 ** (-extinction_db / 10.0)
    r = math.sqrt(eps)
    t = math.sqrt(1.0 - eps)
    m = np.zeros((4, 4), dtype=complex)
    # (upper, lower) path blocks of each polarization, modes path-major
    # H block: bar-dominant rotation
    m[0::2, 0::2] = [[t, -r], [r, t]]
    # V block: cross-dominant, wrong-port amplitude in quadrature
    m[1::2, 1::2] = [[-1j * r, t], [t, -1j * r]]
    return m


def coupler_section_matrix(kappa_per_mm, delta_per_mm, length_mm) -> "np.ndarray":
    """Single uniform coupler section on the two paths."""
    return _coupled_mode_matrix(kappa_per_mm * length_mm, delta_per_mm * length_mm)


def bs_transfer(bs: BsSpec) -> "np.ndarray":
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


def ideal_bs() -> BsSpec:
    """Coupler that is exactly balanced at zero volts (kappa*2l = pi/4)."""
    section = 3.0
    return BsSpec(section_length_mm=section, kappa_per_mm=math.pi / (8.0 * section))


# ---------------------------------------------------------------------------
# propagation and filters


def propagation_transfer(
    pol, length_mm, grid: SpectralGrid, model: dispersion.DispersionModel
) -> "np.ndarray":
    """Per-sample phases exp(i w tau), tau = n_g L / c, in the group-delay
    approximation, at w = omega0 + Omega.

    n_g is evaluated at the grid center (once per model, polarization and
    center), so the relative phase slope between the polarizations over
    the grid equals the walk-off time.  The phases come from
    SpectralGrid.phases.

    length_mm may be a scalar, giving shape (N,), or an array of K
    lengths, giving (K, N); every row equals the scalar call for its
    length bit for bit, because the phases are elementwise in tau.
    """
    lengths = np.asarray(length_mm, dtype=float)
    if not np.all((0 <= lengths) & (lengths < math.inf)):
        raise ValueError("length_mm must be >= 0 and finite")
    ng = dispersion.group_index(model, pol, grid.center_wavelength_nm)
    return grid.phases(ng * (lengths * 1e-3) / C_VACUUM, grid.omega_plus)


def filter_amplitude(flt: FilterSpec, wavelength_nm) -> "np.ndarray":
    """Field transmission of a detection filter, |amplitude| <= 1."""
    detune = np.asarray(wavelength_nm, dtype=float) - flt.center_nm
    if flt.shape == "rectangular":
        inside = np.abs(detune) <= flt.width_nm / 2.0
        return inside.astype(complex)
    # lorentzian intensity with the given FWHM
    return np.sqrt(1.0 / (1.0 + (2.0 * detune / flt.width_nm) ** 2)).astype(complex)
