"""Material dispersion of the birefringent waveguide chip.

Refractive indices come from a Sellmeier expansion of congruent LiNbO3
(default coefficient set: Zelmon et al. 1997, shipped as a data file so
waveguide-measured dispersion can be substituted).  On the z-cut
substrate the horizontal polarization maps to the ordinary axis and the
vertical polarization to the extraordinary axis.

Group indices are n_g = n - lambda * dn/dlambda with the derivative
taken by a 0.1 nm central difference, plus a constant per-polarization
calibration offset.  The offsets are chosen so that the group-index
difference at 1551.7 nm equals the measured 0.0805 exactly; all timing
quantities of the delay line derive from that number.  The uncalibrated
(raw Sellmeier) difference remains available so the calibration residual
can be reported rather than hidden.

Sign conventions, fixed and asserted throughout the package:
  * dng = n_gH - n_gV > 0  (H is the slow axis; V-polarized photons run
    ahead of H-polarized ones).
  * A positive walk-off time means the H photon arrives later.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from importlib import resources

from . import _numpy as np
from .grid import C_VACUUM, OPERATING_WAVELENGTH_NM


class Polarization(str, Enum):
    H = "H"
    V = "V"


#: Measured group-index difference at the calibration wavelength.
DEFAULT_GROUP_INDEX_DIFFERENCE = 0.0805
#: The difference was measured at the operating wavelength.
CALIBRATION_WAVELENGTH_NM = OPERATING_WAVELENGTH_NM

#: Central-difference step for dn/dlambda, in nm.
FD_STEP_NM = 0.1


class WavelengthRangeError(ValueError):
    """Wavelength outside the validity range of the coefficient set."""


@dataclass(frozen=True)
class DispersionModel:
    """Sellmeier coefficients plus group-index calibration offsets.

    Coefficient tuples are flat (B1, C1, B2, C2, ...) pairs of the
    standard n^2 = 1 + sum B*l^2/(l^2 - C) expansion, lambda in um.
    Any sequence is accepted and stored as a tuple, so the model stays
    hashable (group_index_at caches per model).
    """

    sellmeier_ordinary: tuple
    sellmeier_extraordinary: tuple
    ng_offset_h: float = 0.0
    ng_offset_v: float = 0.0
    valid_range_um: tuple = (0.5, 5.0)

    def __post_init__(self):
        for name in ("sellmeier_ordinary", "sellmeier_extraordinary", "valid_range_um"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("sellmeier_ordinary", "sellmeier_extraordinary"):
            coeffs = getattr(self, name)
            if len(coeffs) == 0 or len(coeffs) % 2 != 0:
                raise ValueError(f"{name} must hold (B, C) pairs")
        lo, hi = self.valid_range_um
        if not 0 < lo < hi:
            raise ValueError("valid_range_um must be an increasing positive pair")


def _real(values):
    """A real Python scalar as a float, anything else as a float array: the
    Sellmeier path below runs on either, so a scalar needs no numpy."""
    if isinstance(values, (int, float)):
        return float(values)
    return np.asarray(values, dtype=float)


def _sellmeier_n(coeffs, wavelength_um):
    """n(lambda) of one axis, wavelength_um a float or a float array
    (_real): the same operations in the same order on both, so a float
    gets the bits of its entry in an array."""
    lam2 = wavelength_um * wavelength_um
    n2 = 1.0 + sum(
        coeffs[i] * lam2 / (lam2 - coeffs[i + 1]) for i in range(0, len(coeffs), 2)
    )
    return math.sqrt(n2) if isinstance(n2, float) else np.sqrt(n2)


def check_range(model: DispersionModel, wavelength_nm, margin_nm=0.0):
    """Raise WavelengthRangeError unless every wavelength (nm) lies inside the
    coefficient validity range, shrunk by margin_nm on each side.  NaN
    compares as inside.

    wavelength_nm is a real scalar, a tuple of floats or an array.  A
    scalar or a tuple is checked float by float without numpy: a
    monotone axis is checked by its ends, (axis[0], axis[-1]), and the
    message names the same span as for the whole array."""
    lo, hi = model.valid_range_um
    lo += margin_nm * 1e-3
    hi -= margin_nm * 1e-3
    if isinstance(wavelength_nm, (int, float)):
        wavelength_nm = (wavelength_nm,)
    if isinstance(wavelength_nm, tuple):
        outside = any(lam * 1e-3 < lo or lam * 1e-3 > hi for lam in map(float, wavelength_nm))
        ends = min, max
    else:
        lam_um = _real(wavelength_nm) * 1e-3
        outside = (lam_um < lo).any() or (lam_um > hi).any()
        ends = np.min, np.max
    if outside:
        span = ends[0](wavelength_nm), ends[1](wavelength_nm)
        raise WavelengthRangeError(
            f"wavelength {span[0]:.6g}-{span[1]:.6g} nm "
            f"outside coefficient validity {lo * 1e3:.6g}-{hi * 1e3:.6g} nm"
        )


def _axis(model: DispersionModel, pol) -> tuple:
    """(Sellmeier coefficients, group-index offset) of the axis pol sees
    (module docstring)."""
    if Polarization(pol) is Polarization.H:
        return model.sellmeier_ordinary, model.ng_offset_h
    return model.sellmeier_extraordinary, model.ng_offset_v


def refractive_index(model: DispersionModel, pol, wavelength_nm):
    """Phase index n(lambda) for one polarization; wavelength in nm."""
    check_range(model, wavelength_nm)
    coeffs, _ = _axis(model, pol)
    return _sellmeier_n(coeffs, _real(wavelength_nm) * 1e-3)


def group_index(model: DispersionModel, pol, wavelength_nm):
    """Group index n_g = n - lambda dn/dlambda plus the calibration offset.

    One range check, with the difference step as margin, covers the three
    Sellmeier evaluations.
    """
    check_range(model, wavelength_nm, margin_nm=FD_STEP_NM)
    coeffs, offset = _axis(model, pol)
    lam = _real(wavelength_nm)
    n = _sellmeier_n(coeffs, lam * 1e-3)
    dn = (
        _sellmeier_n(coeffs, (lam + FD_STEP_NM) * 1e-3)
        - _sellmeier_n(coeffs, (lam - FD_STEP_NM) * 1e-3)
    ) / (2.0 * FD_STEP_NM)
    return n - lam * dn + offset


@lru_cache(maxsize=64)
def group_index_at(model: DispersionModel, pol, wavelength_nm: float) -> float:
    """group_index at one wavelength as a float, evaluated once per
    (model, polarization, wavelength)."""
    return float(group_index(model, pol, wavelength_nm))


def group_index_difference(model: DispersionModel, wavelength_nm: float) -> float:
    """dng = n_gH - n_gV (calibrated) at one wavelength, from the memoized
    group indices; positive in the telecom band."""
    h, v = (group_index_at(model, pol, wavelength_nm) for pol in Polarization)
    return h - v


def calibration_group_indices(model: DispersionModel) -> tuple:
    """(n_gH, n_gV) at the calibration wavelength."""
    return tuple(
        group_index_at(model, pol, CALIBRATION_WAVELENGTH_NM)
        for pol in (Polarization.H, Polarization.V)
    )


def raw_group_index_difference(model: DispersionModel, wavelength_nm):
    """Group-index difference of the bare Sellmeier set, offsets ignored."""
    bare = replace(model, ng_offset_h=0.0, ng_offset_v=0.0)
    return group_index_difference(bare, wavelength_nm)


def calibration_residual(model: DispersionModel) -> float:
    """Measured minus bare-Sellmeier group-index difference at the
    calibration wavelength: the part calibrate() absorbs into the offsets."""
    return DEFAULT_GROUP_INDEX_DIFFERENCE - float(
        raw_group_index_difference(model, CALIBRATION_WAVELENGTH_NM)
    )


def calibrate(model: DispersionModel) -> DispersionModel:
    """Set the offsets so that the group-index difference at the
    calibration wavelength equals the measured value.

    The correction is split evenly between the two polarizations and is
    computed from the raw Sellmeier difference, so calibrating twice
    gives identical offsets.  The absorbed residual is
    calibration_residual(model); report it, don't hide it.
    """
    residual = calibration_residual(model)
    return replace(model, ng_offset_h=+residual / 2.0, ng_offset_v=-residual / 2.0)


def walk_off_time(model: DispersionModel, length_mm):
    """Birefringent walk-off dng * L / c in ps at the calibration
    wavelength; positive = H arrives later."""
    length_mm = np.asarray(length_mm, dtype=float)
    if not np.all((0 <= length_mm) & (length_mm < math.inf)):
        raise ValueError("length_mm must be >= 0 and finite")
    dng = group_index_difference(model, CALIBRATION_WAVELENGTH_NM)
    return dng * (length_mm * 1e-3) / C_VACUUM * 1e12


def _group_index_slope(model, pol, wavelength_nm):
    """dn_g/dlambda in 1/m, central difference with the documented step."""
    h = FD_STEP_NM
    hi = group_index(model, pol, wavelength_nm + h)
    lo = group_index(model, pol, wavelength_nm - h)
    return (hi - lo) / (2.0 * h * 1e-9)


def converter_gdd(model: DispersionModel, length_mm, wavelength_nm=1550.0):
    """Group-delay dispersion of the polarization converter, in fs^2.

    Curvature of the converter's inter-polarization phase, ordered
    vertical minus horizontal; negative (about -45 fs^2 for 7.5 mm at
    1550 nm with the default set) and negligible on the chip scale.
    """
    if float(length_mm) <= 0:
        raise ValueError("length_mm must be > 0")
    lam_m = wavelength_nm * 1e-9
    length_m = float(length_mm) * 1e-3
    slope_diff = _group_index_slope(model, Polarization.V, wavelength_nm) - _group_index_slope(
        model, Polarization.H, wavelength_nm
    )
    gdd_s2 = -(lam_m**2) * length_m / (4.0 * np.pi * C_VACUUM**2) * slope_diff
    return gdd_s2 * 1e30


def parse_coefficient_file(text: str) -> DispersionModel:
    """Parse the plain-text coefficient format (see the shipped data file).

    Keys: sellmeier_o, sellmeier_e (comma-separated reals, (B, C) pairs),
    ng_offset_h, ng_offset_v, each at most once; every number finite.
    '#' starts a comment.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        if key in ("sellmeier_o", "sellmeier_e"):
            try:
                numbers = values[key] = tuple(float(tok) for tok in rhs.split(","))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad coefficient list") from exc
        elif key in ("ng_offset_h", "ng_offset_v"):
            try:
                values[key] = float(rhs)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: bad number for {key}") from exc
            numbers = (values[key],)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if not all(map(math.isfinite, numbers)):
            raise ValueError(f"line {lineno}: {key} must be finite")
    for required in ("sellmeier_o", "sellmeier_e"):
        if required not in values:
            raise ValueError(f"missing key {required!r}")
    return DispersionModel(
        sellmeier_ordinary=values["sellmeier_o"],
        sellmeier_extraordinary=values["sellmeier_e"],
        ng_offset_h=values.get("ng_offset_h", 0.0),
        ng_offset_v=values.get("ng_offset_v", 0.0),
    )


@lru_cache(maxsize=1)
def default_model() -> DispersionModel:
    """Shipped congruent-LiNbO3 set, calibrated to dng(1551.7 nm) = 0.0805."""
    text = (
        resources.files("homchip").joinpath("data/linbo3_sellmeier.txt").read_text()
    )
    return calibrate(parse_coefficient_file(text))
