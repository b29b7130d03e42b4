"""Uniform frequency grid for the two-photon spectral amplitudes.

Detunings are taken around the degeneracy frequency omega0 (half the
pump frequency).  The grid is midpoint-style and symmetric: sample k and
sample N-1-k sit at opposite detunings, so flipping the sample axis is
an exact frequency reversal: photon 2, at omega0 - Omega, reads the
omega0 + Omega axis through flip().  There is deliberately no sample at
zero detuning; integrals are midpoint sums with weight d_omega.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from . import _numpy as np

#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
C_VACUUM = 299_792_458.0

#: Operating (pair degeneracy) wavelength, nm: the source and the converters
#: phase-match there at the operating temperature.
OPERATING_WAVELENGTH_NM = 1551.7


@dataclass(frozen=True)
class SpectralGrid:
    """Signal-detuning grid centered on the pair degeneracy wavelength."""

    center_wavelength_nm: float = OPERATING_WAVELENGTH_NM
    half_width_nm: float = 6.0
    samples: int = 4096

    def __post_init__(self):
        if not 0 < self.center_wavelength_nm < math.inf:
            raise ValueError("center_wavelength_nm must be positive and finite")
        # a half-width of center_wavelength_nm puts the grid edge at zero frequency
        if not 0 < self.half_width_nm < self.center_wavelength_nm:
            raise ValueError("half_width_nm must be positive and below center_wavelength_nm")
        try:
            samples = operator.index(self.samples)  # an int or numpy integer, never a float
        except TypeError:
            raise ValueError(
                f"samples must be an integer, not {type(self.samples).__name__}"
            ) from None
        if samples < 2 or samples % 2 != 0:
            raise ValueError("samples must be an even number >= 2")

    @cached_property
    def omega0(self) -> float:
        """Degeneracy angular frequency, rad/s."""
        return 2.0 * np.pi * C_VACUUM / (self.center_wavelength_nm * 1e-9)

    @cached_property
    def half_width_omega(self) -> float:
        lam0 = self.center_wavelength_nm * 1e-9
        return 2.0 * np.pi * C_VACUUM * (self.half_width_nm * 1e-9) / lam0**2

    @cached_property
    def d_omega(self) -> float:
        return 2.0 * self.half_width_omega / self.samples

    @cached_property
    def detunings(self) -> "np.ndarray":
        """Signal detunings Omega, rad/s; antisymmetric under index reversal."""
        k = np.arange(self.samples)
        return _read_only((k + 0.5 - self.samples / 2) * self.d_omega)

    @cached_property
    def omega_plus(self) -> "np.ndarray":
        return _read_only(self.omega0 + self.detunings)

    @cached_property
    def wavelength_plus_nm(self) -> "np.ndarray":
        """Exact wavelength of the photon at omega0 + Omega, per sample."""
        return _read_only(2.0 * np.pi * C_VACUUM / self.omega_plus * 1e9)

    @staticmethod
    def flip(values: "np.ndarray") -> "np.ndarray":
        """Frequency reversal Omega -> -Omega (exact on this grid)."""
        return values[..., ::-1]

    def phases(self, taus_s, axis: "np.ndarray") -> "np.ndarray":
        """exp(i w tau) over a uniform run of this grid, shape tau.shape + (len(axis),).

        axis is a stretch of the grid with step dOmega: omega_plus for the
        propagation phases, the Omega > 0 half detunings[N // 2:] for the
        dip kernel.  With B = ceil(sqrt(len(axis))), w_{pB+q} = w_{pB} +
        q dOmega, so exp(i w_{pB+q} tau) = starts[..., p] * within[..., q] with

            starts = exp(i w_{pB} tau),  p < P = ceil(len(axis) / B),
            within = exp(i q dOmega tau),  q < B,

        (block_starts and block_offsets): P + B cos/sin pairs per delay
        instead of len(axis).  When B does not divide len(axis), the flat
        index pB + q runs past the axis in the last block, and that tail is
        dropped; the dip kernel reads the two tables apart instead.  The
        tables are cos + i sin (_cis): the same bits as np.exp(1j * angle)
        for real angles (up to the sign of a zero imaginary part at angle
        -0.0), without the complex temporary and numpy's complex-exponential
        loop.
        """
        starts, within = self.block_starts(taus_s, axis), self.block_offsets(taus_s, axis)
        phases = starts[..., :, None] * within[..., None, :]
        return phases.reshape(np.shape(taus_s) + (-1,))[..., : len(axis)]

    def block_starts(self, taus_s, axis: "np.ndarray") -> "np.ndarray":
        """The (..., P) table exp(i w_{pB} tau) of phases()."""
        return _cis(np.multiply.outer(taus_s, axis[:: _block_size(axis)]))

    def block_offsets(self, taus_s, axis: "np.ndarray") -> "np.ndarray":
        """The (..., B) table exp(i q dOmega tau) of phases()."""
        return _cis(np.multiply.outer(taus_s, np.arange(_block_size(axis)) * self.d_omega))


def _read_only(values: "np.ndarray") -> "np.ndarray":
    """A view of values, an array the caller has just built, read-only at the
    owner: the one rule for every array the package keeps, the grid's cached
    arrays and quantum's memo tables, which every later caller shares.  Item
    assignment and flags.writeable = True both raise on the view."""
    values.flags.writeable = False
    return values[...]


def _block_size(axis: "np.ndarray") -> int:
    """phases()' B = ceil(sqrt(len(axis)))."""
    return math.isqrt(len(axis) - 1) + 1


def _cis(angles: "np.ndarray") -> "np.ndarray":
    """exp(i angles) for real angles: cos and sin written straight into the
    real and imaginary parts of one complex array."""
    out = np.empty(np.shape(angles), dtype=complex)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out
