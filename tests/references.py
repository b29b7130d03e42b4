"""References the tests check the engine against: grid-free results that
no grid sum computes, and the array forms of phasematch's float spectra.

shg_spectrum and pc_transmission_spectrum are elements' spectra as numpy
computes them on an array, the forms the package ran before phasematch
went without numpy; the float spectra must keep their bits.

unfiltered_dip is the unfiltered dip curve, dip_profile(pm, grid, None,
taus) on an unbounded window.  The source amplitude is exactly
sinc(a (Omega - Omega_c)) (elements.pdc_amplitude), and its Fourier
transform is a box of width tau_w = 2a, so

    P(tau) = 1/2 (1 - (x / tau_w) sinc(Omega_c x / pi)),
    x = max(tau_w - |tau|, 0),

with np.sinc.  Omega_c is the source's temperature-tuned center as a
detuning from the degeneracy frequency, 0 at the reference temperature on
the default center, where P is the triangle 1/2 min(1, |tau| / tau_w).
A grid of half-width W truncates the sinc^2 tails and misses the
limit by a term in 1/W.
"""

import numpy as np

from homchip import dispersion
from homchip import elements as el
from homchip.grid import C_VACUUM, OPERATING_WAVELENGTH_NM


def unfiltered_dip(pm, model, temperature_c, taus_ps):
    """P(tau) of the unfiltered dip at the delays taus_ps, clipped to
    [0, 1], with the degeneracy at the operating wavelength (the default
    grid center)."""
    center_nm = el.pm_center_vs_temperature(pm, "PDC", temperature_c)
    dng = dispersion.group_index_difference(model, center_nm)
    a = dng * pm.pdc_length_mm * 1e-3 / (2.0 * C_VACUUM)
    omega0 = 2.0 * np.pi * C_VACUUM / (OPERATING_WAVELENGTH_NM * 1e-9)
    omega_c = 2.0 * np.pi * C_VACUUM / (center_nm * 1e-9) - omega0
    tau_w = 2.0 * a
    x = np.maximum(tau_w - np.abs(np.asarray(taus_ps, dtype=float) * 1e-12), 0.0)
    return np.clip(0.5 * (1.0 - x / tau_w * np.sinc(omega_c * x / np.pi)), 0.0, 1.0)


def shg_spectrum(pm, wavelength_nm, temperature_c, model):
    """elements.shg_spectrum on an array of wavelengths."""
    center_nm, a = el._pdc_tuning(pm, temperature_c, model)
    lam = np.asarray(wavelength_nm, dtype=float)
    # detuning of the fundamental from the phase-matched center
    omega = 2.0 * np.pi * C_VACUUM / (lam * 1e-9)
    omega_center = 2.0 * np.pi * C_VACUUM / (center_nm * 1e-9)
    return el._sinc(a * (omega - omega_center)) ** 2


def pc_transmission_spectrum(pc, wavelength_nm, model, pm):
    """elements.pc_transmission_spectrum on an array of wavelengths."""
    lam = np.asarray(wavelength_nm, dtype=float)
    conv = el.pc_conversion_amplitude(pc, lam, model, pm)
    return 1.0 - np.abs(conv) ** 2
