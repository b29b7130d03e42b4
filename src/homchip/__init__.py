"""Simulator for an integrated electro-optic two-photon interference chip.

Compiles a declarative chip layout into a chain of frequency-resolved
mode transforms, evolves a type-II photon-pair state through them, and
computes delay schedules, coincidence probabilities, interference-dip
profiles, visibilities, phase-matching curves, dispersion quantities,
and count-rate budgets for the tunable birefringent delay-line circuit.

The package root holds the names of the README's "Library use" example
and default_model; everything else lives in its module.  Each name is
resolved on first access, which executes its module then, so importing
the package, or a module that needs no numpy (rates, svgplot), loads no
numpy.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_ORIGINS = {
    "ChipLayout": "chip",
    "enumerate_settings": "chip",
    "default_model": "dispersion",
    "FilterSpec": "elements",
    "PmSpec": "elements",
    "SpectralGrid": "grid",
    "hom_scan": "quantum",
    "normalize_scan": "quantum",
    "visibility": "quantum",
}

__all__ = list(_ORIGINS)


def __getattr__(name):
    try:
        origin = _ORIGINS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{origin}"), name)
    globals()[name] = value  # bound once, as an eager import would
    return value


def __dir__():
    return sorted({*globals(), *__all__})
