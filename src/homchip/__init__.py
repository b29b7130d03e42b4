"""Simulator for an integrated electro-optic two-photon interference chip.

Compiles a declarative chip layout into a chain of frequency-resolved
mode transforms, evolves a type-II photon-pair state through them, and
computes delay schedules, coincidence probabilities, interference-dip
profiles, visibilities, phase-matching curves, dispersion quantities,
and count-rate budgets for the tunable birefringent delay-line circuit.

The package root holds the names of the README's "Library use" example
and default_model; everything else lives in its module.  Importing the
package binds the engine modules (chip, dispersion, elements, grid,
quantum), rates, svgplot and numpy (_numpy) lazily (_lazy): each is in
sys.modules and an attribute here, and executes on its first attribute
read.  A root name is read from its module on first access.  The
package's modules read numpy as `from . import _numpy as np`: a plain
`import numpy` reads the lazy module's __spec__ and so executes it.  So
importing the package, a module that needs no numpy (rates, svgplot),
or the float paths of chip, dispersion, elements and grid (from a
layout file to the delay schedule, and phasematch's spectra) executes no
numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """The module `name` (a full name), put in sys.modules now and executed
    on its first attribute read (importlib.util.LazyLoader).  A name
    already in sys.modules, imported or blocked with None, gives that
    entry; a module that is not installed gives None."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        return None
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_numpy = _lazy("numpy")
chip, dispersion, elements, grid, quantum, rates, svgplot = (
    _lazy(f"{__name__}.{name}")
    for name in ("chip", "dispersion", "elements", "grid", "quantum", "rates", "svgplot")
)

#: Each public name and the module that defines it.
_ORIGINS = {
    "ChipLayout": chip,
    "enumerate_settings": chip,
    "default_model": dispersion,
    "FilterSpec": elements,
    "PmSpec": elements,
    "SpectralGrid": grid,
    "hom_scan": quantum,
    "normalize_scan": quantum,
    "visibility": quantum,
}

__all__ = list(_ORIGINS)


def __getattr__(name):
    try:
        module = _ORIGINS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(module, name)
    globals()[name] = value  # bound once, as an eager import would
    return value


def __dir__():
    return sorted({*globals(), *__all__})
