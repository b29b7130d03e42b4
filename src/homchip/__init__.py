"""Simulator for an integrated electro-optic two-photon interference chip.

Compiles a declarative chip layout into a chain of frequency-resolved
mode transforms, evolves a type-II photon-pair state through them, and
computes delay schedules, coincidence probabilities, interference-dip
profiles, visibilities, phase-matching curves, dispersion quantities,
and count-rate budgets for the tunable birefringent delay-line circuit.

The package root holds the names of the README's "Library use" example
and default_model; everything else lives in its module.
"""

from .chip import ChipLayout, enumerate_settings
from .dispersion import default_model
from .elements import FilterSpec, PmSpec
from .grid import SpectralGrid
from .quantum import hom_scan, normalize_scan, visibility

__version__ = "0.1.0"
