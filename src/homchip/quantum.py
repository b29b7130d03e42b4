"""Two-photon state engine for the interference chip.

The chip guides four modes: two waveguide paths, upper = 0 (the
segmented-converter branch) and lower = 1 (the direct branch), times two
polarizations, H = 0 and V = 1, numbered path-major:

    mode = 2 path + polarization.

Every 4-mode array in the package follows this rule: modes 0-1 are the
upper path's (H, V) block and 2-3 the lower path's, and a polarization's
(upper, lower) pair is the stride-2 slice [pol::2].

The pair state is a complex tensor A[m1, m2, k]: photon 1 in guided mode
m1 at omega0 + Omega_k, photon 2 in mode m2 at omega0 - Omega_k.  It is
slot-ordered (the type-II source populates exactly one ordering);
exchange symmetry is applied at detection, where A[r, s](Omega) is
combined with its partner A[s, r](-Omega) before squaring.  The
detectors, polarization-insensitive buckets, one per output path behind
one common filter, stand in for the unspecified measurement.  Every
element keeps the midpoint-rule norm sum |A|^2 dOmega = 1: flat losses
cancel in normalized quantities and live in the rate budget.

The circuit is one list of steps (_Step, _Chain), each element in one
exact form.  The dense oracle (build_source_state, chain_transfers,
apply_element, run_chain, coincidence_probability) embeds the steps as
(N, 4, 4) matrices and acts with them on the full tensor,

    A'[a, b](Omega) = sum_pq U(omega0+Omega)[a,p] U(omega0-Omega)[b,q] A[p,q](Omega).

hom_scan, the fast path tested against it, uses that the source emits
one product mode pair, photon 1 in (upper, H) and photon 2 in (upper, V)
with amplitude phi(Omega), and that every element is linear, so two
per-photon mode vectors carry the state exactly,

    A[a, b](Omega) = u1[a](omega0 + Omega) u2[b](omega0 - Omega) phi(Omega),

and A is formed only at detection.  Its fold of the shared suffix is at
_Chain.fold_suffix and unfold, its geometry memo at _geometry_tables and
its detection window at hom_scan and _RankOneDetector.  dip_profile and
dip_scenarios bypass the chain (_delay_kernel, _dip_phase_tables), and
dip_scenarios' unfiltered curve is closed form (_unfiltered_dip).  Both
memos freeze the tables they build with grid._read_only, the rule for the
grid's cached arrays.  hom_scan and the dip kernel share one per-thread
scratch (_thread_scratch), which is not a memo.
numpy's complex product is not bitwise commutative, so every rewrite
keeps each product's operands and their order.

Every grid passes one rule, checked once where an input enters
(_check_grid, called by hom_scan, build_source_state, dip_profile,
coincidence_probability and dip_scenarios).  Its floors, in the order
they are checked, raise at the first that fails:

1. the delays, where given, are a 1-D array of finite values
   (ValueError) and not aliased, dOmega |tau| < pi, since the midpoint
   sum is periodic in tau with period 2 pi / dOmega (GridCoverageError);
2. the grid lies inside the dispersion model's range
   (WavelengthRangeError), and the temperature within 20 C of the
   tuning lines' reference (ValueError), both from el.pdc_amplitude;
3. the grid covers at least MIN_LOBES phase-matching lobes on its narrow
   side, and puts at least MIN_FEATURE_SAMPLES samples across one lobe;
   _check_grid forms these counts, and those of 4, from el's physics
   scales (el._pdc_detuning, el.pc_lobe_width_nm) and the grid's constants;
4. it puts at least MIN_FEATURE_SAMPLES samples across each real
   filter's width, then across the phase-matching lobe (pi of delta L)
   of each frequency-dependent converter hom_scan or dip_scenarios
   builds, at the grid's widest wavelength step (GridCoverageError for
   3 and 4).

dip_profile's unfiltered curve (delays but no filter) is exempt from the
lobe floors of 3: its slow tails need a wide window, and the triangle it
approaches is checked directly.  None and a FilterSpec of shape none
both mean no filter (_real_filters).  Each entry point resolves a missing
model once, and the chain's entry points a missing temperature with it
(_resolved); _Chain takes every argument, and so do the element
functions, except the source's temperature, whose None el._pdc_tuning
reads as the reference temperature.
"""

import math
import threading
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce

from . import _numpy as np
from . import chip as chip_mod
from . import dispersion
from . import elements as el
from .dispersion import Polarization
from .grid import C_VACUUM, SpectralGrid, _read_only

#: Two paths times two polarizations, path-major (module docstring).
N_MODES = 4
OUT_UPPER = (0, 1)
OUT_LOWER = (2, 3)
#: The source's mode pair: photon 1 in (upper, H), photon 2 in (upper, V).
SOURCE_MODES = (0, 1)

#: Phase-matching lobes the grid must cover on its narrow side.
MIN_LOBES = 3.0
#: Grid samples required across a phase-matching lobe and across the
#: narrowest detection filter.
MIN_FEATURE_SAMPLES = 4.0
#: Largest rounding residue a dip probability may show outside [0, 1].
DIP_ROUNDING = 1e-12


class GridCoverageError(ValueError):
    """Spectral grid too narrow or too coarse for the requested result."""


@dataclass(frozen=True)
class TwoPhotonAmplitude:
    grid: SpectralGrid
    values: "np.ndarray"  # (4, 4, N) complex

    def norm(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.d_omega)


@dataclass(frozen=True)
class ElementTransfer:
    """Mode matrix per frequency sample, evaluated at omega0 + Omega_k."""

    label: str
    matrices: "np.ndarray"  # (N, 4, 4) complex


@dataclass(frozen=True)
class ScanPoint:
    setting: chip_mod.SwitchSetting
    delay_ps: float
    raw: float
    normalized: float | None = None

    @property
    def label(self) -> str:
        return self.setting.label


# ---------------------------------------------------------------------------
# element -> transfer sampling


#: Geometry tables kept by _geometry_tables, one per (layout, grid, model).
GEOMETRY_CACHE_SIZE = 4


@dataclass(frozen=True, eq=False)
class _GeometryTables:
    """The propagation phases a chip's geometry fixes on a grid, read-only.

    source_half, pc0_half and pbs_region are the (H, V) phases (2, N) of
    the prefix sections; mismatch those of the upper branch's extra
    length (None without one).  walk_off (T, N) holds, in row m - 1,
    triple m's walk-off phase E_m (_Chain.fold_suffix).
    """

    source_half: "np.ndarray"
    pc0_half: "np.ndarray"
    pbs_region: "np.ndarray"
    mismatch: "np.ndarray | None"
    walk_off: "np.ndarray"

    def window(self, window: slice) -> "_GeometryTables":
        """Every table on a sample slice: read-only views, no copy."""
        rows = (self.source_half, self.pc0_half, self.pbs_region, self.mismatch, self.walk_off)
        return _GeometryTables(*(None if row is None else row[..., window] for row in rows))


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry_tables(
    layout: chip_mod.ChipLayout, grid: SpectralGrid, model: dispersion.DispersionModel
) -> _GeometryTables:
    """Every propagation phase hom_scan reads, one propagation_transfer call
    per polarization, memoized per (ChipLayout, SpectralGrid,
    DispersionModel) key: no setting, temperature, filter or imperfection
    changes them.  The arrays are read-only at their owner
    (grid._read_only), so no caller can alter what a later scan reads, and
    every row is an elementwise function of the key, so a warm scan repeats
    a cold one bit for bit.  E_m is the product of the sections' own
    tables, as in the oracle's suffix, not one exponential of the
    group-index difference: that rounds differently, enough to break the
    oracle bound near an exact cancellation.
    """
    sections = [layout.pdc_length_mm / 2.0, layout.pc0_length_mm / 2.0, layout.pbs_length_mm]
    if layout.branch_length_mismatch_mm:
        sections.append(layout.branch_length_mismatch_mm)
    midpoints = [(m + 0.5) * layout.segment_length_mm for m in layout.triple_indices]
    h, v = (el.propagation_transfer(pol, sections + midpoints, grid, model) for pol in Polarization)
    n = len(sections)
    # one N-sample product per triple: numpy swaps the factors of a complex product
    # on a temporary past its elision threshold, which rounds differently, so a
    # (T, N) product would change E's bits
    walk_off = np.stack([z_v * np.conj(z_h) for z_h, z_v in zip(h[n:], v[n:])])
    rows = _read_only(np.stack((h[:n], v[:n]), axis=1))
    return _GeometryTables(*rows[:3], rows[3] if len(rows) > 3 else None, _read_only(walk_off))


# ---------------------------------------------------------------------------
# the chain as a step list


@dataclass(frozen=True)
class _Step:
    """One chain element in its one exact form, of three kinds:

    kind "phase": data (2, N), (H, V) propagation phases on both paths;
    kind "jones": data (2, 2) or (N, 2, 2), an (H, V) block on the upper
        path, the lower path passing unchanged;
    kind "modes": data (4, 4), a frequency-independent mode matrix.
    """

    label: str
    kind: str
    data: "np.ndarray"

    def transfer(self, grid: SpectralGrid) -> ElementTransfer:
        """Dense (N, 4, 4) form, as apply_element consumes it."""
        mats = np.zeros((grid.samples, N_MODES, N_MODES), dtype=complex)
        if self.kind == "modes":
            mats[:] = self.data
        elif self.kind == "jones":
            mats[:, :2, :2] = self.data
            mats[:, 2, 2] = mats[:, 3, 3] = 1.0
        else:
            k = np.arange(N_MODES)
            mats[:, k, k] = self.data.T[:, k % 2]
        return ElementTransfer(self.label, mats)

    def apply(self, vectors: "np.ndarray") -> "np.ndarray":
        """Act on per-photon mode vectors, mode-major (4, photons, N) and
        sampled at omega0 + Omega; rows 0-1 are the upper-path block.  A
        (2, photons, N) input is that block alone, the lower path empty,
        as it is up to the polarizing splitter, whose step expands it.
        The shapes are explicit, since a -1 cannot size an empty window.
        hom_scan runs the prefix in one pass (_Chain.source_prefix), with
        the bits of walking these steps."""
        if self.kind == "phase":  # (path, polarization, photon, N) times the rows
            blocks = vectors.reshape((len(vectors) // 2, 2) + vectors.shape[1:])
            return (blocks * self.data[:, None]).reshape(vectors.shape)
        if self.kind == "modes":  # an empty lower path leaves the matrix's columns 2-3 unread
            out = np.empty((N_MODES,) + vectors.shape[1:], dtype=complex)
            _mix(self.data, vectors, out)
            return out
        out = np.empty_like(vectors, order="C")
        out[2:] = vectors[2:]
        _mix(self.data, vectors[:2], out[:2])
        return out


def _mix(matrix: "np.ndarray", rows, out: "np.ndarray") -> None:
    """out[a] = matrix[a, 0] rows[0] + matrix[a, 1] rows[1] + ... for each
    row a of out, in that operand and summation order, over the len(rows)
    columns read; matrix is constant (.., ..) or per sample (N, .., ..),
    broadcast along the last axis.  Each row is mixed one slice of its
    leading axis (a photon, for step vectors) at a time, so the one
    temporary is that slice, which keeps a warm scan's traced peak within
    its test bound."""
    for a in range(len(out)):
        for p in range(len(out[a])):
            np.multiply(matrix[..., a, 0], rows[0][p], out=out[a, p])
            for b in range(1, len(rows)):
                out[a, p] += matrix[..., a, b] * rows[b][p]


@dataclass
class _Chain:
    """The circuit from the source midpoint to the outputs, as steps.

    Holds what a scan shares: the triple converter matrix (component-major,
    elements.pc_chain_matrix), the coupler's (2, 2) (upper, lower) path
    matrix, set once from bs (None: ideal_bs() at 0 V) since the coupler
    is trimmed to balance once, and the chip's geometry tables.  prefix()
    runs to the polarizing-splitter exit and depends on the setting only
    through (pc0_on, pc0_efficiency); suffix() is the rest, and
    fold_suffix() and unfold() are the suffix in hom_scan's folded form.
    Keywords as for chain_transfers.  window is the sample slice every step
    acts on (hom_scan's detection window; the full grid by default).
    """

    layout: chip_mod.ChipLayout
    pm: el.PmSpec
    grid: SpectralGrid
    model: dispersion.DispersionModel
    temperature_c: float
    pbs_extinction_db: float = math.inf
    pc_conversion_db: float | None = None
    bs: el.BsSpec | None = None
    flat_converters: bool = False
    window: slice = field(default_factory=lambda: slice(None))

    def __post_init__(self):
        if self.layout.pdc_length_mm != self.pm.pdc_length_mm:
            # pm's length sets the source bandwidth, the layout's the
            # source-half walk-off and the delay schedule
            raise ValueError(
                f"layout pdc_length_mm {self.layout.pdc_length_mm} differs from "
                f"pm pdc_length_mm {self.pm.pdc_length_mm}"
            )
        self.pbs = el.pbs_transfer(self.pbs_extinction_db)
        triple = el.PcSpec(
            length_mm=3.0 * self.layout.segment_length_mm, temperature_c=self.temperature_c
        )
        if self.pc_conversion_db is not None:
            triple = triple.with_conversion_db(self.pc_conversion_db)
        self.triple = self._converter(triple)
        self.coupler = el.bs_transfer(self.bs or el.ideal_bs())
        self.tables = _geometry_tables(self.layout, self.grid, self.model).window(self.window)

    def _converter(self, pc: el.PcSpec) -> "np.ndarray":
        if self.flat_converters:
            return el.pc_flat_matrix(pc)
        wavelengths = self.grid.wavelength_plus_nm[self.window]
        return el.pc_chain_matrix(pc, wavelengths, self.model, self.pm)

    def first_converter(self, setting: chip_mod.SwitchSetting) -> "np.ndarray | None":
        """The first converter's Jones block, None when it is undriven: an
        undriven converter is the identity (its pc_chain_matrix only to
        rounding), so it has no step."""
        if not setting.pc0_on:
            return None
        pc0 = el.PcSpec(length_mm=self.layout.pc0_length_mm, temperature_c=self.temperature_c)
        return self._converter(pc0.with_drive_efficiency(setting.pc0_efficiency))

    def prefix(self, setting: chip_mod.SwitchSetting) -> list:
        """Steps to the polarizing-splitter exit."""
        tables = self.tables
        steps = [
            _Step("source second half", "phase", tables.source_half),
            _Step("first converter, front half", "phase", tables.pc0_half),
        ]
        pc0 = self.first_converter(setting)
        if pc0 is not None:
            steps.append(_Step("first converter", "jones", pc0))
        return steps + [
            _Step("first converter, back half", "phase", tables.pc0_half),
            _Step("splitter region", "phase", tables.pbs_region),
            _Step("polarizing splitter", "modes", self.pbs),
        ]

    def suffix(self, setting: chip_mod.SwitchSetting) -> list:
        m = chip_mod.active_triple(self.layout, setting)
        layout = self.layout
        seg = layout.segment_length_mm
        z_mid = (m + 0.5) * seg  # from the splitter exit
        lengths = [z_mid, layout.segment_count * seg - z_mid, layout.bs_block_length_mm]
        phases = [el.propagation_transfer(p, lengths, self.grid, self.model) for p in Polarization]
        to_triple, remaining, block = np.stack(phases, axis=-2)[..., self.window]
        steps = [
            _Step("segments up to triple midpoint", "phase", to_triple),
            _Step(f"triple {m}", "jones", self.triple),
            _Step("remaining segments", "phase", remaining),
        ]
        mismatch = self.tables.mismatch
        if mismatch is not None:  # the (H, V) phases on the upper path, a diagonal block
            diagonal = np.zeros((mismatch.shape[-1], 2, 2), dtype=complex)
            diagonal[:, (0, 1), (0, 1)] = mismatch.T
            steps.append(_Step("branch mismatch", "jones", diagonal))
        steps.append(_Step("output block", "phase", block))
        steps.append(_Step("balanced splitter", "modes", np.kron(self.coupler, np.eye(2))))
        return steps

    def source_prefix(self, setting: chip_mod.SwitchSetting, work, out) -> None:
        """The prefix applied to the source's pair, photon 1 in H and photon 2
        in V on the upper path: writes their mode vectors (4, 2, N) into out.

        Up to the first converter every step is a diagonal phase, so each
        photon keeps one row, d[p] = source_half[p] pc0_half[p] for photon p
        in polarization p, and the zeros of the other row are never formed.
        An undriven group takes d through its remaining phases and the
        splitter, pbs[a, p] d[p]; a driven one applies the converter's column
        p to d[p], then the remaining phase rows in place, then the splitter.
        Each product keeps the operands and their order of walking prefix()
        from the (2, 2, N) start block, so out has those vectors' bits: a
        term left out is a zero, and adding a zero changes no nonzero value.
        work is (2, 2, 2, N) scratch: d takes work[0, 0] and the driven
        group's (polarization, photon, N) block work[1].
        """
        tables = self.tables
        d = work[0, 0]
        np.multiply(tables.source_half, tables.pc0_half, out=d)
        pc0 = self.first_converter(setting)
        if pc0 is None:
            d *= tables.pc0_half
            d *= tables.pbs_region
            np.multiply(self.pbs[:, :2, None], d, out=out)
            return
        block = work[1]
        for a in (0, 1):
            for p in (0, 1):
                np.multiply(pc0[..., a, p], d[p], out=block[a, p])
        block *= tables.pc0_half[:, None]
        block *= tables.pbs_region[:, None]
        _mix(self.pbs, block, out)

    def fold_suffix(self, vectors: "np.ndarray", folded, cross) -> None:
        """The suffix for every triple at once: writes arrays A (folded) and
        B (cross) such that the suffix of a setting with triple m takes
        vectors to D (A + B [E_m, conj(E_m)]) (unfold).

        With Z_m the section phases up to triple m's midpoint, D those of
        the whole suffix, J the triple's Jones block and M the branch
        mismatch, the upper path takes D M (Z_m^-1 J Z_m) and the lower path
        D.  D is common to both paths, commutes with the path-only balanced
        splitter and multiplies A[a, b](Omega) and its exchange partner
        A[b, a](-Omega) by the same unit factor, so it cancels in the bucket
        coincidence and is left out.  What is left of the setting is its
        walk-off phase E_m = Z_mV conj(Z_mH) on J's off-diagonals.

        vectors are the prefix's (4, 2, N); A and B are (path, polarization,
        photon, N), written in place: until the coupler mixes them, their
        lower-path blocks hold the triple's diagonal and cross products, and
        B's upper-path block is scratch.
        """
        j = self.triple
        upper, lower = vectors[:2], vectors[2:]
        diagonal, scratch = folded[1], cross[0]
        for pol in (0, 1):
            np.multiply(j[..., pol, pol], upper[pol], out=diagonal[pol])
            np.multiply(j[..., pol, 1 - pol], upper[1 - pol], out=cross[1, pol])
        mismatch = self.tables.mismatch
        if mismatch is not None:
            diagonal *= mismatch[:, None]
            cross[1] *= mismatch[:, None]
        coupler = self.coupler
        for a in (0, 1):  # A[a] = coupler[a, 0] diagonal + coupler[a, 1] lower
            np.multiply(coupler[a, 0], diagonal, out=folded[a])
            np.multiply(coupler[a, 1], lower, out=scratch)
            folded[a] += scratch
        for a in (0, 1):  # B[a] = coupler[a, 0] cross, the lower-path block last
            np.multiply(coupler[a, 0], cross[1], out=cross[a])

    def unfold(self, m: int, folded, cross, out) -> None:
        """Write a setting's vectors A + B [E_m, conj(E_m)] (fold_suffix),
        E_m on B's H rows and conj(E_m) on its V rows, into out."""
        e = self.tables.walk_off[m - 1]
        np.multiply(cross[:, 0], e, out=out[:, 0])
        np.multiply(cross[:, 1], np.conj(e), out=out[:, 1])
        out += folded


# ---------------------------------------------------------------------------
# state construction and evolution


def build_source_state(
    pm: el.PmSpec,
    grid: SpectralGrid,
    model=None,
    temperature_c: float | None = None,
) -> TwoPhotonAmplitude:
    """Type-II pair state at the source-section midpoint, unit norm."""
    model = model or dispersion.default_model()
    values = np.zeros((N_MODES, N_MODES, grid.samples), dtype=complex)
    values[SOURCE_MODES] = _check_grid(grid, pm=pm, model=model, temperature_c=temperature_c)
    return TwoPhotonAmplitude(grid=grid, values=values)


def _check_grid(
    grid, filters=(), taus_s=None, pm=None, model=None, temperature_c=None, converters_mm=()
):
    """Check a grid against the floors of the module docstring's grid rule,
    in its order, and raise at the first that fails.  filters are the real
    detection filters (_real_filters), taus_s the delays in seconds, a
    float64 array, or None; pm, with model and temperature_c, asks for the
    source checks; converters_mm are the frequency-dependent converters'
    lengths.  Returns the checked source amplitude (el.pdc_amplitude), or None
    without pm.

    A count message rounds the count down, so a value just below the floor
    (3.9999999999999996) does not print as the floor itself.
    """
    if taus_s is not None:
        if np.ndim(taus_s) != 1:
            raise ValueError(f"delays must be a 1-D array, not {np.ndim(taus_s)}-D")
        if not np.all(np.isfinite(taus_s)):
            raise ValueError("delays must be finite")
        tau_max = float(np.max(np.abs(taus_s), initial=0.0))
        phase_step = grid.d_omega * tau_max
        if phase_step >= math.pi:
            # dOmega = 2 W / N, so N > 2 W tau_max / pi; the grid wants N even
            needed = 2 * (math.floor(grid.half_width_omega * tau_max / math.pi) + 1)
            raise GridCoverageError(
                f"delay axis aliases: dOmega * max|tau| = {phase_step:.3f} >= pi "
                f"at {grid.samples} samples; need at least {needed} samples"
            )
    features = []
    source = None if pm is None else el.pdc_amplitude(pm, grid, temperature_c, model=model)
    if source is not None and (filters or taus_s is None):  # the unfiltered dip curve is exempt
        # lobes on the grid's narrow side, and samples across one lobe width pi / a in Omega
        omega_c, a = el._pdc_detuning(pm, grid, temperature_c, model)
        lobe = np.pi / a
        coverage = (grid.half_width_omega - abs(omega_c)) / lobe
        if coverage < MIN_LOBES:
            raise GridCoverageError(
                f"grid covers {coverage:.2f} phase-matching lobes; need at least {MIN_LOBES:g}"
            )
        features.append((lobe / grid.d_omega, "a phase-matching lobe"))
    lam0 = grid.center_wavelength_nm * 1e-9
    for flt in filters:
        across = 2.0 * np.pi * C_VACUUM * (flt.width_nm * 1e-9) / lam0**2 / grid.d_omega
        features.append((across, f"the {flt.width_nm:g} nm {flt.shape} filter"))
    # the widest wavelength step is the longest wavelength's; n_g is taken at the grid
    # center, as for the propagation phases, so a new temperature costs no group_index call
    step = grid.wavelength_plus_nm[0] - grid.wavelength_plus_nm[1]
    for length_mm in converters_mm:
        across = el.pc_lobe_width_nm(length_mm, grid.center_wavelength_nm, model) / step
        features.append((across, f"the {length_mm:g} mm converter's phase-matching lobe"))
    for across, feature in features:
        if across < MIN_FEATURE_SAMPLES:
            raise GridCoverageError(
                f"grid puts {math.floor(across * 100) / 100:.2f} samples across {feature} "
                f"at {grid.samples} samples; need at least {MIN_FEATURE_SAMPLES:g}"
            )
    return source


def apply_element(state: TwoPhotonAmplitude, transfer: ElementTransfer) -> TwoPhotonAmplitude:
    """Push the pair state through one element (photon 1 at omega0+Omega,
    photon 2 at omega0-Omega; the flipped sample axis supplies the latter)."""
    mats = transfer.matrices
    if mats.shape != (state.grid.samples, N_MODES, N_MODES):
        raise ValueError(
            f"transfer {transfer.label!r} sampled on {mats.shape[0]} points, "
            f"state grid has {state.grid.samples}"
        )
    u_minus = mats[::-1]
    new = np.einsum("kap,kbq,pqk->abk", mats, u_minus, state.values, optimize=True)
    return TwoPhotonAmplitude(grid=state.grid, values=new)


def chain_transfers(
    layout: chip_mod.ChipLayout,
    setting: chip_mod.SwitchSetting,
    pm: el.PmSpec,
    grid: SpectralGrid,
    **chain_kwargs,
) -> list:
    """Ordered dense element transfers from the source midpoint to the outputs.

    Keywords: model (None = default_model()), temperature_c (None =
    pm.reference_temperature_c), pbs_extinction_db (inf = ideal),
    pc_conversion_db (None = full conversion), bs (the balanced coupler,
    set once for every setting; None = ideal_bs() at 0 V) and
    flat_converters.

    Each converter is lumped at its midpoint (elements.pc_chain_matrix);
    flat_converters=True makes them frequency independent
    (elements.pc_flat_matrix), the reference case in which the
    interference dip reaches zero.
    """
    chain = _Chain(layout, pm, grid, **_resolved(pm, chain_kwargs))
    steps = chain.suffix(setting)  # validates the setting first
    return [step.transfer(grid) for step in chain.prefix(setting) + steps]


def run_chain(
    layout: chip_mod.ChipLayout,
    setting: chip_mod.SwitchSetting,
    pm: el.PmSpec,
    grid: SpectralGrid,
    **chain_kwargs,
) -> TwoPhotonAmplitude:
    """Evolve the source state through the full circuit in chip order."""
    chain_kwargs = _resolved(pm, chain_kwargs)
    state = build_source_state(pm, grid, chain_kwargs["model"], chain_kwargs["temperature_c"])
    for transfer in chain_transfers(layout, setting, pm, grid, **chain_kwargs):
        state = apply_element(state, transfer)
    return state


def _resolved(pm: el.PmSpec, chain_kwargs: dict) -> dict:
    """A copy of chain_kwargs with model and temperature_c resolved as chain_transfers says."""
    resolved = dict(chain_kwargs)
    resolved["model"] = resolved.get("model") or dispersion.default_model()
    if resolved.get("temperature_c") is None:
        resolved["temperature_c"] = pm.reference_temperature_c
    return resolved


# ---------------------------------------------------------------------------
# detection


def _real_filters(filters) -> tuple:
    """A detection filter argument as its real filters: None and a
    FilterSpec of shape none both mean no filter, ()."""
    return () if filters is None or filters.shape == "none" else (filters,)


def _filter_weight(grid: SpectralGrid, filters) -> "np.ndarray":
    """|f(Omega) f(-Omega)|^2 of the real detection filters, 1 without one."""
    weight = np.ones(grid.samples)
    for flt in filters:
        f_plus = el.filter_amplitude(flt, grid.wavelength_plus_nm)
        weight *= np.abs(f_plus * grid.flip(f_plus)) ** 2
    return weight


def coincidence_probability(state: TwoPhotonAmplitude, filters=None) -> float:
    """Probability of one photon in each output path.

    The detectors and the exchange-symmetrized amplitude are those of the
    module docstring; filters is None, a FilterSpec of shape none (no
    filter) or one real filter.
    """
    filters = _real_filters(filters)
    _check_grid(state.grid, filters)
    a = state.values
    c = a + grid_flip_swap(a)
    weight = _filter_weight(state.grid, filters)
    block = c[np.ix_(OUT_UPPER, OUT_LOWER)]
    p = np.sum(np.abs(block) ** 2 * weight) * state.grid.d_omega
    return float(p)


def grid_flip_swap(values: "np.ndarray") -> "np.ndarray":
    """Exchange partner A[s, r](-Omega) of a slot-ordered amplitude."""
    return values.transpose(1, 0, 2)[:, :, ::-1]


# ---------------------------------------------------------------------------
# scans


def _detection_window(weight: "np.ndarray") -> slice:
    """The smallest sample slice [lo, N - lo) that holds every nonzero
    detection weight |f(Omega) f(-Omega)|^2; empty when the filter passes
    no pair.  It is symmetric about Omega = 0, as the weight is, so
    flipping it pairs each sample with its partner at -Omega."""
    nonzero = np.flatnonzero(weight)
    n = len(weight)
    lo = int(min(nonzero[0], n - 1 - nonzero[-1])) if len(nonzero) else n // 2
    return slice(lo, n - lo)


class _RankOneDetector:
    """coincidence_probability of A[a, b](Omega) = u1[a](Omega) u2[b](-Omega) phi(Omega),
    formed only for the output pairs and their exchange partners, into
    buffers allocated once per scan.

    vectors is mode-major (4, 2, n), the n samples of the detection
    window: rows 0-1 (OUT_UPPER) and 2-3 (OUT_LOWER) are the path blocks,
    column 0 is photon 1 and column 1 photon 2, both at omega0 + Omega;
    photon 2 is read on the flipped axis.  Once both photons' upper-path
    rows are read into their scaled products, the exchange partners are
    written over that block, so a call leaves vectors changed and needs no
    partner buffer of its own.  (Photon 2's rows are free then too, but they
    interleave with the photon-1 rows the partner reads, and numpy copies
    an input whose memory range overlaps the output's.)  The power rows are
    written into a full-length (2, 2, N) block that stays 0 outside the
    window, where the weight is 0 too, so the product with the weight sums
    the same N terms as on the full grid (p 0 and 0 0 are both +0) with
    its bits.
    """

    def __init__(self, phi, weight, d_omega, window):
        self.phi, self.weight, self.d_omega = phi[window], weight, d_omega
        n = len(self.phi)
        self.scaled = np.empty((2, n), dtype=complex)
        self.block = np.empty((2, 2, n), dtype=complex)
        self.power = np.zeros((2, 2, len(weight)))
        self.rows = self.power[..., window]

    def __call__(self, vectors) -> float:
        u1 = vectors[:, 0]
        u2 = vectors[:, 1, ::-1]
        scaled, block = self.scaled, self.block
        np.multiply(u1[:2], self.phi, out=scaled)
        np.multiply(scaled[:, None], u2[None, 2:], out=block)  # A[a, b](Omega)
        np.multiply(u2[:2], self.phi, out=scaled)
        # A[b, a](-Omega) over the upper-path rows, reversed in its multiply
        partner = vectors[:2]
        np.multiply(u1[None, 2:, ::-1], scaled[:, None, ::-1], out=partner)
        block += partner
        squares = block.view(float)  # (re, im) pairs
        np.square(squares, out=squares)
        np.add(squares[..., 0::2], squares[..., 1::2], out=self.rows)
        return float(np.sum(self.power.reshape(4, -1) @ self.weight) * self.d_omega)


def hom_scan(
    layout: chip_mod.ChipLayout,
    settings,
    pm: el.PmSpec,
    grid: SpectralGrid,
    filters=None,
    **chain_kwargs,
) -> list:
    """Raw coincidence versus switch setting, with the schedule delays.

    The per-photon fast path of the module docstring; keywords as for
    chain_transfers.  Equals coincidence_probability(run_chain(...)) to
    rounding.  Settings are grouped by their prefix (pc0_on,
    pc0_efficiency), one fold alive at a time, and returned in input
    order.  Each group's prefix runs on the source's photons alone
    (_Chain.source_prefix).

    The fold's A and B (2, 2, 2, n), 16 n complex numbers, are the
    thread's one scratch (_thread_scratch), so a warm scan maps no fresh
    pages for them; the prefix works in B until fold_suffix writes it.
    hom_scan calls no other kernel that takes the scratch, and returns only
    floats.  The mode vectors (4, 2, n) are one array per scan, not
    scratch: kept, they would stay resident between scans, and the peak
    resident set they add outweighs the page faults they save.

    Everything runs on the detection window (_detection_window), since a
    sample of weight 0 adds nothing to a coincidence: a rectangular
    filter's band, or the full grid for a Lorentzian filter or none.  phi
    is normalized and checked on the full grid and only then sliced; no
    smaller SpectralGrid is built for the window, since its d_omega would
    round differently and change every phase.  The raws keep the full
    grid's bits (_RankOneDetector).
    """
    chain_kwargs = _resolved(pm, chain_kwargs)
    model, temperature_c = chain_kwargs["model"], chain_kwargs["temperature_c"]
    filters = _real_filters(filters)
    flat = chain_kwargs.get("flat_converters")
    converters = () if flat else (layout.pc0_length_mm, 3.0 * layout.segment_length_mm)
    phi = _check_grid(grid, filters, None, pm, model, temperature_c, converters)
    weight = _filter_weight(grid, filters)
    window = _detection_window(weight)
    chain = _Chain(layout, pm, grid, window=window, **chain_kwargs)
    settings = list(settings)
    groups = {}
    for index, setting in enumerate(settings):
        m = chip_mod.active_triple(layout, setting)
        groups.setdefault((setting.pc0_on, setting.pc0_efficiency), []).append((index, m))
    detect = _RankOneDetector(phi, weight, grid.d_omega, window)
    n = window.stop - window.start
    folded, cross = _thread_scratch(16 * n).reshape(2, 2, 2, 2, n)
    vectors = np.empty((4, 2, n), dtype=complex)
    raws = [0.0] * len(settings)
    for members in groups.values():
        chain.source_prefix(settings[members[0][0]], cross, vectors)
        chain.fold_suffix(vectors, folded, cross)
        # folded, the prefix's vectors are free to take each setting's
        for index, m in members:
            chain.unfold(m, folded, cross, vectors.reshape(folded.shape))
            raws[index] = detect(vectors)
    return [
        ScanPoint(setting=s, delay_ps=chip_mod.delay_schedule(layout, s, model), raw=raw)
        for s, raw in zip(settings, raws)
    ]


def normalize_scan(points) -> list:
    """Divide raw coincidences by the mean over the reference settings: the
    largest-delay setting of the undriven-first-converter branch."""
    off = [p for p in points if not p.setting.pc0_on]
    m_ref = max((p.setting.triple_index for p in off), default=None)
    ref = [p.raw for p in off if p.setting.triple_index == m_ref]
    if not ref:
        raise ValueError("empty reference set; cannot define unit probability")
    mean = sum(ref) / len(ref)
    if mean <= 0:
        raise ValueError("reference coincidence level is zero")
    return [replace(p, normalized=p.raw / mean) for p in points]


def visibility(points) -> float:
    """1 - min(normalized): interference depth against unit probability."""
    values = [p.normalized for p in points]
    if any(v is None for v in values):
        raise ValueError("scan is not normalized")
    return 1.0 - min(values)


# ---------------------------------------------------------------------------
# continuous dip profiles


def dip_profile(
    pm: el.PmSpec,
    grid: SpectralGrid,
    filters,
    taus_ps,
    photon1_envelopes=(),
    photon2_envelopes=(),
    model=None,
    temperature_c: float | None = None,
) -> "np.ndarray":
    """Coincidence probability versus a continuous relative delay.

    Bypasses the segmented geometry: the joint spectrum is the source
    amplitude times per-photon spectral envelopes and the detection
    filter (None: no filter), an explicit relative delay phase
    exp(i Omega tau) is applied between the photons, and the pair meets
    an ideal balanced splitter:

        P(tau) = 1/2 * (1 - Re K(tau) / integral |A|^2 dOmega),
        K(tau) = integral A(Omega) A*(-Omega) exp(i Omega tau) dOmega.

    The delay axis is the interference-kernel delay: a geometric
    arrival-time difference dt from the delay schedule corresponds to
    tau = 2 dt, because the exchanged amplitudes beat at twice the
    detuning.  The unfiltered profile tends, as the grid widens, to
    _unfiltered_dip: at the reference temperature the triangle
    1/2 * min(1, |tau| / tau_w) with tau_w = dng * L / c.

    Envelopes are elementwise callables of wavelength in nm, each
    evaluated once on wavelength_plus_nm (_joint flips photon 2's).  Re K
    comes from _delay_kernel; the grid passes the module's grid rule.
    """
    taus_s = np.asarray(taus_ps, dtype=float) * 1e-12
    model = model or dispersion.default_model()
    filters = _real_filters(filters)
    source = _check_grid(grid, filters, taus_s, pm, model, temperature_c)
    lam = grid.wavelength_plus_nm
    joint = _joint(
        grid,
        source,
        [np.asarray(env(lam), dtype=complex) for env in photon1_envelopes],
        [np.asarray(env(lam), dtype=complex) for env in photon2_envelopes],
        [el.filter_amplitude(flt, lam) for flt in filters],
    )
    return _dip_curves(grid, joint[None], taus_s)[0]


def _joint(grid: SpectralGrid, source, photon1=(), photon2=(), filters=()) -> "np.ndarray":
    """Joint amplitude from the source and per-photon arrays on omega0 + Omega.

    Photon 2 sits at omega0 - Omega, so its envelopes enter flipped, and
    each filter acts on both photons.  The factors always multiply in one
    order (photon 1, photon 2, then each filter on photon 1 and photon 2),
    so every caller gets the same bits for the same inputs.
    """
    factors = list(photon1) + [grid.flip(env) for env in photon2]
    for f in filters:
        factors += [f, grid.flip(f)]
    return reduce(np.multiply, factors, source)


def _dip_curves(grid: SpectralGrid, joint: "np.ndarray", taus_s: "np.ndarray") -> "np.ndarray":
    """dip_profile's P(tau) for each row of the joint amplitudes (S, N): (S, T).

    |Re K(tau)| <= k0 = sum |A|^2 dOmega (Cauchy-Schwarz), so P lies in
    [0, 1]; for a symmetric spectrum k0 and the kernel sum the same terms
    in different orders, which leaves rounding residues just below 0 at
    tau = 0.  Those are clipped; anything more than
    DIP_ROUNDING outside [0, 1] is a defect and raises ValueError.
    """
    k0 = np.sum(np.abs(joint) ** 2, axis=-1) * grid.d_omega
    if np.any(k0 <= 0):
        raise ValueError("joint spectrum vanishes; nothing passes the filters")
    g = joint * np.conj(grid.flip(joint))
    return _clipped(0.5 * (1.0 - _delay_kernel(g, grid, taus_s) / k0[:, None]))


def _clipped(p: "np.ndarray") -> "np.ndarray":
    """Dip probabilities clipped to [0, 1]; ValueError for any more than
    DIP_ROUNDING outside."""
    inside = (p >= -DIP_ROUNDING) & (p <= 1.0 + DIP_ROUNDING)
    if not np.all(inside):
        raise ValueError(
            f"dip probability {p[~inside].flat[0]!r} lies outside [0, 1] beyond rounding"
        )
    return np.clip(p, 0.0, 1.0)


def _unfiltered_dip(
    pm: el.PmSpec, grid: SpectralGrid, taus_s, model, temperature_c
) -> "np.ndarray":
    """dip_profile's unfiltered P(tau) on an unbounded window, in closed form:

        P(tau) = 1/2 (1 - (x / tau_w) sinc(Omega_c x / pi)),
        x = max(tau_w - |tau|, 0),

    with np.sinc, tau_w = 2a and (Omega_c, a) from el._pdc_detuning.  The
    source sinc(a (Omega - Omega_c)) transforms to a box of width tau_w
    turned by exp(i Omega_c t), and K(tau) is the overlap of two such
    boxes.  At Omega_c = 0, P is the triangle.
    """
    omega_c, a = el._pdc_detuning(pm, grid, temperature_c, model)
    tau_w = 2.0 * a
    x = np.maximum(tau_w - np.abs(taus_s), 0.0)
    return _clipped(0.5 * (1.0 - x / tau_w * np.sinc(omega_c * x / np.pi)))


def _delay_kernel(g: "np.ndarray", grid: SpectralGrid, taus_s: "np.ndarray") -> "np.ndarray":
    """Re K(tau), K(tau) = sum_k g_k exp(i Omega_k tau) dOmega, for each row of
    g (S, N) with g(-Omega) = conj g(Omega): shape (S, T).

    g = a conj(flip a) of a joint amplitude a has that symmetry.  The grid
    has no Omega = 0 sample and pairs Omega_k with Omega_{N-1-k} = -Omega_k,
    whose terms are complex conjugates, so

        Re K(tau) = 2 sum_{Omega_k > 0} Re(g_k exp(i Omega_k tau)) dOmega.

    The half axis Omega_{N/2 + j}, j < H = N / 2, is uniform, so
    exp(i Omega tau) splits (SpectralGrid.phases) into a (T, P) table of
    block starts and a (T, B) table of in-block offsets, B = ceil(sqrt H),
    P = ceil(H / B).  Each row's half is zero-padded to P*B and read as
    G[s, p, q] = g[s, N/2 + pB + q], and

        Re K_s(tau) = 2 Re sum_p exp(i Omega_{N/2+pB} tau)
                          sum_q exp(i q dOmega tau) G[s, p, q] dOmega,

    which costs T (B + P) cos/sin pairs instead of T N complex
    exponentials, and one (T, B) x (B, S P) product for all S rows; tau is
    a 1-D float64 array of T delays, in any order.  Both tables come from
    _dip_phase_tables, so a call on a kept (grid, delay axis) evaluates no
    cos/sin.  G is laid out with one copy, and the block starts multiply
    the product in place, in the operand and summation order that give the
    bits of the complex-exponential form the tests keep as a reference.

    The (T, S, P) product is written (np.matmul's out) into the calling
    thread's one scratch (_thread_scratch), not into a fresh array: a
    fresh array that size is mapped page by page on every call, and those
    page faults were a large part of a warm dip request.  With S <= 3 rows
    the product is at most 3 T P <= 1.5 T (P + B) complex numbers, about
    one and a half _dip_phase_tables entries.
    """
    half = grid.samples // 2
    starts, within = _dip_phase_tables(grid, taus_s.tobytes())
    taus, blocks, block = len(starts), starts.shape[-1], within.shape[-1]
    rows = len(g)
    g_blocks = np.zeros((block, rows, blocks), dtype=complex)  # G[q, s, p], zero-padded
    for row, half_row in zip(g_blocks.transpose(1, 2, 0), g[:, half:]):
        row.flat[:half] = half_row  # row[p, q] in flat order pB + q
    inner = _thread_scratch(taus * rows * blocks).reshape(taus, rows * blocks)
    np.matmul(within, g_blocks.reshape(block, rows * blocks), out=inner)
    inner = inner.reshape(taus, rows, blocks)  # (T, S, P)
    np.multiply(starts[:, None, :], inner, out=inner)
    kernel = np.sum(inner, axis=-1)
    return 2.0 * grid.d_omega * kernel.real.T


#: Each thread's one scratch, _thread_scratch's (not a memo).
_scratch = threading.local()


def _thread_scratch(count: int) -> "np.ndarray":
    """A writable 1-D complex array of count entries: the calling thread's
    one scratch, grown (never shrunk) when count exceeds it.

    Two kernels take it: _delay_kernel for its (T, S, P) product, T S P
    entries, and hom_scan for its fold's A and B, 16 n entries on an
    n-sample detection window.  So it ends at the larger of the two
    needs its thread has met, never at their sum.  The rule that makes
    one buffer safe: a kernel that holds the scratch calls no other kernel
    that takes it, and nothing it holds outlives the call.  It is per
    thread, since two threads writing one buffer would mix their results.
    """
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or len(buffer) < count:
        buffer = _scratch.buffer = np.empty(count, dtype=complex)
    return buffer[:count]


#: Phase-table pairs kept by _dip_phase_tables, one per (grid, delay axis):
#: room for four delay axes on dip_scenarios' one grid.
DIP_TABLE_CACHE_SIZE = 4


@lru_cache(maxsize=DIP_TABLE_CACHE_SIZE)
def _dip_phase_tables(grid: SpectralGrid, taus_bytes: bytes) -> tuple:
    """_delay_kernel's (starts, within) for the 1-D float64 delays
    taus_bytes holds: the (T, P) block starts exp(i Omega_{N/2+pB} tau)
    and the (T, B) in-block offsets exp(i q dOmega tau), both read-only at
    their owner (grid._read_only).

    Memoized per (SpectralGrid, delay bytes), so an equal copy of an axis
    is the same key: dip_scenarios' grids and delay axes come back from
    call to call, and a kept pair spares every cos/sin of the kernel.  An
    entry is an elementwise function of its key, so a warm call repeats a
    cold one bit for bit.
    """
    taus_s = np.frombuffer(taus_bytes)
    axis = grid.detunings[grid.samples // 2 :]
    starts, within = grid.block_starts(taus_s, axis), grid.block_offsets(taus_s, axis)
    return _read_only(starts), _read_only(within)


def dip_scenarios(
    pm: el.PmSpec,
    grid: SpectralGrid,
    taus_ps,
    layout: chip_mod.ChipLayout | None = None,
    model=None,
    temperature_c: float | None = None,
    pc0_efficiency: float = 1.0,
    rect_width_nm: float = 2.3,
    lorentz_width_nm: float = 1.2,
    unfiltered_grid: SpectralGrid | None = None,
) -> dict:
    """The four canonical dip profiles: source only; rectangular filter;
    segmented-converter envelope with the fiber filter, first converter off;
    both converter envelopes with the fiber filter, first converter on.

    grid passes the module docstring's grid rule.  The unfiltered curve is
    dip_profile's on an unbounded window, in closed form (_unfiltered_dip):
    the bare source's slow tails would need a far wider grid than the
    filtered cases.  unfiltered_grid is accepted and ignored; ROADMAP
    item 7, the benchmark refresh, drops it.

    Each filtered profile equals its dip_profile call (both use _joint),
    but the source amplitude and each filter and converter envelope are
    evaluated once, and the three profiles share one _delay_kernel call.
    """
    layout = layout or chip_mod.ChipLayout()
    model = model or dispersion.default_model()
    t = pm.reference_temperature_c if temperature_c is None else temperature_c
    taus_s = np.asarray(taus_ps, dtype=float) * 1e-12
    center = grid.center_wavelength_nm
    specs = (
        el.FilterSpec("rectangular", center, rect_width_nm),
        el.FilterSpec("lorentzian", center, lorentz_width_nm),
    )
    converters = (layout.pc0_length_mm, 3.0 * layout.segment_length_mm)
    source = _check_grid(grid, specs, taus_s, pm, model, t, converters)
    lam = grid.wavelength_plus_nm
    rect, lorentz = (el.filter_amplitude(flt, lam) for flt in specs)
    triple = el.PcSpec(length_mm=3.0 * layout.segment_length_mm, temperature_c=t)
    pc0 = el.PcSpec(length_mm=layout.pc0_length_mm, temperature_c=t).with_drive_efficiency(
        pc0_efficiency
    )
    conv_triple = el.pc_conversion_amplitude(triple, lam, model, pm)
    conv_pc0 = el.pc_conversion_amplitude(pc0, lam, model, pm)
    filtered = {
        "rectangular": _joint(grid, source, filters=(rect,)),
        "segmented_lorentz_pc0_off": _joint(grid, source, (conv_triple,), (), (lorentz,)),
        "two_converters_lorentz_pc0_on": _joint(
            grid, source, (conv_pc0, conv_triple), (conv_pc0,), (lorentz,)
        ),
    }
    curves = {"unfiltered": _unfiltered_dip(pm, grid, taus_s, model, t)}
    curves.update(zip(filtered, _dip_curves(grid, np.stack(list(filtered.values())), taus_s)))
    return curves
