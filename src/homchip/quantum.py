"""Two-photon state engine for the interference chip.

The chip guides four modes: two waveguide paths, upper = 0 (the
segmented-converter branch) and lower = 1 (the direct branch), times two
polarizations, H = 0 and V = 1, numbered path-major:

    mode = 2 path + polarization.

Every 4-mode array in the package follows this rule: modes 0-1 are the
upper path's (H, V) block and 2-3 the lower path's, and a polarization's
(upper, lower) pair is the stride-2 slice [pol::2].

The pair state is kept as a complex tensor A[m1, m2, k]: photon 1 in
guided mode m1 at omega0 + Omega_k, photon 2 in mode m2 at
omega0 - Omega_k.  The tensor is slot-ordered (the type-II source
populates exactly one ordering); physical exchange symmetry is applied
at detection, where the amplitude A[r, s](Omega) is combined with its
partner A[s, r](-Omega) before squaring.

The circuit is one list of steps, each element in one exact form of
three kinds: (H, V) propagation phases on both paths, a 2x2 (H, V) block
on the upper path (a converter, or the branch mismatch's phases), or a
constant 4x4 mode matrix (the polarizing splitter, and the balanced
coupler's path matrix on both polarizations).  The steps are used two
ways.

hom_scan, the fast path, uses that the source emits one product mode
pair, photon 1 in (upper, H) and photon 2 in (upper, V) with the joint
amplitude phi(Omega), and that every element is linear: two per-photon
mode vectors u1, u2 carry the state exactly,

    A[a, b](Omega) = u1[a](omega0 + Omega) u2[b](omega0 - Omega) phi(Omega),

and A is formed only at detection, for the output pairs.  The vectors
are held mode-major, (2, 2, N) path blocks (polarization, photon,
sample).  Up to the polarizing splitter the lower path is empty, so the
prefix steps act on the upper-path block alone, and the splitter's step
expands it to one (4, 2, N) array whose rows 0-1 and 2-3 are the upper-
and lower-path blocks.  The source-to-splitter prefix depends on a
setting only through the first converter (pc0_on, pc0_efficiency).  The
triple converter matrix and the coupler's path matrix are computed once
per scan: the coupler is trimmed to balance once, so one BsSpec (the bs
keyword) holds for every setting.  The converter matrices are
component-major (elements.pc_chain_matrix): each entry J[..., a, b] is
one contiguous row, which the products below read.

The suffix after the polarizing splitter holds only per-polarization
section phases, the triple's Jones block J on the upper path and the
path-only balanced splitter, and two settings differ only in where the
triple sits.  Let Z_m be the phases up to triple m's midpoint z_m, D the
product of all the suffix's section phases (common to both paths) and M
the branch-mismatch phase on the upper path.  The upper path takes
D M (Z_m^-1 J Z_m) and the lower path D.  D commutes with the splitter
and multiplies A[a, b](Omega) and its exchange partner A[b, a](-Omega)
by the same unit factor, so it cancels in the bucket coincidence.  What
is left of the setting is its walk-off phase E_m = Z_mV conj(Z_mH) on
the Jones off-diagonals, E_m on the H row and conj(E_m) on the V row.
So for each first-converter state, hom_scan evolves the prefix once and
folds its vectors, J, M and the splitter into two arrays A and B, and a
setting's vectors are

    A + B [E_m, conj(E_m)]

(one multiply-add) before detection.  hom_scan groups the settings by
first-converter state, so one fold is alive at a time: A and B are written in place
into two arrays allocated once per scan, each setting's vectors reuse the
group's prefix array, and detection writes into rows allocated once per
scan.  Each product keeps its operand order, since numpy's complex
product is not bitwise commutative, so the in-place forms give the same
bits.  E_m is built from the same
section tables as the step list's phases, not as one exponential of the
group-index difference: the latter rounds differently from the oracle,
enough to break its bound near an exact cancellation.  Each propagation
phase exp(i (omega0 + Omega) tau) is the outer product of the grid's two
phase blocks (SpectralGrid.phase_blocks, the ceil(sqrt N) split below),
cos/sin tables of about 2 sqrt(N) entries per section.

hom_scan runs all of this on the detection window, the smallest sample
slice [lo, N - lo) that holds every nonzero detection weight
|f(Omega) f(-Omega)|^2: a sample of weight 0 adds nothing to a
coincidence.  The converter matrices are evaluated on the window's
wavelengths, the geometry tables are read through views of the window,
and the prefix, the fold, the unfold and the detection run on
window-length arrays.  The window is symmetric, as the weight is, so
photon 2's flipped axis stays exact on it.  The bits stay those of the
full grid: every elementwise product sees the same operands in the same
order, and the detector writes its power rows into a full-length block
that is 0 outside the window, so its product with the weight sums the
same N terms (p 0 and 0 0 are both +0).  A rectangular filter narrows the
window to its band (rect:2.3 keeps 784 of 4096 samples on the +-6 nm
grid); a Lorentzian filter, or none, has no zero weight and keeps the
full grid.  phi is normalized and lobe-checked on the full grid and only
then sliced, and no smaller SpectralGrid is built for the window: its
d_omega would round differently and change every phase.

The phases hom_scan reads are fixed by the chip's geometry: no setting,
temperature, filter or imperfection changes them.  _geometry_tables
builds them once per (ChipLayout, SpectralGrid, DispersionModel) key,
all three frozen and hashable, with one propagation_transfer call per
polarization: the (H, V) rows of the prefix sections and of the branch
mismatch, and one row E_m per triple (the midpoint phases are dropped
once E_m is formed).  A functools.lru_cache keeps GEOMETRY_CACHE_SIZE
= 4 keys, 0.92 MB each at N = 4096 with 8 triples.  This is safe
because the arrays are read-only, so no caller can alter what a later
scan reads, and every row is an elementwise function of its key, so a
warm scan repeats a cold one bit for bit.  The oracle's suffix builds
its own per-mode phases from the same propagation_transfer rows.

chain_transfers embeds the same steps as dense (N, 4, 4) matrices, and
apply_element acts with them on the full tensor sample-by-sample:

    A'[a, b](Omega) = sum_pq U(omega0+Omega)[a,p] U(omega0-Omega)[b,q] A[p,q](Omega)

This dense path (build_source_state, apply_element, run_chain,
coincidence_probability) is the oracle the fast path is tested against.
Every lossless element keeps the midpoint-rule norm sum |A|^2 dOmega = 1.
Detection uses polarization-insensitive bucket detectors, one per output
path, both behind the same spectral filter; this minimal projector set
stands in for the unspecified general measurement description.
Wavelength-flat losses are excluded here (they cancel in normalized
quantities) and live in the rate budget instead.

dip_profile bypasses the chain: it needs Re K(tau) of the delay kernel
K(tau) = sum_k g_k exp(i Omega_k tau) dOmega at T delays, where
g = a conj(flip a) for the joint amplitude a.  So g(-Omega) = conj g(Omega)
on the symmetric grid, which has no Omega = 0 sample, and the sum folds
onto Omega > 0: Re K = 2 sum_{Omega_k > 0} Re(g_k exp(i Omega_k tau)) dOmega.
That half axis is uniform, Omega_{N/2+pB+q} = Omega_{N/2+pB} + q dOmega
with B = ceil(sqrt(N/2)), so exp(i Omega tau) factors
(SpectralGrid.phase_blocks) into a (T, B) table of in-block offsets and a
(T, N/(2B)) table of block starts joined by one matrix product: cos/sin
tables of about 2 T sqrt(N/2) entries instead of T N complex
exponentials, for any delay array.
dip_scenarios evaluates each shared input once (the source amplitude per
grid, each filter and converter envelope on omega0 + Omega, flipped for
photon 2) and gets its three filtered profiles from one pair of tables
and one product.  The midpoint sum is periodic in tau with period
2 pi / dOmega, so a delay with dOmega |tau| >= pi is aliased.

Every grid passes one rule, checked once where an input enters
(_check_grid, called by hom_scan, build_source_state, dip_profile and
coincidence_probability, and once per grid by dip_scenarios).  Its
floors, in the order they are checked, raise at the first that fails:

1. the delays, where given, are finite (ValueError) and not aliased,
   dOmega |tau| < pi (GridCoverageError);
2. the grid lies inside the dispersion model's range
   (WavelengthRangeError), and the temperature within 20 C of the
   tuning lines' reference (ValueError), both from el.pdc_amplitude;
3. the grid covers at least MIN_LOBES phase-matching lobes on its narrow
   side, and puts at least MIN_FEATURE_SAMPLES samples across one lobe;
4. it puts at least MIN_FEATURE_SAMPLES samples across each real
   filter's width (GridCoverageError for 3 and 4).

The unfiltered dip curve (delays but no filter) is exempt from the lobe
floors of 3: its slow tails need a wide window, and the triangle it
approaches is checked directly.  No filter is one input: None and a
FilterSpec of shape none both mean it (_real_filters), and each entry
point resolves a missing model to dispersion.default_model() once;
the element functions below them take every argument explicitly.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce

import numpy as np

from . import chip as chip_mod
from . import dispersion
from . import elements as el
from .dispersion import Polarization
from .grid import SpectralGrid

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
    values: np.ndarray  # (4, 4, N) complex

    def norm(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.d_omega)


@dataclass(frozen=True)
class ElementTransfer:
    """Mode matrix per frequency sample, evaluated at omega0 + Omega_k."""

    label: str
    matrices: np.ndarray  # (N, 4, 4) complex


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


def _section_phases(grid: SpectralGrid, lengths_mm, model) -> np.ndarray:
    """(H, V) phases of birefringent sections, shape lengths.shape + (2, N)."""
    return np.stack(
        [el.propagation_transfer(pol, lengths_mm, grid, model) for pol in Polarization], axis=-2
    )


#: Geometry tables kept by _geometry_tables, one per (layout, grid, model).
#: An entry holds 3 or 4 (2, N) section tables and one row per triple: at
#: N = 4096 and 8 triples, 0.92 MB (1.05 MB with a branch mismatch).
GEOMETRY_CACHE_SIZE = 4


@dataclass(frozen=True, eq=False)
class _GeometryTables:
    """The propagation phases a chip's geometry fixes on a grid, read-only.

    source_half, pc0_half and pbs_region are the (H, V) phases (2, N) of
    the prefix sections; mismatch those of the upper branch's extra
    length (None without one).  walk_off (T, N) holds, in row m - 1,
    triple m's walk-off phase E_m = Z_V conj(Z_H) of the sections from the
    splitter exit to its midpoint.
    """

    source_half: np.ndarray
    pc0_half: np.ndarray
    pbs_region: np.ndarray
    mismatch: np.ndarray | None
    walk_off: np.ndarray

    def window(self, window: slice) -> "_GeometryTables":
        """Every table on a sample slice: read-only views, no copy."""
        rows = (self.source_half, self.pc0_half, self.pbs_region, self.mismatch, self.walk_off)
        return _GeometryTables(*(None if row is None else row[..., window] for row in rows))


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _geometry_tables(
    layout: chip_mod.ChipLayout, grid: SpectralGrid, model: dispersion.DispersionModel
) -> _GeometryTables:
    """Build every geometry table of a chip with one propagation_transfer
    call per polarization; memoized, since no setting, temperature,
    filter or imperfection changes them (module docstring)."""
    sections = [layout.pdc_length_mm / 2.0, layout.pc0_length_mm / 2.0, layout.pbs_length_mm]
    if layout.branch_length_mismatch_mm:
        sections.append(layout.branch_length_mismatch_mm)
    midpoints = [(m + 0.5) * layout.segment_length_mm for m in layout.triple_indices]
    # one block, allocated before the build's temporaries: copied out of
    # them afterwards, the tables raised a scan process's peak RSS by 5 %
    # instead of 1 %
    block = np.empty((2 * len(sections) + len(midpoints), grid.samples), dtype=complex)
    rows = block[: 2 * len(sections)].reshape(len(sections), 2, -1)
    walk_off = block[2 * len(sections) :]
    h, v = (el.propagation_transfer(pol, sections + midpoints, grid, model) for pol in Polarization)
    rows[:, 0], rows[:, 1] = h[: len(sections)], v[: len(sections)]
    # one N-sample product per triple: numpy swaps the factors of a complex
    # product whose temporary operand holds 256 KiB or more, and the swapped
    # product rounds differently, so a (T, N) product would change E's bits
    for row, z_h, z_v in zip(walk_off, h[len(sections) :], v[len(sections) :]):
        row[:] = z_v * np.conj(z_h)
    for table in (rows, walk_off):
        table.flags.writeable = False
    return _GeometryTables(*rows[:3], rows[3] if len(rows) > 3 else None, walk_off)


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
    data: np.ndarray

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

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Act on per-photon mode vectors, mode-major (4, photons, N) and
        sampled at omega0 + Omega; rows 0-1 are the upper-path block.  A
        (2, photons, N) input is that block alone, the lower path empty,
        as it is up to the polarizing splitter, whose step expands it.
        The shapes are explicit, since a -1 cannot size an empty window."""
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


def _mix(matrix: np.ndarray, rows, out: np.ndarray) -> None:
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

    Holds what a scan shares: the converter matrices, the coupler's
    (2, 2) (upper, lower) path matrix, set once from bs (None: ideal_bs()
    at 0 V), and the chip's memoized geometry tables.  prefix() runs to
    the polarizing-splitter exit and depends on the setting only through
    (pc0_on, pc0_efficiency); suffix() is the rest: phases, the triple's
    Jones block and the branch mismatch, then the balanced splitter.
    fold_suffix() and unfold() are the suffix in hom_scan's folded form
    (module docstring).  Keywords as for chain_transfers.

    window is the sample slice every step acts on: the converter matrices
    are evaluated on it and the geometry tables viewed on it.  hom_scan
    sets it to the detection window; the dense transfers need the full
    grid, the default.
    """

    layout: chip_mod.ChipLayout
    pm: el.PmSpec
    grid: SpectralGrid
    model: dispersion.DispersionModel | None = None
    temperature_c: float | None = None
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
        self.model = self.model or dispersion.default_model()
        if self.temperature_c is None:
            self.temperature_c = self.pm.reference_temperature_c
        self.pbs = el.pbs_transfer(self.pbs_extinction_db)
        triple = el.PcSpec(
            length_mm=3.0 * self.layout.segment_length_mm, temperature_c=self.temperature_c
        )
        if self.pc_conversion_db is not None:
            triple = triple.with_conversion_db(self.pc_conversion_db)
        self.triple = self._converter(triple)
        self.coupler = el.bs_transfer(self.bs or el.ideal_bs())
        self.tables = _geometry_tables(self.layout, self.grid, self.model).window(self.window)

    def _converter(self, pc: el.PcSpec) -> np.ndarray:
        if self.flat_converters:
            return el.pc_flat_matrix(pc)
        wavelengths = self.grid.wavelength_plus_nm[self.window]
        return el.pc_chain_matrix(pc, wavelengths, self.model, self.pm)

    def prefix(self, setting: chip_mod.SwitchSetting) -> list:
        pc0 = el.PcSpec(length_mm=self.layout.pc0_length_mm, temperature_c=self.temperature_c)
        pc0 = (
            pc0.with_drive_efficiency(setting.pc0_efficiency)
            if setting.pc0_on
            else replace(pc0, voltage_v=0.0)
        )
        tables = self.tables
        return [
            _Step("source second half", "phase", tables.source_half),
            _Step("first converter, front half", "phase", tables.pc0_half),
            _Step("first converter", "jones", self._converter(pc0)),
            _Step("first converter, back half", "phase", tables.pc0_half),
            _Step("splitter region", "phase", tables.pbs_region),
            _Step("polarizing splitter", "modes", self.pbs),
        ]

    def suffix(self, setting: chip_mod.SwitchSetting) -> list:
        m = chip_mod.active_triple(self.layout, setting)
        layout = self.layout
        seg = layout.segment_length_mm
        z_mid = (m + 0.5) * seg  # from the splitter exit
        to_triple, remaining, block = _section_phases(
            self.grid,
            [z_mid, layout.segment_count * seg - z_mid, layout.bs_block_length_mm],
            self.model,
        )[..., self.window]
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

    def fold_suffix(self, vectors: np.ndarray, folded, cross) -> None:
        """The suffix for every triple at once: writes arrays A (folded) and
        B (cross) such that the suffix of a setting with triple m takes
        vectors to D (A + B [E_m, conj(E_m)]) (unfold).

        vectors are the prefix's (4, 2, N); A and B are (path, polarization,
        photon, N), written in place: until the coupler mixes them, the
        lower-path blocks of A and B hold the triple's diagonal and cross
        products, and B's upper-path block is scratch.  D, the
        per-polarization product of the suffix's section phases, is common
        to both paths and cancels in coincidences (module docstring), so
        hom_scan leaves it out.
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
        """Write a setting's vectors A + B [E_m, conj(E_m)], (path,
        polarization, photon, N), into out: E_m = Z_V conj(Z_H) for the
        phases Z of the sections up to triple m's midpoint, which suffix()
        builds alike, multiplies B's H rows and conj(E_m) its V rows."""
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
    values[SOURCE_MODES] = _check_grid(grid, pm=pm, model=model, temperature_c=temperature_c).values
    return TwoPhotonAmplitude(grid=grid, values=values)


def _check_grid(grid, filters=(), taus_s=None, pm=None, model=None, temperature_c=None):
    """Check a grid against the floors of the module docstring's grid rule,
    in its order, and raise at the first that fails.  filters are the real
    detection filters (_real_filters), taus_s the delays in seconds or
    None; pm, with model and temperature_c, asks for the source checks.
    Returns the source's el.PdcAmplitude so checked, or None without pm.

    A count message rounds the count down, so a value just below the floor
    (3.9999999999999996) does not print as the floor itself.
    """
    if taus_s is not None:
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
        if source.lobe_coverage < MIN_LOBES:
            raise GridCoverageError(
                f"grid covers {source.lobe_coverage:.2f} phase-matching lobes; "
                f"need at least {MIN_LOBES:g}"
            )
        features.append((source.lobe_samples, "a phase-matching lobe"))
    for flt in filters:
        across = grid.samples_across_nm(flt.width_nm)
        features.append((across, f"the {flt.width_nm:g} nm {flt.shape} filter"))
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

    Keywords: model, temperature_c, pbs_extinction_db (inf = ideal),
    pc_conversion_db (None = full conversion), bs (the balanced coupler,
    set once for every setting; None = ideal_bs() at 0 V) and
    flat_converters.

    Each converter region is modeled as half its birefringent
    propagation, the midpoint-lumped coupled-mode matrix, then the other
    half, which reproduces the exact solution and places the effective
    polarization swap at the element midpoint, matching the delay
    schedule.

    flat_converters=True idealizes the converters as frequency
    independent (perfect phase matching at every wavelength), the
    reference case in which the interference dip reaches zero; the
    default keeps their real conversion bandwidth.
    """
    chain = _Chain(layout, pm, grid, **chain_kwargs)
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
    chain_kwargs["model"] = chain_kwargs.get("model") or dispersion.default_model()
    state = build_source_state(pm, grid, chain_kwargs["model"], chain_kwargs.get("temperature_c"))
    for transfer in chain_transfers(layout, setting, pm, grid, **chain_kwargs):
        state = apply_element(state, transfer)
    return state


# ---------------------------------------------------------------------------
# detection


def _real_filters(filters) -> tuple:
    """A detection filter argument as its real filters: None and a
    FilterSpec of shape none both mean no filter, ()."""
    return () if filters is None or filters.shape == "none" else (filters,)


def _filter_weight(grid: SpectralGrid, filters) -> np.ndarray:
    """|f(Omega) f(-Omega)|^2 of the real detection filters, 1 without one."""
    weight = np.ones(grid.samples)
    for flt in filters:
        f_plus = el.filter_amplitude(flt, grid.wavelength_plus_nm)
        weight *= np.abs(f_plus * grid.flip(f_plus)) ** 2
    return weight


def coincidence_probability(state: TwoPhotonAmplitude, filters=None) -> float:
    """Probability of one photon in each output path.

    Both detectors are polarization-insensitive and sit behind the same
    filter (None or a FilterSpec of shape none: no filter), whose width
    the grid must resolve (the module docstring's grid rule).  The
    exchange-symmetrized amplitude A[r,s](Omega) + A[s,r](-Omega)
    interferes both assignments of the photons to the detectors.
    """
    filters = _real_filters(filters)
    _check_grid(state.grid, filters)
    a = state.values
    c = a + grid_flip_swap(a)
    weight = _filter_weight(state.grid, filters)
    block = c[np.ix_(OUT_UPPER, OUT_LOWER)]
    p = np.sum(np.abs(block) ** 2 * weight) * state.grid.d_omega
    return float(p)


def grid_flip_swap(values: np.ndarray) -> np.ndarray:
    """Exchange partner A[s, r](-Omega) of a slot-ordered amplitude."""
    return values.transpose(1, 0, 2)[:, :, ::-1]


# ---------------------------------------------------------------------------
# scans


def _detection_window(weight: np.ndarray) -> slice:
    """The smallest sample slice [lo, N - lo) that holds every nonzero
    detection weight; empty when the filter passes no pair.  It is
    symmetric about Omega = 0, as the weight is, so flipping it pairs
    each sample with its partner at -Omega."""
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
    column 0 is photon 1 and column 1 photon 2, both sampled at
    omega0 + Omega; photon 2 is read on the flipped axis, which the
    window's symmetry keeps exact.  The power rows are written into a
    full-length (2, 2, N) block that stays 0 outside the window, where
    the weight is 0 too, so the product with the weight sums the same N
    terms as on the full grid (p 0 and 0 0 are both +0) and every raw
    keeps its bits.
    """

    def __init__(self, phi, weight, d_omega, window):
        self.phi, self.weight, self.d_omega = phi[window], weight, d_omega
        n = len(self.phi)
        self.scaled = np.empty((2, n), dtype=complex)
        self.block, self.partner = np.empty((2, 2, 2, n), dtype=complex)
        self.power = np.zeros((2, 2, len(weight)))
        self.rows = self.power[..., window]

    def __call__(self, vectors) -> float:
        u1 = vectors[:, 0]
        u2 = vectors[:, 1, ::-1]
        scaled, block, partner = self.scaled, self.block, self.partner
        np.multiply(u1[:2], self.phi, out=scaled)
        np.multiply(scaled[:, None], u2[None, 2:], out=block)  # A[a, b](Omega)
        np.multiply(u2[:2], self.phi, out=scaled)
        # A[b, a](-Omega), reversed in its multiply
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

    Runs the per-photon engine of the module docstring; keywords as for
    chain_transfers.  Equals coincidence_probability(run_chain(...)) to
    rounding.  Settings are evaluated grouped by their prefix (pc0_on,
    pc0_efficiency), one fold alive at a time, and returned in input
    order.

    Everything runs on the detection window (_detection_window), where
    the filter weight is nonzero: a rectangular filter's band, or the
    full grid for a Lorentzian filter or none.  The raws are those of the
    full grid bit for bit (module docstring, _RankOneDetector).
    """
    model = chain_kwargs.pop("model", None) or dispersion.default_model()
    filters = _real_filters(filters)
    phi = _check_grid(grid, filters, None, pm, model, chain_kwargs.get("temperature_c")).values
    weight = _filter_weight(grid, filters)
    window = _detection_window(weight)
    chain = _Chain(layout, pm, grid, model=model, window=window, **chain_kwargs)
    settings = list(settings)
    groups = {}
    for index, setting in enumerate(settings):
        m = chip_mod.active_triple(layout, setting)
        groups.setdefault((setting.pc0_on, setting.pc0_efficiency), []).append((index, m))
    detect = _RankOneDetector(phi, weight, grid.d_omega, window)
    # the upper-path block (polarization, photon, n): photon 1 in H, photon 2 in V
    start = np.zeros((2, 2, window.stop - window.start), dtype=complex)
    start[0, 0] = start[1, 1] = 1.0
    # two arrays rather than one 1 MB block: freeing that block lifted
    # malloc's trim threshold, and the benchmark's peak RSS with it
    folded = np.empty((2,) + start.shape, dtype=complex)
    cross = np.empty_like(folded)
    raws = [0.0] * len(settings)
    for members in groups.values():
        vectors = _evolve(start, chain.prefix(settings[members[0][0]]))
        chain.fold_suffix(vectors, folded, cross)
        # folded, the prefix array is free to take each setting's vectors
        for index, m in members:
            chain.unfold(m, folded, cross, vectors.reshape(folded.shape))
            raws[index] = detect(vectors)
        del vectors  # before the next group's prefix is built
    return [
        ScanPoint(setting=s, delay_ps=chip_mod.delay_schedule(layout, s, chain.model), raw=raw)
        for s, raw in zip(settings, raws)
    ]


def _evolve(vectors: np.ndarray, steps) -> np.ndarray:
    for step in steps:
        vectors = step.apply(vectors)
    return vectors


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
) -> np.ndarray:
    """Coincidence probability versus a continuous relative delay.

    Bypasses the segmented geometry: the joint spectrum is the source
    amplitude times per-photon spectral envelopes and the detection
    filter (None: no filter), an explicit relative delay phase
    exp(i Omega tau) is applied between the photons, and the pair meets
    an ideal balanced splitter:

        P(tau) = 1/2 * (1 - Re K(tau) / K(0)),
        K(tau) = integral A(Omega) A*(-Omega) exp(i Omega tau) dOmega.

    The delay axis is the interference-kernel delay: a geometric
    arrival-time difference dt from the delay schedule corresponds to
    tau = 2 dt, because the exchanged amplitudes beat at twice the
    detuning.  The unfiltered profile is the triangle
    1/2 * min(1, |tau| / tau_w) with tau_w = dng * L / c.

    Envelopes are elementwise callables of wavelength in nm.  Every
    envelope and filter is evaluated once on wavelength_plus_nm; photon
    2 takes the flipped array, its value at omega0 - Omega (the grid is
    symmetric, so the flip is exact).

    Re K is evaluated by _delay_kernel, which folds the sum onto
    Omega > 0 and factors exp(i Omega tau) on that uniform half axis
    into two ~sqrt(N / 2)-wide tables and one matrix product.  The grid
    resolves only |tau| < pi / dOmega, because the midpoint sum is
    periodic in tau with period 2 pi / dOmega: a larger delay raises
    GridCoverageError with the sample count that would resolve it
    (N >= 1496 for the +-300 nm window and |tau| <= 10 ps).  The grid
    passes the module docstring's grid rule: with a filter it must also
    cover MIN_LOBES phase-matching lobes and resolve the lobe and the
    filter's width; without one (None, or a FilterSpec of shape none,
    which give the same bits) the lobe floors do not apply.
    """
    taus_s = np.asarray(taus_ps, dtype=float) * 1e-12
    model = model or dispersion.default_model()
    filters = _real_filters(filters)
    source = _check_grid(grid, filters, taus_s, pm, model, temperature_c).values
    lam = grid.wavelength_plus_nm
    joint = _joint(
        grid,
        source,
        [np.asarray(env(lam), dtype=complex) for env in photon1_envelopes],
        [np.asarray(env(lam), dtype=complex) for env in photon2_envelopes],
        [el.filter_amplitude(flt, lam) for flt in filters],
    )
    return _dip_curves(grid, joint[None], taus_s)[0]


def _joint(grid: SpectralGrid, source, photon1=(), photon2=(), filters=()) -> np.ndarray:
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


def _dip_curves(grid: SpectralGrid, joint: np.ndarray, taus_s: np.ndarray) -> np.ndarray:
    """dip_profile's P(tau) for each row of the joint amplitudes (S, N): (S, T).

    |Re K(tau)| <= K(0) (Cauchy-Schwarz), so P lies in [0, 1]; K(0) and the
    kernel sum the same terms in different orders, which leaves residues
    like -4.4e-16 at tau = 0.  Those are clipped; anything more than
    DIP_ROUNDING outside [0, 1] is a defect and raises ValueError.
    """
    k0 = np.sum(np.abs(joint) ** 2, axis=-1) * grid.d_omega
    if np.any(k0 <= 0):
        raise ValueError("joint spectrum vanishes; nothing passes the filters")
    g = joint * np.conj(grid.flip(joint))
    p = 0.5 * (1.0 - _delay_kernel(g, grid, taus_s) / k0[:, None])
    inside = (p >= -DIP_ROUNDING) & (p <= 1.0 + DIP_ROUNDING)
    if not np.all(inside):
        raise ValueError(
            f"dip probability {p[~inside].flat[0]!r} lies outside [0, 1] beyond rounding"
        )
    return np.clip(p, 0.0, 1.0)


def _delay_kernel(g: np.ndarray, grid: SpectralGrid, taus_s: np.ndarray) -> np.ndarray:
    """Re K(tau), K(tau) = sum_k g_k exp(i Omega_k tau) dOmega, for each row of
    g (S, N) with g(-Omega) = conj g(Omega): shape (S, T).

    The symmetric grid has no Omega = 0 sample and pairs Omega_k with
    Omega_{N-1-k} = -Omega_k, whose terms are complex conjugates, so

        Re K(tau) = 2 sum_{Omega_k > 0} Re(g_k exp(i Omega_k tau)) dOmega.

    The half axis Omega_{N/2 + j}, j < H = N / 2, is uniform, so
    exp(i Omega tau) splits (SpectralGrid.phase_blocks, cos/sin tables)
    into a (T, P) table over block starts and a (T, B) table over in-block
    offsets, B = ceil(sqrt H), P = ceil(H / B).  Each row's half is zero-padded to
    P*B and read as G[s, p, q] = g[s, N/2 + pB + q], and

        Re K_s(tau) = 2 Re sum_p exp(i Omega_{N/2+pB} tau)
                          sum_q exp(i q dOmega tau) G[s, p, q] dOmega,

    which costs T (B + P) cos/sin pairs and one (T, B) x (B, S P) product
    for all S rows.  Only Omega must be uniform; tau may be any array.
    G is laid out with one copy, and the block starts multiply the product
    in place, in the operand order and summation order that give the same
    bits as the complex-exponential form the tests keep as a reference.
    """
    half = grid.samples // 2
    starts, within = grid.phase_blocks(taus_s, grid.detunings[half:])
    blocks, block = starts.shape[-1], within.shape[-1]
    rows = len(g)
    g_blocks = np.zeros((block, rows, blocks), dtype=complex)  # G[q, s, p], zero-padded
    for row, half_row in zip(g_blocks.transpose(1, 2, 0), g[:, half:]):
        row.flat[:half] = half_row  # row[p, q] in flat order pB + q
    inner = (within @ g_blocks.reshape(block, -1)).reshape(-1, rows, blocks)  # (T, S, P)
    np.multiply(starts[:, None, :], inner, out=inner)
    kernel = np.sum(inner, axis=-1)
    return 2.0 * grid.d_omega * kernel.real.T


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
    """The four canonical dip profiles (source only; rectangular filter;
    segmented-converter envelope with the fiber filter, first converter
    off; both converter envelopes with the fiber filter, first converter
    on).

    The unfiltered curve integrates the bare phase-matching spectrum,
    whose slow tails need a much wider grid than the filtered cases;
    pass unfiltered_grid to control that window separately.  Each grid
    passes the module docstring's grid rule, the unfiltered one first:
    the filtered grid must cover MIN_LOBES phase-matching lobes and
    resolve the lobe and both filter widths, and the unfiltered curve is
    exempt from the lobe floors.

    Each profile equals its dip_profile call (both build the joint
    amplitude with _joint), but the shared inputs are evaluated once:
    the source amplitude per grid, and each filter and converter
    envelope on omega0 + Omega.  The three filtered joint amplitudes share one _delay_kernel call, so
    one pair of phase tables serves them; the unfiltered curve gets its
    own pair on its grid.
    """
    layout = layout or chip_mod.ChipLayout()
    model = model or dispersion.default_model()
    t = pm.reference_temperature_c if temperature_c is None else temperature_c
    taus_s = np.asarray(taus_ps, dtype=float) * 1e-12
    wide = unfiltered_grid or grid
    wide_source = _check_grid(wide, taus_s=taus_s, pm=pm, model=model, temperature_c=t).values
    center = grid.center_wavelength_nm
    specs = (
        el.FilterSpec("rectangular", center, rect_width_nm),
        el.FilterSpec("lorentzian", center, lorentz_width_nm),
    )
    source = _check_grid(grid, specs, taus_s, pm, model, t).values
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
    curves = {"unfiltered": _dip_curves(wide, wide_source[None], taus_s)[0]}
    curves.update(zip(filtered, _dip_curves(grid, np.stack(list(filtered.values())), taus_s)))
    return curves
