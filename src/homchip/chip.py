"""Chip layout model, layout-file parser, and the delay schedule.

The delay schedule is the polarization-tracking oracle for the tunable
birefringent delay line: a photon pair is taken to be born at the
midpoint of the pair-source section, each photon's polarization is
tracked through the first converter (swap at its midpoint when driven),
the polarizing splitter, and the driven triple of the segmented
converter (swap at the triple midpoint), and the arrival-time difference
at the balanced splitter is the signed sum of birefringent walk-offs
along the way.  Positive delay means the segmented-branch photon
arrives later.
"""

import math
import operator
from dataclasses import dataclass, field, fields, replace

from . import dispersion
from .elements import OPERATING_TEMPERATURE_C, FilterSpec, PmSpec
from .grid import C_VACUUM, OPERATING_WAVELENGTH_NM, SpectralGrid

DEFAULT_PUMP_WAVELENGTH_NM = OPERATING_WAVELENGTH_NM / 2.0  # degenerate pairs


class LayoutError(ValueError):
    """Layout file rejected; carries the offending line/field."""

    def __init__(self, message, line=None, column=None, key=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ": "
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(loc + message)
        self.line = line
        self.column = column
        self.key = key


@dataclass(frozen=True)
class ChipLayout:
    """Chip geometry; the defaults are the as-built device."""

    pdc_length_mm: float = 20.7
    pc0_length_mm: float = 7.62
    pbs_length_mm: float = 4.0
    segment_length_mm: float = 2.54
    segment_count: int = 10
    bs_block_length_mm: float = 13.1
    branch_length_mismatch_mm: float = 0.0

    def __post_init__(self):
        for name in (
            "pdc_length_mm",
            "pc0_length_mm",
            "pbs_length_mm",
            "segment_length_mm",
            "bs_block_length_mm",
        ):
            if not 0 < getattr(self, name) < math.inf:
                raise LayoutError("length must be positive and finite", key=name)
        # the upper branch's extra length, spelled branch_mismatch_mm in a layout file
        if not 0 <= self.branch_length_mismatch_mm < math.inf:
            raise LayoutError("must be >= 0 and finite", key="branch_mismatch_mm")
        try:
            segment_count = operator.index(self.segment_count)  # never a float
        except TypeError:
            raise LayoutError("must be an integer", key="segment_count") from None
        if segment_count < 3:
            raise LayoutError("need at least one full triple", key="segment_count")

    @property
    def triple_indices(self) -> range:
        """Triple m drives segments m, m+1, m+2."""
        return range(1, self.segment_count - 1)


@dataclass(frozen=True)
class SwitchSetting:
    pc0_on: bool = True
    triple_index: int | None = 2
    disabled_segments: frozenset = field(default_factory=frozenset)
    pc0_efficiency: float = 1.0

    def __post_init__(self):
        if self.triple_index is not None:  # None: no active triple
            try:
                operator.index(self.triple_index)  # never a float or a string
            except TypeError:
                raise LayoutError("must be an integer or None", key="triple_index") from None
        if not 0.0 <= self.pc0_efficiency <= 1.0:
            raise LayoutError("must lie in [0, 1]", key="pc0_efficiency")
        object.__setattr__(self, "disabled_segments", frozenset(self.disabled_segments))

    def triple_segments(self):
        if self.triple_index is None:
            return ()
        return (self.triple_index, self.triple_index + 1, self.triple_index + 2)

    @property
    def label(self) -> str:
        state = "on" if self.pc0_on else "off"
        return f"{state}-{self.triple_index}"


@dataclass(frozen=True)
class ChipConfig:
    """A command's configuration: the parsed layout file (geometry,
    electrical state, environment) and the values only flags set."""

    layout: ChipLayout
    setting: SwitchSetting
    temperature_c: float
    pump_wavelength_nm: float
    pbs_extinction_db: float
    pc_conversion_db: float | None  # None = ideal converters
    filter: FilterSpec | None  # None = no filter
    grid_samples: int = SpectralGrid.samples
    grid_halfwidth_nm: float = SpectralGrid.half_width_nm
    flat_converters: bool = False  # frequency-independent converters

    @property
    def center_wavelength_nm(self) -> float:
        return 2.0 * self.pump_wavelength_nm

    @property
    def grid(self) -> SpectralGrid:
        """The scan's (and the filtered dip's) grid, built when read."""
        return SpectralGrid(self.center_wavelength_nm, self.grid_halfwidth_nm, self.grid_samples)

    @property
    def pm(self) -> PmSpec:
        return PmSpec(pdc_length_mm=self.layout.pdc_length_mm)


def validate_setting(layout: ChipLayout, setting: SwitchSetting) -> None:
    if setting.triple_index is not None:
        if setting.triple_index not in layout.triple_indices:
            raise LayoutError(
                f"triple {setting.triple_index} outside 1..{layout.segment_count - 2}",
                key="triple_index",
            )
        hit = set(setting.triple_segments()) & set(setting.disabled_segments)
        if hit:
            raise LayoutError(
                f"active triple {setting.triple_index} uses disabled segment(s) {sorted(hit)}",
                key="triple_index",
            )
    for seg in setting.disabled_segments:
        if not 1 <= seg <= layout.segment_count:
            raise LayoutError(
                f"disabled segment {seg} outside 1..{layout.segment_count}",
                key="disabled_segments",
            )


def active_triple(layout: ChipLayout, setting: SwitchSetting) -> int:
    """The setting's triple index, once the setting is valid for the layout."""
    if setting.triple_index is None:
        raise LayoutError(
            "no active triple: the photons reach the splitter in orthogonal "
            "polarizations and there is no interference configuration",
            key="triple_index",
        )
    validate_setting(layout, setting)
    return setting.triple_index


def valid_triples(layout: ChipLayout, disabled_segments=frozenset()) -> list:
    """Triples whose three segments are all healthy."""
    disabled = set(disabled_segments)
    return [
        m
        for m in layout.triple_indices
        if not ({m, m + 1, m + 2} & disabled)
    ]


def enumerate_settings(layout: ChipLayout, template: SwitchSetting | None = None) -> list:
    """All (pc0 off/on) x (valid triple) switch settings, sorted."""
    template = template or SwitchSetting()
    out = []
    for pc0_on in (False, True):
        for m in valid_triples(layout, template.disabled_segments):
            out.append(replace(template, pc0_on=pc0_on, triple_index=m))
    return out


def delay_schedule(
    layout: ChipLayout,
    setting: SwitchSetting,
    model: dispersion.DispersionModel | None = None,
) -> float:
    """Arrival-time difference at the balanced splitter, in ps.

    Positive when the segmented-branch photon arrives later.  Pure
    geometry: independent of the converter drive level and of the
    balanced coupler (set once per scan), at whose input it is taken.
    Group indices are taken at the calibration wavelength.
    """
    m = active_triple(layout, setting)
    model = model or dispersion.default_model()
    ng_h, ng_v = dispersion.calibration_group_indices(model)
    dng = ng_h - ng_v

    # conversion point of the active triple, measured from the splitter exit
    z_conv_mm = (m + 0.5) * layout.segment_length_mm

    if setting.pc0_on:
        # walk-off history cancels except for: (half pair-source + half
        # converter) against (half converter + splitter + z_conv)
        effective_mm = z_conv_mm + layout.pbs_length_mm - layout.pdc_length_mm / 2.0
    else:
        effective_mm = (
            layout.pdc_length_mm / 2.0
            + layout.pc0_length_mm
            + layout.pbs_length_mm
            + z_conv_mm
        )
    delay_s = dng * effective_mm * 1e-3 / C_VACUUM

    if layout.branch_length_mismatch_mm:
        delay_s += ng_v * layout.branch_length_mismatch_mm * 1e-3 / C_VACUUM
    return delay_s * 1e12


# ---------------------------------------------------------------------------
# layout-file parser

_FLOAT_KEYS = {
    "pdc_length_mm",
    "pc0_length_mm",
    "pbs_length_mm",
    "segment_length_mm",
    "bs_block_length_mm",
    "branch_mismatch_mm",
    "pbs_extinction_db",
    "pc_conversion_db",
    "pc0_efficiency",
    "filter_width_nm",
    "temperature_c",
    "pump_wavelength_nm",
}
#: Accepted spellings of the real detection-filter shapes (layout file and CLI).
FILTER_ALIASES = {
    "rect": "rectangular",
    "rectangular": "rectangular",
    "lorentz": "lorentzian",
    "lorentzian": "lorentzian",
}
KNOWN_KEYS = _FLOAT_KEYS | {"segment_count", "disabled_segments", "filter_shape"}


def parse_filter(spelling: str, center_nm: float, width_nm: float | None = None) -> FilterSpec | None:
    """The detection filter of a layout's filter_shape and filter_width_nm
    (``spelling`` is the shape, ``width_nm`` the width), or of the --filter
    flag's 'none' or 'shape:width_nm'; None for 'none', no filter.

    Shapes are 'none' and the keys of FILTER_ALIASES, in any case.  'none'
    ignores ``width_nm`` but takes no width of its own; a real shape needs
    a width.
    """
    shape, colon, width = spelling.partition(":")
    if shape.lower() == "none" and not colon:
        return None
    if shape.lower() not in FILTER_ALIASES:
        raise ValueError(f"unknown filter shape {shape!r}")
    if colon:
        try:
            width_nm = float(width)
        except ValueError:
            raise ValueError(f"filter {spelling!r}: width {width!r} is not a number") from None
    if width_nm is None:
        raise LayoutError("filter_width_nm required for a real filter", key="filter_width_nm")
    return FilterSpec(FILTER_ALIASES[shape.lower()], center_nm, width_nm)


def parse_layout(text: str) -> ChipConfig:
    """Parse the line-based ``key = value`` layout format.

    '#' starts a comment; unspecified keys take the as-built geometry
    defaults; unknown keys are errors.  Returns the layout together with
    a default switch setting (first converter on, triple 2).
    """
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise LayoutError(
                "expected 'key = value'", line=lineno, column=len(stripped)
            )
        key, eq, rhs = stripped.partition("=")
        key, rhs = key.strip(), rhs.strip()
        if key not in KNOWN_KEYS:
            raise LayoutError(f"unknown key {key!r}", line=lineno, column=1)
        if key in raw:
            raise LayoutError(f"duplicate key {key!r}", line=lineno, column=1)
        column = stripped.index(eq) + 2
        if key == "segment_count":
            try:
                raw[key] = int(rhs)
            except ValueError:
                raise LayoutError("expected an integer", line=lineno, column=column, key=key)
        elif key == "disabled_segments":
            try:
                raw[key] = frozenset(int(tok) for tok in rhs.split(",") if tok.strip())
            except ValueError:
                raise LayoutError(
                    "expected a comma-separated list of integers",
                    line=lineno,
                    column=column,
                    key=key,
                )
        elif key == "filter_shape":
            # a bare shape: its width is the filter_width_nm key
            if rhs.lower() != "none" and rhs.lower() not in FILTER_ALIASES:
                raise LayoutError(
                    f"unknown filter shape {rhs!r}", line=lineno, column=column, key=key
                )
            raw[key] = rhs
        else:
            try:
                value = float(rhs)
            except ValueError:
                raise LayoutError("expected a number", line=lineno, column=column, key=key)
            # inf extinction is the ideal splitter; every other value must be finite
            if not (math.isfinite(value) or (key == "pbs_extinction_db" and value > 0)):
                raise LayoutError(
                    "expected a finite number", line=lineno, column=column, key=key
                )
            raw[key] = value

    geometry = {f.name: raw[f.name] for f in fields(ChipLayout) if f.name in raw}
    if "branch_mismatch_mm" in raw:
        geometry["branch_length_mismatch_mm"] = raw["branch_mismatch_mm"]
    layout = ChipLayout(**geometry)

    disabled = raw.get("disabled_segments", frozenset())
    triples = valid_triples(layout, disabled)
    if not triples:
        raise LayoutError(
            "no valid triple remains with these disabled segments",
            key="disabled_segments",
        )
    default_triple = 2 if 2 in triples else triples[0]
    setting = SwitchSetting(
        pc0_on=True,
        triple_index=default_triple,
        disabled_segments=disabled,
        pc0_efficiency=raw.get("pc0_efficiency", 1.0),
    )
    validate_setting(layout, setting)

    pump_nm = raw.get("pump_wavelength_nm", DEFAULT_PUMP_WAVELENGTH_NM)
    if pump_nm <= 0:
        raise LayoutError("must be > 0", key="pump_wavelength_nm")
    flt = parse_filter(raw.get("filter_shape", "none"), 2.0 * pump_nm, raw.get("filter_width_nm"))

    pbs_ext = raw.get("pbs_extinction_db", math.inf)
    if pbs_ext <= 0:
        raise LayoutError("must be > 0", key="pbs_extinction_db")
    pc_conv = raw.get("pc_conversion_db")
    if pc_conv is not None and pc_conv <= 0:
        raise LayoutError("must be > 0", key="pc_conversion_db")

    return ChipConfig(
        layout=layout,
        setting=setting,
        temperature_c=raw.get("temperature_c", OPERATING_TEMPERATURE_C),
        pump_wavelength_nm=pump_nm,
        pbs_extinction_db=pbs_ext,
        pc_conversion_db=pc_conv,
        filter=flt,
    )
