import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from homchip.chip import (
    _FLOAT_KEYS,
    KNOWN_KEYS,
    ChipLayout,
    LayoutError,
    SwitchSetting,
    delay_schedule,
    enumerate_settings,
    parse_layout,
    valid_triples,
)
from homchip.dispersion import default_model

C = 299792458.0
AS_BUILT = Path(__file__).resolve().parent.parent / "layouts" / "as_built.layout"
STEP_PS = 0.0805 * 2.54e-3 / C * 1e12  # walk-off of one segment


@pytest.fixture(scope="module")
def model():
    return default_model()


# ---------------------------------------------------------------- layout model


def test_default_geometry_totals():
    assert list(ChipLayout().triple_indices) == list(range(1, 9))


def test_layout_rejects_bad_values():
    with pytest.raises(LayoutError):
        ChipLayout(pdc_length_mm=-1.0)
    with pytest.raises(LayoutError):
        ChipLayout(segment_count=2)
    # a float count once failed later, inside range; a negative mismatch
    # shifted the delay schedule
    with pytest.raises(LayoutError, match="must be an integer") as err:
        ChipLayout(segment_count=3.5)
    assert err.value.key == "segment_count"
    assert list(ChipLayout(segment_count=np.int64(5)).triple_indices) == [1, 2, 3]
    with pytest.raises(LayoutError, match="branch_mismatch_mm: must be >= 0") as err:
        ChipLayout(branch_length_mismatch_mm=-0.02)
    assert err.value.key == "branch_mismatch_mm"


LENGTH_FIELDS = [
    "pdc_length_mm",
    "pc0_length_mm",
    "pbs_length_mm",
    "segment_length_mm",
    "bs_block_length_mm",
    "branch_length_mismatch_mm",
]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", LENGTH_FIELDS)
def test_layout_rejects_non_finite_lengths(name, value):
    # NaN passes a "<= 0" check; it once gave NaN raws, or a plausible
    # visibility where the length's phase cancels
    key = "branch_mismatch_mm" if name == "branch_length_mismatch_mm" else name
    with pytest.raises(LayoutError, match="finite") as err:
        ChipLayout(**{name: value})
    assert err.value.key == key


def test_setting_validation():
    with pytest.raises(LayoutError):
        SwitchSetting(pc0_efficiency=1.2)


# ---------------------------------------------------------------- enumeration


def test_enumerate_settings_counts():
    layout = ChipLayout()
    assert len(enumerate_settings(layout)) == 16
    broken = SwitchSetting(disabled_segments={10})
    assert len(enumerate_settings(layout, broken)) == 14
    worse = SwitchSetting(disabled_segments={8, 9, 10}, triple_index=1)
    assert len(enumerate_settings(layout, worse)) == 10  # 2 x 5 triples


def test_enumerate_settings_sorted():
    layout = ChipLayout()
    settings = enumerate_settings(layout)
    keys = [(s.pc0_on, s.triple_index) for s in settings]
    assert keys == sorted(keys)
    assert keys[0] == (False, 1)
    assert keys[-1] == (True, 8)


def test_valid_triples_excludes_disabled():
    layout = ChipLayout()
    assert valid_triples(layout, {10}) == list(range(1, 8))
    assert valid_triples(layout, {5}) == [1, 2, 6, 7, 8]


# ---------------------------------------------------------------- delay oracle


def test_delay_zero_at_synchronization_point(model):
    layout = ChipLayout()
    d = delay_schedule(layout, SwitchSetting(pc0_on=True, triple_index=2), model)
    assert abs(d) <= 0.01
    assert d == pytest.approx(0.0, abs=1e-9)  # exact for the as-built geometry


def test_delay_accepts_list_and_array_coefficients(model):
    setting = SwitchSetting(pc0_on=False, triple_index=3)
    expected = delay_schedule(ChipLayout(), setting, model)
    for convert in (list, np.array):
        m = replace(
            model,
            sellmeier_ordinary=convert(model.sellmeier_ordinary),
            sellmeier_extraordinary=convert(model.sellmeier_extraordinary),
            valid_range_um=convert(model.valid_range_um),
        )
        assert delay_schedule(ChipLayout(), setting, m) == expected


def test_delay_on_branch_affine(model):
    layout = ChipLayout()
    delays = [
        delay_schedule(layout, SwitchSetting(pc0_on=True, triple_index=m), model)
        for m in range(1, 9)
    ]
    for m, d in zip(range(1, 9), delays):
        assert d == pytest.approx((m - 2) * STEP_PS, abs=1e-9)
    diffs = np.diff(delays)
    assert np.allclose(diffs, STEP_PS, atol=1e-9)


def test_delay_off_branch_values(model):
    layout = ChipLayout()
    d1 = delay_schedule(layout, SwitchSetting(pc0_on=False, triple_index=1), model)
    d8 = delay_schedule(layout, SwitchSetting(pc0_on=False, triple_index=8), model)
    assert d1 == pytest.approx(6.92, abs=0.01)
    assert d8 == pytest.approx(11.70, abs=0.01)
    for m in range(1, 9):
        d = delay_schedule(layout, SwitchSetting(pc0_on=False, triple_index=m), model)
        assert 6.9 <= d <= 11.7


def test_delay_sign_changes_only_on_pc0_branch(model):
    layout = ChipLayout()
    on = [
        delay_schedule(layout, SwitchSetting(pc0_on=True, triple_index=m), model)
        for m in range(1, 9)
    ]
    off = [
        delay_schedule(layout, SwitchSetting(pc0_on=False, triple_index=m), model)
        for m in range(1, 9)
    ]
    sign_changes = sum(1 for a, b in zip(on, on[1:]) if (a < 0) != (b < 0))
    assert sign_changes == 1
    assert all(d > 0 for d in off)


def test_delay_step_scales_with_segment_length(model):
    layout = ChipLayout()
    doubled = ChipLayout(segment_length_mm=2 * layout.segment_length_mm)

    def step(lay):
        return delay_schedule(
            lay, SwitchSetting(pc0_on=False, triple_index=3), model
        ) - delay_schedule(lay, SwitchSetting(pc0_on=False, triple_index=2), model)

    assert step(doubled) == pytest.approx(2 * step(layout), rel=1e-12)


def test_delay_independent_of_voltages_and_efficiency(model):
    layout = ChipLayout()
    base = SwitchSetting(pc0_on=True, triple_index=4)
    tweaked = SwitchSetting(pc0_on=True, triple_index=4, pc0_efficiency=0.5)
    assert delay_schedule(layout, base, model) == delay_schedule(layout, tweaked, model)


def test_delay_requires_active_triple(model):
    layout = ChipLayout()
    with pytest.raises(LayoutError):
        delay_schedule(layout, SwitchSetting(pc0_on=True, triple_index=None), model)


def test_delay_rejects_triple_on_disabled_segment(model):
    layout = ChipLayout()
    bad = SwitchSetting(pc0_on=True, triple_index=8, disabled_segments={10})
    with pytest.raises(LayoutError):
        delay_schedule(layout, bad, model)


def test_branch_mismatch_adds_common_delay(model):
    layout = ChipLayout(branch_length_mismatch_mm=0.1)
    base = ChipLayout()
    setting = SwitchSetting(pc0_on=True, triple_index=2)
    extra = delay_schedule(layout, setting, model) - delay_schedule(base, setting, model)
    assert extra == pytest.approx(2.18 * 0.1e-3 / C * 1e12, rel=0.02)


# ---------------------------------------------------------------- parser


def test_parse_empty_gives_as_built_defaults():
    cfg = parse_layout("")
    assert cfg.layout == ChipLayout()
    assert cfg.setting.pc0_on and cfg.setting.triple_index == 2
    assert cfg.center_wavelength_nm == pytest.approx(1551.7)
    assert cfg.filter is None  # filter_shape = none, the default: no filter
    assert cfg.pbs_extinction_db == float("inf")


def test_as_built_file_is_the_empty_layout_with_its_filter():
    # the file spells out every default; its filter is the one key it sets
    text = AS_BUILT.read_text()
    cfg = parse_layout(text)
    assert cfg.filter.shape == "lorentzian" and cfg.filter.width_nm == 1.2
    assert cfg == replace(parse_layout(""), filter=cfg.filter)
    assert sorted(key for key in KNOWN_KEYS if key not in text) == []


def test_parse_full_file():
    text = """
    # as-built device with one broken electrode
    pdc_length_mm = 20.7
    segment_count = 10
    disabled_segments = 10
    pbs_extinction_db = 17
    pc_conversion_db = 20
    pc0_efficiency = 0.99
    filter_shape = lorentz
    filter_width_nm = 1.2
    temperature_c = 43.6
    pump_wavelength_nm = 775.85
    branch_mismatch_mm = 0.0
    """
    cfg = parse_layout(text)
    assert cfg.setting.disabled_segments == frozenset({10})
    assert cfg.pbs_extinction_db == 17.0
    assert cfg.pc_conversion_db == 20.0
    assert cfg.setting.pc0_efficiency == 0.99
    assert cfg.filter.shape == "lorentzian"
    assert cfg.filter.width_nm == 1.2
    assert cfg.filter.center_nm == pytest.approx(1551.7)


def test_parse_syntax_error_reports_line():
    with pytest.raises(LayoutError) as err:
        parse_layout("pdc_length_mm = 20.7\nthis is not a key value pair\n")
    assert err.value.line == 2


def test_parse_unknown_key_rejected():
    with pytest.raises(LayoutError) as err:
        parse_layout("coupling_flux_capacitance = 3\n")
    assert "unknown key" in str(err.value)


def test_parse_semantic_errors_name_field():
    with pytest.raises(LayoutError) as err:
        parse_layout("segment_count = 2\n")
    assert "segment_count" in str(err.value)
    with pytest.raises(LayoutError) as err:
        parse_layout("pdc_length_mm = -3\n")
    assert "pdc_length_mm" in str(err.value)
    with pytest.raises(LayoutError) as err:
        parse_layout("pump_wavelength_nm = -775\n")
    assert err.value.key == "pump_wavelength_nm"
    with pytest.raises(LayoutError):
        parse_layout("filter_shape = rect\n")  # missing width
    with pytest.raises(LayoutError):
        parse_layout("segment_count = 7\ndisabled_segments = 9\n")


@pytest.mark.parametrize(
    "key, value",
    [
        (key, value)
        for key in sorted(_FLOAT_KEYS)
        for value in ("nan", "inf", "-inf")
        if (key, value) != ("pbs_extinction_db", "inf")
    ],
)
def test_parse_non_finite_rejected(key, value):
    with pytest.raises(LayoutError) as err:
        parse_layout(f"{key} = {value}\n")
    assert err.value.key == key and key in str(err.value)


@pytest.mark.parametrize(
    "text, key, line, column, message",
    [
        # without its guard the line was dropped and segment_count kept its default of 10
        ("pdc_length_mm = 20.7\nsegment_count = ten\n", "segment_count", 2, 16,
         "segment_count: expected an integer"),
        ("disabled_segments = 3, x\n", "disabled_segments", 1, 20,
         "disabled_segments: expected a comma-separated list of integers"),
        ("# as built\npdc_length_mm = long\n", "pdc_length_mm", 2, 16,
         "pdc_length_mm: expected a number"),
        # the column is the stripped line's length, a comment stripped first
        ("pdc_length_mm = 20.7\nsegment_count = 10\nsegments  # a bare word\n", None, 3, 8,
         "expected 'key = value'"),
        # without its guard parse_filter raised a bare ValueError that named no line
        ("filter_width_nm = 1.2\nfilter_shape = box\n", "filter_shape", 2, 15,
         "filter_shape: unknown filter shape 'box'"),
    ],
    ids=["integer", "integer-list", "number", "key-value", "filter-shape"],
)
def test_parse_value_guards_name_key_line_and_column(text, key, line, column, message):
    with pytest.raises(LayoutError) as err:
        parse_layout(text)
    assert (err.value.key, err.value.line, err.value.column) == (key, line, column)
    assert str(err.value) == f"line {line}, column {column}: {message}"


def test_setting_outside_the_layout_triples_is_refused():
    # without the range check the schedule returned a delay (66.16 ps) for triple 99
    with pytest.raises(LayoutError, match=r"^triple_index: triple 99 outside 1\.\.8$"):
        delay_schedule(ChipLayout(), SwitchSetting(True, 99))


@pytest.mark.parametrize("triple", [2.0, "2"])
def test_setting_triple_must_be_an_integer(triple):
    # a float triple once read on-2.0, got a 0.0 ps delay and failed hom_scan
    # with numpy's IndexError
    with pytest.raises(LayoutError, match="^triple_index: must be an integer or None$"):
        SwitchSetting(True, triple)


def test_setting_triple_takes_numpy_integers_and_none():
    setting = SwitchSetting(True, np.int64(2))
    assert setting.label == "on-2" and setting.triple_segments() == (2, 3, 4)
    assert delay_schedule(ChipLayout(), setting) == delay_schedule(ChipLayout(), SwitchSetting(True, 2))
    assert SwitchSetting(False, None).triple_segments() == ()


@pytest.mark.parametrize("key", ["pbs_extinction_db", "pc_conversion_db"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_parse_imperfection_floors_name_their_key(key, value):
    # without the parser's floor the layout parsed, and only hom-scan failed,
    # later and in el.pbs_transfer or PcSpec, naming no layout key
    with pytest.raises(LayoutError, match=f"^{key}: must be > 0$"):
        parse_layout(f"{key} = {value}\n")


def test_parse_infinite_extinction_is_ideal():
    assert parse_layout("pbs_extinction_db = inf\n").pbs_extinction_db == math.inf


def test_parse_duplicate_key_rejected():
    with pytest.raises(LayoutError):
        parse_layout("pdc_length_mm = 20.7\npdc_length_mm = 10.0\n")


def test_parse_scaled_geometry_changes_oracle(model):
    cfg = parse_layout("pdc_length_mm = 41.4\n")
    d_long = delay_schedule(cfg.layout, SwitchSetting(pc0_on=False, triple_index=1), model)
    d_ref = delay_schedule(ChipLayout(), SwitchSetting(pc0_on=False, triple_index=1), model)
    assert d_long - d_ref == pytest.approx(0.0805 * 10.35e-3 / C * 1e12, rel=1e-9)


def test_parse_doubled_source_halves_bandwidth(model):
    from homchip.elements import PmSpec, pdc_amplitude
    from homchip.grid import SpectralGrid

    cfg = parse_layout("pdc_length_mm = 41.4\n")
    grid = SpectralGrid(half_width_nm=4.0, samples=8192)

    def fwhm(length_mm):
        pm = PmSpec(pdc_length_mm=length_mm)
        power = np.abs(pdc_amplitude(pm, grid, model=model)) ** 2
        above = np.where(power >= power.max() / 2)[0]
        lam = grid.wavelength_plus_nm
        return abs(lam[above[-1]] - lam[above[0]])

    ratio = fwhm(cfg.layout.pdc_length_mm) / fwhm(ChipLayout().pdc_length_mm)
    assert ratio == pytest.approx(0.5, abs=0.02)
