import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homchip import dispersion as disp
from homchip.dispersion import (
    DispersionModel,
    Polarization,
    WavelengthRangeError,
    calibrate,
    converter_gdd,
    default_model,
    group_index,
    group_index_difference,
    parse_coefficient_file,
    raw_group_index_difference,
    refractive_index,
    walk_off_time,
)

C = 299792458.0
LAM0 = 1551.7


@pytest.fixture(scope="module")
def model():
    return default_model()


def test_refractive_index_telecom_values(model):
    n_o = refractive_index(model, Polarization.H, LAM0)
    n_e = refractive_index(model, Polarization.V, LAM0)
    assert 2.1 <= n_o <= 2.3
    assert n_o != n_e
    # determinism
    assert refractive_index(model, Polarization.H, LAM0) == n_o
    # frozen regression values for the shipped Zelmon set
    assert n_o == pytest.approx(2.2110533820823273, abs=1e-12)
    assert n_e == pytest.approx(2.1375105801544040, abs=1e-12)


def test_refractive_index_accepts_pump_band(model):
    n = refractive_index(model, "H", 775.85)
    assert 2.1 < n < 2.4


def test_wavelength_out_of_range(model):
    with pytest.raises(WavelengthRangeError):
        refractive_index(model, "H", 300.0)
    with pytest.raises(WavelengthRangeError):
        group_index(model, "V", 5200.0)


def test_calibration_exact_and_idempotent(model):
    assert group_index_difference(model, LAM0) == pytest.approx(0.0805, abs=1e-14)
    again = calibrate(model)
    assert again.ng_offset_h == model.ng_offset_h
    assert again.ng_offset_v == model.ng_offset_v
    # residual absorbed by the offsets stays small and is reportable
    residual = 0.0805 - float(raw_group_index_difference(model, LAM0))
    assert abs(residual) < 2e-3
    assert model.ng_offset_h == pytest.approx(residual / 2.0)


def test_sign_convention_h_slow(model):
    # H (ordinary) is the slow axis: dng > 0 across the band
    for lam in (1500.0, 1551.7, 1600.0):
        assert group_index_difference(model, lam) > 0.07


def test_group_index_exceeds_phase_index(model):
    # normal dispersion in the telecom band
    for pol in (Polarization.H, Polarization.V):
        for lam in (1450.0, 1551.7, 1650.0):
            assert group_index(model, pol, lam) >= refractive_index(model, pol, lam)


def test_group_index_against_five_point_stencil(model):
    # independent higher-order differentiation scheme
    h = 0.05  # nm
    for pol in ("H", "V"):
        n = lambda x: refractive_index(model, pol, x)  # noqa: E731
        lam = LAM0
        dn = (-n(lam + 2 * h) + 8 * n(lam + h) - 8 * n(lam - h) + n(lam - 2 * h)) / (
            12 * h
        )
        offset = model.ng_offset_h if pol == "H" else model.ng_offset_v
        ng_ref = n(lam) - lam * dn + offset
        ng = group_index(model, pol, lam)
        assert abs(ng - ng_ref) / abs(ng_ref) < 1e-6


def test_degenerate_model_has_zero_difference():
    coeffs = (2.6734, 0.01764, 1.2290, 0.05914, 12.614, 474.60)
    m = DispersionModel(sellmeier_ordinary=coeffs, sellmeier_extraordinary=coeffs)
    assert group_index_difference(m, LAM0) == 0.0


def test_walk_off_values(model):
    assert walk_off_time(model, 0.0) == 0.0
    step = walk_off_time(model, 2.54)
    assert step == pytest.approx(0.682, abs=0.005)
    full = walk_off_time(model, 20.7)
    assert full == pytest.approx(0.0805 * 20.7e-3 / C * 1e12, rel=1e-12)
    assert full == pytest.approx(5.558, abs=0.01)
    assert step > 0


def test_walk_off_linearity(model):
    a = walk_off_time(model, 3.3)
    b = walk_off_time(model, 4.9)
    both = walk_off_time(model, 8.2)
    assert a + b == pytest.approx(both, rel=1e-12)
    with pytest.raises(ValueError):
        walk_off_time(model, -1.0)
    for length_mm in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            walk_off_time(model, length_mm)


def test_converter_gdd_value_and_scaling(model):
    gdd = converter_gdd(model, 7.5, 1550.0)
    assert gdd < 0
    assert -66.0 <= gdd <= -22.0
    # frozen regression value for the shipped set
    assert gdd == pytest.approx(-47.64, abs=0.05)
    assert converter_gdd(model, 15.0, 1550.0) == pytest.approx(2 * gdd, rel=1e-9)
    with pytest.raises(ValueError):
        converter_gdd(model, 0.0, 1550.0)


@pytest.mark.parametrize("length_mm", [np.nan, np.inf, -1.0])
def test_converter_gdd_refuses_a_non_finite_length(model, length_mm):
    # a NaN length returned NaN and an infinite one -inf, with no error
    with pytest.raises(ValueError) as err:
        converter_gdd(model, length_mm, 1550.0)
    assert err.type is ValueError
    assert str(err.value) == "length_mm must be positive and finite"


def test_converter_gdd_degenerate_model_zero():
    coeffs = (2.6734, 0.01764, 1.2290, 0.05914, 12.614, 474.60)
    m = DispersionModel(sellmeier_ordinary=coeffs, sellmeier_extraordinary=coeffs)
    assert converter_gdd(m, 7.5, 1550.0) == pytest.approx(0.0, abs=1e-20)


def test_parse_coefficient_file_roundtrip():
    text = """
    # comment line
    sellmeier_o = 1.0, 0.01
    sellmeier_e = 1.1, 0.02  # trailing comment
    ng_offset_h = 0.001
    ng_offset_v = -0.001
    """
    m = parse_coefficient_file(text)
    assert m.sellmeier_ordinary == (1.0, 0.01)
    assert m.sellmeier_extraordinary == (1.1, 0.02)
    assert m.ng_offset_h == 0.001


@pytest.mark.parametrize(
    "bad",
    [
        "sellmeier_o = 1.0, 0.01",  # missing sellmeier_e
        "sellmeier_o = 1.0, 0.01\nsellmeier_e = a, b",
        "sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01\nbogus_key = 3",
        "sellmeier_o 1.0, 0.01",
        pytest.param(
            "sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01\nsellmeier_o = 2.0, 0.01",
            id="duplicate-coefficients",
        ),
        pytest.param(
            "sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01\nng_offset_v = 0\nng_offset_v = 0",
            id="duplicate-offset",
        ),
        pytest.param("sellmeier_o = 1.0, nan\nsellmeier_e = 1.0, 0.01", id="nan-coefficient"),
        pytest.param("sellmeier_o = 1.0, 0.01\nsellmeier_e = inf, 0.01", id="inf-coefficient"),
        pytest.param(
            "sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01\nng_offset_h = inf", id="inf-offset"
        ),
        pytest.param(
            "sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01\nng_offset_v = nan", id="nan-offset"
        ),
    ],
)
def test_parse_coefficient_file_errors(bad):
    with pytest.raises(ValueError):
        parse_coefficient_file(bad)


@pytest.mark.parametrize(
    "bad, line",
    [
        ("sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01\nsellmeier_o = 2.0, 0.01", 3),
        ("sellmeier_o = 1.0, 0.01\n\nsellmeier_e = 1.0, nan", 3),
        ("ng_offset_h = inf\nsellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01", 1),
    ],
    ids=["duplicate", "nan-after-blank-line", "inf-first"],
)
def test_parse_coefficient_file_errors_name_the_line(bad, line):
    with pytest.raises(ValueError, match=f"^line {line}: "):
        parse_coefficient_file(bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("sellmeier_o 1.0, 0.01\nsellmeier_e = 1.0, 0.01", "line 1: expected 'key = value'"),
        ("sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01x", "line 2: bad coefficient list"),
        ("sellmeier_o = 1.0, 0.01\nsellmeier_e = 1.0, 0.01\nng_offset_h = small",
         "line 3: bad number for ng_offset_h"),
    ],
    ids=["key-value", "coefficient-list", "offset"],
)
def test_parse_coefficient_file_guards_name_their_fault(bad, message):
    with pytest.raises(ValueError) as err:
        parse_coefficient_file(bad)
    assert err.type is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"sellmeier_ordinary": (1.0, 0.01, 2.0)}, "sellmeier_ordinary must hold (B, C) pairs"),
        ({"sellmeier_extraordinary": ()}, "sellmeier_extraordinary must hold (B, C) pairs"),
        ({"valid_range_um": (5.0, 0.5)}, "valid_range_um must be an increasing positive pair"),
        ({"valid_range_um": (0.0, 5.0)}, "valid_range_um must be an increasing positive pair"),
    ],
    ids=["odd-ordinary", "empty-extraordinary", "decreasing-range", "zero-range"],
)
def test_dispersion_model_guards(fields, message):
    coeffs = (2.6734, 0.01764)
    with pytest.raises(ValueError) as err:
        DispersionModel(**{"sellmeier_ordinary": coeffs, "sellmeier_extraordinary": coeffs, **fields})
    assert err.type is ValueError
    assert str(err.value) == message


def test_default_model_is_cached():
    assert default_model() is default_model()


def test_fd_step_documented():
    assert disp.FD_STEP_NM == pytest.approx(0.1)


# ---------------------------------------------------------------- one wavelength per call

LO_NM, HI_NM = (edge * 1e3 for edge in default_model().valid_range_um)
STEP = disp.FD_STEP_NM
#: The range edges, the edges one difference step either side, and NaN.
EDGES = [
    edge + shift for edge in (LO_NM, HI_NM) for shift in (-STEP, 0.0, STEP)
] + [float("nan")]


@settings(max_examples=300, deadline=None)
@given(
    lam=st.floats(min_value=LO_NM + STEP, max_value=HI_NM - STEP),
    pol=st.sampled_from(list(Polarization)),
)
def test_float_and_array_sellmeier_same_bits(model, lam, pol):
    assert type(group_index(model, pol, lam)) is float


def raises_range_error(model, wavelength_nm, margin_nm):
    try:
        disp.check_range(model, wavelength_nm, margin_nm)
    except WavelengthRangeError:
        return True
    return False


def test_check_range_edges_and_nan(model):
    # the range shrunk by the margin holds its own edges, a step beyond
    # them lies outside, and NaN passes (it compares as inside)
    verdicts = [raises_range_error(model, (x,), 0.0) for x in EDGES]
    assert verdicts == [True, False, False, False, False, True, False]
    verdicts = [raises_range_error(model, (x,), STEP) for x in EDGES]
    assert verdicts == [True, True, False, False, True, True, False]


def test_check_range_of_axis_ends_names_the_arrays_span(model):
    # phasematch checks its axis by its two ends, as floats; the message
    # names the span the whole array's check names
    axis = np.linspace(394.0, 406.0, 2401)
    messages = []
    for wavelengths in (axis, (float(axis[0]), float(axis[-1]))):
        with pytest.raises(WavelengthRangeError) as err:
            disp.check_range(model, wavelengths)
        messages.append(str(err.value))
    assert messages == ["wavelength 394-406 nm outside coefficient validity 500-5000 nm"] * 2
