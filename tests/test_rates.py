import math

import pytest

from homchip.rates import (
    LossBudget,
    SourceSpec,
    default_loss_budget,
    expected_rates,
    klyshko_efficiency,
    reconciliation_note,
)


def test_default_budget_totals():
    budget = default_loss_budget()
    db, lin = budget.total_db, budget.transmission
    assert db == pytest.approx(6.5)
    assert lin == pytest.approx(10 ** -0.65)


def test_empty_budget():
    budget = LossBudget()
    db, lin = budget.total_db, budget.transmission
    assert db == 0.0
    assert lin == 1.0


def test_eleven_db_transmission():
    budget = LossBudget(items=(("total", 11.0),))
    lin = budget.transmission
    assert lin == pytest.approx(0.0794, abs=0.0001)


def test_budget_permutation_invariant():
    a = LossBudget(items=(("x", 1.0), ("y", 2.5), ("z", 0.25)))
    b = LossBudget(items=(("z", 0.25), ("x", 1.0), ("y", 2.5)))
    assert a.total_db == b.total_db


def test_budget_rejects_negative_item():
    with pytest.raises(ValueError):
        LossBudget(items=(("bad", -1.0),))


@pytest.mark.parametrize("db", [math.nan, math.inf])
def test_budget_rejects_non_finite_item(db):
    with pytest.raises(ValueError, match="finite"):
        LossBudget(items=(("bad", db),))


def test_klyshko_values():
    assert klyshko_efficiency(2000.0, 100.0) == pytest.approx(0.05, rel=1e-15)
    assert klyshko_efficiency(100.0, 100.0) == 1.0
    assert klyshko_efficiency(2000.0, 0.0) == 0.0
    with pytest.raises(ZeroDivisionError):
        klyshko_efficiency(0.0, 10.0)


def test_klyshko_rejects_a_negative_singles_rate():
    # without the floor a negative singles rate gave a negative efficiency
    with pytest.raises(ZeroDivisionError, match="^singles rate must be > 0$"):
        klyshko_efficiency(-100.0, 10.0)


@pytest.mark.parametrize("rates", [(math.nan, 1.0), (math.inf, 1.0), (2000.0, math.nan)])
def test_klyshko_rejects_non_finite_rates(rates):
    with pytest.raises(ValueError, match="finite"):
        klyshko_efficiency(*rates)


def test_expected_rates_characterized_numbers():
    report = expected_rates(SourceSpec(), (0.05, 0.05))
    assert report.pair_rate_hz == pytest.approx(36000.0)
    assert report.coincidences_hz == pytest.approx(90.0, rel=1e-12)
    assert report.singles_hz[0] == pytest.approx(1800.0)


def test_expected_rates_unit_efficiency():
    report = expected_rates(SourceSpec(), (1.0, 1.0))
    assert report.singles_hz == (report.pair_rate_hz, report.pair_rate_hz)
    assert report.coincidences_hz == report.pair_rate_hz


def test_expected_rates_linear_in_pump():
    half = SourceSpec(pump_power_mw=0.05)
    full = SourceSpec(pump_power_mw=0.1)
    r_half = expected_rates(half, (0.05, 0.05))
    r_full = expected_rates(full, (0.05, 0.05))
    assert r_half.coincidences_hz == pytest.approx(r_full.coincidences_hz / 2)
    assert r_half.singles_hz[0] == pytest.approx(r_full.singles_hz[0] / 2)


def test_klyshko_roundtrip_identity():
    report = expected_rates(SourceSpec(), (0.07, 0.03))
    assert klyshko_efficiency(report.singles_hz[0], report.coincidences_hz) == pytest.approx(
        0.03, rel=1e-12
    )
    assert klyshko_efficiency(report.singles_hz[1], report.coincidences_hz) == pytest.approx(
        0.07, rel=1e-12
    )


def test_source_spec_validation():
    with pytest.raises(ValueError):
        SourceSpec(pump_power_mw=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name", ["brightness_pairs_per_s_mw_nm", "pump_power_mw", "bandwidth_nm"])
def test_source_spec_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match="finite"):
        SourceSpec(**{name: value})


def test_reconciliation_note_mentions_gap():
    note = reconciliation_note()
    assert "11.0 dB" in note
    assert "13.0 dB" in note
    assert "2.0 dB" in note
    assert "5.0%" in note or "5%" in note
