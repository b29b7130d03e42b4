"""Deterministic count-rate and loss-budget arithmetic.

Expectation values only; no photon-counting statistics.  The default
numbers reproduce the device characterization: an itemized off-chip loss
chain of about 7 dB, a stated total of about 11 dB, and a heralding
(Klyshko) efficiency of 5% from coincidence measurements.  The stated
total and the heralding efficiency disagree by about 2 dB in the source
characterization itself; that tension is reported, not resolved.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LossBudget:
    items: tuple = ()  # (label, dB) pairs

    def __post_init__(self):
        for label, db in self.items:
            if db < 0:
                raise ValueError(f"negative loss item {label!r}: {db} dB")

    @property
    def total_db(self) -> float:
        return sum(db for _, db in self.items)

    @property
    def transmission(self) -> float:
        return 10.0 ** (-self.total_db / 10.0)


@dataclass(frozen=True)
class SourceSpec:
    brightness_pairs_per_s_mw_nm: float = 3.0e5
    pump_power_mw: float = 0.1
    bandwidth_nm: float = 1.2

    def __post_init__(self):
        if (
            self.brightness_pairs_per_s_mw_nm <= 0
            or self.pump_power_mw <= 0
            or self.bandwidth_nm <= 0
        ):
            raise ValueError("source parameters must be positive")


@dataclass(frozen=True)
class RateReport:
    pair_rate_hz: float
    singles_hz: tuple
    coincidences_hz: float


#: Off-chip loss chain as characterized (about 7 dB in total).
DEFAULT_LOSS_ITEMS = (
    ("fiber butt coupling", 2.0),
    ("isolators and filters", 3.0),
    ("detection system", 1.5),
)

#: Stated total including on-chip excess losses.
STATED_TOTAL_LOSS_DB = 11.0

#: Heralding efficiency from coincidence measurements.
MEASURED_KLYSHKO = 0.05


def default_loss_budget() -> LossBudget:
    return LossBudget(items=DEFAULT_LOSS_ITEMS)


def total_loss(budget: LossBudget) -> tuple:
    """(total dB, linear transmission)."""
    return budget.total_db, budget.transmission


def klyshko_efficiency(singles_hz: float, coincidences_hz: float) -> float:
    """Heralding efficiency: coincidences over singles."""
    if singles_hz <= 0:
        raise ZeroDivisionError("singles rate must be > 0")
    return coincidences_hz / singles_hz


def expected_rates(source: SourceSpec, arm_efficiencies) -> RateReport:
    """Singles and coincidence expectations for two detection arms."""
    eta1, eta2 = arm_efficiencies
    pairs = (
        source.brightness_pairs_per_s_mw_nm
        * source.pump_power_mw
        * source.bandwidth_nm
    )
    return RateReport(
        pair_rate_hz=pairs,
        singles_hz=(pairs * eta1, pairs * eta2),
        coincidences_hz=pairs * eta1 * eta2,
    )


def reconciliation_note(budget: LossBudget | None = None) -> str:
    """One-paragraph note on the loss-budget versus heralding tension."""
    budget = budget or default_loss_budget()
    stated_total_db, klyshko = STATED_TOTAL_LOSS_DB, MEASURED_KLYSHKO
    implied_db = -10.0 * math.log10(klyshko)
    gap_db = implied_db - stated_total_db
    return (
        f"itemized off-chip chain: {budget.total_db:.1f} dB "
        f"(transmission {budget.transmission:.3f}); stated total "
        f"{stated_total_db:.1f} dB corresponds to transmission "
        f"{10 ** (-stated_total_db / 10):.4f}, while the measured heralding "
        f"efficiency of {klyshko:.1%} implies {implied_db:.1f} dB. "
        f"The {gap_db:.1f} dB gap is carried over from the device "
        f"characterization and is reported here rather than resolved."
    )
