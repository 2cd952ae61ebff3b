"""Power draw and operator revenue for a switch decision.

Revenue per slot has two streams.  Energy revenue is the electricity
cost avoided relative to leaving every station on: the power saving in
watts, integrated over the slot, priced per kWh.  It can be negative
when offloading makes the macro amplifier work harder than the small
cells it replaced.  Leasing revenue is the secondary network's payment
for the resource blocks of every off SBS.
"""

from __future__ import annotations

from typing import NamedTuple

from .feasibility import offloaded_mbs_load
from .model import (
    WATT_MIN_PER_KWH,
    InfeasibleSwitchError,
    RevenueBreakdown,
    Scenario,
    SwitchVector,
    _off_bits,
    daily_breakdown,
)


def energy_factor(scenario: Scenario) -> float:
    """kWh per watt of sustained draw over one slot."""
    return scenario.grid.slot_min / WATT_MIN_PER_KWH


def all_on_power_slot(scenario: Scenario, slot: int) -> float:
    """Network power draw in watts with every station serving its own load."""
    return scenario._allon_power_by_slot[slot]


def hetnet_power_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Network power draw in watts under a switch vector.

    The macro cell runs at its offloaded load; off SBSs draw sleep
    power.  Raises InfeasibleSwitchError if the offloaded macro load
    exceeds 1, where the hardware power model stops being defined.
    """
    mbs_load = offloaded_mbs_load(scenario, slot, switch)
    if mbs_load > 1.0:
        raise InfeasibleSwitchError(
            f"offloaded macro load {mbs_load} exceeds 1 in slot {slot}"
        )
    active = scenario._active_power_by_slot[slot]
    sleep = scenario._sleep_powers
    total = scenario.stations[0].power(mbs_load)
    for j, bit in enumerate(_off_bits(switch.mask, switch.num_sbs), start=1):
        total += sleep[j] if bit == "1" else active[j]
    return total


def power_saving_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Watts saved versus the all-on network; negative when switching costs power."""
    return all_on_power_slot(scenario, slot) - hetnet_power_slot(scenario, slot, switch)


def energy_revenue_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Electricity cost avoided in this slot, in currency units."""
    saving = power_saving_slot(scenario, slot, switch)
    return saving * energy_factor(scenario) * scenario._elec_by_slot[slot]


def leasing_revenue_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Income from leasing the resource blocks of every off SBS."""
    price = scenario._spectrum_by_slot[slot]
    demands = scenario._demands_by_slot[slot]
    revenue = 0.0
    for bit, demand in zip(bin(switch.mask)[:1:-1], demands):
        if bit == "1":
            revenue += demand * price
    return revenue


def total_revenue_slot(
    scenario: Scenario, slot: int, switch: SwitchVector
) -> RevenueBreakdown:
    """Canonical per-slot objective; every solver reports through this."""
    return RevenueBreakdown.of(
        energy_revenue_slot(scenario, slot, switch),
        leasing_revenue_slot(scenario, slot, switch),
    )


def sbs_off_weights(scenario: Scenario, slot: int) -> list[float]:
    """Marginal revenue of switching each SBS off, one weight per SBS.

    Both revenue streams are additive across off stations: the SBS-side
    power terms are independent, the macro power model is linear in
    load, and leasing income is a per-station product.  Total revenue of
    any switch vector therefore equals the sum of these weights over its
    off set, which gives solvers an O(1)-update objective.

    Weight j is ``(active - sleep - contrib * zeta * p_tx) * factor * elec
    + demand * rb_price`` for SBS j+1, with the macro's ``zeta`` and
    ``p_tx``, ``energy_factor`` and the slot's prices; the scenario builds
    the table once, in that arithmetic order.
    """
    return scenario._weights_by_slot[slot].tolist()


class SlotProblem(NamedTuple):
    """One slot as a 0/1 knapsack over the SBSs.

    Switching SBS j+1 off adds ``contrib[j]`` to the macro load and
    ``weights[j]`` to the revenue; a switch vector is feasible when
    ``base`` plus its contributions, added in ascending station order,
    is at most ``cap``.
    """

    base: float             # macro load with every SBS on
    cap: float              # macro capacity limit
    contrib: list[float]    # macro-load increment per sleeping SBS
    weights: list[float]    # revenue per sleeping SBS (``sbs_off_weights``)


def slot_problem(scenario: Scenario, slot: int) -> SlotProblem:
    """The knapsack row of one slot, read from the scenario's tables.

    Every slot solver reads its row here first, so a slot outside
    ``range(num_slots)`` raises IndexError before any table is read (a
    negative index would otherwise read a slot from the end of the day).
    """
    if not 0 <= slot < scenario.num_slots:
        raise IndexError(f"slot {slot} outside range({scenario.num_slots})")
    return SlotProblem(
        base=scenario._loads_by_slot[slot][0],
        cap=scenario.mbs_capacity_limit,
        contrib=scenario._contrib_by_slot[slot].tolist(),
        weights=sbs_off_weights(scenario, slot),
    )


def daily_revenue(
    scenario: Scenario, switches: list[SwitchVector]
) -> RevenueBreakdown:
    """Re-evaluate a full day of switch vectors through the canonical objective."""
    if len(switches) != scenario.num_slots:
        raise ValueError(
            f"{len(switches)} switch vectors for {scenario.num_slots} slots"
        )
    return daily_breakdown(
        [total_revenue_slot(scenario, t, sw) for t, sw in enumerate(switches)]
    )
