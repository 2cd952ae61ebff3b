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

from .feasibility import _ascending_sum, offloaded_mbs_load
from .model import (
    WATT_MIN_PER_KWH,
    BaseStation,
    InfeasibleSwitchError,
    RevenueBreakdown,
    Scenario,
    SwitchVector,
    _off_bits,
    _Slot,
    daily_breakdown,
)


def energy_factor(scenario: Scenario) -> float:
    """kWh per watt of sustained draw over one slot."""
    return scenario.grid.slot_min / WATT_MIN_PER_KWH


def all_on_power_slot(scenario: Scenario, slot: int) -> float:
    """Network power draw in watts with every station serving its own load."""
    return scenario._slot(slot).allon


def _network_power(mbs: BaseStation, record: _Slot, load: float, bits: str) -> float:
    """Macro ``mbs``'s draw at ``load`` plus each SBS's sleep or active
    draw, ascending, with ``bits`` the off bits of ``_off_bits``."""
    total = mbs.power(load)
    sleep, active = record.sleep, record.active
    for j, bit in enumerate(bits, start=1):
        total += sleep[j] if bit == "1" else active[j]
    return total


def hetnet_power_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Network power draw in watts under a switch vector.

    The macro cell runs at its offloaded load; off SBSs draw sleep
    power.  Raises InfeasibleSwitchError if the offloaded macro load
    exceeds 1, where the hardware power model stops being defined.
    """
    load = offloaded_mbs_load(scenario, slot, switch)
    if load > 1.0:
        raise InfeasibleSwitchError(f"offloaded macro load {load} exceeds 1 in slot {slot}")
    bits = _off_bits(switch.mask, switch.num_sbs)
    return _network_power(scenario.stations[0], scenario._slot(slot), load, bits)


def power_saving_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Watts saved versus the all-on network; negative when switching costs power."""
    return all_on_power_slot(scenario, slot) - hetnet_power_slot(scenario, slot, switch)


def _energy_revenue(record: _Slot, factor: float, power: float) -> float:
    """The electricity cost of the watts ``power`` saves against all-on,
    with ``factor`` the scenario's ``energy_factor``."""
    return (record.allon - power) * factor * record.elec


def energy_revenue_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Electricity cost avoided in this slot, in currency units."""
    power = hetnet_power_slot(scenario, slot, switch)
    return _energy_revenue(scenario._slot(slot), energy_factor(scenario), power)


def leasing_revenue_slot(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Income from leasing the resource blocks of every off SBS: each one's
    demand x the RB price, added in ascending station order."""
    return _ascending_sum(switch.mask, 0.0, scenario._slot(slot, switch).lease)


def total_revenue_slot(
    scenario: Scenario, slot: int, switch: SwitchVector
) -> RevenueBreakdown:
    """Canonical per-slot objective; every solver reports through this."""
    return RevenueBreakdown(
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
    each slot's row once, in that arithmetic order.
    """
    return scenario._slot(slot).weights.tolist()


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
    """The knapsack row of one slot, read from the scenario's slot record."""
    record = scenario._slot(slot)
    return SlotProblem(
        base=record.loads[0],
        cap=scenario.mbs_capacity_limit,
        contrib=record.contrib.tolist(),
        weights=record.weights.tolist(),
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
