"""QoS feasibility of a switch vector.

Switching an SBS off pushes its users onto the macro cell.  A switch
vector is feasible in a slot when the macro cell's load after absorbing
all offloaded traffic stays within its capacity limit, and no traffic
goes missing: demand served after switching equals demand offered
before, with every offloaded unit accounted at the macro cell.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .model import Scenario, SwitchVector, _off_bits

# slack for the traffic-conservation identity; covers float re-association only
CONSERVATION_TOL = 1e-12


@dataclass(frozen=True)
class OffloadReport:
    """Feasibility verdict for one (slot, switch) pair."""

    feasible: bool
    mbs_load_after: float    # macro load with offloaded traffic folded in
    demand_before: float     # total offered load across all stations
    demand_after: float      # total served load under the switch vector
    capacity_limit: float

    @property
    def conserved(self) -> bool:
        return _conserved(self.demand_before, self.demand_after)


def _conserved(before: float, after: float) -> bool:
    """The conservation identity: load served equals load offered."""
    return abs(before - after) <= CONSERVATION_TOL


def _demand_after(loads: Sequence[float], off_bits: str) -> float:
    """Load served under ``off_bits``: macro + fsum(offloaded SBSs) + fsum(active)."""
    offloaded, active = [], []
    for bit, load in zip(off_bits, loads[1:]):
        (offloaded if bit == "1" else active).append(load)
    return (loads[0] + math.fsum(offloaded)) + math.fsum(active)


def _ascending_sum(mask: int, start: float, terms: Sequence[float]) -> float:
    """``start`` plus ``terms[j]`` for every set bit j of ``mask``, added in
    ascending j.  This is the package's one accumulation order: every exact
    macro load, and every exact search value the solvers compare, is summed
    here."""
    total = start
    for bit, term in zip(bin(mask)[:1:-1], terms):
        if bit == "1":
            total += term
    return total


def offloaded_mbs_load(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Macro-cell load in ``slot`` after absorbing every off SBS: the
    macro's own load plus each off SBS's contribution, summed by
    ``_ascending_sum``, so feasibility and revenue agree bit for bit."""
    record = scenario._slot(slot, switch)
    return _ascending_sum(switch.mask, record.loads[0], record.contrib)


def is_feasible(scenario: Scenario, slot: int, switch: SwitchVector) -> OffloadReport:
    """Check the macro capacity limit and traffic conservation.

    Offloaded traffic is accounted in source units on both sides of the
    conservation identity, so the check is exact up to float
    re-association regardless of offload mode.
    """
    after_load = offloaded_mbs_load(scenario, slot, switch)
    loads = scenario._slot(slot).loads
    demand_before = math.fsum(loads)
    demand_after = _demand_after(loads, _off_bits(switch.mask, switch.num_sbs))
    fits = after_load <= scenario.mbs_capacity_limit
    return OffloadReport(
        feasible=fits and _conserved(demand_before, demand_after),
        mbs_load_after=after_load,
        demand_before=demand_before,
        demand_after=demand_after,
        capacity_limit=scenario.mbs_capacity_limit,
    )
