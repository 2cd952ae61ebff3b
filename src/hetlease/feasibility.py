"""QoS feasibility of a switch vector.

Switching an SBS off pushes its users onto the macro cell.  A switch
vector is feasible in a slot when the macro cell's load after absorbing
all offloaded traffic stays within its capacity limit, and no traffic
goes missing: demand served after switching equals demand offered
before, with every offloaded unit accounted at the macro cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Scenario, SwitchVector

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
        return abs(self.demand_before - self.demand_after) <= CONSERVATION_TOL


def offloaded_mbs_load(scenario: Scenario, slot: int, switch: SwitchVector) -> float:
    """Macro-cell load in ``slot`` after absorbing every off SBS.

    Accumulates in ascending station order; every evaluation path in the
    package reuses this function (or reproduces its exact accumulation
    order) so feasibility and revenue agree bit for bit.
    """
    gamma = switch.gamma
    if len(gamma) != scenario.num_sbs + 1:
        raise ValueError(
            f"switch vector covers {switch.num_sbs} SBSs, scenario has {scenario.num_sbs}"
        )
    contrib = scenario._contrib_by_slot[slot]
    load = scenario.load(0, slot)
    for j in range(1, len(gamma)):
        if not gamma[j]:
            load += contrib[j - 1]
    return load


def is_feasible(scenario: Scenario, slot: int, switch: SwitchVector) -> OffloadReport:
    """Check the macro capacity limit and traffic conservation.

    Offloaded traffic is accounted in source units on both sides of the
    conservation identity, so the check is exact up to float
    re-association regardless of offload mode.
    """
    after_load = offloaded_mbs_load(scenario, slot, switch)

    loads = scenario._loads_by_slot[slot]
    demand_before = math.fsum(loads)
    # served = macro's own users + offloaded SBS users + active SBS users
    gamma = switch.gamma
    offloaded = math.fsum(loads[j] for j in range(1, len(loads)) if not gamma[j])
    active = math.fsum(loads[j] for j in range(1, len(loads)) if gamma[j])
    demand_after = (loads[0] + offloaded) + active

    feasible = (
        after_load <= scenario.mbs_capacity_limit
        and abs(demand_before - demand_after) <= CONSERVATION_TOL
    )
    return OffloadReport(
        feasible=feasible,
        mbs_load_after=after_load,
        demand_before=demand_before,
        demand_after=demand_after,
        capacity_limit=scenario.mbs_capacity_limit,
    )
