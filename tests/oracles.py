"""Slow reference implementations used to cross-check the package.

Everything here is written naively on purpose: plain loops, itertools
enumeration, no caching, no helpers imported from the package beyond
reading scenario inputs.  Tests treat these as ground truth; when the
package and this file disagree, the package is wrong until shown
otherwise.
"""

import itertools
import math
from fractions import Fraction


def bs_power(p_o: float, zeta: float, p_tx: float, load: float) -> float:
    return p_o + load * zeta * p_tx


def station_power(scenario, i: int, slot: int) -> float:
    bs = scenario.stations[i]
    return bs_power(bs.p_o, bs.zeta, bs.p_tx, scenario.load(i, slot))


def offload_share(scenario, j: int, slot: int) -> float:
    # load the macro absorbs when SBS j sleeps
    share = scenario.load(j, slot)
    if scenario.offload_mode.name == "CAPACITY_SCALED":
        share = share * scenario.stations[j].rb_capacity / scenario.stations[0].rb_capacity
    return share


def mbs_load_after(scenario, slot: int, gamma) -> float:
    total = scenario.load(0, slot)
    for j in range(1, scenario.num_sbs + 1):
        if not gamma[j]:
            total += offload_share(scenario, j, slot)
    return total


def exact_load(base: float, contrib, mask: int) -> Fraction:
    """Macro load of an off-mask, ``base`` plus ``contrib[j]`` for every set
    bit j, as an exact rational: no addition rounds."""
    total = Fraction(base)
    for j, share in enumerate(contrib):
        if mask >> j & 1:
            total += Fraction(share)
    return total


def feasible(scenario, slot: int, gamma) -> bool:
    if mbs_load_after(scenario, slot, gamma) > scenario.mbs_capacity_limit:
        return False
    before = 0.0
    for i in range(scenario.num_sbs + 1):
        before += scenario.load(i, slot)
    handed_over = 0.0
    served_locally = 0.0
    for j in range(1, scenario.num_sbs + 1):
        if gamma[j]:
            served_locally += scenario.load(j, slot)
        else:
            handed_over += scenario.load(j, slot)
    after = scenario.load(0, slot) + handed_over + served_locally
    return abs(before - after) <= 1e-12


def all_on_power(scenario, slot: int) -> float:
    total = 0.0
    for i in range(scenario.num_sbs + 1):
        total += station_power(scenario, i, slot)
    return total


def hetnet_power(scenario, slot: int, gamma) -> float:
    mbs = scenario.stations[0]
    total = bs_power(mbs.p_o, mbs.zeta, mbs.p_tx, mbs_load_after(scenario, slot, gamma))
    for j in range(1, scenario.num_sbs + 1):
        if gamma[j]:
            total += station_power(scenario, j, slot)
        else:
            total += scenario.stations[j].p_sleep
    return total


def energy_revenue(scenario, slot: int, gamma) -> float:
    saving = all_on_power(scenario, slot) - hetnet_power(scenario, slot, gamma)
    kwh = saving * scenario.grid.slot_min / 60000.0
    return kwh * float(scenario.electricity[slot])


def leasing_revenue(scenario, slot: int, gamma) -> float:
    price = float(scenario.spectrum[slot])
    total = 0.0
    for j in range(1, scenario.num_sbs + 1):
        if not gamma[j]:
            total += scenario.demand(j, slot) * price
    return total


def total_revenue(scenario, slot: int, gamma) -> float:
    return energy_revenue(scenario, slot, gamma) + leasing_revenue(scenario, slot, gamma)


def enumerate_best(scenario, slot: int):
    """Brute force over every on/off assignment of the SBSs.

    Returns (gamma, revenue, visited) where gamma includes the leading
    macro bit and ties prefer fewer sleeping stations, then the smaller
    off-bitmask (bit j-1 set when SBS j is off).
    """
    n = scenario.num_sbs
    best_gamma = None
    best_key = None
    visited = 0
    for bits in itertools.product((True, False), repeat=n):
        visited += 1
        gamma = (True,) + bits
        if not feasible(scenario, slot, gamma):
            continue
        revenue = total_revenue(scenario, slot, gamma)
        mask = 0
        for j, on in enumerate(bits):
            if not on:
                mask |= 1 << j
        key = (-revenue, sum(1 for on in bits if not on), mask)
        if best_key is None or key < best_key:
            best_key = key
            best_gamma = gamma
    return best_gamma, -best_key[0], visited


def throughput(scenario, slot: int, gamma) -> float:
    """Traffic served per slot, routed the way the switch dictates."""
    served = scenario.load(0, slot)
    for j in range(1, scenario.num_sbs + 1):
        served += scenario.load(j, slot)
    return served


def expected_sa_evaluations(n_sbs: int) -> int:
    """Evaluation count of one annealing run when no step is ever skipped:
    the paper's schedule cools from 1.0 to 0.01 by 0.01 per level, each
    level running 10 N iterations of the three neighborhoods."""
    levels = math.ceil((1.0 - 0.01) / 0.01 - 1e-9)
    per_iter = 3 if n_sbs >= 2 else 1
    return levels * 10 * n_sbs * per_iter


def greedy_prefix(scenario, slot: int, descending: bool) -> int:
    """Utility-ranked greedy, re-checking every trial vector in full.

    Ranks SBSs by leasable demand over RB capacity minus load (ties by
    index), then sleeps them in ranked order while the whole vector stays
    feasible, stopping at the first that does not fit.  Returns the off
    mask (bit j-1 set when SBS j is off).
    """
    n = scenario.num_sbs
    score = {}
    for j in range(1, n + 1):
        rb = scenario.stations[j].rb_capacity
        score[j] = scenario.demand(j, slot) / rb - scenario.load(j, slot)
    sign = -1.0 if descending else 1.0
    ranked = sorted(range(1, n + 1), key=lambda j: (sign * score[j], j))
    gamma = [True] * (n + 1)
    for j in ranked:
        gamma[j] = False
        if not feasible(scenario, slot, gamma):
            gamma[j] = True
            break
    mask = 0
    for j in range(1, n + 1):
        if not gamma[j]:
            mask |= 1 << (j - 1)
    return mask
