"""Per-slot decision procedures for the switching problem.

Each method takes a scenario and a slot and returns a feasible switch
vector, its revenue through the canonical objective, and the number of
objective evaluations spent (one for the sorting heuristics).

* ``sa_solve_slot``: simulated annealing over the on/off lattice with
  three neighborhood moves applied sequentially (flip one bit, flip two
  bits, exchange two bits), linear cooling, and a shaking restart from
  the incumbent best at every temperature change.
* ``es_solve_slot``: exhaustive enumeration of all 2^N vectors; the
  ground-truth oracle, capped to keep runtime bounded.
* ``sorting_solve_slot``: greedy heuristics that rank SBSs by a
  lease-versus-load utility and switch them off in ranked order until
  the macro cell is full (descending = D-type, ascending = A-type).
"""

from __future__ import annotations

import enum
import hashlib
import logging
import math
import numbers
import random
import sys
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import ClassVar

from .economics import _energy_revenue, _network_power, energy_factor, slot_problem
from .economics import SlotProblem, total_revenue_slot
from .feasibility import OffloadReport, _ascending_sum, _conserved, _demand_after
from .feasibility import is_feasible
from .model import (
    EnumerationCapError,
    InfeasibleSwitchError,
    RevenueBreakdown,
    Scenario,
    SolverResult,
    SwitchVector,
    _off_bits,
    daily_breakdown,
)

logger = logging.getLogger(__name__)

# exhaustive search hard cap: 2^24 states per slot is the most we ever enumerate
ES_MAX_SBS = 24

# exhaustive search tables the loads of every mask of this many low bits
# once, then reuses that table for each block of masks sharing their high
# bits: 2^12 floats at any N, where a full table at N = 24 takes ~0.5 GB
_ES_BLOCK_BITS = 12

# random candidate draws before falling back to enumerating the neighborhood
_RETRY_DRAWS = 32

# relative width, against the slot's load scale, of the band around the
# capacity limit inside which the annealer and the greedy re-decide a
# tracked load with the exact ascending sum
SA_GUARD_REL = 1e-9


def _ascending_sums(n: int, start: float, terms: Sequence[float]) -> Iterator[float]:
    """``_ascending_sum(mask, start, terms)`` for every mask in
    ``range(1 << n)``, in increasing mask order, bit for bit.

    The low ``min(n, _ES_BLOCK_BITS)`` bits are tabled once with the
    doubling recurrence ``sum[m | 1 << j] = sum[m] + terms[j]`` for
    ``m < 2^j``, which adds each term after every lower one.  Each block of
    masks that share their high bits then adds those bits to the table in
    ascending order, so memory stays at a few blocks whatever ``n`` is.
    """
    low = min(n, _ES_BLOCK_BITS)
    table = [start]
    for term in terms[:low]:
        table += [x + term for x in table]
    high_terms = terms[low:n]
    for high in range(1 << (n - low)):
        block = table
        for bit, term in zip(bin(high)[:1:-1], high_terms):
            if bit == "1":
                block = [x + term for x in block]
        yield from block


# The annealing schedule.  Cooling is linear: level i runs at temperature
# SA_T_INIT - i x SA_ALPHA, in units of the slot's mean |weight| (1.0 when
# every weight is 0), for the 99 levels that stay above 0.01.  Each level
# runs SA_K_FACTOR x N iterations, each trying the three neighborhoods in
# order, then restarts from the best state with each bit flipped with
# probability SA_SHAKE_FLIP_PROB.
SA_T_INIT = 1.0
SA_ALPHA = 0.01
SA_LEVELS = 99
SA_K_FACTOR = 10
SA_SHAKE_FLIP_PROB = 0.2


@dataclass(frozen=True)
class SaParams:
    """The annealer's one setting, the seed of its per-slot random streams.

    The schedule is fixed (``SA_T_INIT`` and the constants after it), and
    the Boltzmann constant is 1: kT is the temperature.  ``rng_seed`` must
    be an integer (a bool is not); two equal seeds give the same walks.
    """

    boltzmann_k: ClassVar[float] = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"rng_seed must be an integer, got {seed!r}")


class Method(enum.Enum):
    """Solver identifiers used by day-level runs, benchmarks, and the CLI."""

    SA = "sa"
    ES = "es"
    A_TYPE = "atype"
    D_TYPE = "dtype"

    @classmethod
    def from_str(cls, token: str) -> "Method":
        """The method named ``token``, exactly one of ``sa``, ``es``,
        ``atype`` and ``dtype``; anything else raises ``ValueError``."""
        try:
            return cls(token)
        except ValueError:
            raise ValueError(f"unknown method {token!r}") from None


class SortOrder(enum.Enum):
    ASCENDING = "ascending"
    DESCENDING = "descending"


def _slot_rng(seed: int, slot: int) -> random.Random:
    """Private RNG per (seed, slot); parallel and serial runs agree."""
    digest = hashlib.blake2b(f"{seed}:{slot}".encode(), digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


# --- neighborhood moves over the SBS bits -------------------------------
#
# Internally a state is an int bitmask over SBSs: bit j set means SBS
# j+1 is off.  The macro bit never appears in the mask.  A move is a pair
# (a, b) of indices whose bits it flips, where index n flips nothing: a
# one-bit move is (a, n) and a swap of two equal bits is (n, n).

def _neighborhood_pairs(
    kind: int, is_off: Sequence[bool], n: int
) -> list[tuple[int, int]]:
    """Every move of one kind (0 flip one, 1 flip two, 2 swap two), listed
    once per unordered index choice, so a uniform pick from the list has
    the law of a uniform draw of the indices."""
    if kind == 0:
        return [(a, n) for a in range(n)]
    stay = (n, n)
    return [
        (a, b) if kind == 1 or is_off[a] != is_off[b] else stay
        for a in range(n)
        for b in range(a + 1, n)
    ]


def _kick(mask: int, n: int, p: float, rnd) -> int:
    """Flip each of the n low bits of ``mask`` independently with
    probability ``p``, one ``rnd()`` draw per bit; the result may be
    infeasible."""
    for j in range(n):
        if rnd() < p:
            mask ^= 1 << j
    return mask


def _kt(temperature: float) -> float:
    """kT, the temperature floored at the least positive double, so a
    temperature that underflows rejects every downhill move instead of
    dividing by zero; every positive temperature is kept as is."""
    return max(temperature, math.ulp(0.0))


def _downhill_accept(current: float, candidate: float, kt: float, rnd) -> bool:
    """The Metropolis rule for a move that loses revenue: accept with
    probability exp(-(current - candidate) / kt), from one ``rnd()`` draw."""
    return rnd() < math.exp(-(current - candidate) / kt)


def metropolis_accept(
    current_revenue: float,
    candidate_revenue: float,
    temperature: float,
    params: SaParams,
    rng: random.Random,
) -> bool:
    """Accept a candidate: always if it does not lose revenue, otherwise
    with probability exp(-gap / (K * temperature)) from one uniform draw,
    where K is ``params.boltzmann_k`` (1).  A temperature that is not
    positive, NaN included, raises ``ValueError``."""
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    if candidate_revenue >= current_revenue:
        return True
    return _downhill_accept(
        current_revenue, candidate_revenue, _kt(temperature), rng.random
    )


def _abs_sum(values: Sequence[float]) -> float:
    """The sum of |v| over ``values``, added left to right by
    ``_ascending_sum``: the same double on every Python (the builtin
    ``sum`` compensates from 3.12 on)."""
    return _ascending_sum((1 << len(values)) - 1, 0.0, [abs(v) for v in values])


def _guard_band(row: SlotProblem, additions: int) -> tuple[float, float]:
    """``(rel, band)`` for a tracked load that made ``additions`` additions
    since its last exact sum: each is off by at most one rounding (eps x
    scale), and ``band`` is ``rel`` x the load scale, |base| + sum of
    |contributions|."""
    rel = max(SA_GUARD_REL, additions * sys.float_info.epsilon)
    return rel, rel * (abs(row.base) + _abs_sum(row.contrib))


def _priced(
    scenario: Scenario, slot: int, mask: int, evaluations: int
) -> tuple[SwitchVector, RevenueBreakdown, int]:
    """A solver's winning off-mask as (switch, canonical revenue, evaluations)."""
    switch = SwitchVector.from_off_mask(mask, scenario.num_sbs)
    return switch, total_revenue_slot(scenario, slot, switch), evaluations


def _every_mask_fits(row: SlotProblem) -> bool:
    """The annealer's test that every off-mask of ``row`` fits: no negative
    contribution, and all-off's ascending sum within capacity.  Sufficient,
    not necessary: with no negative term no mask's ascending sum exceeds
    all-off's, as rounding is monotone, but a row with a negative term may
    fit every mask and still fail the test."""
    base, cap, contrib, _ = row
    return min(contrib, default=0.0) >= 0.0 and (
        _ascending_sum((1 << len(contrib)) - 1, base, contrib) <= cap
    )


def _anneal(row: SlotProblem, rnd) -> tuple[int, int, int]:
    """The annealing walk on one knapsack row at the fixed schedule, drawing
    from ``rnd``; returns (best off-mask, evaluations, skipped steps).

    The walk starts from all-on, which always fits.  Each evaluation costs
    O(1) work: delta lists hold the signed change of search value and of
    macro load that flipping each bit of the current state would cause, so
    a move is two additions away, and an accepted move negates at most two
    entries of each.  The lists and running sums are rebuilt exactly, in
    ascending station order, at the start and after every shake (once per
    temperature level), so float drift never outlives a level.

    Every step draws a move, prices it, decides it and checks it for a new
    best; only the draw depends on the row.  Where ``_every_mask_fits(row)``
    holds, every move fits, so a step draws once and the walk keeps neither
    its load nor its load deltas up to date.  Otherwise a step draws
    uniformly among the feasible moves of its neighborhood.  It first looks
    up the state's cached feasible moves, and draws once from them or, when
    there are none, skips the step.  Without a cache entry it redraws a
    uniform move until one fits; after ``_RETRY_DRAWS`` misses it enumerates
    the neighborhood, caches the feasible moves, and draws from them.  Both
    draws make the same ``rnd()`` calls on a row where every mask fits.  A
    delta load within ``_guard_band`` of the capacity limit is re-decided by
    the exact sum, so feasibility agrees with ``offloaded_mbs_load`` bit for
    bit.  The evaluation count equals levels x k x neighborhoods whenever
    every neighborhood stays non-empty, and only provably-empty steps are
    skipped.  The cache holds only neighborhoods that ran out of draws, so
    memory is O(N) for a walk on which every move fits.

    A value comparison (accept or new best) whose two sides lie within
    twice the guard band's relative width, measured on the weight scale, is
    decided by exact sums; this happens only for near-equal weights.  Every
    downhill move is decided by one Metropolis rule, ``_downhill_accept``,
    with ``_kt``'s floored kT taken once per level: outside that tie band
    on the tracked values, inside it on the exact sums.  The one residue:
    outside the tie band the threshold exp(gap / kT) is taken from the
    tracked gap, which may differ from the exact gap in its last bits.  A
    step that flips nothing, a swap of two equal bits (``(n, n)``), keeps
    the state without the value and accept work; it still goes through the
    best check, the one place a state kicked to after a level is judged.
    """
    base, cap, contrib, weights = row
    n = len(contrib)
    if n == 0:
        return 0, 0, 0

    k = SA_K_FACTOR * n
    # the neighborhood of every step of a level, in order
    steps = ((0, 1, 2) if n >= 2 else (0,)) * k

    # a level makes fewer than n + 6k + 2 additions to a tracked sum
    rel, band = _guard_band(row, n + 6 * k + 2)
    sure_fit, sure_miss = cap - band, cap + band
    weight_sum = _abs_sum(weights)
    tie = 2.0 * rel * weight_sum
    t_scale = weight_sum / n or 1.0

    # Index n is a "no flip" sentinel: its deltas are zero and its bit is 0.
    bit = [1 << j for j in range(n)] + [0]
    dl = [0.0] * (n + 1)
    dv = [0.0] * (n + 1)
    is_off = [False] * (n + 1)

    def rebuild(mask: int) -> tuple[float, float]:
        """Reset the delta lists to ``mask``; return its exact load and value."""
        for j, bit in enumerate(_off_bits(mask, n)):
            off = is_off[j] = bit == "1"
            dl[j] = -contrib[j] if off else contrib[j]
            dv[j] = -weights[j] if off else weights[j]
        return _ascending_sum(mask, base, contrib), _ascending_sum(mask, 0.0, weights)

    # feasible moves of the neighborhoods whose draws ran out, keyed by
    # (state, move kind) packed into one int; an empty list is an empty
    # neighborhood
    cache: dict[int, list[tuple[int, int]]] = {}

    current = 0
    cur_load, cur_val = rebuild(current)
    best, best_val = current, cur_val
    best_lo = best_val - tie

    free = _every_mask_fits(row)
    nm1 = n - 1
    draws = range(_RETRY_DRAWS)
    skipped = 0

    for level in range(SA_LEVELS):
        kt = _kt((SA_T_INIT - level * SA_ALPHA) * t_scale)
        for kind in steps:
            if free:
                # every move fits: the first draw is the move
                a = int(rnd() * n)
                if kind == 0:
                    b = n
                else:
                    b = int(rnd() * nm1)
                    if b >= a:
                        b += 1
                    if kind == 2 and is_off[a] == is_off[b]:
                        a = b = n  # swap of equal bits: the state itself
            else:
                moves = cache.get((current << 2) | kind) if cache else None
                if moves is None:
                    for _ in draws:
                        a = int(rnd() * n)
                        if kind == 0:
                            b = n
                        else:
                            b = int(rnd() * nm1)
                            if b >= a:
                                b += 1
                            if kind == 2 and is_off[a] == is_off[b]:
                                a = b = n
                        lv = cur_load + dl[a] + dl[b]
                        if lv <= sure_fit:
                            break
                        if lv > sure_miss:
                            continue
                        lv = _ascending_sum(current ^ bit[a] ^ bit[b], base, contrib)
                        if lv <= cap:
                            break
                    else:
                        moves = cache[(current << 2) | kind] = [
                            (a, b)
                            for a, b in _neighborhood_pairs(kind, is_off, n)
                            if (lv := cur_load + dl[a] + dl[b]) <= sure_fit
                            or lv <= sure_miss
                            and _ascending_sum(current ^ bit[a] ^ bit[b], base, contrib)
                            <= cap
                        ]
                        if not moves:
                            logger.debug(
                                "neighborhood %d empty from state %#x", kind, current
                            )
                if moves is not None:
                    if not moves:
                        skipped += 1
                        continue
                    a, b = moves[int(rnd() * len(moves))]
                    lv = cur_load + dl[a] + dl[b]
            if a == b:
                val, accept = cur_val, True
            else:
                val = cur_val + dv[a] + dv[b]
                gap = val - cur_val
                if gap > tie:
                    accept = True
                elif gap < -tie:
                    accept = _downhill_accept(cur_val, val, kt, rnd)
                else:
                    # zero weights leave the exact sum unchanged; otherwise
                    # decide on the exact sums of both states
                    accept = dv[a] == dv[b] == 0.0
                    if not accept:
                        now = _ascending_sum(current, 0.0, weights)
                        then = _ascending_sum(current ^ bit[a] ^ bit[b], 0.0, weights)
                        accept = then >= now or _downhill_accept(now, then, kt, rnd)
                if accept:
                    current ^= bit[a] ^ bit[b]
                    cur_val = val
                    dv[a], is_off[a] = -dv[a], not is_off[a]
                    dv[b], is_off[b] = -dv[b], not is_off[b]
                    if not free:
                        cur_load = lv
                        dl[a], dl[b] = -dl[a], -dl[b]
            if val >= best_lo:
                cand = current if accept else current ^ bit[a] ^ bit[b]
                if val > best_val + tie or cand != best and (
                    _ascending_sum(cand, 0.0, weights) > _ascending_sum(best, 0.0, weights)
                ):
                    # max: an exact tie-break may pick a value a few ulps low
                    best, best_val = cand, max(val, best_val)
                    best_lo = best_val - tie
        # diversify: restart the walk from a kicked copy of the best
        current = _kick(best, n, SA_SHAKE_FLIP_PROB, rnd)
        cur_load, cur_val = rebuild(current)

    return best, SA_LEVELS * len(steps) - skipped, skipped


def sa_solve_slot(
    scenario: Scenario,
    slot: int,
    params: SaParams | None = None,
) -> tuple[SwitchVector, RevenueBreakdown, int]:
    """Simulated annealing over one slot's switch lattice.

    Runs ``_anneal`` on the slot's knapsack row with the slot's own random
    stream, seeded from ``params.rng_seed``.  The search walks on the
    additive per-SBS revenue weights (an exact linear decomposition of the
    objective); the winner is re-priced through the canonical objective.
    Temperatures are in units of the slot's mean |weight| (1.0 when every
    weight is 0), so the schedule means the same at every revenue scale.

    Args:
        scenario: problem instance.
        slot: slot index in range(scenario.num_slots).
        params: the annealer's seed; defaults to SaParams(), seed 0.

    Returns:
        (best switch, canonical revenue, objective evaluations).
    """
    if params is None:
        params = SaParams()
    row = slot_problem(scenario, slot)
    best, evaluations, skipped = _anneal(row, _slot_rng(params.rng_seed, slot).random)
    if skipped:
        logger.debug(
            "slot %d: %d neighborhood steps had no feasible move", slot, skipped
        )
    return _priced(scenario, slot, best, evaluations)


def check_es_size(num_sbs: int) -> None:
    """Refuse exhaustive search on a network above ``ES_MAX_SBS`` SBSs."""
    if num_sbs > ES_MAX_SBS:
        raise EnumerationCapError(
            f"{num_sbs} SBSs means 2^{num_sbs} states; enumeration is capped at {ES_MAX_SBS} SBSs"
        )


def es_solve_slot(
    scenario: Scenario, slot: int
) -> tuple[SwitchVector, RevenueBreakdown, int]:
    """Enumerate every switch vector and return the feasible revenue maximizer.

    Every one of the 2^N masks is visited and counted as one evaluation,
    infeasible ones included.  ``_ascending_sums`` tables give each mask's
    macro load and leasing income, and a mask over capacity stops there.  The
    rest run the conservation test, power walk and energy pricing through the
    helpers of ``is_feasible`` and ``energy_revenue_slot``, so verdicts and
    totals are canonical bit for bit.  Ties go to fewer SBSs off, then the
    lower mask.  Only the winner goes through ``total_revenue_slot``.
    """
    n = scenario.num_sbs
    check_es_size(n)
    record = scenario._slot(slot)
    loads = record.loads.tolist()  # a list iterates faster
    offered = math.fsum(loads)
    mbs, cap = scenario.stations[0], scenario.mbs_capacity_limit
    factor = energy_factor(scenario)
    fits = _ascending_sums(n, loads[0], record.contrib)
    leases = _ascending_sums(n, 0.0, record.lease)
    best_key = None
    for mask, (load, lease) in enumerate(zip(fits, leases)):
        if load > cap:
            continue
        bits = _off_bits(mask, n)
        if not _conserved(offered, _demand_after(loads, bits)):
            continue
        power = _network_power(mbs, record, load, bits)
        total = _energy_revenue(record, factor, power) + lease
        key = (-total, mask.bit_count(), mask)
        if best_key is None or key < best_key:
            best_key = key
    assert best_key is not None, "all-on (mask 0) always fits"
    return _priced(scenario, slot, best_key[2], 1 << n)


def utility_vector(scenario: Scenario, slot: int) -> list[float]:
    """Per-SBS ranking score: leasable demand (as a fraction of the SBS's
    own resource blocks) minus its traffic load.  High scores mark cells
    that are cheap to offload and lucrative to lease."""
    record = scenario._slot(slot)
    loads, demands = record.loads, record.demands
    return [
        demands[j - 1] / bs.rb_capacity - loads[j]
        for j, bs in enumerate(scenario.stations[1:], start=1)
    ]


def _greedy(row: SlotProblem, ranked: Sequence[int]) -> int:
    """The off-mask of the longest prefix of ``ranked`` that fits ``row``.

    One pass keeps a running macro load in rank order.  It adds the same
    terms as the exact ascending sum, in another order, so the two may
    differ in their last bits; a running load within ``_guard_band`` of
    the capacity limit is re-decided by the exact ascending sum, so every
    decision agrees with ``offloaded_mbs_load`` bit for bit.
    """
    base, cap, contrib, _ = row
    # a prefix makes at most n additions
    _, band = _guard_band(row, len(contrib))
    mask = 0
    load = base
    for j in ranked:
        load += contrib[j]
        if load > cap - band and (
            load > cap + band or _ascending_sum(mask | (1 << j), base, contrib) > cap
        ):
            break
        mask |= 1 << j
    return mask


def sorting_solve_slot(
    scenario: Scenario, slot: int, order: SortOrder | str
) -> tuple[SwitchVector, RevenueBreakdown, int]:
    """Greedy utility-ranked switching.

    Ranks SBSs by the utility score (ties by index), then walks the
    ranking switching each SBS off while the macro cell still has room,
    stopping at the first one that does not fit (``_greedy``).  The chosen
    off-set is always a prefix of the ranking.  ``order`` is a
    ``SortOrder`` or its value, ``"ascending"`` or ``"descending"``;
    anything else raises ``ValueError``.  Costs O(N log N) per slot.
    """
    descending = SortOrder(order) is SortOrder.DESCENDING
    row = slot_problem(scenario, slot)
    util = utility_vector(scenario, slot)
    # a stable sort, reversed or not, keeps tied SBSs in index order
    ranked = sorted(range(len(util)), key=util.__getitem__, reverse=descending)
    return _priced(scenario, slot, _greedy(row, ranked), 1)


def solve_day(
    scenario: Scenario,
    method: Method | str,
    params: SaParams | None = None,
) -> SolverResult:
    """Run one method independently on every slot and aggregate the day.

    Each slot is a self-contained decision; the loop re-checks every
    returned vector against the canonical feasibility gate before
    accepting it into the result, and keeps that check's report.
    """
    if not isinstance(method, Method):
        method = Method.from_str(method)

    solve_slot = {
        Method.SA: lambda t: sa_solve_slot(scenario, t, params),
        Method.ES: lambda t: es_solve_slot(scenario, t),
        Method.A_TYPE: lambda t: sorting_solve_slot(scenario, t, SortOrder.ASCENDING),
        Method.D_TYPE: lambda t: sorting_solve_slot(scenario, t, SortOrder.DESCENDING),
    }[method]

    switches: list[SwitchVector] = []
    revenues: list[RevenueBreakdown] = []
    reports: list[OffloadReport] = []
    evaluations = 0
    started = time.perf_counter_ns()
    for slot in range(scenario.num_slots):
        switch, revenue, evals = solve_slot(slot)
        report = is_feasible(scenario, slot, switch)
        if not report.feasible:
            raise InfeasibleSwitchError(
                f"{method.value} produced an infeasible switch in slot {slot}"
            )
        switches.append(switch)
        revenues.append(revenue)
        reports.append(report)
        evaluations += evals
    runtime_ns = time.perf_counter_ns() - started

    return SolverResult(
        method=method.value,
        per_slot_switch=switches,
        per_slot_revenue=revenues,
        per_slot_report=reports,
        daily=daily_breakdown(revenues),
        evaluations=evaluations,
        runtime_ns=runtime_ns,
    )
