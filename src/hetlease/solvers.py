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

from .economics import slot_problem, total_revenue_slot
from .feasibility import OffloadReport, is_feasible
from .model import (
    EnumerationCapError,
    InfeasibleSwitchError,
    RevenueBreakdown,
    Scenario,
    SolverResult,
    SwitchVector,
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


def _ascending_sum(mask: int, start: float, terms: Sequence[float]) -> float:
    """``start`` plus ``terms[j]`` for every set bit j of ``mask``, added in
    ascending j: the accumulation order of ``offloaded_mbs_load``.  Every
    exact load and value in this module is summed here."""
    total = start
    j = 0
    while mask:
        if mask & 1:
            total += terms[j]
        mask >>= 1
        j += 1
    return total


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
    for j in range(low):
        term = terms[j]
        table += [x + term for x in table]
    for high in range(1 << (n - low)):
        block = table
        j = low
        while high:
            if high & 1:
                term = terms[j]
                block = [x + term for x in block]
            high >>= 1
            j += 1
        yield from block


@dataclass(frozen=True)
class SaParams:
    """Annealing schedule and acceptance parameters.

    Cooling is linear: the temperature starts at ``t_init`` and drops by
    ``alpha`` after every level until it would reach ``t_final``.  Each
    level runs ``k_factor * N`` local iterations, and each iteration
    tries all three neighborhoods in a fixed order.  ``t_init``,
    ``t_final`` and ``alpha`` are in units of the slot's mean |weight|
    (1.0 when every weight is 0): ``sa_solve_slot`` multiplies each
    level's temperature by that scale.  The float fields must be finite
    and ``k_factor`` an integer.
    """

    t_init: float = 1.0
    t_final: float = 0.01
    alpha: float = 0.01
    k_factor: int = 10
    boltzmann_k: float = 1.0
    shake_flip_prob: float = 0.2
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("t_init", "t_final", "alpha", "boltzmann_k", "shake_flip_prob"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        k = self.k_factor
        if isinstance(k, bool) or not isinstance(k, numbers.Integral):
            raise ValueError("k_factor must be an integer")
        if not self.t_init > self.t_final > 0:
            raise ValueError("need t_init > t_final > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.k_factor < 1:
            raise ValueError("k_factor must be at least 1")
        if self.boltzmann_k <= 0:
            raise ValueError("boltzmann_k must be positive")
        if not 0.0 <= self.shake_flip_prob <= 1.0:
            raise ValueError("shake_flip_prob must lie in [0, 1]")

    def temperature_levels(self) -> int:
        """Number of temperature levels the cooling loop executes.

        Defaults give ceil((1 - 0.01) / 0.01) = 99 levels; the epsilon
        guards against float noise flipping the ceiling.
        """
        span = (self.t_init - self.t_final) / self.alpha
        return max(0, math.ceil(span - 1e-9))


class Method(enum.Enum):
    """Solver identifiers used by day-level runs, benchmarks, and the CLI."""

    SA = "sa"
    ES = "es"
    A_TYPE = "atype"
    D_TYPE = "dtype"

    @classmethod
    def from_str(cls, token: str) -> "Method":
        aliases = {
            "sa": cls.SA,
            "es": cls.ES,
            "atype": cls.A_TYPE,
            "a-type": cls.A_TYPE,
            "a": cls.A_TYPE,
            "dtype": cls.D_TYPE,
            "d-type": cls.D_TYPE,
            "d": cls.D_TYPE,
        }
        try:
            return aliases[token.strip().lower()]
        except KeyError:
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
    with probability exp(-gap / (K * temperature)) from one uniform draw."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if candidate_revenue >= current_revenue:
        return True
    return _downhill_accept(
        current_revenue, candidate_revenue, params.boltzmann_k * temperature, rng.random
    )


def sa_solve_slot(
    scenario: Scenario,
    slot: int,
    params: SaParams | None = None,
    trace: list | None = None,
) -> tuple[SwitchVector, RevenueBreakdown, int]:
    """Simulated annealing over one slot's switch lattice.

    The search walks on the additive per-SBS revenue weights (an exact
    linear decomposition of the objective), starting from all-on, which
    always fits.  The returned revenue is re-evaluated through the
    canonical objective.  Temperatures are in units of the slot's mean
    |weight| (1.0 when every weight is 0), so the schedule means the same
    at every revenue scale.

    Each evaluation costs O(1) work: two delta lists hold the signed change
    of macro load and of search value that flipping each bit of the current
    state would cause, so a move's load and value are two additions away,
    and an accepted move negates at most two entries.  The lists and the
    running load and value are rebuilt exactly, in ascending station order,
    at the start and after every shake (once per temperature level), so
    float drift never outlives a level.

    Guard bands keep every decision equal to the one the exact ascending
    sums give.  A delta load within ``SA_GUARD_REL`` times the load scale
    (|base| + sum of |contributions|) of the capacity limit is re-decided
    by the exact sum, so feasibility agrees with ``offloaded_mbs_load``
    bit for bit.  Likewise, a value comparison (accept or new best) whose
    two sides lie within twice that width, measured on the weight scale,
    is decided by exact sums; this happens only for near-equal weights.
    Every downhill move is decided by one Metropolis rule,
    ``_downhill_accept``, with kT = ``boltzmann_k`` x temperature taken
    once per level: outside the tie band the step calls it on the tracked
    values, inside it ``metropolis_accept`` applies it to the exact sums.
    The one residue: outside the tie band the threshold exp(gap / kT) is
    taken from the tracked gap, which may differ from the exact gap in its
    last bits.

    Each step draws uniformly among the feasible moves of one
    neighborhood.  A step first looks up the state's cached feasible
    moves, and draws once from them or, when there are none, skips the
    step.  Without a cache entry it redraws a uniform move until one fits;
    after ``_RETRY_DRAWS`` misses it enumerates the neighborhood with the
    same guard band, caches the feasible moves, and draws from them.  Both
    paths are uniform over the feasible moves.  The evaluation count
    therefore equals levels x k x neighborhoods whenever every
    neighborhood stays non-empty, and only provably-empty steps are
    skipped.  The cache holds only neighborhoods that ran out of draws, so
    memory is O(N) for a walk on which every move fits.

    Args:
        scenario: problem instance.
        slot: slot index in range(scenario.num_slots).
        params: annealing parameters; defaults to SaParams().
        trace: optional list collecting the best-so-far search value
            after every evaluation (monotonically non-decreasing).

    Returns:
        (best switch, canonical revenue, objective evaluations).
    """
    if params is None:
        params = SaParams()
    n = scenario.num_sbs
    if n == 0:
        only = scenario.all_on()
        return only, total_revenue_slot(scenario, slot, only), 0

    rng = _slot_rng(params.rng_seed, slot)
    rnd = rng.random
    base, cap, contrib, weights = slot_problem(scenario, slot)

    k = params.k_factor * n
    # the neighborhood of every step of a level, in order
    steps = ((0, 1, 2) if n >= 2 else (0,)) * k
    levels = params.temperature_levels()

    # A tracked sum drifts from the exact ascending one by at most one
    # rounding (eps x scale) per addition since the last rebuild, and a
    # level makes fewer than n + 6k + 2 of them; the bands cover that.
    rel = max(SA_GUARD_REL, (n + 6 * k + 2) * sys.float_info.epsilon)
    band = rel * (abs(base) + sum(abs(c) for c in contrib))
    sure_fit, sure_miss = cap - band, cap + band
    weight_sum = sum(abs(w) for w in weights)
    tie = 2.0 * rel * weight_sum
    t_scale = weight_sum / n or 1.0

    # Index n is a "no flip" sentinel: its deltas are zero and its bit is 0.
    bit = [1 << j for j in range(n)] + [0]
    dl = [0.0] * (n + 1)
    dv = [0.0] * (n + 1)
    is_off = [False] * (n + 1)

    def rebuild(mask: int) -> tuple[float, float]:
        """Reset the delta lists to ``mask``; return its exact load and value."""
        for j in range(n):
            off = is_off[j] = bool((mask >> j) & 1)
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

    nm1 = n - 1
    draws = range(_RETRY_DRAWS)
    skipped = 0

    for level in range(levels):
        temperature = (params.t_init - level * params.alpha) * t_scale
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        kt = params.boltzmann_k * temperature
        for kind in steps:
            moves = cache.get((current << 2) | kind) if cache else None
            if moves is None:
                for _ in draws:
                    a = int(rnd() * n)
                    if kind == 0:
                        b = n
                        lv = cur_load + dl[a]
                    else:
                        b = int(rnd() * nm1)
                        if b >= a:
                            b += 1
                        if kind == 2 and is_off[a] == is_off[b]:
                            a = b = n  # swap of equal bits: the state itself
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
                            "slot %d: neighborhood %d empty from state %#x",
                            slot, kind, current,
                        )
            if moves is not None:
                if not moves:
                    skipped += 1
                    continue
                a, b = moves[int(rnd() * len(moves))]
                lv = cur_load + dl[a] + dl[b]
            val = cur_val + dv[a] + dv[b]
            gap = val - cur_val
            if gap > tie:
                accept = True
            elif gap < -tie:
                accept = _downhill_accept(cur_val, val, kt, rnd)
            elif dv[a] == 0.0 and dv[b] == 0.0:
                # an equal-bit swap or zero weights: the exact sum is unchanged
                accept = True
            else:
                accept = metropolis_accept(
                    _ascending_sum(current, 0.0, weights),
                    _ascending_sum(current ^ bit[a] ^ bit[b], 0.0, weights),
                    temperature,
                    params,
                    rng,
                )
            if accept:
                current ^= bit[a] ^ bit[b]
                cur_load, cur_val = lv, val
                dl[a], dv[a], is_off[a] = -dl[a], -dv[a], not is_off[a]
                dl[b], dv[b], is_off[b] = -dl[b], -dv[b], not is_off[b]
            if val >= best_lo:
                cand = current if accept else current ^ bit[a] ^ bit[b]
                if val > best_val + tie or (
                    cand != best
                    and _ascending_sum(cand, 0.0, weights)
                    > _ascending_sum(best, 0.0, weights)
                ):
                    # max: an exact tie-break may pick a value a few ulps low
                    best, best_val = cand, max(val, best_val)
                    best_lo = best_val - tie
            if trace is not None:
                trace.append(best_val)
        # diversify: restart the walk from a kicked copy of the best
        current = _kick(best, n, params.shake_flip_prob, rnd)
        cur_load, cur_val = rebuild(current)

    if skipped:
        logger.debug(
            "slot %d: %d neighborhood steps had no feasible move", slot, skipped
        )
    evaluations = levels * len(steps) - skipped
    switch = SwitchVector.from_off_mask(best, n)
    return switch, total_revenue_slot(scenario, slot, switch), evaluations


def es_solve_slot(
    scenario: Scenario, slot: int
) -> tuple[SwitchVector, RevenueBreakdown, int]:
    """Enumerate every switch vector and return the feasible revenue maximizer.

    Every one of the 2^N masks is visited and counted as one evaluation,
    infeasible ones included.  Each mask's macro load is read from
    ``_ascending_sums``, the same double ``offloaded_mbs_load`` gives, so a
    mask over the capacity limit, which fails the first test of
    ``is_feasible``, is rejected there.  Every other mask goes through the
    canonical feasibility check and objective.  Ties are broken toward
    fewer SBSs off, then the lower off-bitmask value.
    """
    n = scenario.num_sbs
    if n > ES_MAX_SBS:
        raise EnumerationCapError(
            f"{n} SBSs means 2^{n} states; enumeration is capped at {ES_MAX_SBS} SBSs"
        )
    base, cap, contrib, _ = slot_problem(scenario, slot)
    best_switch = None
    best_revenue = None
    best_key = None
    for mask, load in enumerate(_ascending_sums(n, base, contrib)):
        if load > cap:
            continue
        switch = SwitchVector.from_off_mask(mask, n)
        if not is_feasible(scenario, slot, switch).feasible:
            continue
        revenue = total_revenue_slot(scenario, slot, switch)
        key = (-revenue.total, mask.bit_count(), mask)
        if best_key is None or key < best_key:
            best_switch, best_revenue, best_key = switch, revenue, key
    # mask 0 (all-on) is always feasible, so a maximizer always exists
    assert best_switch is not None and best_revenue is not None
    return best_switch, best_revenue, 1 << n


def utility_vector(scenario: Scenario, slot: int) -> list[float]:
    """Per-SBS ranking score: leasable demand (as a fraction of the SBS's
    own resource blocks) minus its traffic load.  High scores mark cells
    that are cheap to offload and lucrative to lease."""
    loads = scenario._loads_by_slot[slot]
    demands = scenario._demands_by_slot[slot]
    return [
        demands[j - 1] / bs.rb_capacity - loads[j]
        for j, bs in enumerate(scenario.stations[1:], start=1)
    ]


def sorting_solve_slot(
    scenario: Scenario, slot: int, order: SortOrder
) -> tuple[SwitchVector, RevenueBreakdown, int]:
    """Greedy utility-ranked switching.

    Ranks SBSs by the utility score (ties by index), then walks the
    ranking switching each SBS off while the macro cell still has room,
    stopping at the first one that does not fit.  The chosen off-set is
    always a prefix of the ranking.

    Costs O(N log N) per slot: one sort, then one pass that keeps a
    running macro load in rank order.  The running load adds the same
    terms as the exact ascending sum, in another order, so the two may
    differ in their last bits; a running load within ``SA_GUARD_REL``
    times the load scale (|base| + sum of |contributions|) of the
    capacity limit is re-decided by the exact ascending sum, so every
    decision agrees with ``offloaded_mbs_load`` bit for bit.
    """
    n = scenario.num_sbs
    util = utility_vector(scenario, slot)
    # a stable sort, reversed or not, keeps tied SBSs in index order
    ranked = sorted(
        range(n), key=util.__getitem__, reverse=order is SortOrder.DESCENDING
    )

    base, cap, contrib, _ = slot_problem(scenario, slot)
    # each of the two sums is off by at most one rounding (eps x scale) per
    # addition, and a prefix makes at most n of them
    rel = max(SA_GUARD_REL, n * sys.float_info.epsilon)
    band = rel * (abs(base) + sum(map(abs, contrib)))

    mask = 0
    load = base
    for j in ranked:
        load += contrib[j]
        if load > cap - band and (
            load > cap + band or _ascending_sum(mask | (1 << j), base, contrib) > cap
        ):
            break
        mask |= 1 << j
    switch = SwitchVector.from_off_mask(mask, n)
    return switch, total_revenue_slot(scenario, slot, switch), 1


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
    if isinstance(method, str):
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
