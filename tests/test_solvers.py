import collections
import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from hetlease import (
    ES_MAX_SBS,
    EnumerationCapError,
    Method,
    SaParams,
    SlotProblem,
    SortOrder,
    SwitchVector,
    bench_config,
    bench_scenario,
    build_scenario,
    es_solve_slot,
    is_feasible,
    metropolis_accept,
    offloaded_mbs_load,
    reference_scenario,
    sa_solve_slot,
    slot_problem,
    solve_day,
    sorting_solve_slot,
    total_revenue_slot,
    utility_vector,
)

from hetlease import solvers

import oracles
from conftest import build_tiny, switch_off


# chi-square critical values at significance 0.01
CHI2_99 = {2: 9.210, 3: 11.345, 5: 15.086}


def chi2(counts, cells):
    """Pearson's statistic of ``counts`` against a uniform law on ``cells``."""
    total = sum(counts.values())
    assert set(counts) <= set(cells)
    expected = total / len(cells)
    return sum((counts.get(c, 0) - expected) ** 2 / expected for c in cells)


def moves_from_the_optimum(monkeypatch, contrib, cap, positive=0, seed=0):
    """Run the annealer on a scripted knapsack row (base load 0) and return
    the cell sets, as masks, of the moves it draws from the row's optimum,
    in draw order, the kinds of the neighborhoods it enumerated, and the
    evaluation count.

    Weight j is +2^j for the cells in the mask ``positive`` and -2^j for
    the others, so the optimum is ``positive`` and every move from it loses
    exactly the sum of 2^j over the cells it flips.  The downhill Metropolis
    rule is replaced by one that records that loss and rejects: once at
    the optimum the walk stays there, and with ``shake_flip_prob`` 0 every
    level restarts from it.  From the optimum each one-cell and two-cell
    step is recorded; a swap is recorded only when it exchanges cells of
    both kinds.
    """
    n = len(contrib)
    weights = [float(1 << j) if positive >> j & 1 else -float(1 << j) for j in range(n)]
    top = sum(w for w in weights if w > 0)
    drawn, enumerated = [], []

    def record_and_reject(current, candidate, kt, rnd):
        if current == top:
            drawn.append(int(current - candidate))
        return False

    def counting_pairs(kind, is_off, n):
        enumerated.append(kind)
        return real_pairs(kind, is_off, n)

    real_pairs = solvers._neighborhood_pairs
    row = SlotProblem(0.0, cap, contrib, weights)
    monkeypatch.setattr(solvers, "slot_problem", lambda scenario, slot: row)
    monkeypatch.setattr(solvers, "_downhill_accept", record_and_reject)
    monkeypatch.setattr(solvers, "_neighborhood_pairs", counting_pairs)
    params = SaParams(shake_flip_prob=0.0, rng_seed=seed)
    switch, _, evaluations = sa_solve_slot(bench_scenario(n), 0, params)
    assert switch.off_mask() == positive
    return drawn, enumerated, evaluations


# from all-on, cells 0-3 fit alone and in pairs, cells 4 and 5 never fit:
# 4 of 6 one-cell moves and 6 of 15 pairs, so rejection sampling never
# runs out of draws
ROOMY_ROW = ([0.2] * 4 + [0.6] * 2, 0.5)
# from all-on, 3 of 8 one-cell moves and 3 of 28 pairs fit: the pairs run
# out of draws early and are then drawn from the cached list
CRAMPED_ROW = ([0.2] * 3 + [0.6] * 5, 0.5)


def feasible_sets(contrib, cap, size):
    """Masks of the ``size``-cell sets whose loads fit under ``cap``."""
    return [
        sum(1 << j for j in cells)
        for cells in itertools.combinations(range(len(contrib)), size)
        if sum(contrib[j] for j in cells) <= cap
    ]


class TestNeighborhoodMoves:
    """The annealer's own draws, observed through ``moves_from_the_optimum``."""

    def test_one_reserve_flips_exactly_one_sbs(self, monkeypatch):
        drawn, _, _ = moves_from_the_optimum(monkeypatch, [0.1] * 8, 1.0)
        singles = drawn[0::2]
        assert singles and all(m.bit_count() == 1 and m < 1 << 8 for m in singles)

    def test_two_reserve_flips_exactly_two(self, monkeypatch):
        drawn, _, _ = moves_from_the_optimum(monkeypatch, [0.1] * 8, 1.0)
        pairs = drawn[1::2]
        assert pairs and all(m.bit_count() == 2 and m < 1 << 8 for m in pairs)

    def test_swap_preserves_off_count(self, monkeypatch):
        off = 0b101001
        drawn, _, _ = moves_from_the_optimum(monkeypatch, [0.1] * 6, 1.0, positive=off)
        # between two one-cell moves come the two-cell move, then the swap
        # when it exchanged cells of both kinds; the first group may start
        # mid-iteration, before the walk reached the optimum
        starts = [i for i, m in enumerate(drawn) if m.bit_count() == 1]
        swaps = []
        for i, j in zip(starts[1:], starts[2:] + [len(drawn)]):
            assert j - i in (2, 3)
            swaps += drawn[i + 2 : j]
        crossing = {(1 << a) | (1 << b) for a in range(6) for b in range(6)
                    if off >> a & 1 and not off >> b & 1}
        assert set(swaps) == crossing
        # 9 of the 15 index pairs cross
        assert abs(len(swaps) / len(starts) - 9 / 15) < 0.03

    def test_swap_of_uniform_vector_is_identity(self, monkeypatch):
        # from all-on every swap exchanges two equal bits: it is evaluated as
        # the state itself and never reaches the Metropolis rule
        drawn, _, evaluations = moves_from_the_optimum(monkeypatch, [0.1] * 6, 1.0)
        assert evaluations == oracles.expected_sa_evaluations(6)
        assert len(drawn) == 2 * evaluations // 3

    def test_degenerate_sizes_rejected(self, monkeypatch):
        # a single SBS has no two-cell moves, so only one-cell steps run
        assert solvers._neighborhood_pairs(1, [False, False], 1) == []
        assert solvers._neighborhood_pairs(2, [False, False], 1) == []
        drawn, _, evaluations = moves_from_the_optimum(monkeypatch, [0.1], 1.0)
        assert evaluations == oracles.expected_sa_evaluations(1) == len(drawn)
        assert set(drawn) == {1}

    def test_one_reserve_picks_bits_uniformly(self, monkeypatch):
        drawn, enumerated, _ = moves_from_the_optimum(monkeypatch, *ROOMY_ROW)
        singles = [m for m in drawn if m.bit_count() == 1]
        cells = feasible_sets(*ROOMY_ROW, 1)
        assert len(cells) == 4 and not enumerated
        assert chi2(collections.Counter(singles), cells) < CHI2_99[3]

    def test_two_reserve_picks_pairs_uniformly(self, monkeypatch):
        drawn, enumerated, _ = moves_from_the_optimum(monkeypatch, *ROOMY_ROW)
        pairs = [m for m in drawn if m.bit_count() == 2]
        cells = feasible_sets(*ROOMY_ROW, 2)
        assert len(cells) == 6 and not enumerated
        assert chi2(collections.Counter(pairs), cells) < CHI2_99[5]

    def test_cached_moves_are_drawn_uniformly(self, monkeypatch):
        drawn, enumerated, _ = moves_from_the_optimum(monkeypatch, *CRAMPED_ROW)
        # the walk never leaves all-on, so the pairs are enumerated once
        assert enumerated == [1]
        singles = [m for m in drawn if m.bit_count() == 1]
        pairs = [m for m in drawn if m.bit_count() == 2]
        for drawn_sets, size in ((singles, 1), (pairs, 2)):
            cells = feasible_sets(*CRAMPED_ROW, size)
            assert chi2(collections.Counter(drawn_sets), cells) < CHI2_99[2]

    def test_enumerated_moves_are_decided_by_the_exact_load(self, monkeypatch):
        # from the optimum {0, 4}, moving cell 4's load onto cell 3 tracks
        # to the capacity, while its ascending load lies one ulp above it;
        # only 3 of the 15 pairs fit, so the pairs are enumerated
        contrib = [0.09, 0.49, 0.23, 0.46, 0.37, 0.31]
        cap = (0.09 + 0.37) + 0.46 + -0.37
        assert math.nextafter(cap, 1.0) == 0.09 + 0.46
        drawn, enumerated, _ = moves_from_the_optimum(
            monkeypatch, contrib, cap, positive=0b10001
        )
        assert 1 in enumerated
        pairs = {m for m in drawn if m.bit_count() == 2}
        fits = {
            (1 << a) | (1 << b)
            for a, b in itertools.combinations(range(6), 2)
            if ascending_load(0.0, contrib, 0b10001 ^ (1 << a) ^ (1 << b)) <= cap
        }
        assert pairs == fits == {0b10001, 0b10100, 0b110000}


class TestShake:
    """``_kick``, the annealer's restart from a kicked copy of the best."""

    def test_zero_probability_is_identity(self):
        rng = random.Random(8)
        assert solvers._kick(0b1000000010, 10, 0.0, rng.random) == 0b1000000010

    def test_unit_probability_complements(self):
        # every SBS bit flips, and nothing above them: the macro is not a bit
        rng = random.Random(9)
        assert solvers._kick(0b1000000010, 10, 1.0, rng.random) == 0b0111111101

    def test_flip_count_matches_binomial_mean(self):
        rng = random.Random(10)
        n, p, trials = 12, 0.2, 10_000
        flips = sum(
            solvers._kick(0, n, p, rng.random).bit_count() for _ in range(trials)
        )
        mean = trials * n * p
        sigma = math.sqrt(trials * n * p * (1 - p))
        assert abs(flips - mean) < 3 * sigma


class TestMetropolis:
    def test_improvements_always_accepted(self):
        rng = random.Random(11)
        params = SaParams()
        for _ in range(100):
            assert metropolis_accept(1.0, 1.5, 0.5, params, rng)
            assert metropolis_accept(1.0, 1.0, 0.5, params, rng)

    def test_acceptance_rate_is_boltzmann(self):
        rng = random.Random(12)
        params = SaParams()
        gap, temperature, trials = 0.5, 1.0, 100_000
        hits = sum(
            metropolis_accept(1.0, 1.0 - gap, temperature, params, rng)
            for _ in range(trials)
        )
        p = math.exp(-gap / temperature)
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) < 3 * sigma

    def test_temperature_must_be_positive(self):
        rng = random.Random(13)
        with pytest.raises(ValueError):
            metropolis_accept(1.0, 0.5, 0.0, SaParams(), rng)


class TestSaParams:
    def test_default_schedule_has_99_levels(self):
        assert SaParams().temperature_levels() == 99

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_init": 0.01, "t_final": 1.0},
            {"alpha": 0.0},
            {"k_factor": 0},
            {"boltzmann_k": 0.0},
            {"shake_flip_prob": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SaParams(**kwargs)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("boltzmann_k", math.nan),
            ("boltzmann_k", math.inf),
            ("alpha", math.nan),
            ("t_init", math.inf),
            ("t_final", -math.inf),
            ("shake_flip_prob", math.nan),
            ("k_factor", 2.5),
            ("k_factor", True),
        ],
    )
    def test_non_finite_floats_and_non_integer_k_factor_name_the_field(
        self, field, value
    ):
        with pytest.raises(ValueError, match=field):
            SaParams(**{field: value})


class TestSimulatedAnnealing:
    def test_deterministic_per_seed(self):
        scn = bench_scenario(6)
        a = sa_solve_slot(scn, 12, SaParams(rng_seed=42))
        b = sa_solve_slot(scn, 12, SaParams(rng_seed=42))
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_seed_changes_the_walk(self):
        scn = bench_scenario(10)
        traces = set()
        for seed in range(4):
            trace = []
            sa_solve_slot(scn, 12, SaParams(rng_seed=seed), trace=trace)
            traces.add(tuple(trace))
        assert len(traces) > 1

    def test_macro_only_network(self):
        scn = build_tiny([[0.4]])
        switch, revenue, evaluations = sa_solve_slot(scn, 0)
        assert switch.gamma == (True,)
        assert revenue.total == 0.0
        assert evaluations == 0

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_exact_evaluation_count_when_all_states_fit(self, n):
        scn = bench_scenario(n)
        _, _, evaluations = sa_solve_slot(scn, 0, SaParams())
        assert evaluations == oracles.expected_sa_evaluations(n)

    def test_best_trace_never_decreases(self):
        scn = reference_scenario()
        for seed in range(3):
            trace = []
            sa_solve_slot(scn, 77, SaParams(rng_seed=seed), trace=trace)
            assert trace, "trace should record one value per evaluation"
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_returned_switch_is_feasible(self):
        scn = reference_scenario()
        for slot in (0, 40, 77, 113):
            switch, _, _ = sa_solve_slot(scn, slot, SaParams(rng_seed=1))
            assert oracles.feasible(scn, slot, switch.gamma)

    def test_reported_revenue_is_canonical(self):
        scn = reference_scenario()
        switch, revenue, _ = sa_solve_slot(scn, 30, SaParams(rng_seed=3))
        again = total_revenue_slot(scn, 30, switch)
        assert revenue == again


def tight_bench_scenario(n=16, limit=0.58):
    """bench_scenario(n) with the macro capped just above its 0.55 peak,
    so busy slots allow few sleeping cells and neighbourhoods run empty."""
    config = bench_config(n, 7)
    config["mbs_capacity_limit"] = limit
    return build_scenario(config)


# (scenario, slot, rng_seed, off mask, evaluations, revenue.total.hex())
# recorded from the annealer that starts from all-on, scales its
# temperature by the slot's mean |weight| and draws from cached feasible
# moves.  Each of these draws a different random stream from the earlier
# annealer (random start, absolute temperature, every move redrawn), so the
# evaluation counts differ; every ref and tight16 case keeps that annealer's
# mask and revenue, and both b64 cases now reach all-off, the optimum of
# that all-feasible scenario, where the absolute temperature left them at
# about 0.88 of it.  dup6 has two pairs of identical cells, so swapping a
# pair is a value tie that only the exact tie-break resolves: without the
# tie band its walks and masks change.
SA_GOLDEN = [
    ("ref", 0, 0, 0x17f, 34089, "0x1.e2c746f8eac7fp+1"),
    ("ref", 24, 0, 0xff, 35289, "0x1.d22624c1a7fd3p+1"),
    ("ref", 66, 0, 0xe, 24731, "0x1.0a4afe3752565p+2"),
    ("ref", 78, 0, 0x4, 18537, "0x1.3c329f0326c9cp+1"),
    ("ref", 96, 0, 0x0, 6271, "0x0.0p+0"),
    ("ref", 108, 0, 0x2, 20033, "0x1.2b8f80aa0f5f7p+1"),
    ("ref", 130, 0, 0x3f, 33753, "0x1.12ae45df9da0bp+2"),
    ("ref", 0, 1, 0x17f, 35008, "0x1.e2c746f8eac7fp+1"),
    ("ref", 24, 1, 0xff, 34264, "0x1.d22624c1a7fd3p+1"),
    ("ref", 66, 1, 0xe, 23853, "0x1.0a4afe3752565p+2"),
    ("ref", 78, 1, 0x4, 17524, "0x1.3c329f0326c9cp+1"),
    ("ref", 96, 1, 0x0, 6271, "0x0.0p+0"),
    ("ref", 108, 1, 0x2, 20054, "0x1.2b8f80aa0f5f7p+1"),
    ("ref", 130, 1, 0x3f, 33174, "0x1.12ae45df9da0bp+2"),
    ("b64", 12, 0, (1 << 64) - 1, 190080, "0x1.160d6c56f3425p-6"),
    ("b64", 89, 0, (1 << 64) - 1, 190080, "0x1.0e5f6a21aa4dap-6"),
    ("tight16", 100, 0, 0x1032, 28138, "0x1.9149c392b3f52p-2"),
    ("tight16", 90, 1, 0x10, 15311, "0x1.0b75889745f0bp-3"),
    ("dup6", 0, 0, 0x2d, 17530, "0x1.97b4313caa7fbp+3"),
    ("dup6", 0, 2, 0x27, 17472, "0x1.97b4313caa7fbp+3"),
]

# The same fields recorded from the earlier annealer, for the cases whose
# mask and revenue the current one keeps.  Its evaluation counts belong to
# a random stream that is gone, so only the mask and revenue are checked.
SA_EARLIER = [
    ("ref", 0, 0, 0x17f, 35488, "0x1.e2c746f8eac7fp+1"),
    ("ref", 24, 0, 0xff, 35480, "0x1.d22624c1a7fd3p+1"),
    ("ref", 66, 0, 0xe, 23591, "0x1.0a4afe3752565p+2"),
    ("ref", 78, 0, 0x4, 14938, "0x1.3c329f0326c9cp+1"),
    ("ref", 96, 0, 0x0, 6853, "0x0.0p+0"),
    ("ref", 108, 0, 0x2, 17647, "0x1.2b8f80aa0f5f7p+1"),
    ("ref", 130, 0, 0x3f, 33872, "0x1.12ae45df9da0bp+2"),
    ("ref", 0, 1, 0x17f, 35289, "0x1.e2c746f8eac7fp+1"),
    ("ref", 24, 1, 0xff, 35578, "0x1.d22624c1a7fd3p+1"),
    ("ref", 66, 1, 0xe, 22881, "0x1.0a4afe3752565p+2"),
    ("ref", 78, 1, 0x4, 15072, "0x1.3c329f0326c9cp+1"),
    ("ref", 96, 1, 0x0, 6494, "0x0.0p+0"),
    ("ref", 108, 1, 0x2, 18630, "0x1.2b8f80aa0f5f7p+1"),
    ("ref", 130, 1, 0x3f, 34451, "0x1.12ae45df9da0bp+2"),
    ("tight16", 100, 0, 0x1032, 31038, "0x1.9149c392b3f52p-2"),
    ("tight16", 90, 1, 0x10, 17196, "0x1.0b75889745f0bp-3"),
]


# The same fields, recorded at a schedule and Boltzmann constant away from
# the defaults (67 levels of 4N steps), before the annealer's step loop was
# restructured.  With boltzmann_k = 1.0 a kT that drops or misplaces the
# constant reads the same as the right one; here it changes which downhill
# moves are accepted, and so the walk and its count of skipped steps.
TUNED = dict(boltzmann_k=0.7, t_init=2.0, alpha=0.03, k_factor=4, shake_flip_prob=0.35)
SA_TUNED = [
    ("ref", 66, 0, 0xe, 4216, "0x1.0a4afe3752565p+2"),
    ("ref", 96, 1, 0x0, 682, "0x0.0p+0"),
    ("ref", 130, 0, 0x3f, 8864, "0x1.12ae45df9da0bp+2"),
    ("tight16", 100, 1, 0x1032, 4713, "0x1.9149c392b3f52p-2"),
]


class TestAnnealerGolden:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return {
            "ref": reference_scenario(),
            "b64": bench_scenario(64, 7),
            "tight16": tight_bench_scenario(),
            "dup6": build_tiny(
                [[0.34, 0.11, 0.18, 0.11, 0.18, 0.22, 0.03]],
                demand=[23, 21, 23, 21, 12, 31],
                limit=0.87,
            ),
        }

    @pytest.fixture(scope="class")
    def run(self, scenarios):
        @functools.cache
        def run(name, slot, seed):
            return sa_solve_slot(scenarios[name], slot, SaParams(rng_seed=seed))

        return run

    @pytest.mark.parametrize("name,slot,seed,mask,evals,total", SA_GOLDEN + SA_EARLIER)
    def test_matches_recorded_run(self, run, name, slot, seed, mask, evals, total):
        switch, revenue, evaluations = run(name, slot, seed)
        assert (switch.off_mask(), revenue.total.hex()) == (mask, total)
        if (name, slot, seed, mask, evals, total) in SA_GOLDEN:
            assert evaluations == evals

    @pytest.mark.parametrize("name,slot,seed,mask,evals,total", SA_TUNED)
    def test_matches_recorded_run_at_tuned_parameters(
        self, scenarios, monkeypatch, name, slot, seed, mask, evals, total
    ):
        """Also checks that every downhill decision gets its level's kT,
        boltzmann_k x temperature, bit for bit: a kT of other bits flips
        a decision only when a draw lands between the two thresholds."""
        kts = []
        real = solvers._downhill_accept

        def recording(current, candidate, kt, rnd):
            kts.append(kt)
            return real(current, candidate, kt, rnd)

        monkeypatch.setattr(solvers, "_downhill_accept", recording)
        scn = scenarios[name]
        params = SaParams(rng_seed=seed, **TUNED)
        switch, revenue, evaluations = sa_solve_slot(scn, slot, params)
        assert switch.off_mask() == mask
        assert (revenue.total.hex(), evaluations) == (total, evals)

        weights = slot_problem(scn, slot).weights
        t_scale = sum(abs(w) for w in weights) / len(weights) or 1.0
        level_kts = {
            params.boltzmann_k * ((params.t_init - level * params.alpha) * t_scale)
            for level in range(params.temperature_levels())
        }
        assert kts and set(kts) <= level_kts

    def test_tight_case_exercises_the_enumeration_fallback(self, scenarios, monkeypatch):
        calls = []
        real = solvers._neighborhood_pairs

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(solvers, "_neighborhood_pairs", counting)
        for name, slot, seed, *_ in SA_GOLDEN:
            if name == "tight16":
                calls.clear()
                sa_solve_slot(scenarios[name], slot, SaParams(rng_seed=seed))
                assert calls, f"slot {slot}: no neighbourhood was enumerated"


class TestAnnealerMatchesOracle:
    def test_random_tiny_instances(self):
        instances = random_greedy_instances(140, seed=23)
        for i, scn in enumerate(instances):
            switch, revenue, _ = sa_solve_slot(scn, 0, SaParams(rng_seed=i))
            assert oracles.feasible(scn, 0, switch.gamma)
            assert revenue.total <= es_solve_slot(scn, 0)[1].total
        assert {scn.num_sbs for scn in instances} == set(range(7))

    def test_reaches_the_positive_weight_optimum_when_t_dwarfs_the_weights(self):
        # every mask fits, and every temperature of the nominal schedule is
        # over 16 times the largest weight
        scn = bench_scenario(24, 7)
        for slot in (0, 66, 120):
            weights = slot_problem(scn, slot).weights
            assert max(map(abs, weights)) < SaParams().t_final / 16
            optimum = sum(1 << j for j, w in enumerate(weights) if w > 0)
            switch, _, _ = sa_solve_slot(scn, slot)
            assert switch.off_mask() == optimum


def ascending_load(base, loads, mask):
    """Macro load of ``mask`` summed in ascending station order."""
    total = base
    for j, load in enumerate(loads):
        if mask >> j & 1:
            total += load
    return total


# (macro load, SBS loads, boundary mask, near mask): the capacity is set to
# the ascending sum of the boundary mask; the near mask sums one ulp above
# it in ascending order but at or below it in some other order, which is
# the order a delta-tracked load may take
GUARD_CASES = [
    (0.1, [0.6, 0.4, 0.1, 0.2], 0b0101, 0b1110),
    (0.1, [0.45, 0.1, 0.05, 0.6], 0b1000, 0b0111),
    (0.3, [0.3, 0.25, 0.7, 0.05], 0b0001, 0b1010),
]


@pytest.mark.parametrize("base,loads,boundary,near", GUARD_CASES)
def test_guard_band_keeps_capacity_decisions_canonical(base, loads, boundary, near):
    limit = ascending_load(base, loads, boundary)
    assert ascending_load(base, loads, near) == math.nextafter(limit, 2.0)
    off = [j for j in range(len(loads)) if near >> j & 1]
    other_orders = [
        functools.reduce(lambda acc, j: acc + loads[j], order, base)
        for order in itertools.permutations(off)
    ]
    assert min(other_orders) <= limit
    scn = build_tiny([[base] + loads], demand=[30] * len(loads), limit=limit)
    best = es_solve_slot(scn, 0)[1].total
    for seed in range(6):
        switch, revenue, _ = sa_solve_slot(scn, 0, SaParams(rng_seed=seed))
        assert is_feasible(scn, 0, switch).feasible
        assert oracles.feasible(scn, 0, switch.gamma)
        assert revenue.total <= best


class TestExhaustiveSearch:
    def test_zero_prices_tie_break_to_all_on(self):
        scn = build_tiny([[0.1, 0.1, 0.1]], elec=0.0, spectrum=0.0)
        switch, revenue, evaluations = es_solve_slot(scn, 0)
        assert switch == scn.all_on()
        assert revenue.total == 0.0
        assert evaluations == 4

    def test_two_sbs_hand_enumeration(self):
        scn = build_tiny([[0.2, 0.3, 0.5]], demand=[10, 20])
        candidates = {}
        for mask in range(4):
            sv = SwitchVector.from_off_mask(mask, 2)
            if oracles.feasible(scn, 0, sv.gamma):
                candidates[mask] = oracles.total_revenue(scn, 0, sv.gamma)
        switch, revenue, _ = es_solve_slot(scn, 0)
        assert revenue.total == pytest.approx(max(candidates.values()), abs=1e-9)
        assert candidates[switch.off_mask()] == max(candidates.values())

    def test_counts_infeasible_masks_too(self):
        # switching the loaded micro off would overflow the macro
        scn = build_tiny([[0.9, 0.2, 0.05]])
        _, _, evaluations = es_solve_slot(scn, 0)
        assert evaluations == 4

    def test_enumeration_cap(self):
        # raises before it enumerates anything
        scn = bench_scenario(ES_MAX_SBS + 1)
        with pytest.raises(EnumerationCapError):
            es_solve_slot(scn, 0)

    def test_matches_naive_enumeration(self):
        scn = bench_scenario(4, seed=3)
        rng = random.Random(99)
        for slot in rng.sample(range(scn.num_slots), 10):
            switch, revenue, evaluations = es_solve_slot(scn, slot)
            gamma, naive_best, visited = oracles.enumerate_best(scn, slot)
            assert evaluations == visited == 16
            assert revenue.total == pytest.approx(naive_best, abs=1e-9)
            assert switch.gamma == gamma


class TestEsLoadTable:
    # tight14 has N > 12, so its table is built in blocks
    @pytest.mark.parametrize("name,slot", [
        ("ref", 0), ("ref", 66), ("ref", 96), ("tight14", 78), ("tight14", 96),
    ])
    def test_every_entry_is_the_canonical_load(self, name, slot):
        scn = reference_scenario() if name == "ref" else tight_bench_scenario(14, 0.56)
        n = scn.num_sbs
        problem = slot_problem(scn, slot)
        table = list(solvers._ascending_sums(n, problem.base, problem.contrib))
        assert len(table) == 1 << n
        want = [
            offloaded_mbs_load(scn, slot, SwitchVector.from_off_mask(m, n)).hex()
            for m in range(1 << n)
        ]
        assert [x.hex() for x in table] == want
        # the capacity binds: some masks are rejected from the table
        assert 0 < sum(x > problem.cap for x in table) < len(table)

    def test_memory_stays_at_a_few_blocks_at_the_cap(self):
        # with terms 2^j every sum is the mask itself, exactly
        terms = [2.0 ** j for j in range(ES_MAX_SBS)]
        tracemalloc.start()
        try:
            sums = solvers._ascending_sums(ES_MAX_SBS, 0.0, terms)
            head = list(itertools.islice(sums, 3 << 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert head == [float(m) for m in range(3 << 12)]
        assert peak < 4 << 20  # a full table of 2^24 floats takes ~0.5 GB


class TestEsMatchesOracle:
    @staticmethod
    def check(scn):
        switch, revenue, evaluations = es_solve_slot(scn, 0)
        gamma, naive_best, visited = oracles.enumerate_best(scn, 0)
        assert evaluations == visited == 1 << scn.num_sbs
        assert switch.gamma == gamma
        assert revenue.total == pytest.approx(naive_best, abs=1e-9)
        return switch

    def test_random_tiny_instances(self):
        instances = random_greedy_instances(140, seed=23)
        at_capacity = 0
        for scn in instances:
            self.check(scn)
            loads = [scn.load(j, 0) for j in range(1, scn.num_sbs + 1)]
            at_capacity += any(
                ascending_load(scn.load(0, 0), loads, m) == scn.mbs_capacity_limit
                for m in range(1, 1 << scn.num_sbs)
            )
        assert 0 in {scn.num_sbs for scn in instances}
        assert at_capacity > 0

    @pytest.mark.parametrize("base,loads,boundary,near", GUARD_CASES)
    def test_mask_at_capacity_and_one_ulp_above(self, base, loads, boundary, near):
        limit = ascending_load(base, loads, boundary)
        table = list(solvers._ascending_sums(len(loads), base, loads))
        assert table[boundary] == limit < table[near]
        # demand makes the one-ulp-over mask the best once it fits
        demand = [30 if near >> j & 1 else 1 for j in range(len(loads))]
        roomy = build_tiny([[base] + loads], demand=demand, limit=table[near])
        assert self.check(roomy).off_mask() == near
        scn = build_tiny([[base] + loads], demand=demand, limit=limit)
        assert self.check(scn).off_mask() != near

    def test_only_all_on_fits(self):
        # every single SBS asleep pushes the macro past its capacity
        scn = build_tiny([[0.9, 0.2, 0.3, 0.15]], demand=[40, 40, 40])
        assert self.check(scn) == scn.all_on()


# (variant, slot, off mask, evaluations, revenue.total.hex()) recorded from
# an exhaustive search that sent every mask through the canonical check;
# quiet hours (slots 0, 24, 132) let most masks fit, at busy hours
# (84-102 on fixed-ndt) only all-on does
ES_GOLDEN = [
    ("fixed-ndt", 0, 0x17f, 4096, "0x1.e2c746f8eac7fp+1"),
    ("fixed-ndt", 24, 0xff, 4096, "0x1.d22624c1a7fd3p+1"),
    ("fixed-ndt", 48, 0x3f, 4096, "0x1.2352711bc7b45p+2"),
    ("fixed-ndt", 54, 0x1f, 4096, "0x1.4495244682153p+2"),
    ("fixed-ndt", 66, 0xe, 4096, "0x1.0a4afe3752565p+2"),
    ("fixed-ndt", 78, 0x4, 4096, "0x1.3c329f0326c9cp+1"),
    ("fixed-ndt", 96, 0x0, 4096, "0x0.0p+0"),
    ("fixed-ndt", 108, 0x2, 4096, "0x1.2b8f80aa0f5f7p+1"),
    ("fixed-ndt", 132, 0x3f, 4096, "0x1.020bc698b96f4p+2"),
    ("dynamic-dt", 0, 0x1bf, 4096, "0x1.a5f51658d6bd3p+3"),
    ("dynamic-dt", 24, 0x17f, 4096, "0x1.31cabd37421d4p+4"),
    ("dynamic-dt", 108, 0x1, 4096, "0x1.31425f528bd1bp+0"),
    ("dynamic-dt", 132, 0x1b7, 4096, "0x1.9d6c9b2a887f0p+2"),
]


class TestEsGolden:
    @pytest.mark.parametrize("name,slot,mask,evals,total", ES_GOLDEN)
    def test_matches_recorded_run(self, variants, name, slot, mask, evals, total):
        switch, revenue, evaluations = es_solve_slot(variants[name], slot)
        assert (switch.off_mask(), evaluations, revenue.total.hex()) == (
            mask,
            evals,
            total,
        )


class TestUtilityRanking:
    def test_zero_network_scores_zero(self):
        scn = build_tiny([[0.0, 0.0]])
        assert utility_vector(scn, 0) == [0.0]

    def test_beta_construction_gives_minus_point_three_tau(self):
        # demand floor(0.7 * tau * cap) keeps psi/cap - tau near -0.3 tau
        scn = build_tiny([[0.0, 1.0]], demand=[35])
        assert utility_vector(scn, 0)[0] == pytest.approx(-0.3, abs=1e-9)

    def test_dt_shift_widens_the_score_spread(self, variants):
        ndt, dt = variants["dynamic-ndt"], variants["dynamic-dt"]
        spread_ndt = np.ptp([np.mean(utility_vector(ndt, t)) for t in range(ndt.num_slots)])
        spread_dt = np.ptp([np.mean(utility_vector(dt, t)) for t in range(dt.num_slots)])
        assert spread_dt > spread_ndt


class TestSortingHeuristics:
    def test_idle_network_sleeps_everything(self):
        scn = build_tiny([[0.0, 0.0, 0.0, 0.0]])
        for order in SortOrder:
            switch, _, _ = sorting_solve_slot(scn, 0, order)
            assert switch.off_mask() == 0b111

    def test_hand_instance_descending_beats_ascending(self):
        # utilities 0.3, 0.1, -0.3: descending sleeps the lucrative cell
        # first (macro 0.5+0.3 fits, +0.3 more does not); ascending sleeps
        # the worst cell first and stops just the same
        scn = build_tiny([[0.5, 0.3, 0.3, 0.4]], demand=[30, 20, 5])
        d_switch, d_revenue, _ = sorting_solve_slot(scn, 0, SortOrder.DESCENDING)
        a_switch, a_revenue, _ = sorting_solve_slot(scn, 0, SortOrder.ASCENDING)
        assert d_switch.off_mask() == 0b001
        assert a_switch.off_mask() == 0b100
        assert d_revenue.total == pytest.approx(
            oracles.total_revenue(scn, 0, d_switch.gamma), abs=1e-9
        )
        assert a_revenue.total == pytest.approx(
            oracles.total_revenue(scn, 0, a_switch.gamma), abs=1e-9
        )
        assert d_revenue.total > a_revenue.total

    @pytest.mark.parametrize("order", list(SortOrder))
    def test_off_set_is_a_prefix_of_the_ranking(self, order):
        scn = reference_scenario()
        for slot in range(0, scn.num_slots, 7):
            scores = utility_vector(scn, slot)
            sign = -1.0 if order is SortOrder.DESCENDING else 1.0
            ranked = sorted(
                range(1, scn.num_sbs + 1), key=lambda j: (sign * scores[j - 1], j)
            )
            switch, _, _ = sorting_solve_slot(scn, slot, order)
            off = {j for j in range(1, scn.num_sbs + 1) if not switch.gamma[j]}
            assert off == set(ranked[: len(off)])
            if len(off) < scn.num_sbs:
                # the next ranked station must not have fit
                probe = switch_off(scn.num_sbs, *off, ranked[len(off)])
                assert not oracles.feasible(scn, slot, probe.gamma)


# (scenario, order, slot, off mask, revenue.total.hex()) recorded from a
# greedy that summed every trial vector's load in full; the one-pass walk
# must reproduce them.  b128 never binds, tight16 binds at busy hours.
GREEDY_GOLDEN = [
    ("ref", "ascending", 0, 0xcd9, "0x1.0a40b0ab3f3bdp+1"),
    ("ref", "ascending", 24, 0x7d5, "0x1.5d7c4cec6f139p+1"),
    ("ref", "ascending", 66, 0x80, "0x1.8f03ab1f0b6f7p+0"),
    ("ref", "ascending", 130, 0xe44, "0x1.d1ba0d03251b2p+0"),
    ("ref", "descending", 0, 0x33f, "0x1.d225a07a1c1d2p+1"),
    ("ref", "descending", 24, 0xc3f, "0x1.c181b0e8bc649p+1"),
    ("ref", "descending", 66, 0x1c, "0x1.a00c3beed9efcp+1"),
    ("ref", "descending", 108, 0x80, "0x1.0a02f849f2491p-1"),
    ("ref", "descending", 130, 0x1bb, "0x1.d20e69ff070fap+1"),
    ("b128", "ascending", 0, (1 << 128) - 1, "0x1.16871fec94c4fp-5"),
    ("b128", "ascending", 89, (1 << 128) - 1, "0x1.12cef107a6839p-5"),
    ("b128", "descending", 24, (1 << 128) - 1, "0x1.168cf21c59c72p-5"),
    ("b128", "descending", 130, (1 << 128) - 1, "0x1.16604e2590160p-5"),
    ("tight16", "ascending", 78, 0xedff, "0x1.6ed0ec6621ffep+0"),
    ("tight16", "ascending", 96, 0xc484, "0x1.0a3eccc1d3bc7p-1"),
    ("tight16", "ascending", 100, 0x8880, "0x1.0a3d726cd101ep-2"),
    ("tight16", "descending", 78, 0xf7f7, "0x1.6f0fa9ff1e514p+0"),
    ("tight16", "descending", 96, 0x1133, "0x1.4e5d441e1b31ap-1"),
    ("tight16", "descending", 100, 0x1032, "0x1.9149c392b3f52p-2"),
]


class TestGreedyGolden:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return {
            "ref": reference_scenario(),
            "b128": bench_scenario(128, 7),
            "tight16": tight_bench_scenario(),
        }

    @pytest.mark.parametrize("name,order,slot,mask,total", GREEDY_GOLDEN)
    def test_matches_recorded_run(self, scenarios, name, order, slot, mask, total):
        switch, revenue, _ = sorting_solve_slot(scenarios[name], slot, SortOrder(order))
        assert (switch.off_mask(), revenue.total.hex()) == (mask, total)


def random_greedy_instances(count, seed):
    """Seeded one-slot instances with N from 0 to 6, zero loads and zero
    demands mixed in, and in most of them a capacity equal to the ascending
    load of a prefix of the descending ranking, so that a cell fits exactly."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = i % 7
        base = rng.choice([0.0, round(rng.uniform(0.0, 0.5), 2)])
        loads = [rng.choice([0.0, round(rng.uniform(0.0, 0.4), 2)]) for _ in range(n)]
        demand = [rng.choice([0, rng.randint(1, 40)]) for _ in range(n)]
        util = utility_vector(build_tiny([[base] + loads], demand=demand or None), 0)
        ranked = sorted(range(n), key=lambda j: (-util[j], j))
        prefix = sum(1 << j for j in ranked[: rng.randint(0, n)])
        limit = ascending_load(base, loads, prefix)
        if not 0.0 < limit <= 1.0 or rng.random() < 0.2:
            limit = rng.uniform(max(base, 0.01), 1.0)
        out.append(build_tiny([[base] + loads], demand=demand or None, limit=limit))
    return out


# (macro load, SBS loads, capacity, order, first two ranked cells) with zero
# demand, so the utility is minus the load.  The first two ranked cells sum,
# in rank order and in ascending order, to two floats one ulp apart that
# straddle the capacity: in the first case the ascending sum is the capacity
# and the rank-order sum lies one ulp above it, in the second the rank-order
# sum is the capacity and the ascending sum lies one ulp above it.
GREEDY_STRADDLE = [
    (0.1, [0.08, 0.24, 0.31], 0.6499999999999999, SortOrder.ASCENDING, (2, 1)),
    (0.17, [0.35, 0.07, 0.37], 0.59, SortOrder.DESCENDING, (1, 0)),
]


class TestGreedyMatchesOracle:
    @staticmethod
    def check(scn) -> list[int]:
        """Assert both orders match the oracle; return their off masks."""
        masks = []
        for order in SortOrder:
            switch, revenue, evals = sorting_solve_slot(scn, 0, order)
            mask = oracles.greedy_prefix(scn, 0, order is SortOrder.DESCENDING)
            expected = SwitchVector.from_off_mask(mask, scn.num_sbs)
            assert evals == 1
            assert switch.off_mask() == mask
            assert revenue.total.hex() == total_revenue_slot(scn, 0, expected).total.hex()
            masks.append(mask)
        return masks

    def test_random_tiny_instances(self):
        instances = random_greedy_instances(140, seed=23)
        at_capacity = 0
        for scn in instances:
            loads = [scn.load(j, 0) for j in range(1, scn.num_sbs + 1)]
            for mask in self.check(scn):
                load = ascending_load(scn.load(0, 0), loads, mask)
                at_capacity += mask != 0 and load == scn.mbs_capacity_limit
        assert {scn.num_sbs for scn in instances} == set(range(7))
        assert at_capacity > 0

    @pytest.mark.parametrize("base,loads,limit,order,first", GREEDY_STRADDLE)
    def test_rank_and_ascending_sums_straddling_the_capacity(
        self, base, loads, limit, order, first
    ):
        scn = build_tiny([[base] + loads], limit=limit)
        sign = -1.0 if order is SortOrder.DESCENDING else 1.0
        util = utility_vector(scn, 0)
        ranked = sorted(range(len(loads)), key=lambda j: (sign * util[j], j))
        assert tuple(ranked[:2]) == first
        running = base + loads[first[0]] + loads[first[1]]
        exact = ascending_load(base, loads, (1 << first[0]) | (1 << first[1]))
        assert {running, exact} == {limit, math.nextafter(limit, 2.0)}
        self.check(scn)


class TestSolveDay:
    def test_single_slot_reduces_to_slot_solver(self):
        scn = build_tiny([[0.3, 0.2, 0.4]], demand=[18, 9])
        for method in ("es", "atype", "dtype"):
            result = solve_day(scn, method)
            assert len(result.per_slot_switch) == 1
        es_result = solve_day(scn, "es")
        switch, revenue, _ = es_solve_slot(scn, 0)
        assert es_result.per_slot_switch[0] == switch
        assert es_result.daily.total == pytest.approx(revenue.total, abs=1e-12)

    def test_sa_day_matches_slot_calls(self):
        scn = bench_scenario(4)
        params = SaParams(rng_seed=5)
        result = solve_day(scn, Method.SA, params)
        for slot in (0, 71, 143):
            switch, revenue, _ = sa_solve_slot(scn, slot, params)
            assert result.per_slot_switch[slot] == switch
            assert result.per_slot_revenue[slot] == revenue

    def test_es_dominates_every_method_daily(self):
        scn = bench_scenario(8)
        best = solve_day(scn, "es").daily.total
        for method in ("sa", "atype", "dtype"):
            assert best >= solve_day(scn, method).daily.total

    def test_evaluation_totals(self):
        scn = bench_scenario(4)
        assert solve_day(scn, "es").evaluations == 144 * 16
        assert solve_day(scn, "dtype").evaluations == 144
        assert (
            solve_day(scn, "sa").evaluations
            == 144 * oracles.expected_sa_evaluations(4)
        )

    def test_daily_check_and_runtime(self):
        scn = bench_scenario(4)
        result = solve_day(scn, "atype")
        assert result.daily_check()
        assert result.runtime_ns > 0

    def test_unknown_method_rejected(self):
        scn = bench_scenario(4)
        with pytest.raises(ValueError):
            solve_day(scn, "downhill")

    @pytest.mark.parametrize(
        "token,method",
        [("sa", Method.SA), ("a-type", Method.A_TYPE), ("D", Method.D_TYPE), ("es", Method.ES)],
    )
    def test_method_aliases(self, token, method):
        assert Method.from_str(token) is method
