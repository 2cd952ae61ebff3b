import collections
import functools
import hashlib
import itertools
import logging
import math
import random
import re
import sys
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
    all_on_power_slot,
    bench_config,
    bench_scenario,
    build_scenario,
    energy_revenue_slot,
    es_solve_slot,
    hetnet_power_slot,
    is_feasible,
    leasing_revenue_slot,
    metropolis_accept,
    network_throughput,
    offloaded_mbs_load,
    power_saving_slot,
    reference_config,
    reference_scenario,
    sa_solve_slot,
    sbs_off_weights,
    slot_problem,
    solve_day,
    sorting_solve_slot,
    total_revenue_slot,
    utility_vector,
)

import hetlease.economics
import hetlease.feasibility
import hetlease.model
from hetlease import solvers
from hetlease.model import daily_breakdown

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
    """Run ``_anneal`` on a scripted knapsack row (base load 0) and return
    the cell sets, as masks, of the moves it draws from the row's optimum,
    in draw order, the kinds of the neighborhoods it enumerated, and the
    evaluation count.

    Weight j is +2^j for the cells in the mask ``positive`` and -2^j for
    the others, so the optimum is ``positive`` and every move from it loses
    exactly the sum of 2^j over the cells it flips.  kT is patched to 1 and
    the Metropolis rule's ``exp`` to one that records the loss, minus its
    argument, and returns 0, so every downhill move is rejected: once at
    the optimum the walk stays there, and with the shake's flip probability
    patched to 0 every level restarts from it (the kick still reads one
    draw per bit and a rejected move its Metropolis draw, so the random
    stream is unchanged).  A walk that starts at the optimum (``positive``
    0) is recorded from its first level, any other from its second, once
    the first has climbed to the optimum.  Each one-cell and two-cell step
    is recorded; a swap is recorded only when it exchanges cells of both
    kinds.
    """
    n = len(contrib)
    weights = [float(1 << j) if positive >> j & 1 else -float(1 << j) for j in range(n)]
    drawn, enumerated = [], []
    levels = 0

    def unit_kt(temperature):
        nonlocal levels
        levels += 1
        return 1.0

    def record_and_reject(x):
        if levels > (1 if positive else 0):
            drawn.append(int(-x))
        return 0.0

    def counting_pairs(kind, is_off, n):
        enumerated.append(kind)
        return real_pairs(kind, is_off, n)

    real_pairs = solvers._neighborhood_pairs
    monkeypatch.setattr(solvers, "_kt", unit_kt)
    monkeypatch.setattr(solvers, "exp", record_and_reject)
    monkeypatch.setattr(solvers, "_neighborhood_pairs", counting_pairs)
    monkeypatch.setattr(solvers, "SA_SHAKE_FLIP_PROB", 0.0)
    row = SlotProblem(0.0, cap, contrib, weights)
    best, evaluations, _, _ = solvers._anneal(row, solvers._slot_draws(seed, 0))
    assert best == positive
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
        # when it exchanged cells of both kinds
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
        assert list(solvers._neighborhood_pairs(1, [False, False], 1)) == []
        assert list(solvers._neighborhood_pairs(2, [False, False], 1)) == []
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

    @staticmethod
    def draws(rng, n):
        return [rng.random() for _ in range(n)]

    def test_zero_probability_is_identity(self):
        rng = random.Random(8)
        assert solvers._kick(0b1000000010, 0.0, self.draws(rng, 10)) == 0b1000000010

    def test_unit_probability_complements(self):
        # every SBS bit flips, and nothing above them: the macro is not a bit
        rng = random.Random(9)
        assert solvers._kick(0b1000000010, 1.0, self.draws(rng, 10)) == 0b0111111101

    def test_flip_count_matches_binomial_mean(self):
        rng = random.Random(10)
        n, p, trials = 12, 0.2, 10_000
        flips = sum(
            solvers._kick(0, p, self.draws(rng, n)).bit_count() for _ in range(trials)
        )
        mean = trials * n * p
        sigma = math.sqrt(trials * n * p * (1 - p))
        assert abs(flips - mean) < 3 * sigma


class TestDrawStream:
    """``_slot_draws``, the annealer's random stream read in blocks."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    def test_blocks_continue_the_slot_rng_stream(self, seed):
        # uneven splits, empty and one-draw blocks included, and one block
        # longer than the annealer's
        for slot in (0, 5, 89, 143):
            rng = solvers._slot_rng(seed, slot)
            source = solvers._slot_draws(seed, slot)
            for k in (0, 1, 7, 0, 1, 66, solvers._DRAW_BLOCK + 3, 13, 1):
                block = source(k)
                assert block.dtype == np.float64 and block.shape == (k,)
                assert block.tolist() == [rng.random() for _ in range(k)]

    @pytest.mark.parametrize("m", [1, 2, 3, 12, 63, 64, 127, 128, 1023, 1024])
    def test_block_move_indices_are_int_of_the_product(self, m):
        top = math.nextafter(1.0, 0.0)
        u = np.concatenate([[0.0, top, 0.5], solvers._slot_draws(0, m)(4096)])
        assert (u * m).astype(np.intp).tolist() == [int(x * m) for x in u.tolist()]
        # the largest draw still picks the last of m indices
        assert int(top * m) == m - 1

    @pytest.mark.parametrize("block", [1, 67, 100, 1000])
    def test_walk_does_not_depend_on_the_block_size(self, monkeypatch, block):
        # a block below one step's worst case is raised to it, so each
        # refill splits the stream at another place
        monkeypatch.setattr(solvers, "_DRAW_BLOCK", block)
        walks = {walk[:3]: walk[3:] for walk in SA_WALKS}
        for name, scn, slot in (("ref", reference_scenario(), 0),
                                ("b16", bench_scenario(16, 7), 60)):
            row = slot_problem(scn, slot)
            assert anneal_counting_draws(row, slot) == walks[name, slot, "default"]


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

    def test_nan_temperature_is_rejected(self):
        with pytest.raises(ValueError, match="temperature must be positive"):
            metropolis_accept(1.0, 0.5, math.nan, SaParams(), random.Random(13))

    def test_underflowing_kt_rejects_a_downhill_move(self):
        # at the least positive temperature exp(-gap / kT) underflows to 0
        params = SaParams()
        assert not metropolis_accept(1.0, 0.5, 5e-324, params, random.Random(0))
        assert metropolis_accept(1.0, 1.0, 5e-324, params, random.Random(0))


class TestSaParams:
    def test_default_schedule_has_99_levels(self):
        # ceil((1 - 0.01) / 0.01): the levels whose temperature stays above 0.01
        assert solvers.SA_LEVELS == 99
        assert solvers.SA_T_INIT - (solvers.SA_LEVELS - 1) * solvers.SA_ALPHA > 0.01

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
        # the schedule is fixed: none of its former fields is accepted
        field = next(iter(kwargs))
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
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
        # a former schedule field is refused by name, whatever its value
        with pytest.raises(TypeError, match=f"'{field}'"):
            SaParams(**{field: value})

    @pytest.mark.parametrize("seed", [True, 1.0, None, "1"], ids=repr)
    def test_seed_must_be_an_integer(self, seed):
        # each of these once seeded a walk: True, 1.0 and None ones other
        # than 1's, and "1" silently 1's own
        with pytest.raises(ValueError, match="rng_seed must be an integer"):
            SaParams(rng_seed=seed)

    def test_numpy_integer_seed_is_the_same_seed(self):
        scn = reference_scenario()
        runs = [sa_solve_slot(scn, 0, SaParams(rng_seed=s)) for s in (np.int64(1), 1)]
        assert runs[0] == runs[1]
        assert runs[0][2] == 35008


class TestSimulatedAnnealing:
    def test_deterministic_per_seed(self):
        scn = bench_scenario(6)
        a = sa_solve_slot(scn, 12, SaParams(rng_seed=42))
        b = sa_solve_slot(scn, 12, SaParams(rng_seed=42))
        assert a[0] == b[0]
        assert a[1] == b[1]
        assert a[2] == b[2]

    def test_seed_changes_the_walk(self):
        # SA_GOLDEN's two runs on reference slot 0: same best, other walks
        scn = reference_scenario()
        runs = [sa_solve_slot(scn, 0, SaParams(rng_seed=seed)) for seed in (0, 1)]
        assert [evaluations for _, _, evaluations in runs] == [34089, 35008]

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

    def test_subnormal_weights(self):
        # scaled by these weights, the late temperatures underflow to 0
        scn = build_tiny([[0.1] * 4], elec=3e-320, spectrum=0.0)
        weights = sbs_off_weights(scn, 0)
        assert 0.0 < max(weights) < 1e-320
        switch, revenue, evaluations = sa_solve_slot(scn, 0)
        assert is_feasible(scn, 0, switch).feasible
        assert revenue.total <= es_solve_slot(scn, 0)[1].total
        assert evaluations == oracles.expected_sa_evaluations(3)

    def test_debug_records_of_skipped_steps_and_empty_neighborhoods(self, caplog):
        # the records perfbench's tracer counts; reference slot 0 binds
        scn = reference_scenario()
        with caplog.at_level(logging.DEBUG, logger="hetlease.solvers"):
            _, _, evaluations = sa_solve_slot(scn, 0, SaParams())
        skipped = [r for r in caplog.records if "no feasible move" in r.msg]
        assert [r.args for r in skipped] == [(0, 1551)]
        steps = solvers.SA_LEVELS * 3 * solvers.SA_K_FACTOR * scn.num_sbs
        assert steps - evaluations == 1551
        empty = [r.args for r in caplog.records if "empty from state" in r.msg]
        assert empty and len(set(empty)) == len(empty)
        base, cap, contrib, _ = slot_problem(scn, 0)
        n = scn.num_sbs
        for kind, state in empty:
            is_off = [state >> j & 1 == 1 for j in range(n)] + [False]
            for a, b in solvers._neighborhood_pairs(kind, is_off, n):
                flips = ((1 << a) | (1 << b)) & ((1 << n) - 1)
                assert ascending_load(base, contrib, state ^ flips) > cap


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
# the fixed ones, before the annealer's step loop was restructured:
# temperatures 2.0 down by 0.03 over 67 levels of 4N steps, a shake flip
# probability of 0.35 and kT = 0.7 x temperature.  ``use_tuned_schedule``
# patches that schedule in, so these rows check that the walk reads every
# schedule constant, and its level's kT, when it runs.
def use_tuned_schedule(monkeypatch):
    schedule = dict(SA_T_INIT=2.0, SA_ALPHA=0.03, SA_LEVELS=67, SA_K_FACTOR=4,
                    SA_SHAKE_FLIP_PROB=0.35)
    for name, value in schedule.items():
        monkeypatch.setattr(solvers, name, value)
    monkeypatch.setattr(solvers, "_kt", lambda t: max(0.7 * t, math.ulp(0.0)))


SA_TUNED = [
    ("ref", 66, 0, 0xe, 4216, "0x1.0a4afe3752565p+2"),
    ("ref", 96, 1, 0x0, 682, "0x0.0p+0"),
    ("ref", 130, 0, 0x3f, 8864, "0x1.12ae45df9da0bp+2"),
    ("tight16", 100, 1, 0x1032, 4713, "0x1.9149c392b3f52p-2"),
]


# (scenario, slot, schedule, off mask, evaluations, skipped steps, draws)
# of ``_anneal`` on the slot's knapsack row with the stream of ``_slot_rng(0,
# slot)``, recorded from the annealer whose every step ran the value and
# accept block, flips or not, and tracked the macro load on every slot.
# On every b16 and b64 slot every mask fits; the draw count pins the walk
# there, where every run reaches all-off.  The reference slots bind.
SA_WALKS = [
    ("b16", 0, "default", 0xffff, 47520, 0, 111102),
    ("b16", 0, "tuned", 0xffff, 12864, 0, 30400),
    ("b16", 60, "default", 0xffff, 47520, 0, 111079),
    ("b16", 60, "tuned", 0xffff, 12864, 0, 30423),
    ("b16", 100, "default", 0xffff, 47520, 0, 111444),
    ("b16", 100, "tuned", 0xffff, 12864, 0, 30429),
    ("b64", 12, "default", (1 << 64) - 1, 190080, 0, 443855),
    ("b64", 12, "tuned", (1 << 64) - 1, 51456, 0, 121484),
    ("ref", 0, "default", 0x17f, 34089, 1551, 98615),
    ("ref", 66, "default", 0xe, 24731, 10909, 139731),
]


def anneal_counting_draws(row, slot):
    """``_anneal`` on ``row`` with the slot's random stream at seed 0, as
    (best off-mask, evaluations, skipped steps, draws read)."""
    return solvers._anneal(row, solvers._slot_draws(0, slot))


# Rows at the edge of "every mask fits" (all contributions non-negative
# and all-off's ascending sum within capacity), recorded like SA_WALKS on
# slot 0: (row, every mask fits, all-off fits, off mask, evaluations,
# skipped steps, draws)
EDGE_BASE, EDGE_CONTRIB = 0.1, [0.3, 0.2, 0.15, 0.1, 0.05]
EDGE_CAP = solvers._ascending_sum((1 << 5) - 1, EDGE_BASE, EDGE_CONTRIB)
EDGE_WEIGHTS = [0.5, 0.25, 0.75, 0.125, 0.375]
FREE_EDGE_ROWS = [
    # capacity equal to all-off's sum: all-off is the best
    pytest.param(SlotProblem(EDGE_BASE, EDGE_CAP, EDGE_CONTRIB, EDGE_WEIGHTS),
                 True, True, 0x1f, 14850, 0, 34811, id="at-cap"),
    # one ulp lower: every mask but all-off fits
    pytest.param(SlotProblem(EDGE_BASE, math.nextafter(EDGE_CAP, 0.0), EDGE_CONTRIB,
                             EDGE_WEIGHTS),
                 False, False, 0x17, 14773, 77, 36583, id="ulp-below"),
    # a negative contribution: all-off sums to 0.4, but {0} alone to 0.6; a
    # walk that took all-off's fit for every mask's would end at 0xd
    pytest.param(SlotProblem(0.0, 0.5, [0.6, -0.5, 0.2, 0.1], [2.0, -1.0, 0.25, 0.25]),
                 False, True, 0xf, 11880, 0, 34333, id="negative"),
]


def assert_free_walk_matches_the_bound_walk(monkeypatch, row, slot):
    """``_anneal`` on a row that passes ``_every_mask_fits`` takes the free
    walk; with the test patched to fail it takes the bound walk, which must
    give the same best mask, counts and number of draws."""
    assert solvers._every_mask_fits(row)
    free = anneal_counting_draws(row, slot)
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_every_mask_fits", lambda row: False)
        assert anneal_counting_draws(row, slot) == free


def random_free_rows(seed):
    """One seeded random row per N in 1..20 on which every mask fits:
    contributions in [0, 0.1) (all zero on every fifth row), weights of both
    signs with about a quarter of them zero, and a capacity at all-off's
    ascending sum on every other row, some room above it on the others."""
    rng = random.Random(seed)
    rows = []
    for n in range(1, 21):
        base = rng.random()
        contrib = [0.0 if n % 5 == 0 else 0.1 * rng.random() for _ in range(n)]
        weights = [rng.choice((0.0, 1.0, 1.0, 1.0)) * rng.uniform(-1.0, 1.0)
                   for _ in range(n)]
        cap = solvers._ascending_sum((1 << n) - 1, base, contrib)
        if n % 2:
            cap += rng.random()
        rows.append(SlotProblem(base, cap, contrib, weights))
    return rows


@pytest.mark.parametrize("seed", range(2))
def test_free_walk_matches_the_bound_walk_on_random_rows(monkeypatch, seed):
    rows = random_free_rows(seed)
    assert any(0.0 in row.weights for row in rows)
    assert any(min(row.weights) < 0.0 for row in rows)
    assert any(not any(row.contrib) for row in rows)
    for slot, row in enumerate(rows):
        assert_free_walk_matches_the_bound_walk(monkeypatch, row, slot)


def test_every_mask_fits_is_sufficient_not_necessary():
    rng = random.Random(31)
    verdicts = collections.Counter()
    for trial in range(300):
        n = rng.randint(1, 10)
        base = rng.uniform(-0.2, 0.5)
        # every other run of four rows may draw negative contributions
        low = -0.05 if trial // 4 % 2 else 0.0
        contrib = [rng.uniform(low, 0.1) for _ in range(n)]
        all_off = solvers._ascending_sum((1 << n) - 1, base, contrib)
        # one ulp below all-off's sum, at it, one ulp above it, or roomy
        cap = [math.nextafter(all_off, -1.0), all_off, math.nextafter(all_off, 2.0),
               all_off + 1.0][trial % 4]
        row = SlotProblem(base, cap, contrib, [1.0] * n)
        fits = all(
            solvers._ascending_sum(mask, base, contrib) <= cap for mask in range(1 << n)
        )
        verdict = solvers._every_mask_fits(row)
        if verdict:
            assert fits
        if min(contrib) >= 0.0:
            # without a negative term all-off is the heaviest mask
            assert verdict == fits
        verdicts[verdict, fits] += 1
    assert verdicts[True, True] and verdicts[False, False] and verdicts[False, True]
    # a negative term and room to spare: every mask fits, yet the test fails
    row = SlotProblem(0.0, 1.0, [0.3, -0.2, 0.4], [1.0, 1.0, 1.0])
    assert all(solvers._ascending_sum(mask, 0.0, row.contrib) <= 1.0 for mask in range(8))
    assert not solvers._every_mask_fits(row)


class TestAnnealerGolden:
    @pytest.fixture(scope="class")
    def scenarios(self):
        return {
            "ref": reference_scenario(),
            "b16": bench_scenario(16, 7),
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

    @staticmethod
    def solve_recording_kts(monkeypatch, scn, slot, seed, boltzmann_k):
        """``sa_solve_slot`` on ``scn``'s ``slot``, checking that every
        downhill decision gets its level's kT, ``boltzmann_k`` x
        temperature, bit for bit: a kT of other bits flips a decision only
        when a draw lands between the two thresholds.  ``_kt`` is wrapped to
        return a float that records itself whenever a gap is divided by it,
        which only the Metropolis rule does."""
        kts = []
        real = solvers._kt

        class RecordingKt(float):
            def __rtruediv__(self, gap):
                kts.append(float(self))
                return gap / float(self)

        monkeypatch.setattr(solvers, "_kt", lambda t: RecordingKt(real(t)))
        result = sa_solve_slot(scn, slot, SaParams(rng_seed=seed))

        weights = slot_problem(scn, slot).weights
        # summed left to right: the builtin sum() compensates from 3.12 on
        t_scale = functools.reduce(lambda acc, w: acc + abs(w), weights, 0.0)
        t_scale = t_scale / len(weights) or 1.0
        level_kts = {
            boltzmann_k * ((solvers.SA_T_INIT - level * solvers.SA_ALPHA) * t_scale)
            for level in range(solvers.SA_LEVELS)
        }
        assert kts and set(kts) <= level_kts
        return result

    @pytest.mark.parametrize("name,slot,seed,mask,evals,total",
                             [row for row in SA_GOLDEN if row[:3] == ("ref", 66, 0)])
    def test_every_downhill_decision_gets_its_level_kt(
        self, scenarios, monkeypatch, name, slot, seed, mask, evals, total
    ):
        switch, revenue, evaluations = self.solve_recording_kts(
            monkeypatch, scenarios[name], slot, seed, 1.0
        )
        assert switch.off_mask() == mask
        assert (revenue.total.hex(), evaluations) == (total, evals)

    @pytest.mark.parametrize("name,slot,seed,mask,evals,total", SA_TUNED)
    def test_matches_recorded_run_at_tuned_parameters(
        self, scenarios, monkeypatch, name, slot, seed, mask, evals, total
    ):
        use_tuned_schedule(monkeypatch)
        switch, revenue, evaluations = self.solve_recording_kts(
            monkeypatch, scenarios[name], slot, seed, 0.7
        )
        assert switch.off_mask() == mask
        assert (revenue.total.hex(), evaluations) == (total, evals)

    @pytest.mark.parametrize("name,slot,label,mask,evals,skipped,draws", SA_WALKS)
    def test_matches_recorded_walk(self, scenarios, monkeypatch, name, slot, label, mask,
                                   evals, skipped, draws):
        if label == "tuned":
            use_tuned_schedule(monkeypatch)
        row = slot_problem(scenarios[name], slot)
        assert anneal_counting_draws(row, slot) == (mask, evals, skipped, draws)

    @pytest.mark.parametrize(
        "row,every_fits,all_off_fits,mask,evals,skipped,draws", FREE_EDGE_ROWS
    )
    def test_matches_recorded_walk_at_the_edge_of_every_mask_fitting(
        self, row, every_fits, all_off_fits, mask, evals, skipped, draws
    ):
        fits = [
            solvers._ascending_sum(m, row.base, row.contrib) <= row.cap
            for m in range(1 << len(row.contrib))
        ]
        assert (all(fits), fits[-1]) == (every_fits, all_off_fits)
        assert anneal_counting_draws(row, 0) == (mask, evals, skipped, draws)
        assert fits[mask]

    @pytest.mark.parametrize("name,slot", [("b16", 0), ("b16", 60), ("b16", 100),
                                           ("b64", 12)])
    def test_free_walk_matches_the_bound_walk_on_bench_slots(
        self, scenarios, monkeypatch, name, slot
    ):
        row = slot_problem(scenarios[name], slot)
        assert_free_walk_matches_the_bound_walk(monkeypatch, row, slot)

    def test_kicked_state_is_judged_for_best_on_a_step_that_stays(self, monkeypatch):
        # {3} (2.5) is a trap: every move from it loses, and {0, 1, 2} (3.0)
        # is three flips away.  Every draw is 0.99, so the first step climbs
        # to {3} and every downhill move is rejected; the kick then lands on
        # {0, 1, 2}, where every move that flips a bit loses or overflows
        # and the swap neighbourhood holds only stays.  A stay is the only
        # step that judges the state the walk is in.
        monkeypatch.setattr(solvers, "exp", lambda x: 0.0)
        monkeypatch.setattr(solvers, "_kick", lambda mask, p, draws: 0b0111)
        row = SlotProblem(0.0, 1.0, [0.3, 0.3, 0.3, 1.0], [1.0, 1.0, 1.0, 2.5])
        # two levels of one iteration each
        monkeypatch.setattr(solvers, "SA_LEVELS", 2)
        monkeypatch.setattr(solvers, "SA_K_FACTOR", 1)
        best, _, _, _ = solvers._anneal(row, lambda k: np.full(k, 0.99))
        assert best == 0b0111

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


def day_digest(result):
    """sha256 of one ``<off mask, hex> <revenue.total.hex()>`` line per slot."""
    lines = "".join(
        f"{switch.off_mask():x} {revenue.total.hex()}\n"
        for switch, revenue in zip(result.per_slot_switch, result.per_slot_revenue)
    )
    return hashlib.sha256(lines.encode()).hexdigest()


# (evaluations, day_digest) of whole sa days at seed 0, recorded from the
# annealer whose free and bound walks ran two step loops.  Busy slots of
# both days bind, so both pin the bound walk's draws, skips and caches
# over a day, beside the single slots above.
SA_REFERENCE_DAY = (3812236, "14206159f7b9f047a8addc6975f70bc5ec6af6453eecf8fba1049ebdc3af8d4f")
SA_TIGHT16_DAY = (6506273, "1191482680c8ed3a7bee59ed5becc25a27e1d0d691e4ef7728fd010186882c6b")

# (evaluations, day_digest) of whole es days, recorded from the exhaustive
# search whose conservation test summed each fitting mask's loads with two
# fsum calls: the reference day, and reference_config("dynamic", "dt")
ES_REFERENCE_DAY = (589824, "14206159f7b9f047a8addc6975f70bc5ec6af6453eecf8fba1049ebdc3af8d4f")
ES_DYNAMIC_DT_DAY = (589824, "fe3092a91ff192b36b6f7425190b8f6faaf48d3a3dfc691ab150685fa16f840d")


class TestEsDays:
    def test_reference_day_matches_recorded_run(self, reference_es_day):
        result = reference_es_day[0]
        assert (result.evaluations, day_digest(result)) == ES_REFERENCE_DAY

    def test_dynamic_dt_day_matches_recorded_run(self):
        result = solve_day(build_scenario(reference_config("dynamic", "dt")), "es")
        assert (result.evaluations, day_digest(result)) == ES_DYNAMIC_DT_DAY


class TestAnnealerDays:
    def test_reference_day_matches_recorded_run(self, reference_sa_days):
        result = reference_sa_days[0][0]
        assert (result.evaluations, day_digest(result)) == SA_REFERENCE_DAY

    def test_tight_day_matches_recorded_run(self):
        result = solve_day(tight_bench_scenario(), "sa", SaParams(rng_seed=0))
        assert (result.evaluations, day_digest(result)) == SA_TIGHT16_DAY


@pytest.mark.parametrize("name,slot", [("b64", 12), ("tight128", 89), ("tight128", 92)])
def test_sa_slot_peaks_below_one_mebibyte(name, slot):
    # b64 slot 12 fits every mask, so the walk holds O(N) lists and one
    # block of draws.  Tight N = 128 slots 89 and 92 bind: their
    # neighborhoods run out of draws and are enumerated lazily, so only the
    # cached feasible moves sit beside the block.  Slot 92 enumerates far
    # more neighborhoods and peaks at about 0.8 MiB, where a listing of each
    # whole neighborhood (8,128 pairs at N = 128) took it to about 1.2 MiB.
    # A buffer of a whole slot's draws would take about 20 MB at N = 64.
    scn = bench_scenario(64, 7) if name == "b64" else tight_bench_scenario(128)
    tracemalloc.start()
    try:
        _, _, evaluations = sa_solve_slot(scn, slot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evaluations == (190080 if name == "b64" else 3840)
    assert peak < 1 << 20


class TestAnnealerMatchesOracle:
    def test_random_tiny_instances(self):
        instances = random_greedy_instances(140, seed=23)
        for i, scn in enumerate(instances):
            switch, revenue, _ = sa_solve_slot(scn, 0, SaParams(rng_seed=i))
            assert oracles.feasible(scn, 0, switch.gamma)
            assert revenue.total <= es_solve_slot(scn, 0)[1].total
        assert {scn.num_sbs for scn in instances} == set(range(7))

    def test_reaches_the_positive_weight_optimum_when_t_dwarfs_the_weights(self):
        # every mask fits, and the schedule's floor, 0.01, is over 16 times
        # the largest weight
        scn = bench_scenario(24, 7)
        for slot in (0, 66, 120):
            weights = slot_problem(scn, slot).weights
            assert max(map(abs, weights)) < 0.01 / 16
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


def assert_kernels_match_the_solvers(scn, row):
    """``_greedy`` and ``_anneal`` on ``row``, the raw knapsack row of
    ``scn``'s slot 0, give the public solvers' masks and evaluation counts."""
    assert slot_problem(scn, 0) == row
    util = utility_vector(scn, 0)
    for order in SortOrder:
        descending = order is SortOrder.DESCENDING
        ranked = sorted(range(len(util)), key=util.__getitem__, reverse=descending)
        switch, _, _ = sorting_solve_slot(scn, 0, order)
        assert solvers._greedy(row, ranked) == switch.off_mask()
    for seed in range(3):
        switch, _, evaluations = sa_solve_slot(scn, 0, SaParams(rng_seed=seed))
        best, count, _, _ = solvers._anneal(row, solvers._slot_draws(seed, 0))
        assert (best, count) == (switch.off_mask(), evaluations)


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
    row = SlotProblem(base, limit, loads, sbs_off_weights(scn, 0))
    assert_kernels_match_the_solvers(scn, row)


def test_guard_band_load_scale_is_summed_left_to_right():
    # 0.2 + 0.5 + 0.2 is 0.8999999999999999 left to right, but 0.9 with
    # compensation, as the builtin sum() adds from 3.12 on
    row = SlotProblem(0.7, 1.0, [0.2, 0.5, 0.2], [1.0, 1.0, 1.0])
    rel, band = solvers._guard_band(row, 1)
    assert rel == solvers.SA_GUARD_REL
    assert band.hex() == "0x1.b7cdfd9d7bdbbp-30"


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


def served_rows(seed):
    """One seeded load row (macro first) per n in 0..14, each load drawn
    from zero, a plain double, a power-of-two fraction, a tiny double down
    to 2^-1000 and a subnormal, so the common denominator reaches 2^1074."""
    rng = random.Random(seed)
    kinds = [
        lambda: 0.0,
        lambda: rng.random(),
        lambda: rng.randrange(1, 9) / 8,
        lambda: rng.random() * 2.0 ** -rng.randrange(1, 1001),
        lambda: rng.randrange(1, 1 << 20) * 2.0 ** -1074,
    ]
    return [[rng.choice(kinds)() for _ in range(n + 1)] for n in range(15)]


def demand_after(loads, mask):
    """The served load ``is_feasible`` tests, from the mask's off bits."""
    bits = hetlease.model._off_bits(mask, len(loads) - 1)
    return hetlease.feasibility._demand_after(loads, bits)


class TestEsServedTable:
    @pytest.mark.parametrize("block_bits", [2, 3, 12])
    @pytest.mark.parametrize("seed", [5, 17])
    def test_every_mask_is_the_canonical_served_load(self, monkeypatch, block_bits, seed):
        monkeypatch.setattr(solvers, "_ES_BLOCK_BITS", block_bits)
        rows = served_rows(seed)
        for loads in rows:
            served = solvers._served_loads(loads)
            masks = range(1 << (len(loads) - 1))
            assert [served(m).hex() for m in masks] == [
                demand_after(loads, m).hex() for m in masks
            ]
        drawn = [x for loads in rows for x in loads]
        assert 0.0 in drawn
        assert any(0.0 < x < sys.float_info.min for x in drawn)

    def test_memory_stays_at_a_few_blocks_at_the_cap(self):
        # one subnormal load puts every load over 2^1074, so each tabled
        # integer takes about 170 bytes
        rng = random.Random(3)
        loads = [rng.random() for _ in range(ES_MAX_SBS)] + [5 * 2.0 ** -1074]
        tracemalloc.start()
        try:
            served = solvers._served_loads(loads)
            head = [served(m) for m in range(3 << 12)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [x.hex() for x in head] == [
            demand_after(loads, m).hex() for m in range(3 << 12)
        ]
        assert peak < 4 << 20  # a full table of 2^24 such integers takes ~3 GB


@pytest.mark.parametrize("name,slot", [("ref", 0), ("ref", 66), ("tight14", 78)])
def test_es_tests_conservation_on_each_fitting_masks_served_load(monkeypatch, name, slot):
    # the conservation verdict never fails on a valid scenario, so no es
    # outcome would show a wrong served load; record what the test is given
    scn = reference_scenario() if name == "ref" else tight_bench_scenario(14, 0.56)
    n = scn.num_sbs
    calls = []
    real = solvers._conserved

    def recording(before, after):
        calls.append((before.hex(), after.hex()))
        return real(before, after)

    monkeypatch.setattr(solvers, "_conserved", recording)
    es_solve_slot(scn, slot)
    loads = scn._slot(slot).loads.tolist()
    offered = math.fsum(loads).hex()
    fitting = [
        m for m in range(1 << n)
        if offloaded_mbs_load(scn, slot, SwitchVector.from_off_mask(m, n))
        <= scn.mbs_capacity_limit
    ]
    assert 0 < len(fitting) < 1 << n
    assert calls == [(offered, demand_after(loads, m).hex()) for m in fitting]


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


def canonical_es(scn, slot):
    """Exhaustive search with every mask judged by the canonical functions:
    each one goes through ``is_feasible``, and each feasible one through
    ``total_revenue_slot``, ranked by the key ``es_solve_slot`` uses."""
    n = scn.num_sbs
    best = None
    for mask in range(1 << n):
        switch = SwitchVector.from_off_mask(mask, n)
        if not is_feasible(scn, slot, switch).feasible:
            continue
        revenue = total_revenue_slot(scn, slot, switch)
        key = (-revenue.total, mask.bit_count(), mask)
        if best is None or key < best[0]:
            best = key, switch, revenue
    return best[1], best[2], 1 << n


def es_record(switch, revenue, evaluations):
    return (
        switch.off_mask(),
        evaluations,
        revenue.energy.hex(),
        revenue.leasing.hex(),
        revenue.total.hex(),
    )


class TestEsMatchesCanonicalLoop:
    @staticmethod
    def check(scn, slot=0):
        got = es_record(*es_solve_slot(scn, slot))
        assert got == es_record(*canonical_es(scn, slot))
        return got[0]

    @pytest.mark.parametrize("seed", [23, 61])
    def test_random_tiny_instances(self, seed):
        instances = random_greedy_instances(200, seed=seed)
        for scn in instances:
            self.check(scn)
        assert 0 in {scn.num_sbs for scn in instances}

    @pytest.mark.parametrize("base,loads,boundary,near", GUARD_CASES)
    def test_mask_at_capacity_and_one_ulp_above(self, base, loads, boundary, near):
        limit = ascending_load(base, loads, boundary)
        over = ascending_load(base, loads, near)
        demand = [30 if near >> j & 1 else 1 for j in range(len(loads))]
        roomy = build_tiny([[base] + loads], demand=demand, limit=over)
        assert self.check(roomy) == near
        scn = build_tiny([[base] + loads], demand=demand, limit=limit)
        assert self.check(scn) != near

    def test_zero_prices_tie_break_to_all_on(self):
        scn = build_tiny(
            [[0.1, 0.1, 0.1], [0.2, 0.3, 0.0]], demand=[5, 7], elec=0.0, spectrum=0.0
        )
        assert [self.check(scn, t) for t in range(2)] == [0, 0]

    @pytest.mark.parametrize("slot", [0, 66, 84, 108])
    def test_capacity_scaled_offload_and_dynamic_pricing(self, slot):
        config = reference_config("dynamic", "dt")
        config["offload_mode"] = "capacity_scaled"
        self.check(build_scenario(config), slot)

    @pytest.mark.parametrize("slot", [78, 96])
    def test_tight_slots_of_the_block_path(self, slot):
        # N = 14 > _ES_BLOCK_BITS, so both tables are built in blocks
        self.check(tight_bench_scenario(14, 0.56), slot)


@pytest.mark.parametrize("name,slot", [("ref", 0), ("ref", 66), ("tight14", 78)])
def test_es_prices_each_fitting_mask_as_the_canonical_objective(monkeypatch, name, slot):
    # the winner alone goes through total_revenue_slot, so a mask priced a few
    # ulps off would only show in a near-tie; check every mask's figures
    scn = reference_scenario() if name == "ref" else tight_bench_scenario(14, 0.56)
    n = scn.num_sbs
    energies = []
    real = solvers._energy_revenue

    def recording(*args):
        energies.append(real(*args))
        return energies[-1]

    monkeypatch.setattr(solvers, "_energy_revenue", recording)
    es_solve_slot(scn, slot)
    switches = [SwitchVector.from_off_mask(m, n) for m in range(1 << n)]
    feasible = [sw for sw in switches if is_feasible(scn, slot, sw).feasible]
    assert [e.hex() for e in energies] == [
        energy_revenue_slot(scn, slot, sw).hex() for sw in feasible
    ]
    leases = list(solvers._ascending_sums(n, 0.0, scn._slot(slot).lease))
    assert [x.hex() for x in leases] == [
        leasing_revenue_slot(scn, slot, sw).hex() for sw in switches
    ]


def test_es_judges_masks_without_the_canonical_calls(monkeypatch):
    # only the winner goes through the canonical objective, and every other
    # mask's macro load is read from the table, not summed again
    calls = collections.Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(hetlease.feasibility, "offloaded_mbs_load")
    counting(hetlease.economics, "offloaded_mbs_load")
    counting(solvers, "is_feasible")
    counting(solvers, "total_revenue_slot")
    scn = reference_scenario()
    es_solve_slot(scn, 0)
    assert calls["offloaded_mbs_load"] <= 1
    assert calls["is_feasible"] == 0
    assert calls["total_revenue_slot"] == 1


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
    def test_order_by_value(self):
        scn = reference_scenario()
        for order, mask in ((SortOrder.ASCENDING, 3289), (SortOrder.DESCENDING, 831)):
            assert sorting_solve_slot(scn, 0, order)[0].off_mask() == mask
            assert sorting_solve_slot(scn, 0, order.value)[0].off_mask() == mask
        with pytest.raises(ValueError):
            sorting_solve_slot(scn, 0, "bogus")

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
        row = SlotProblem(base, limit, loads, sbs_off_weights(scn, 0))
        assert_kernels_match_the_solvers(scn, row)


SLOT_SOLVERS = {
    "es": es_solve_slot,
    "sa": sa_solve_slot,
    "atype": lambda scn, t: sorting_solve_slot(scn, t, SortOrder.ASCENDING),
    "dtype": lambda scn, t: sorting_solve_slot(scn, t, SortOrder.DESCENDING),
}


# the public per-slot readers that take a switch vector
SWITCH_READERS = {
    reader.__name__: reader
    for reader in (
        network_throughput,
        offloaded_mbs_load,
        is_feasible,
        hetnet_power_slot,
        energy_revenue_slot,
        leasing_revenue_slot,
        total_revenue_slot,
        power_saving_slot,
    )
}

# the public per-slot readers, which check the slot the way the solvers do
SLOT_READERS = {
    "utility_vector": utility_vector,
    "sbs_off_weights": sbs_off_weights,
    "all_on_power_slot": all_on_power_slot,
    **{
        name: lambda scn, t, reader=reader: reader(scn, t, scn.all_on())
        for name, reader in SWITCH_READERS.items()
    },
}


@pytest.mark.parametrize(
    "loads", [[[0.3], [0.2]], [[0.3, 0.2, 0.4], [0.2, 0.1, 0.1]]], ids=["N0", "N2"]
)
@pytest.mark.parametrize("past_end", [False, True])
@pytest.mark.parametrize("method", sorted(SLOT_SOLVERS) + sorted(SLOT_READERS))
def test_slot_outside_the_day_is_rejected(method, past_end, loads):
    # slot -1 must not alias the last slot, nor num_slots raise a bare lookup error
    scn = build_tiny(loads)
    slot = scn.num_slots if past_end else -1
    with pytest.raises(IndexError, match=re.escape(f"slot {slot} outside range(2)")):
        {**SLOT_SOLVERS, **SLOT_READERS}[method](scn, slot)


@pytest.mark.parametrize("n", [0, 2])
@pytest.mark.parametrize("reader", sorted(SWITCH_READERS))
def test_switch_of_another_size_is_rejected(reader, n):
    # a bit beyond the network must not be dropped by a walk over its SBSs
    scn = build_tiny([[0.3] + [0.1] * n])
    too_long = SwitchVector(1 << (n + 1), n + 2)
    with pytest.raises(ValueError, match=f"covers {n + 2} SBSs, scenario has {n}"):
        SWITCH_READERS[reader](scn, 0, too_long)


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
        assert result.daily == daily_breakdown(result.per_slot_revenue)
        assert result.runtime_ns > 0

    def test_unknown_method_rejected(self):
        scn = bench_scenario(4)
        with pytest.raises(ValueError):
            solve_day(scn, "downhill")

    @pytest.mark.parametrize("token", [5, None, b"sa", Method])
    def test_method_that_is_not_a_string_is_rejected(self, token):
        with pytest.raises(ValueError, match="unknown method"):
            Method.from_str(token)
        with pytest.raises(ValueError, match="unknown method"):
            solve_day(bench_scenario(4), token)

    @pytest.mark.parametrize(
        "token,method",
        [
            ("sa", Method.SA), ("es", Method.ES), ("atype", Method.A_TYPE),
            ("dtype", Method.D_TYPE), ("a-type", None), ("D", None), (" sa ", None),
        ],
    )
    def test_method_aliases(self, token, method):
        # each method has one spelling, its value; no alias, case or padding
        if method is None:
            with pytest.raises(ValueError, match="unknown method"):
                Method.from_str(token)
        else:
            assert Method.from_str(token) is method
