import random
import sys
from fractions import Fraction

import pytest

from hetlease import (
    OffloadMode,
    SwitchVector,
    is_feasible,
    offloaded_mbs_load,
    reference_scenario,
    slot_problem,
)
from hetlease.feasibility import CONSERVATION_TOL, _ascending_sum

import oracles
from conftest import build_tiny, switch_off


def test_all_on_leaves_macro_load_unchanged():
    scn = build_tiny([[0.3, 0.25]])
    assert offloaded_mbs_load(scn, 0, scn.all_on()) == scn.load(0, 0)


def test_direct_offload_adds_raw_load():
    scn = build_tiny([[0.3, 0.25]])
    assert offloaded_mbs_load(scn, 0, switch_off(1, 1)) == pytest.approx(0.55, abs=1e-12)


def test_capacity_scaled_offload_weights_by_blocks():
    # micro has 50 RBs against the macro's 100, so its load counts half
    scn = build_tiny([[0.3, 0.25]], mode=OffloadMode.CAPACITY_SCALED)
    assert slot_problem(scn, 0).contrib[0] == pytest.approx(0.125, abs=1e-12)
    assert offloaded_mbs_load(scn, 0, switch_off(1, 1)) == pytest.approx(0.425, abs=1e-12)


def test_overload_is_infeasible():
    scn = build_tiny([[0.9, 0.2]])
    report = is_feasible(scn, 0, switch_off(1, 1))
    assert not report.feasible
    assert report.mbs_load_after == pytest.approx(1.1, abs=1e-12)


def test_boundary_load_is_feasible():
    scn = build_tiny([[0.8, 0.2]])
    report = is_feasible(scn, 0, switch_off(1, 1))
    assert report.feasible
    assert report.mbs_load_after <= scn.mbs_capacity_limit


def test_all_on_always_feasible_and_conserving():
    scn = reference_scenario()
    for slot in range(scn.num_slots):
        report = is_feasible(scn, slot, scn.all_on())
        assert report.feasible
        assert report.conserved


def test_contribution_index_bounds():
    # one contribution per SBS, none for the macro
    scn = build_tiny([[0.1, 0.1]])
    contrib = slot_problem(scn, 0).contrib
    assert len(contrib) == scn.num_sbs
    with pytest.raises(IndexError):
        contrib[scn.num_sbs]


@pytest.mark.parametrize("mode", [OffloadMode.DIRECT, OffloadMode.CAPACITY_SCALED])
def test_matches_naive_oracle_on_random_switches(mode):
    scn = reference_scenario() if mode is OffloadMode.DIRECT else build_tiny(
        [[0.4, 0.3, 0.5, 0.2], [0.7, 0.9, 0.1, 0.6]], mode=mode
    )
    rng = random.Random(42)
    n = scn.num_sbs
    for _ in range(300):
        slot = rng.randrange(scn.num_slots)
        mask = rng.getrandbits(n)
        switch = SwitchVector.from_off_mask(mask, n)
        gamma = switch.gamma
        want_load = oracles.mbs_load_after(scn, slot, gamma)
        got = is_feasible(scn, slot, switch)
        assert got.mbs_load_after == pytest.approx(want_load, abs=1e-12)
        assert got.feasible == oracles.feasible(scn, slot, gamma)
        assert abs(got.demand_before - got.demand_after) <= CONSERVATION_TOL or not got.conserved


def test_report_carries_capacity_limit():
    scn = build_tiny([[0.5, 0.5]], limit=0.8)
    report = is_feasible(scn, 0, switch_off(1, 1))
    assert report.capacity_limit == 0.8
    assert not report.feasible


def random_load_row(rng, n):
    """A seeded (base, contributions) row: most contributions in [0, 0.1),
    the rest zero, subnormal or negative, with at least one zero and one
    subnormal."""
    def share():
        kind = rng.random()
        if kind < 0.6:
            return rng.uniform(0.0, 0.1)
        if kind < 0.75:
            return 0.0
        if kind < 0.9:
            return rng.randint(1, 1 << 52) * 5e-324
        return -rng.uniform(0.0, 0.05)

    contrib = [share() for _ in range(n)]
    zero, subnormal = rng.sample(range(n), 2)
    contrib[zero], contrib[subnormal] = 0.0, rng.randint(1, 1 << 52) * 5e-324
    return rng.uniform(0.0, 0.6), contrib


@pytest.mark.parametrize("n", [12, 16, 64, 128])
def test_summed_loads_stay_within_one_rounding_per_addition(n):
    # the premise of the solvers' guard band: a load that made k additions
    # is within k x eps x (|base| + sum of |contributions|) of the exact
    # sum, whether it is the ascending sum or a load tracked by signed
    # per-cell deltas from one, as the annealer's is
    rng = random.Random(n)
    eps = Fraction(sys.float_info.epsilon)
    for _ in range(4):
        base, contrib = random_load_row(rng, n)
        assert 0.0 in contrib and any(0.0 < abs(c) < 2.3e-308 for c in contrib)
        scale = abs(Fraction(base)) + sum(abs(Fraction(c)) for c in contrib)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(30)]
        for mask in masks:
            load = _ascending_sum(mask, base, contrib)
            additions = mask.bit_count()
            exact = oracles.exact_load(base, contrib, mask)
            assert abs(Fraction(load) - exact) <= additions * eps * scale
            # a walk of 3n one- and two-cell flips, each added as deltas
            for _ in range(3 * n):
                for j in rng.sample(range(n), rng.randint(1, 2)):
                    load += -contrib[j] if mask >> j & 1 else contrib[j]
                    mask ^= 1 << j
                    additions += 1
            exact = oracles.exact_load(base, contrib, mask)
            assert abs(Fraction(load) - exact) <= additions * eps * scale
