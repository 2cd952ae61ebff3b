import random

import pytest

from hetlease import (
    BaseStation,
    BsKind,
    InfeasibleSwitchError,
    SwitchVector,
    all_on_power_slot,
    build_scenario,
    daily_revenue,
    energy_revenue_slot,
    hetnet_power_slot,
    leasing_revenue_slot,
    power_saving_slot,
    reference_scenario,
    sbs_off_weights,
    slot_problem,
    total_revenue_slot,
)
from hetlease.economics import energy_factor

import oracles
from conftest import build_tiny, switch_off


@pytest.fixture
def idle_pair():
    # one macro + one micro, both idle
    return build_tiny([[0.0, 0.0]])


class TestPower:
    def test_all_on_idle_pair(self, idle_pair):
        # 130 + 56 by hand
        assert all_on_power_slot(idle_pair, 0) == pytest.approx(186.0, abs=1e-9)

    def test_sleeping_micro_drops_to_sleep_draw(self, idle_pair):
        # 130 + 39 by hand
        power = hetnet_power_slot(idle_pair, 0, switch_off(1, 1))
        assert power == pytest.approx(169.0, abs=1e-9)

    def test_idle_saving(self, idle_pair):
        assert power_saving_slot(idle_pair, 0, switch_off(1, 1)) == pytest.approx(
            17.0, abs=1e-9
        )

    def test_all_on_saves_nothing(self, idle_pair):
        assert power_saving_slot(idle_pair, 0, idle_pair.all_on()) == 0.0

    def test_saving_can_go_negative(self):
        # offloading a loaded micro onto the steep macro amplifier costs
        # more than the micro's own draw: (56 + 0.4*2.6*6.3) - 39 - 0.4*4.7*20
        scn = build_tiny([[0.0, 0.4]])
        saving = power_saving_slot(scn, 0, switch_off(1, 1))
        assert saving == pytest.approx(-14.048, abs=1e-9)
        assert energy_revenue_slot(scn, 0, switch_off(1, 1)) < 0

    def test_overloaded_switch_rejected(self):
        scn = build_tiny([[0.9, 0.2]])
        with pytest.raises(InfeasibleSwitchError):
            hetnet_power_slot(scn, 0, switch_off(1, 1))


class TestEnergyRevenue:
    def test_factor_converts_watt_slots_to_kwh(self):
        scn = build_tiny([[0.0, 0.0]], slot_min=10)
        assert energy_factor(scn) == pytest.approx(10 / 60000, rel=1e-12)

    def test_hand_priced_saving(self):
        # 600 W for a 10-minute slot is 0.1 kWh
        custom = (
            BaseStation(kind=BsKind.MACRO, p_o=130.0, zeta=4.7, p_tx=20.0,
                        rb_capacity=100),
            BaseStation(kind=BsKind.MICRO, p_o=800.0, zeta=2.6, p_tx=6.3,
                        rb_capacity=50, p_sleep=200.0),
        )
        scn = build_tiny([[0.0, 0.0]], stations=custom, elec=0.1293)
        assert power_saving_slot(scn, 0, switch_off(1, 1)) == pytest.approx(600.0)
        revenue = energy_revenue_slot(scn, 0, switch_off(1, 1))
        assert revenue == pytest.approx(0.01293, abs=1e-9)

    def test_zero_saving_zero_revenue(self, idle_pair):
        assert energy_revenue_slot(idle_pair, 0, idle_pair.all_on()) == 0.0


class TestLeasingRevenue:
    def test_single_tenant(self):
        scn = build_tiny([[0.0, 0.0]], demand=[10], spectrum=0.13)
        assert leasing_revenue_slot(scn, 0, switch_off(1, 1)) == pytest.approx(
            1.30, abs=1e-9
        )

    def test_two_tenants(self):
        scn = build_tiny([[0.0, 0.0, 0.0]], demand=[10, 5], spectrum=0.13)
        revenue = leasing_revenue_slot(scn, 0, switch_off(2, 1, 2))
        assert revenue == pytest.approx(1.95, abs=1e-9)

    def test_active_stations_lease_nothing(self):
        scn = build_tiny([[0.0, 0.0]], demand=[10])
        assert leasing_revenue_slot(scn, 0, scn.all_on()) == 0.0

    @pytest.mark.parametrize("n", [12, 64, 128])
    def test_terms_added_in_ascending_order(self, n):
        # exhaustive search tables these sums, so each must be the
        # ascending walk from 0.0, bit for bit
        kinds = ["rrh", "micro", "pico", "femto"]
        config = {
            "stations": [{"kind": "macro"}] + [{"kind": kinds[j % 4]} for j in range(n)],
            "traffic": {"seed": n, "scale": [0.5] + [1.0] * n},
            "pricing": {"policy": "dynamic"},
        }
        scn = build_scenario(config)
        assert (scn.sn_demand > 0).mean() > 0.5
        rng = random.Random(n)
        for _ in range(50):
            slot = rng.randrange(scn.num_slots)
            mask = rng.getrandbits(n)
            price = float(scn.spectrum[slot])
            walk = 0.0
            for j in range(1, n + 1):
                if mask >> (j - 1) & 1:
                    walk += scn.demand(j, slot) * price
            switch = SwitchVector.from_off_mask(mask, n)
            assert leasing_revenue_slot(scn, slot, switch).hex() == walk.hex()


class TestTotalRevenue:
    def test_all_on_is_zero(self, idle_pair):
        assert total_revenue_slot(idle_pair, 0, idle_pair.all_on()).total == 0.0

    def test_matches_naive_oracle_on_random_switches(self):
        scn = reference_scenario()
        rng = random.Random(7)
        n = scn.num_sbs
        checked = 0
        while checked < 1000:
            slot = rng.randrange(scn.num_slots)
            switch = SwitchVector.from_off_mask(rng.getrandbits(n), n)
            if not oracles.feasible(scn, slot, switch.gamma):
                continue
            got = total_revenue_slot(scn, slot, switch)
            assert got.energy == pytest.approx(
                oracles.energy_revenue(scn, slot, switch.gamma), abs=1e-9
            )
            assert got.leasing == pytest.approx(
                oracles.leasing_revenue(scn, slot, switch.gamma), abs=1e-9
            )
            assert got.total == got.energy + got.leasing
            checked += 1

    def test_closed_form_agrees_everywhere(self):
        scn = reference_scenario()
        rng = random.Random(11)
        n = scn.num_sbs
        checked = 0
        while checked < 1000:
            slot = rng.randrange(scn.num_slots)
            switch = SwitchVector.from_off_mask(rng.getrandbits(n), n)
            if not oracles.feasible(scn, slot, switch.gamma):
                continue
            direct = total_revenue_slot(scn, slot, switch).total
            weights = slot_problem(scn, slot).weights
            linear = sum(weights[j - 1] for j in switch.off_indices())
            assert linear == pytest.approx(direct, abs=1e-9)
            checked += 1

    def test_weights_are_additive_per_station(self):
        scn = reference_scenario()
        slot = 30
        weights = sbs_off_weights(scn, slot)
        assert len(weights) == scn.num_sbs
        for j in range(1, scn.num_sbs + 1):
            single = total_revenue_slot(scn, slot, switch_off(scn.num_sbs, j))
            assert weights[j - 1] == pytest.approx(single.total, abs=1e-9)


def test_daily_revenue_sums_slots():
    scn = build_tiny(
        [[0.2, 0.3, 0.1], [0.4, 0.2, 0.5], [0.1, 0.6, 0.2]],
        demand=[12, 4],
    )
    switches = [scn.all_on()] * scn.num_slots
    assert daily_revenue(scn, switches).total == 0.0

    off_one = [switch_off(2, 1)] * scn.num_slots
    day = daily_revenue(scn, off_one)
    by_hand = sum(oracles.total_revenue(scn, t, off_one[t].gamma) for t in range(scn.num_slots))
    assert day.total == pytest.approx(by_hand, abs=1e-9)
    assert day.total == day.energy + day.leasing
