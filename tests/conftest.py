"""Shared fixtures: hand-built mini scenarios and cached solver runs.

The session-scoped fixtures hold full-day solver results on the seeded
reference scenario.  They are expensive (tens of seconds), so both the
unit tests and the acceptance gate share one computation.
"""

import time

import numpy as np
import pytest

from hetlease import (
    BaseStation,
    BsKind,
    OffloadMode,
    SaParams,
    Scenario,
    SwitchVector,
    TimeGrid,
    default_parameter_set,
    reference_scenario,
    reference_variants,
    solve_day,
)


def build_tiny(
    loads,
    demand=None,
    *,
    stations=None,
    kinds=None,
    elec=0.1293,
    spectrum=0.13,
    mode=OffloadMode.DIRECT,
    slot_min=10,
    limit=1.0,
):
    """Scenario from a loads matrix, row per slot, column per station.

    Stations default to one macro plus micros; pass ``kinds`` to mix
    classes or ``stations`` for fully custom hardware.
    """
    loads = np.asarray(loads, dtype=float)
    if loads.ndim == 1:
        loads = loads[None, :]
    n_slots, n_stations = loads.shape
    if stations is None:
        params = default_parameter_set()
        if kinds is None:
            kinds = [BsKind.MACRO] + [BsKind.MICRO] * (n_stations - 1)
        stations = tuple(params[k] for k in kinds)
    if demand is None:
        demand = np.zeros((n_stations - 1, n_slots), dtype=np.int64)
    else:
        demand = np.asarray(demand, dtype=np.int64)
        if demand.ndim == 1:
            demand = demand[:, None].repeat(n_slots, axis=1)
    elec = np.full(n_slots, elec, dtype=float) if np.isscalar(elec) else np.asarray(elec)
    spectrum = (
        np.full(n_slots, spectrum, dtype=float)
        if np.isscalar(spectrum)
        else np.asarray(spectrum)
    )
    return Scenario(
        grid=TimeGrid(horizon_min=n_slots * slot_min, slot_min=slot_min),
        stations=stations,
        traffic=loads.T,
        sn_demand=demand,
        electricity=elec,
        spectrum=spectrum,
        offload_mode=mode,
        mbs_capacity_limit=limit,
    )


def switch_off(num_sbs: int, *off) -> SwitchVector:
    """Switch vector with the listed SBS indices (1-based) asleep."""
    return SwitchVector.from_off_indices(off, num_sbs)


@pytest.fixture(scope="session")
def reference():
    return reference_scenario()


@pytest.fixture(scope="session")
def reference_es_day(reference):
    """(result, wall seconds) of exhaustive search over the reference day."""
    start = time.perf_counter()
    result = solve_day(reference, "es")
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def reference_sa_days(reference):
    """(per-seed results, wall seconds) of annealing over five seeds."""
    start = time.perf_counter()
    results = {
        seed: solve_day(reference, "sa", SaParams(rng_seed=seed))
        for seed in range(5)
    }
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def variants():
    return reference_variants()


@pytest.fixture(scope="session")
def variant_sa_days(variants):
    return {
        name: solve_day(scn, "sa", SaParams(rng_seed=0))
        for name, scn in variants.items()
    }


@pytest.fixture(scope="session")
def dynamic_es_days(variants):
    return {
        name: solve_day(variants[name], "es")
        for name in ("dynamic-ndt", "dynamic-dt")
    }
