"""Scenario construction: traffic, secondary demand, prices, config.

A scenario can be synthesized from a seed (diurnal curves with
per-station phases) or ingested from a CSV of cell-grid activity
records.  Secondary-network demand is derived from the primary traffic
with a single occupancy factor, optionally time-shifted to chase the
cheapest spectrum price (delay-tolerant demand).  Everything is driven
by one plain-dict config that round-trips losslessly through YAML.

The ``pricing`` section picks a ``policy``: ``fixed`` repeats the flat
prices in every slot; ``dynamic`` scales the flat electricity price by
one multiplier per slot (``electricity_profile``) and lets the spectrum
price follow aggregate traffic.  ``_SCHEMA`` lists every config key.
"""

from __future__ import annotations

import copy
import csv
import logging
import math
import numbers
from dataclasses import replace
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import yaml

from .model import (
    BaseStation,
    BsKind,
    ConfigError,
    OffloadMode,
    RB_CAPACITY_MAX,
    Scenario,
    TimeGrid,
    default_parameter_set,
)

logger = logging.getLogger(__name__)


class CsvFormatError(ValueError):
    """Raised for malformed activity CSV content, with the line number."""


# libyaml's parser when PyYAML was built with it; same documents, same data
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read_yaml(path):
    """Parse one YAML document with the safe loader; a syntax error or a
    file that is not UTF-8 becomes a ConfigError that names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_YAML_LOADER)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            if mark is None:
                detail = " ".join(str(exc).split())
            else:
                detail = f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
            raise ConfigError(f"{path}: invalid YAML: {detail}") from None


# --- traffic -------------------------------------------------------------

def synth_traffic(seed: int, num_slots: int, num_stations: int) -> np.ndarray:
    """Reproducible synthetic activity, one row per station.

    Each station gets a circular diurnal bump (afternoon peak, overnight
    trough) with its own seeded phase, width, floor, and multiplicative
    noise.  Values are raw non-negative activity, not yet normalized.
    Deterministic per (seed, station index).
    """
    hours = (np.arange(num_slots) + 0.5) * (24.0 / num_slots)
    series = np.empty((num_stations, num_slots), dtype=np.float64)
    for i in range(num_stations):
        rng = np.random.default_rng([seed, i])
        peak_hour = rng.uniform(13.0, 17.0)
        sharpness = rng.uniform(2.2, 3.4)
        overnight_floor = rng.uniform(0.08, 0.16)
        bump = np.exp(
            sharpness * (np.cos((hours - peak_hour) * (2.0 * np.pi / 24.0)) - 1.0)
        )
        noise = rng.lognormal(mean=0.0, sigma=0.06, size=num_slots)
        series[i] = (overnight_floor + bump) * noise
    return series


def ingest_activity_csv(
    path, assignment: Mapping[int, int], num_stations: int, num_slots: int
) -> np.ndarray:
    """Read grid-cell activity records and fold them into station series.

    ``assignment`` maps grid ids to station indices; a station with
    several grids (typically the macro, which aggregates two) gets their
    sum.  Slots a grid never reports are left at 0 and logged.
    """
    stations_covered = set(assignment.values())
    for station in stations_covered:
        if not 0 <= station < num_stations:
            raise ConfigError(f"assignment maps to unknown station {station}")
    missing_stations = set(range(num_stations)) - stations_covered
    if missing_stations:
        raise ConfigError(f"no grid assigned to stations {sorted(missing_stations)}")

    series = np.zeros((num_stations, num_slots), dtype=np.float64)
    seen: dict[int, set[int]] = {grid: set() for grid in assignment}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"grid_id", "slot_index", "internet_activity"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise CsvFormatError(
                f"header must contain {sorted(required)}, got {reader.fieldnames}"
            )
        for lineno, row in enumerate(reader, start=2):
            try:
                grid_id = int(row["grid_id"])
                slot = int(row["slot_index"])
                activity = float(row["internet_activity"])
            except (TypeError, ValueError) as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            if not 0 <= slot < num_slots:
                raise CsvFormatError(
                    f"line {lineno}: slot_index {slot} outside [0, {num_slots})"
                )
            if not math.isfinite(activity):
                raise CsvFormatError(f"line {lineno}: activity {activity!r} is not finite")
            if activity < 0:
                raise CsvFormatError(f"line {lineno}: negative activity")
            station = assignment.get(grid_id)
            if station is None:
                continue  # grid not part of this scenario
            # a float sum: inf on overflow, where a numpy scalar would warn
            total = float(series[station, slot]) + activity
            if total == math.inf:
                raise CsvFormatError(f"line {lineno}: station {station}'s slot {slot} overflows")
            series[station, slot] = total
            seen[grid_id].add(slot)

    for grid, slots in seen.items():
        if not slots:
            raise ConfigError(f"assigned grid {grid} never appears in {path}")
        if len(slots) < num_slots:
            logger.warning(
                "grid %d: %d of %d slots missing, filled with 0",
                grid,
                num_slots - len(slots),
                num_slots,
            )
    return series


def normalize_series(
    raw: np.ndarray, scale: Sequence[float] | None = None
) -> np.ndarray:
    """Normalized (stations x slots) load matrix from raw activity rows.

    Each station's row is divided by its own maximum, so the busiest
    observed slot maps to full utilization (load 1.0), then multiplied by
    the station's factor in ``scale`` (``traffic.scale``: one per station,
    in (0, 1]; none means 1): ``(raw / peaks[:, None]) * factors[:, None]``.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise ConfigError("expected one row of raw activity per station")
    if not np.isfinite(raw).all():
        raise ConfigError("raw activity contains non-finite values")
    if raw.min() < 0:
        raise ConfigError("raw activity cannot be negative")
    factors = np.ones(len(raw)) if scale is None else np.asarray(scale, dtype=np.float64)
    if len(factors) != len(raw):
        raise ConfigError("traffic.scale needs one factor per station")
    peaks = raw.max(axis=1)
    idle = np.flatnonzero(peaks <= 0)
    if idle.size:
        raise ConfigError(f"station {idle[0]} has all-zero activity; cannot normalize")
    if not np.all((factors > 0) & (factors <= 1)):
        raise ConfigError("traffic scale factors must lie in (0, 1]")
    return (raw / peaks[:, None]) * factors[:, None]


# --- secondary-network demand -------------------------------------------

def sn_demand_from_pn(
    traffic: np.ndarray, stations: Sequence[BaseStation], beta: float
) -> np.ndarray:
    """Derive integer RB demand as an occupancy fraction of each SBS.

    ``traffic`` holds one load row per SBS, in the order of ``stations``;
    the result has the same (SBSs x slots) shape, with
    demand[j][t] = floor(beta * traffic[j][t] * rb_capacity[j]).  With
    beta <= 1 the demand can never exceed the station's own block count.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError("beta must lie in [0, 1]")
    traffic = np.asarray(traffic, dtype=np.float64)
    if traffic.ndim != 2 or len(traffic) != len(stations):
        raise ConfigError("one traffic series per SBS required")
    caps = np.array([bs.rb_capacity for bs in stations], dtype=np.float64)
    return np.floor(beta * traffic * caps[:, None]).astype(np.int64)


def dt_shift(sn_demand: np.ndarray, spectrum_price: np.ndarray) -> np.ndarray:
    """Time-shift delay-tolerant demand toward the cheapest spectrum.

    One global circular shift moves the slot of the aggregate demand
    maximum onto the slot of the price minimum (earliest slot on ties).
    Per-station totals are preserved exactly.
    """
    sn_demand = np.asarray(sn_demand)
    spectrum_price = np.asarray(spectrum_price)
    if sn_demand.shape[1] != spectrum_price.shape[0]:
        raise ConfigError("demand and price series lengths differ")
    aggregate = sn_demand.sum(axis=0)
    demand_peak = int(np.argmax(aggregate))
    cheapest = int(np.argmin(spectrum_price))
    return np.roll(sn_demand, cheapest - demand_peak, axis=1)


# --- pricing --------------------------------------------------------------

FIXED_ELECTRICITY_PRICE = 0.1293  # currency per kWh
FIXED_SPECTRUM_PRICE = 0.13      # currency per resource block


def default_electricity_multipliers(num_slots: int) -> np.ndarray:
    """Stock daily tariff shape: overnight dip, morning shoulder, evening
    peak; rescaled to mean 1 so flat and dynamic tariffs cost the same
    on average."""
    hours = (np.arange(num_slots) + 0.5) * (24.0 / num_slots)
    curve = (
        0.85
        + 0.30 * np.exp(-(((hours - 8.0) / 2.2) ** 2))
        + 0.55 * np.exp(-(((hours - 18.5) / 2.8) ** 2))
        - 0.30 * np.exp(-(((hours - 3.5) / 2.6) ** 2))
    )
    return curve / curve.mean()


def dynamic_spectrum_price(
    pn_traffic: np.ndarray,
    fixed_price: float,
    m_min: float = 0.5,
    m_max: float = 1.5,
) -> np.ndarray:
    """Per-slot spectrum price that follows aggregate network traffic.

    ``pn_traffic`` is the (stations x slots) load matrix.  Its column
    sums, added in station order, give the aggregate load, which is mapped
    affinely onto [m_min, m_max]; the factor curve is rescaled to mean 1,
    so busy hours are expensive, quiet hours are cheap, and the daily
    average equals the flat price.
    """
    if fixed_price <= 0:
        raise ConfigError("fixed spectrum price must be positive")
    # a C-ordered matrix fixes numpy's summation order: row by row
    aggregate = np.ascontiguousarray(pn_traffic, dtype=np.float64).sum(axis=0)
    span = aggregate.max() - aggregate.min()
    if span == 0:
        logger.warning("aggregate traffic is constant; spectrum price degenerates to flat")
        factors = np.ones_like(aggregate)
    else:
        factors = m_min + (m_max - m_min) * (aggregate - aggregate.min()) / span
        factors = factors / factors.mean()
    return factors * fixed_price


def _build_pricing(
    pcfg: dict, traffic: np.ndarray, num_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot (electricity, spectrum) prices from the validated ``pricing``
    section; a profile file gets the checks of an inline profile here."""
    electricity, spectrum = float(pcfg["fixed_electricity"]), float(pcfg["fixed_spectrum"])
    mult = pcfg["electricity_profile"]
    if isinstance(mult, str):
        path, mult = mult, _read_yaml(mult)
        _check(mult, path, _SCHEMA["pricing.electricity_profile"]._replace(types=(list,)))
        _check_profile(mult, path, pcfg["policy"], num_slots)
    if pcfg["policy"] == "fixed":
        return np.full(num_slots, electricity), np.full(num_slots, spectrum)
    mult = default_electricity_multipliers(num_slots) if mult is None else np.asarray(mult)
    m_min, m_max = float(pcfg["spectrum_m_min"]), float(pcfg["spectrum_m_max"])
    return mult * electricity, dynamic_spectrum_price(traffic, spectrum, m_min, m_max)


def _check_profile(mult: list, name: str, policy: str, num_slots: int) -> None:
    """Check a profile ``name`` (key path or file) beyond its entries: it is
    non-empty, all ones under ``fixed``, one multiplier per slot otherwise."""
    if not mult:
        raise ConfigError(f"{name} must be a non-empty list of multipliers, got []")
    shaped = [i for i, m in enumerate(mult) if m != 1]
    if policy == "fixed" and shaped:
        raise ConfigError(f"pricing.policy fixed requires all multipliers = 1, "
                          f"got {name}[{shaped[0]}] = {mult[shaped[0]]!r}")
    if policy == "dynamic" and len(mult) != num_slots:
        raise ConfigError(f"pricing.policy dynamic needs one multiplier per slot: "
                          f"{name} has {len(mult)} slots, grid has {num_slots}")


# --- config ---------------------------------------------------------------

class _Key(NamedTuple):
    """One row of the config schema.  ``types`` may hold None (null), int,
    float, str (a path, unless there are ``choices``), list (of floats) or
    dict (of ints to ints); every number lies in the ``range`` interval."""

    default: object
    types: tuple
    range: str = ""
    choices: tuple = ()


# the intervals a config number may have to lie in: test, and wording
_INTERVALS = {
    "(0, inf)": (lambda x: 0 < x, "be positive"),
    "[0, inf)": (lambda x: 0 <= x, "be non-negative"),
    "(0, 1]": (lambda x: 0 < x <= 1, "lie in (0, 1]"),
    "[0, 1]": (lambda x: 0 <= x <= 1, "lie in [0, 1]"),
    "(0, 2^53]": (lambda x: 0 < x <= RB_CAPACITY_MAX, "lie in (0, 2^53]"),
}

# one row per leaf key path, in the order validate_config writes them
_SCHEMA: dict[str, _Key] = {
    "grid.horizon_min": _Key(1440, (int,), "(0, inf)"),
    "grid.slot_min": _Key(10, (int,), "(0, inf)"),
    "stations": _Key([{"kind": "macro"}], (list,)),  # each entry: _STATION_KEYS
    "traffic.source": _Key("synthetic", (str,), choices=("synthetic", "csv")),
    "traffic.seed": _Key(0, (int,), "[0, inf)"),
    "traffic.scale": _Key(None, (None, list), "(0, 1]"),  # one factor per station
    "traffic.csv_path": _Key(None, (None, str)),
    "traffic.assignment": _Key(None, (None, dict)),  # grid id -> station index
    "demand.beta": _Key(0.7, (float,), "[0, 1]"),
    "demand.mode": _Key("ndt", (str,), choices=("ndt", "dt")),
    "pricing.policy": _Key("fixed", (str,), choices=("fixed", "dynamic")),
    "pricing.fixed_electricity": _Key(FIXED_ELECTRICITY_PRICE, (float,), "(0, inf)"),
    "pricing.fixed_spectrum": _Key(FIXED_SPECTRUM_PRICE, (float,), "(0, inf)"),
    "pricing.electricity_profile": _Key(None, (None, str, list), "(0, inf)"),
    "pricing.spectrum_m_min": _Key(0.5, (float,), "(0, inf)"),
    "pricing.spectrum_m_max": _Key(1.5, (float,), "(0, inf)"),
    "offload_mode": _Key("direct", (str,), choices=tuple(m.value for m in OffloadMode)),
    "mbs_capacity_limit": _Key(1.0, (float,), "(0, 1]"),
}

# the rows of each stations[i]: its kind, which is required, and any
# BaseStation field, which overrides the kind's template station
_STATION_KEYS: dict[str, _Key] = {
    "kind": _Key(None, (str,), choices=tuple(k.value for k in BsKind)),
    "p_o": _Key(None, (float,), "(0, inf)"),
    "zeta": _Key(None, (float,), "(0, inf)"),
    "p_tx": _Key(None, (float,), "(0, inf)"),
    "rb_capacity": _Key(None, (int,), "(0, 2^53]"),
    "p_sleep": _Key(None, (None, float), "[0, inf)"),  # null for the macro only
}

_TOP_LEVEL = {path.partition(".")[0] for path in _SCHEMA}
# each kind's template station, by its config name; frozen, so scenarios share them
_TEMPLATES = {kind.value: station for kind, station in default_parameter_set().items()}
_NOUNS = {int: "an integer", float: "a number", str: "a path", list: "a list", dict: "a mapping"}


def _check_number(value, path: str, kind: type, interval: str = "") -> None:
    """Reject a ``value`` at ``path`` that is not a finite ``kind`` (int or
    float) in ``interval``."""
    kinds = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{path} must be {_NOUNS[kind]}, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        bits = int(value).bit_length()
        raise ConfigError(f"{path} is too large for a double, got a {bits}-bit integer") from None
    if not math.isfinite(x):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    within, wording = _INTERVALS.get(interval, (None, ""))
    # an integer is tested exactly, not at its nearest double
    if within and not within(value if kind is int else x):
        raise ConfigError(f"{path} must {wording}, got {value!r}")


def _check(value, path: str, key: _Key) -> None:
    """Reject a ``value`` at ``path`` that does not fit its schema row ``key``."""
    types = key.types
    if key.choices and value not in key.choices:
        allowed = ", ".join(map(repr, key.choices))
        raise ConfigError(f"unknown {path} {value!r}, expected one of {allowed}")
    if value is None and None in types or isinstance(value, str) and str in types:
        return
    if isinstance(value, list) and list in types:
        for i, entry in enumerate(value):
            _check_number(entry, f"{path}[{i}]", float, key.range)
    elif isinstance(value, dict) and dict in types:
        for grid, station in value.items():
            _check_number(grid, f"{path} key", int)
            _check_number(station, f"{path}[{grid}]", int)
    elif int in types or float in types:
        _check_number(value, path, int if int in types else float, key.range)
    else:
        nouns = " or ".join(_NOUNS[t] for t in types if t is not None)
        raise ConfigError(f"{path} must be {nouns}, got {value!r}")


def _check_stations(stations) -> None:
    """Check each ``stations[i]`` against ``_STATION_KEYS``, then that only
    station 0 is the macro cell and only small cells sleep, below ``p_o``."""
    if not isinstance(stations, list) or not stations:
        raise ConfigError(f"stations must be a non-empty list, got {stations!r}")
    for i, spec in enumerate(stations):
        path = f"stations[{i}]"
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"{path} must be a mapping with a kind, got {spec!r}")
        for key, value in spec.items():
            if key not in _STATION_KEYS:
                raise ConfigError(f"unknown config key {path}.{key}")
            _check(value, f"{path}.{key}", _STATION_KEYS[key])
        if (spec["kind"] == "macro") != (i == 0):
            want = "'macro'" if i == 0 else "a small-cell kind"
            raise ConfigError(f"{path}.kind must be {want}, got {spec['kind']!r}")
        template = _TEMPLATES[spec["kind"]]
        p_o, p_sleep = spec.get("p_o", template.p_o), spec.get("p_sleep", template.p_sleep)
        if (p_sleep is None) != (i == 0) or p_sleep is not None and not p_sleep < p_o:
            raise ConfigError(f"{path}.p_sleep must be null for the macro cell and below "
                              f"{path}.p_o otherwise, got p_sleep={p_sleep!r}, p_o={p_o!r}")


def validate_config(config: dict) -> dict:
    """Merge a partial config over the defaults of ``_SCHEMA`` and check
    every leaf against its row, then the rules that span keys, once.  An
    error is one line that names the key path and the offending value."""
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a mapping, got {config!r}")
    for name, value in config.items():
        if name not in _TOP_LEVEL:
            raise ConfigError(f"unknown config key {name}")
        if name in _SCHEMA:
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a mapping, got {value!r}")
        for key in value:
            if f"{name}.{key}" not in _SCHEMA:
                raise ConfigError(f"unknown config key {name}.{key}")
    merged: dict = {}
    for path, key in _SCHEMA.items():
        section, _, leaf = path.rpartition(".")
        source = config.get(section, {}) if section else config
        value = copy.deepcopy(source.get(leaf, key.default))
        if path != "stations":
            _check(value, path, key)
        (merged.setdefault(section, {}) if section else merged)[leaf] = value

    stations, grid = merged["stations"], merged["grid"]
    traffic, pricing = merged["traffic"], merged["pricing"]
    _check_stations(stations)
    horizon, slot = grid["horizon_min"], grid["slot_min"]
    if horizon % slot:
        raise ConfigError(f"grid.horizon_min {horizon!r} is not a multiple of "
                          f"grid.slot_min {slot!r}")
    scale = traffic["scale"]
    if scale is not None and len(scale) != len(stations):
        raise ConfigError(f"traffic.scale needs one factor per station, got {len(scale)} "
                          f"for {len(stations)} stations")
    # normalize_series maps each station's peak to its scale factor exactly
    peak = 1.0 if scale is None else scale[0]
    limit = merged["mbs_capacity_limit"]
    if peak > limit:
        raise ConfigError(f"mbs_capacity_limit {limit!r} is below the macro's peak load "
                          f"{peak!r}, which is traffic.scale[0] (1 when traffic.scale is null)")
    if traffic["source"] == "csv":
        assignment = traffic["assignment"]
        if not (traffic["csv_path"] and assignment):
            raise ConfigError(f"traffic.source csv needs traffic.csv_path and "
                              f"traffic.assignment, got {traffic['csv_path']!r} and "
                              f"{assignment!r}")
        # before any CSV is opened: every station gets a grid, and no other
        for grid, station in assignment.items():
            if not 0 <= station < len(stations):
                count = ("is 1 station" if len(stations) == 1
                         else f"are {len(stations)} stations")
                raise ConfigError(f"traffic.assignment[{grid}] names station {station}, "
                                  f"but there {count}")
        missing = sorted(set(range(len(stations))) - set(assignment.values()))
        if missing:
            raise ConfigError(f"traffic.assignment assigns no grid to stations {missing}")
    m_min, m_max = pricing["spectrum_m_min"], pricing["spectrum_m_max"]
    if m_min > m_max:
        raise ConfigError(f"pricing.spectrum_m_min {m_min!r} exceeds pricing.spectrum_m_max "
                          f"{m_max!r}")
    if isinstance(pricing["electricity_profile"], list):
        _check_profile(pricing["electricity_profile"], "pricing.electricity_profile",
                       pricing["policy"], horizon // slot)
    return merged


def load_config(path) -> dict:
    """Load and validate a YAML config document."""
    data = _read_yaml(path)
    return validate_config(data if data is not None else {})


def build_scenario(config: dict) -> Scenario:
    """Construct a Scenario from a config dict (see validate_config); the
    validated config is stored on it for lossless round-tripping to YAML."""
    config = validate_config(config)
    grid = TimeGrid(**config["grid"])
    stations = []
    for spec in config["stations"]:
        overrides = {k: v for k, v in spec.items() if k != "kind"}
        template = _TEMPLATES[spec["kind"]]
        # a spec without overrides shares its kind's template object
        stations.append(replace(template, **overrides) if overrides else template)

    tcfg, num_slots = config["traffic"], grid.num_slots
    if tcfg["source"] == "csv":
        raw = ingest_activity_csv(tcfg["csv_path"], tcfg["assignment"], len(stations), num_slots)
    else:
        raw = synth_traffic(int(tcfg["seed"]), num_slots, len(stations))
    traffic = normalize_series(raw, tcfg["scale"])
    electricity, spectrum = _build_pricing(config["pricing"], traffic, num_slots)

    dcfg = config["demand"]
    sn_demand = sn_demand_from_pn(traffic[1:], stations[1:], float(dcfg["beta"]))
    if dcfg["mode"] == "dt":
        sn_demand = dt_shift(sn_demand, spectrum)

    return Scenario(
        grid, tuple(stations), traffic, sn_demand, electricity, spectrum,
        offload_mode=OffloadMode(config["offload_mode"]),
        mbs_capacity_limit=float(config["mbs_capacity_limit"]),
        config=config,
    )


def save_config(config: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)


# --- stock scenarios -------------------------------------------------------

REFERENCE_SEED = 2024

_REFERENCE_SBS_KINDS = ["rrh"] * 3 + ["micro"] * 3 + ["pico"] * 3 + ["femto"] * 3


def reference_config(
    pricing: str = "fixed", demand_mode: str = "ndt", seed: int = REFERENCE_SEED
) -> dict:
    """Config of the stock 12-SBS evaluation scenario (3 stations of each
    small-cell class, synthetic diurnal traffic, beta = 0.7), as a partial
    document that ``build_scenario`` validates."""
    return {
        "stations": [{"kind": "macro"}]
        + [{"kind": kind} for kind in _REFERENCE_SBS_KINDS],
        "traffic": {"seed": seed},
        "demand": {"beta": 0.7, "mode": demand_mode},
        "pricing": {"policy": pricing},
    }


def reference_scenario(
    pricing: str = "fixed", demand_mode: str = "ndt", seed: int = REFERENCE_SEED
) -> Scenario:
    return build_scenario(reference_config(pricing, demand_mode, seed))


def reference_variants(seed: int = REFERENCE_SEED) -> dict[str, Scenario]:
    """The four pricing/demand combinations sharing one traffic draw."""
    return {
        f"{pricing}-{mode}": reference_scenario(pricing, mode, seed)
        for pricing in ("fixed", "dynamic")
        for mode in ("ndt", "dt")
    }


_BENCH_CYCLE = ["rrh", "micro", "pico", "femto"]


def bench_config(n_sbs: int, seed: int = 7) -> dict:
    """Config of the runtime-benchmark scenario with ``n_sbs`` small cells.

    Kinds cycle rrh -> micro -> pico -> femto.  Traffic is scaled so
    that even the all-off vector stays within the macro cell's capacity
    (macro peak 0.55, summed offload contributions below 0.44 in
    capacity-scaled mode): every one of the 2^N switch vectors is then
    feasible, which makes evaluation counts exact and lets both solvers
    do full-price work on every visited state.  Like ``reference_config``
    it returns a partial document that ``build_scenario`` validates.
    """
    if n_sbs < 1:
        raise ConfigError("benchmark needs at least one SBS")
    kinds = [_BENCH_CYCLE[i % len(_BENCH_CYCLE)] for i in range(n_sbs)]
    templates = default_parameter_set()
    mbs_rb = templates[BsKind.MACRO].rb_capacity
    scale = [0.55] + [
        0.44 * mbs_rb / (templates[BsKind(kind)].rb_capacity * n_sbs)
        for kind in kinds
    ]
    # tiny networks could get scale > 1; clamp keeps loads normalized
    scale = [min(s, 1.0) for s in scale]
    return {
        "stations": [{"kind": "macro"}] + [{"kind": kind} for kind in kinds],
        "traffic": {"seed": seed, "scale": scale},
        "offload_mode": "capacity_scaled",
    }


def bench_scenario(n_sbs: int, seed: int = 7) -> Scenario:
    return build_scenario(bench_config(n_sbs, seed))
