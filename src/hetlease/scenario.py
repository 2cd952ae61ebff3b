"""Scenario construction: traffic, secondary demand, prices, config.

A scenario can be synthesized from a seed (diurnal curves with
per-station phases) or ingested from a CSV of cell-grid activity
records.  Secondary-network demand is derived from the primary traffic
with a single occupancy factor, optionally time-shifted to chase the
cheapest spectrum price (delay-tolerant demand).  Everything is driven
by one plain-dict config that round-trips losslessly through YAML.

The config's ``pricing`` section picks a ``policy``.  ``fixed`` repeats
``fixed_electricity`` and ``fixed_spectrum`` in every slot.  ``dynamic``
multiplies the flat electricity price by one multiplier per slot and
lets the spectrum price follow aggregate traffic within
[``spectrum_m_min``, ``spectrum_m_max``] times its flat price.  The
multipliers come from ``electricity_profile``: null for the built-in
curve, an inline list, or the path of a YAML file holding a list.  Both
list forms get the same checks (numbers, finite, positive), and under
``fixed`` the profile must be all ones.
"""

from __future__ import annotations

import copy
import csv
import logging
import numbers
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np
import yaml

from .model import (
    BaseStation,
    BsKind,
    ConfigError,
    OffloadMode,
    PricingSeries,
    Scenario,
    TimeGrid,
    TrafficSeries,
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

def synth_traffic(
    seed: int, num_slots: int, num_stations: int, profile: str = "diurnal"
) -> np.ndarray:
    """Reproducible synthetic activity, one row per station.

    Each station gets a circular diurnal bump (afternoon peak, overnight
    trough) with its own seeded phase, width, floor, and multiplicative
    noise.  Values are raw non-negative activity, not yet normalized.
    Deterministic per (seed, station index).
    """
    if profile != "diurnal":
        raise ConfigError(f"unknown traffic profile {profile!r}")
    if num_slots < 1 or num_stations < 1:
        raise ConfigError("need at least one slot and one station")
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
    if not assignment:
        raise ConfigError("empty grid-to-station assignment")
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
            if activity < 0:
                raise CsvFormatError(f"line {lineno}: negative activity")
            station = assignment.get(grid_id)
            if station is None:
                continue  # grid not part of this scenario
            series[station, slot] += activity
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


def normalize_series(raw: np.ndarray) -> list[TrafficSeries]:
    """Scale each station's series by its own maximum, so the busiest
    observed slot maps to full utilization (load 1.0)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise ConfigError("expected one row of raw activity per station")
    if raw.min() < 0:
        raise ConfigError("raw activity cannot be negative")
    out = []
    for i in range(raw.shape[0]):
        peak = raw[i].max()
        if peak <= 0:
            raise ConfigError(f"station {i} has all-zero activity; cannot normalize")
        out.append(TrafficSeries(values=raw[i] / peak))
    return out


# --- secondary-network demand -------------------------------------------

def sn_demand_from_pn(
    traffic: Sequence[TrafficSeries],
    stations: Sequence[BaseStation],
    beta: float,
    num_slots: int | None = None,
) -> np.ndarray:
    """Derive integer RB demand as an occupancy fraction of each SBS.

    demand[j][t] = floor(beta * load * rb_capacity); with beta <= 1 the
    demand can never exceed the station's own block count.  The result
    has shape (number of SBSs, slots); ``num_slots`` gives the slot
    count when there is no SBS series to take it from.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError("beta must lie in [0, 1]")
    if len(traffic) != len(stations):
        raise ConfigError("one traffic series per SBS required")
    if not traffic:
        return np.zeros((0, num_slots or 0), dtype=np.int64)
    rows = []
    for series, bs in zip(traffic, stations):
        rows.append(np.floor(beta * series.values * bs.rb_capacity).astype(np.int64))
    return np.array(rows, dtype=np.int64)


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
    pn_traffic: Sequence[TrafficSeries],
    fixed_price: float,
    m_min: float = 0.5,
    m_max: float = 1.5,
) -> np.ndarray:
    """Per-slot spectrum price that follows aggregate network traffic.

    The aggregate load is mapped affinely onto [m_min, m_max] and the
    factor curve is rescaled to mean 1, so busy hours are expensive,
    quiet hours are cheap, and the daily average equals the flat price.
    """
    if fixed_price <= 0:
        raise ConfigError("fixed spectrum price must be positive")
    aggregate = np.sum([ts.values for ts in pn_traffic], axis=0)
    span = aggregate.max() - aggregate.min()
    if span == 0:
        logger.warning("aggregate traffic is constant; spectrum price degenerates to flat")
        factors = np.ones_like(aggregate)
    else:
        factors = m_min + (m_max - m_min) * (aggregate - aggregate.min()) / span
        factors = factors / factors.mean()
    return factors * fixed_price


def _build_pricing(
    pcfg: dict, traffic: Sequence[TrafficSeries], num_slots: int
) -> PricingSeries:
    """Per-slot prices from the validated ``pricing`` section (see the
    module docstring), checking each pricing input once."""
    electricity = float(pcfg["fixed_electricity"])
    spectrum = float(pcfg["fixed_spectrum"])
    m_min, m_max = float(pcfg["spectrum_m_min"]), float(pcfg["spectrum_m_max"])
    if electricity <= 0 or spectrum <= 0:
        raise ConfigError("flat prices must be positive")
    if not 0 < m_min <= m_max:
        raise ConfigError("need 0 < spectrum_m_min <= spectrum_m_max")

    profile, mult = pcfg["electricity_profile"], None
    if profile is not None:
        if isinstance(profile, str):
            name, entries = profile, _read_yaml(profile)
        else:
            name, entries = "pricing.electricity_profile", profile
        if not isinstance(entries, list) or not entries:
            raise ConfigError(f"{name}: expected a non-empty list of multipliers")
        for i, factor in enumerate(entries):
            _require_number(factor, f"{name}[{i}]")
        mult = np.asarray(entries, dtype=np.float64)
        if not np.all(np.isfinite(mult) & (mult > 0)):
            raise ConfigError(f"{name}: multipliers must be finite and positive")

    policy = pcfg["policy"]
    if policy == "fixed":
        if mult is not None and not np.all(mult == 1.0):
            raise ConfigError("fixed pricing requires all multipliers = 1")
        return PricingSeries(
            electricity=np.full(num_slots, electricity),
            spectrum=np.full(num_slots, spectrum),
        )
    if policy != "dynamic":
        raise ConfigError(f"unknown pricing policy {policy!r}")
    if mult is None:
        mult = default_electricity_multipliers(num_slots)
    elif mult.size != num_slots:
        raise ConfigError(f"multiplier curve has {mult.size} slots, grid has {num_slots}")
    return PricingSeries(
        electricity=mult * electricity,
        spectrum=dynamic_spectrum_price(traffic, spectrum, m_min, m_max),
    )


# --- config ---------------------------------------------------------------

_CONFIG_DEFAULTS: dict = {
    "grid": {"horizon_min": 1440, "slot_min": 10},
    "stations": [{"kind": "macro"}],
    "traffic": {
        "source": "synthetic",
        "seed": 0,
        "profile": "diurnal",
        "scale": None,          # optional per-station factors in (0, 1]
        "csv_path": None,
        "assignment": None,     # grid id -> station index, csv source only
    },
    "demand": {"beta": 0.7, "mode": "ndt"},
    "pricing": {
        "policy": "fixed",
        "fixed_electricity": FIXED_ELECTRICITY_PRICE,
        "fixed_spectrum": FIXED_SPECTRUM_PRICE,
        "electricity_profile": None,   # null -> built-in curve; path or inline list
        "spectrum_m_min": 0.5,
        "spectrum_m_max": 1.5,
    },
    "offload_mode": "direct",
    "mbs_capacity_limit": 1.0,
}

_STATION_OVERRIDES = {
    "p_o", "zeta", "p_tx", "p_sleep", "rb_capacity", "bandwidth_mhz",
}


def _merge_section(defaults: dict, given: dict, path: str) -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path}{key!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path}{key} must be a mapping")
            merged[key] = _merge_section(defaults[key], value, f"{path}{key}.")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _require_number(value, name: str, integer: bool = False) -> None:
    """Reject a non-number (or non-integer) config value, or one a double cannot hold."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a double") from None


def _check_number_types(config: dict) -> None:
    """Name the key of any numeric config value of the wrong type."""
    for key in ("horizon_min", "slot_min"):
        _require_number(config["grid"][key], f"grid.{key}", integer=True)
    tcfg = config["traffic"]
    _require_number(tcfg["seed"], "traffic.seed", integer=True)
    if tcfg["seed"] < 0:
        raise ConfigError(f"traffic.seed must be non-negative, got {tcfg['seed']!r}")
    if tcfg["scale"] is not None:
        if not isinstance(tcfg["scale"], list):
            raise ConfigError(f"traffic.scale must be a list, got {tcfg['scale']!r}")
        for i, factor in enumerate(tcfg["scale"]):
            _require_number(factor, f"traffic.scale[{i}]")
    if tcfg["assignment"] is not None:
        if not isinstance(tcfg["assignment"], dict):
            raise ConfigError(
                f"traffic.assignment must be a mapping, got {tcfg['assignment']!r}"
            )
        for grid, station in tcfg["assignment"].items():
            _require_number(grid, "traffic.assignment key", integer=True)
            _require_number(station, f"traffic.assignment[{grid}]", integer=True)
    _require_number(config["demand"]["beta"], "demand.beta")
    for key in ("fixed_electricity", "fixed_spectrum", "spectrum_m_min", "spectrum_m_max"):
        _require_number(config["pricing"][key], f"pricing.{key}")
    profile = config["pricing"]["electricity_profile"]
    if profile is not None and not isinstance(profile, (str, list)):
        raise ConfigError(
            f"pricing.electricity_profile must be a path or a list, got {profile!r}"
        )
    _require_number(config["mbs_capacity_limit"], "mbs_capacity_limit")
    for i, spec in enumerate(config["stations"]):
        for key in _STATION_OVERRIDES.intersection(spec):
            if key == "p_sleep" and spec[key] is None:
                continue  # the macro's own template has no sleep power
            _require_number(spec[key], f"station {i}: {key}", integer=key == "rb_capacity")


def validate_config(config: dict) -> dict:
    """Merge a partial config over the defaults and reject unknown keys."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a mapping")
    merged = _merge_section(_CONFIG_DEFAULTS, config, "")
    if not isinstance(merged["stations"], list) or not merged["stations"]:
        raise ConfigError("config needs a non-empty station list")
    for i, spec in enumerate(merged["stations"]):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"station {i} needs a 'kind'")
        unknown = set(spec) - _STATION_OVERRIDES - {"kind"}
        if unknown:
            raise ConfigError(f"station {i}: unknown fields {sorted(unknown)}")
    _check_number_types(merged)
    return merged


def load_config(path) -> dict:
    """Load and validate a YAML config document."""
    data = _read_yaml(path)
    return validate_config(data if data is not None else {})


def _build_stations(spec_list: list[dict]) -> tuple[BaseStation, ...]:
    templates = default_parameter_set()
    stations = []
    for i, spec in enumerate(spec_list):
        try:
            kind = BsKind(spec["kind"])
        except ValueError:
            raise ConfigError(f"station {i}: unknown kind {spec['kind']!r}") from None
        template = templates[kind]
        overrides = {k: v for k, v in spec.items() if k != "kind"}
        # a spec without overrides shares its kind's template object
        stations.append(replace(template, **overrides) if overrides else template)
    return tuple(stations)


def build_scenario(config: dict) -> Scenario:
    """Construct a Scenario from a config dict (see validate_config).

    The validated config is stored on the scenario for lossless
    round-tripping back to YAML.
    """
    config = validate_config(config)
    grid = TimeGrid(**config["grid"])
    stations = _build_stations(config["stations"])
    num_stations = len(stations)

    tcfg = config["traffic"]
    if tcfg["source"] == "synthetic":
        raw = synth_traffic(
            int(tcfg["seed"]), grid.num_slots, num_stations, tcfg["profile"]
        )
    elif tcfg["source"] == "csv":
        if not tcfg["csv_path"] or not tcfg["assignment"]:
            raise ConfigError("csv traffic needs csv_path and assignment")
        assignment = {int(g): int(s) for g, s in tcfg["assignment"].items()}
        raw = ingest_activity_csv(
            tcfg["csv_path"], assignment, num_stations, grid.num_slots
        )
    else:
        raise ConfigError(f"unknown traffic source {tcfg['source']!r}")

    traffic = normalize_series(raw)
    scale = tcfg["scale"]
    if scale is not None:
        if len(scale) != num_stations:
            raise ConfigError("traffic.scale needs one factor per station")
        scaled = []
        for ts, factor in zip(traffic, scale):
            if not 0 < factor <= 1:
                raise ConfigError("traffic scale factors must lie in (0, 1]")
            scaled.append(TrafficSeries(values=ts.values * factor))
        traffic = scaled

    pricing = _build_pricing(config["pricing"], traffic, grid.num_slots)

    dcfg = config["demand"]
    sn_demand = sn_demand_from_pn(
        traffic[1:], stations[1:], float(dcfg["beta"]), grid.num_slots
    )
    if dcfg["mode"] == "dt":
        sn_demand = dt_shift(sn_demand, pricing.spectrum)
    elif dcfg["mode"] != "ndt":
        raise ConfigError(f"unknown demand mode {dcfg['mode']!r}")

    return Scenario(
        grid=grid,
        stations=stations,
        traffic=tuple(traffic),
        sn_demand=sn_demand,
        pricing=pricing,
        offload_mode=OffloadMode(config["offload_mode"]),
        mbs_capacity_limit=float(config["mbs_capacity_limit"]),
        config=config,
    )


def scenario_to_config(scenario: Scenario) -> dict:
    """Recover the config a scenario was built from (lossless round-trip)."""
    if scenario.config is None:
        raise ConfigError("scenario was built without a config")
    return copy.deepcopy(scenario.config)


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
    small-cell class, synthetic diurnal traffic, beta = 0.7)."""
    return validate_config(
        {
            "stations": [{"kind": "macro"}]
            + [{"kind": kind} for kind in _REFERENCE_SBS_KINDS],
            "traffic": {"seed": seed},
            "demand": {"beta": 0.7, "mode": demand_mode},
            "pricing": {"policy": pricing},
        }
    )


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
    do full-price work on every visited state.
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
    return validate_config(
        {
            "stations": [{"kind": "macro"}] + [{"kind": kind} for kind in kinds],
            "traffic": {"seed": seed, "scale": scale},
            "offload_mode": "capacity_scaled",
        }
    )


def bench_scenario(n_sbs: int, seed: int = 7) -> Scenario:
    return build_scenario(bench_config(n_sbs, seed))
