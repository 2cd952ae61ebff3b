"""Core domain types for cell switching and spectrum leasing.

A network is one always-on macro base station plus N small base stations
(SBSs).  Each station carries a normalized traffic load per time slot.
Switching an SBS off hands its traffic to the macro cell and frees the
SBS spectrum for leasing to a secondary network.  The types here carry
the static parameters, the per-slot series, and the on/off decision
vector that the solvers search over.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # feasibility imports this module
    from .feasibility import OffloadReport

# watt-minutes per kilowatt-hour: 1000 W x 60 min
WATT_MIN_PER_KWH = 60000.0


class ConfigError(ValueError):
    """Raised when a scenario or solver configuration is inconsistent."""


class EnumerationCapError(ValueError):
    """Raised when exhaustive search is requested beyond the hard size cap."""


class InfeasibleSwitchError(ValueError):
    """Raised when a metric is requested for a switch vector that violates QoS."""


class BsKind(enum.Enum):
    """Base station classes, largest cell first."""

    MACRO = "macro"
    RRH = "rrh"
    MICRO = "micro"
    PICO = "pico"
    FEMTO = "femto"


@dataclass(frozen=True)
class BaseStation:
    """Static hardware parameters of one base station.

    Power draw at load tau is ``p_o + tau * zeta * p_tx`` (watts); a
    switched-off station draws ``p_sleep``.  ``rb_capacity`` is the
    number of spectrum resource blocks the station owns per slot.
    """

    kind: BsKind
    p_o: float           # idle circuit power, W
    zeta: float          # load-dependence slope of the amplifier
    p_tx: float          # max transmit power, W
    rb_capacity: int     # resource blocks per slot
    bandwidth_mhz: float
    p_sleep: float | None = None   # sleep-mode draw, W; None only for the macro

    def __post_init__(self):
        for name in ("p_o", "zeta", "p_tx", "bandwidth_mhz"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(
                    f"{self.kind.value} station: {name} must be positive and "
                    f"finite, got {value!r}"
                )
        if self.rb_capacity <= 0:
            raise ConfigError(f"rb_capacity must be positive: {self}")
        if self.p_sleep is not None and not 0 <= self.p_sleep < self.p_o:
            raise ConfigError(
                f"p_sleep must satisfy 0 <= p_sleep < p_o: {self}"
            )
        if self.kind is not BsKind.MACRO and self.p_sleep is None:
            raise ConfigError(f"{self.kind.value} station needs a sleep power")

    def power(self, load: float) -> float:
        """Active power draw in watts at a normalized load in [0, 1]."""
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load {load} outside [0, 1]")
        return self.p_o + load * self.zeta * self.p_tx


def default_parameter_set() -> dict[BsKind, BaseStation]:
    """Template stations for all five classes with stock LTE-grade numbers."""
    return {
        BsKind.MACRO: BaseStation(
            kind=BsKind.MACRO, p_o=130.0, zeta=4.7, p_tx=20.0,
            rb_capacity=100, bandwidth_mhz=20.0, p_sleep=None,
        ),
        BsKind.RRH: BaseStation(
            kind=BsKind.RRH, p_o=84.0, zeta=2.8, p_tx=20.0,
            rb_capacity=75, bandwidth_mhz=15.0, p_sleep=56.0,
        ),
        BsKind.MICRO: BaseStation(
            kind=BsKind.MICRO, p_o=56.0, zeta=2.6, p_tx=6.3,
            rb_capacity=50, bandwidth_mhz=10.0, p_sleep=39.0,
        ),
        BsKind.PICO: BaseStation(
            kind=BsKind.PICO, p_o=6.8, zeta=4.0, p_tx=0.13,
            rb_capacity=25, bandwidth_mhz=5.0, p_sleep=4.3,
        ),
        BsKind.FEMTO: BaseStation(
            kind=BsKind.FEMTO, p_o=4.8, zeta=8.0, p_tx=0.05,
            rb_capacity=15, bandwidth_mhz=3.0, p_sleep=2.9,
        ),
    }


@dataclass(frozen=True)
class TimeGrid:
    """Uniform slotting of the optimization horizon."""

    horizon_min: int = 1440
    slot_min: int = 10

    def __post_init__(self):
        if self.slot_min <= 0 or self.horizon_min <= 0:
            raise ConfigError("horizon and slot length must be positive")
        if self.horizon_min % self.slot_min != 0:
            raise ConfigError(
                f"horizon {self.horizon_min} not divisible by slot {self.slot_min}"
            )

    @property
    def num_slots(self) -> int:
        return self.horizon_min // self.slot_min

    def slot_hours(self) -> np.ndarray:
        """Centre of each slot expressed in hours since midnight."""
        return (np.arange(self.num_slots) + 0.5) * (self.slot_min / 60.0)


def _readonly_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigError(f"{name} must be one-dimensional")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TrafficSeries:
    """Normalized per-slot load of one station; every value in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = _readonly_float_array(self.values, "traffic series")
        if arr.size == 0:
            raise ConfigError("traffic series is empty")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("traffic series contains non-finite values")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ConfigError(
                f"traffic values outside [0, 1]: min {arr.min()}, max {arr.max()}"
            )
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def __getitem__(self, slot: int) -> float:
        return float(self.values[slot])


@dataclass(frozen=True, eq=False)
class PricingSeries:
    """Per-slot prices: electricity in currency/kWh, spectrum in currency/RB."""

    electricity: np.ndarray
    spectrum: np.ndarray

    def __post_init__(self):
        elec = _readonly_float_array(self.electricity, "electricity price")
        spec = _readonly_float_array(self.spectrum, "spectrum price")
        if elec.size != spec.size:
            raise ConfigError(
                f"price series lengths differ: {elec.size} vs {spec.size}"
            )
        if elec.size == 0:
            raise ConfigError("price series is empty")
        if not (np.all(np.isfinite(elec)) and np.all(np.isfinite(spec))):
            raise ConfigError("price series contains non-finite values")
        if elec.min() < 0.0 or spec.min() < 0.0:
            raise ConfigError("prices must be non-negative")
        object.__setattr__(self, "electricity", elec)
        object.__setattr__(self, "spectrum", spec)

    def __len__(self) -> int:
        return int(self.electricity.size)


class OffloadMode(enum.Enum):
    """How an off SBS's load converts into macro-cell load.

    DIRECT adds the normalized SBS load unchanged.  CAPACITY_SCALED
    weights it by the ratio of SBS to macro resource blocks, modelling
    the macro cell absorbing the same traffic volume with its larger
    spectrum.
    """

    DIRECT = "direct"
    CAPACITY_SCALED = "capacity_scaled"


@dataclass(frozen=True)
class SwitchVector:
    """On/off state per station; index 0 is the macro and is always on."""

    gamma: tuple[bool, ...]

    def __post_init__(self):
        gamma = tuple(map(bool, self.gamma))
        if not gamma:
            raise ConfigError("switch vector needs at least the macro entry")
        if not gamma[0]:
            raise ConfigError("macro station (index 0) cannot be switched off")
        object.__setattr__(self, "gamma", gamma)

    @property
    def num_sbs(self) -> int:
        return len(self.gamma) - 1

    def is_on(self, index: int) -> bool:
        return self.gamma[index]

    def off_indices(self) -> tuple[int, ...]:
        """Station indices (1-based positions in the vector) that are off."""
        return tuple(i for i, g in enumerate(self.gamma) if not g)

    def off_mask(self) -> int:
        """Bitmask over SBSs: bit j set means SBS j+1 is off."""
        mask = 0
        for j in range(1, len(self.gamma)):
            if not self.gamma[j]:
                mask |= 1 << (j - 1)
        return mask

    @classmethod
    def all_on(cls, num_sbs: int) -> "SwitchVector":
        return cls(gamma=(True,) * (num_sbs + 1))

    @classmethod
    def from_off_mask(cls, mask: int, num_sbs: int) -> "SwitchVector":
        """Build a vector from an SBS off-bitmask (bit j -> SBS j+1 off)."""
        if mask < 0 or mask >= (1 << num_sbs):
            raise ValueError(f"mask {mask} out of range for {num_sbs} SBSs")
        gamma = [True] + [not (mask >> j) & 1 for j in range(num_sbs)]
        return cls(gamma=tuple(gamma))

    @classmethod
    def from_off_indices(cls, off: Iterable[int], num_sbs: int) -> "SwitchVector":
        off = set(off)
        if 0 in off:
            raise ConfigError("macro station (index 0) cannot be switched off")
        if not off <= set(range(1, num_sbs + 1)):
            raise ValueError(
                f"off indices {sorted(off)} out of range for {num_sbs} SBSs"
            )
        gamma = [True] + [j not in off for j in range(1, num_sbs + 1)]
        return cls(gamma=tuple(gamma))

    def bitstring(self) -> str:
        """Readable form, macro first: '1' on, '0' off."""
        return "".join("1" if g else "0" for g in self.gamma)


@dataclass(frozen=True)
class RevenueBreakdown:
    """Revenue of one slot (or one day) split into its two streams.

    ``energy`` is the electricity cost avoided by switching (can be
    negative when offloading raises total draw), ``leasing`` is income
    from renting off-cell spectrum, and ``total`` is their exact sum.
    """

    energy: float
    leasing: float
    total: float

    def __post_init__(self):
        if self.total != self.energy + self.leasing:
            raise ValueError(
                "total must equal energy + leasing exactly; "
                "construct via RevenueBreakdown.of()"
            )

    @classmethod
    def of(cls, energy: float, leasing: float) -> "RevenueBreakdown":
        return cls(energy=energy, leasing=leasing, total=energy + leasing)

    @classmethod
    def zero(cls) -> "RevenueBreakdown":
        return cls.of(0.0, 0.0)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full optimization instance: stations, per-slot series, prices.

    ``stations[0]`` is the macro cell; ``stations[1:]`` are SBSs.
    ``traffic[i]`` is station i's normalized load series.  ``sn_demand``
    has one row per SBS (row j-1 for station j) holding the integer
    number of resource blocks the secondary network requests per slot.
    """

    grid: TimeGrid
    stations: tuple[BaseStation, ...]
    traffic: tuple[TrafficSeries, ...]
    sn_demand: np.ndarray
    pricing: PricingSeries
    offload_mode: OffloadMode = OffloadMode.DIRECT
    mbs_capacity_limit: float = 1.0
    config: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.stations:
            raise ConfigError("scenario needs at least the macro station")
        if self.stations[0].kind is not BsKind.MACRO:
            raise ConfigError("station 0 must be the macro cell")
        for bs in self.stations[1:]:
            if bs.kind is BsKind.MACRO:
                raise ConfigError("only station 0 may be a macro cell")
        if len(self.traffic) != len(self.stations):
            raise ConfigError(
                f"{len(self.stations)} stations but {len(self.traffic)} traffic series"
            )
        n_slots = self.grid.num_slots
        for i, series in enumerate(self.traffic):
            if len(series) != n_slots:
                raise ConfigError(
                    f"traffic series {i} has {len(series)} slots, grid has {n_slots}"
                )
        demand = np.asarray(self.sn_demand, dtype=np.int64).copy()
        if demand.shape != (self.num_sbs, n_slots):
            raise ConfigError(
                f"sn_demand shape {demand.shape} != ({self.num_sbs}, {n_slots})"
            )
        if demand.min(initial=0) < 0:
            raise ConfigError("secondary-network demand cannot be negative")
        peaks = demand.max(axis=1, initial=0)
        caps = np.array([bs.rb_capacity for bs in self.stations[1:]], dtype=np.int64)
        over = np.flatnonzero(peaks > caps)
        if over.size:
            j = over[0]
            raise ConfigError(
                f"SBS {j + 1} demand peaks at {peaks[j]} RBs, capacity {caps[j]}"
            )
        demand.setflags(write=False)
        object.__setattr__(self, "sn_demand", demand)
        if len(self.pricing) != n_slots:
            raise ConfigError(
                f"pricing has {len(self.pricing)} slots, grid has {n_slots}"
            )
        if not 0.0 < self.mbs_capacity_limit <= 1.0:
            raise ConfigError("macro capacity limit must lie in (0, 1]")
        # the all-on network must be feasible in every slot
        mbs_peak = self.traffic[0].values.max()
        if mbs_peak > self.mbs_capacity_limit:
            raise ConfigError(
                f"macro load peaks at {mbs_peak}, above the "
                f"capacity limit {self.mbs_capacity_limit}"
            )
        # Per-slot tables, one row per slot, built with whole-array
        # operations in the arithmetic order of their element-wise
        # definitions (``BaseStation.power``, the all-on total in ascending
        # station order, each sleeping SBS's revenue weight as
        # ``economics.sbs_off_weights`` states it), so every entry is the
        # same double.  Rows are array('d'), a quarter of the memory of a
        # tuple of floats: the canonical checks read single entries
        # thousands of times per slot, and a numpy scalar read costs about
        # twice an array('d') read.
        stations = self.stations
        loads = np.stack([ts.values for ts in self.traffic], axis=1)
        contrib = loads[:, 1:]
        if self.offload_mode is OffloadMode.CAPACITY_SCALED:
            # macro-load increment per sleeping SBS, in macro resource blocks
            mbs_rb = stations[0].rb_capacity
            contrib = contrib * np.array(
                [bs.rb_capacity / mbs_rb for bs in stations[1:]]
            )
        p_o = np.array([bs.p_o for bs in stations])
        zeta = np.array([bs.zeta for bs in stations])
        p_tx = np.array([bs.p_tx for bs in stations])
        active_power = p_o + loads * zeta * p_tx
        allon = active_power[:, 0].copy()
        for i in range(1, len(stations)):
            allon += active_power[:, i]
        prices = self.pricing
        sleep = np.array([bs.p_sleep for bs in stations[1:]], dtype=np.float64)
        factor = self.grid.slot_min / WATT_MIN_PER_KWH
        weights = (
            active_power[:, 1:] - sleep - contrib * zeta[0] * p_tx[0]
        ) * factor * prices.electricity[:, None] + demand.T * prices.spectrum[:, None]

        def rows(table: np.ndarray) -> tuple[array, ...]:
            # one conversion, then a slice per row: half the cost of
            # converting each row on its own
            flat, width = array("d", table.tobytes()), table.shape[1]
            return tuple([flat[i * width:(i + 1) * width] for i in range(len(table))])

        object.__setattr__(self, "_loads_by_slot", rows(loads))
        object.__setattr__(
            self, "_demands_by_slot", tuple(map(tuple, demand.T.tolist()))
        )
        object.__setattr__(self, "_contrib_by_slot", rows(contrib))
        object.__setattr__(self, "_active_power_by_slot", rows(active_power))
        object.__setattr__(self, "_allon_power_by_slot", tuple(allon.tolist()))
        object.__setattr__(self, "_weights_by_slot", rows(weights))
        object.__setattr__(self, "_sleep_powers", tuple(bs.p_sleep for bs in stations))
        object.__setattr__(self, "_elec_by_slot", tuple(prices.electricity.tolist()))
        object.__setattr__(self, "_spectrum_by_slot", tuple(prices.spectrum.tolist()))

    @property
    def num_sbs(self) -> int:
        return len(self.stations) - 1

    @property
    def num_slots(self) -> int:
        return self.grid.num_slots

    def load(self, station: int, slot: int) -> float:
        """Normalized load of one station in one slot."""
        return self._loads_by_slot[slot][station]

    def demand(self, station: int, slot: int) -> int:
        """Secondary-network RB demand at an SBS (station index >= 1)."""
        if station < 1:
            raise IndexError("secondary demand is defined only for SBSs")
        return self._demands_by_slot[slot][station - 1]

    def all_on(self) -> SwitchVector:
        return SwitchVector.all_on(self.num_sbs)


@dataclass
class SolverResult:
    """Outcome of running one solver over every slot of a scenario."""

    method: str
    per_slot_switch: list[SwitchVector]
    per_slot_revenue: list[RevenueBreakdown]
    per_slot_report: list[OffloadReport]  # solve_day's feasibility check
    daily: RevenueBreakdown
    evaluations: int          # objective evaluations summed over all slots
    runtime_ns: int

    def daily_check(self, tol: float = 1e-9) -> bool:
        """Daily fields must match the per-slot sums to within ``tol``."""
        energy = math.fsum(r.energy for r in self.per_slot_revenue)
        leasing = math.fsum(r.leasing for r in self.per_slot_revenue)
        total = math.fsum(r.total for r in self.per_slot_revenue)
        return (
            abs(self.daily.energy - energy) <= tol
            and abs(self.daily.leasing - leasing) <= tol
            and abs(self.daily.total - total) <= tol
        )


def daily_breakdown(per_slot: Sequence[RevenueBreakdown]) -> RevenueBreakdown:
    """Sum per-slot revenue into a daily figure with compensated addition."""
    energy = math.fsum(r.energy for r in per_slot)
    leasing = math.fsum(r.leasing for r in per_slot)
    return RevenueBreakdown.of(energy, leasing)
