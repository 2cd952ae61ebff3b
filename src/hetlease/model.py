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
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

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


# the most resource blocks a station may own: up to it every demand
# floor(beta * load * rb_capacity), with beta and load in [0, 1], is an
# exact int64
RB_CAPACITY_MAX = 2**53


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
    p_sleep: float | None = None   # sleep-mode draw, W; None only for the macro

    def __post_init__(self):
        for name in ("p_o", "zeta", "p_tx"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if not 0 < self.rb_capacity <= RB_CAPACITY_MAX:
            raise ConfigError(f"rb_capacity must lie in (0, 2^53], got {self.rb_capacity!r}")
        if self.p_sleep is not None and not 0 <= self.p_sleep < self.p_o:
            raise ConfigError(
                "p_sleep must satisfy 0 <= p_sleep < p_o, got "
                f"p_sleep={self.p_sleep!r}, p_o={self.p_o!r}"
            )
        if self.kind is BsKind.MACRO and self.p_sleep is not None:
            raise ConfigError(f"p_sleep must be None for a macro cell, got {self.p_sleep!r}")
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
            rb_capacity=100, p_sleep=None,
        ),
        BsKind.RRH: BaseStation(
            kind=BsKind.RRH, p_o=84.0, zeta=2.8, p_tx=20.0,
            rb_capacity=75, p_sleep=56.0,
        ),
        BsKind.MICRO: BaseStation(
            kind=BsKind.MICRO, p_o=56.0, zeta=2.6, p_tx=6.3,
            rb_capacity=50, p_sleep=39.0,
        ),
        BsKind.PICO: BaseStation(
            kind=BsKind.PICO, p_o=6.8, zeta=4.0, p_tx=0.13,
            rb_capacity=25, p_sleep=4.3,
        ),
        BsKind.FEMTO: BaseStation(
            kind=BsKind.FEMTO, p_o=4.8, zeta=8.0, p_tx=0.05,
            rb_capacity=15, p_sleep=2.9,
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


class OffloadMode(enum.Enum):
    """How an off SBS's load converts into macro-cell load.

    DIRECT adds the normalized SBS load unchanged.  CAPACITY_SCALED
    weights it by the ratio of SBS to macro resource blocks, modelling
    the macro cell absorbing the same traffic volume with its larger
    spectrum.
    """

    DIRECT = "direct"
    CAPACITY_SCALED = "capacity_scaled"


def _off_bits(mask: int, num_sbs: int) -> str:
    """The ``num_sbs`` low bits of ``mask``, lowest first: character j is
    '1' when SBS j+1 is off.  Every walk over a switch reads this string in
    this one ascending order; the sentinel bit ``1 << num_sbs`` pads it to
    full length without a shift per cell."""
    return bin(mask | 1 << num_sbs)[:2:-1]


@dataclass(frozen=True)
class SwitchVector:
    """On/off state of a network's SBSs, as an off-bitmask.

    Bit j of ``mask`` set means SBS j+1 (station j+1) is off.  The macro,
    station 0, is always on and has no bit.  ``gamma`` (macro first, True
    means on), ``is_on``, ``off_indices`` and ``bitstring`` are derived
    from the mask.
    """

    mask: int
    num_sbs: int

    def __post_init__(self):
        if self.num_sbs < 0:
            raise ConfigError(f"a network cannot have {self.num_sbs} SBSs")
        if not 0 <= self.mask < 1 << self.num_sbs:
            raise ValueError(f"mask {self.mask} out of range for {self.num_sbs} SBSs")

    @property
    def gamma(self) -> tuple[bool, ...]:
        """On flag per station, macro first."""
        return (True, *map("0".__eq__, _off_bits(self.mask, self.num_sbs)))

    def is_on(self, index: int) -> bool:
        if not 0 <= index <= self.num_sbs:
            raise IndexError(f"station {index} out of range for {self.num_sbs} SBSs")
        return index == 0 or not self.mask >> (index - 1) & 1

    def off_indices(self) -> tuple[int, ...]:
        """Station indices of the off SBSs, ascending."""
        return tuple(j for j, bit in enumerate(bin(self.mask)[:1:-1], 1) if bit == "1")

    def off_mask(self) -> int:
        """Bitmask over SBSs: bit j set means SBS j+1 is off."""
        return self.mask

    @classmethod
    def from_off_mask(cls, mask: int, num_sbs: int) -> "SwitchVector":
        """Build a vector from an SBS off-bitmask (bit j -> SBS j+1 off)."""
        return cls(mask, num_sbs)

    @classmethod
    def from_off_indices(cls, off: Iterable[int], num_sbs: int) -> "SwitchVector":
        off = set(off)
        if 0 in off:
            raise ConfigError("macro station (index 0) cannot be switched off")
        if not off <= set(range(1, num_sbs + 1)):
            raise ValueError(
                f"off indices {sorted(off)} out of range for {num_sbs} SBSs"
            )
        return cls(sum(1 << (j - 1) for j in off), num_sbs)

    def bitstring(self) -> str:
        """Readable form, macro first: '1' on, '0' off."""
        # the complement's set bits are the SBSs that are on
        n = self.num_sbs
        return "1" + _off_bits(self.mask ^ (1 << n) - 1, n)


@dataclass(frozen=True)
class RevenueBreakdown:
    """Revenue of one slot (or one day) split into its two streams.

    ``energy`` is the electricity cost avoided by switching (can be
    negative when offloading raises total draw), ``leasing`` is income
    from renting off-cell spectrum, and ``total`` is their sum.
    """

    energy: float
    leasing: float

    @property
    def total(self) -> float:
        return self.energy + self.leasing


class _Slot(NamedTuple):
    """One slot of a scenario, as every per-slot reader sees it
    (``Scenario._slot``).  Station rows are macro first; SBS rows hold
    entry j for SBS j+1."""

    loads: array              # normalized load per station
    contrib: array            # macro-load increment per sleeping SBS
    active: array             # active power draw per station, W
    sleep: tuple              # sleep draw per station (None for the macro), W
    allon: float              # network draw with every station on, W
    elec: float               # electricity price, currency/kWh
    lease: array              # leasing income per sleeping SBS: demand x RB price
    weights: array            # revenue per sleeping SBS (``sbs_off_weights``)
    demands: list[int]        # secondary-network RB demand per SBS


@dataclass(frozen=True, eq=False)
class Scenario:
    """A full optimization instance: stations, per-slot series, prices.

    ``stations[0]`` is the macro cell; ``stations[1:]`` are SBSs.
    ``traffic`` is a (stations x slots) matrix of normalized loads in
    [0, 1]: row i is station i's load series.  ``sn_demand`` has one row
    per SBS (row j-1 for station j) holding the integer number of
    resource blocks the secondary network requests per slot.
    ``electricity`` (currency/kWh) and ``spectrum`` (currency/RB) hold one
    non-negative price per slot.  Each series is checked once, here, and
    stored as a read-only copy.
    """

    grid: TimeGrid
    stations: tuple[BaseStation, ...]
    traffic: np.ndarray
    sn_demand: np.ndarray
    electricity: np.ndarray
    spectrum: np.ndarray
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
        n_slots = self.grid.num_slots
        for name, shape, high in (
            ("traffic", (len(self.stations), n_slots), 1.0),
            ("electricity", (n_slots,), math.inf),
            ("spectrum", (n_slots,), math.inf),
        ):
            # C order: the (stations x slots) layout fixes numpy's
            # summation order over stations
            values = np.array(getattr(self, name), dtype=np.float64, order="C")
            if values.shape != shape:
                raise ConfigError(f"{name} has shape {values.shape}, expected {shape}")
            low, peak = values.min(), values.max()  # NaN propagates to both
            if not (math.isfinite(low) and math.isfinite(peak)):
                raise ConfigError(f"{name} contains non-finite values")
            if low < 0.0 or peak > high:
                raise ConfigError(
                    f"{name} values outside [0, {high}]: min {low}, max {peak}"
                )
            values.setflags(write=False)
            object.__setattr__(self, name, values)
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
        if not 0.0 < self.mbs_capacity_limit <= 1.0:
            raise ConfigError("macro capacity limit must lie in (0, 1]")
        # the all-on network must be feasible in every slot
        mbs_peak = self.traffic[0].max()
        if mbs_peak > self.mbs_capacity_limit:
            raise ConfigError(
                f"macro load peaks at {mbs_peak}, above the "
                f"capacity limit {self.mbs_capacity_limit}"
            )
        # One record per slot (``_Slot``), its rows built with whole-array
        # operations in the arithmetic order of their element-wise
        # definitions (``BaseStation.power``, the all-on total in ascending
        # station order, each SBS's leasing income as demand x RB price,
        # each sleeping SBS's revenue weight as ``economics.sbs_off_weights``
        # states it), so every entry is the same double.  Float rows are
        # array('d'), a quarter of the memory of a tuple of floats: the
        # canonical checks read single entries thousands of times per slot,
        # and a numpy scalar read costs about twice an array('d') read.
        stations = self.stations
        loads = self.traffic.T
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
        sleep = np.array([bs.p_sleep for bs in stations[1:]], dtype=np.float64)
        factor = self.grid.slot_min / WATT_MIN_PER_KWH
        # huge prices or powers overflow here, and the slot is rejected
        # below: each weight adds its SBS's power terms and leasing income
        with np.errstate(over="ignore", invalid="ignore"):
            active_power = p_o + loads * zeta * p_tx
            allon = active_power[:, 0].copy()
            for i in range(1, len(stations)):
                allon += active_power[:, i]
            lease = demand.T * self.spectrum[:, None]
            weights = (
                active_power[:, 1:] - sleep - contrib * zeta[0] * p_tx[0]
            ) * factor * self.electricity[:, None] + lease
        finite = np.isfinite(allon) & np.isfinite(weights).all(axis=1)
        if not finite.all():
            raise ConfigError(
                f"slot {int(np.argmin(finite))}: all-on power, leasing income "
                "or a revenue weight is not finite"
            )

        def rows(table: np.ndarray) -> list[array]:
            # one conversion, then a slice per row: half the cost of
            # converting each row on its own
            flat, width = array("d", table.tobytes()), table.shape[1]
            return [flat[i * width:(i + 1) * width] for i in range(len(table))]

        fields = zip(
            rows(loads),
            rows(contrib),
            rows(active_power),
            repeat(tuple(bs.p_sleep for bs in stations)),
            allon.tolist(),
            self.electricity.tolist(),
            rows(lease),
            rows(weights),
            demand.T.tolist(),
        )
        slots = tuple(map(tuple.__new__, repeat(_Slot), fields))
        object.__setattr__(self, "_slots", slots)

    @property
    def num_sbs(self) -> int:
        return len(self.stations) - 1

    @property
    def num_slots(self) -> int:
        return self.grid.num_slots

    def load(self, station: int, slot: int) -> float:
        """Normalized load of one station in one slot."""
        loads = self._slot(slot).loads
        if not 0 <= station < len(loads):
            raise IndexError(f"no station {station} in this scenario")
        return loads[station]

    def demand(self, station: int, slot: int) -> int:
        """Secondary-network RB demand at an SBS (station index >= 1)."""
        demands = self._slot(slot).demands
        if not 1 <= station <= len(demands):
            raise IndexError(f"no SBS {station} in this scenario")
        return demands[station - 1]

    def all_on(self) -> SwitchVector:
        return SwitchVector(0, self.num_sbs)

    def _slot(self, slot: int, switch: SwitchVector | None = None) -> _Slot:
        """The record of ``slot``, for a switch vector of this network's size.

        Every per-slot reader fetches its figures here: a slot outside the
        day, which a record index would alias or miss, raises IndexError,
        and a switch vector of another size raises ValueError.
        """
        slots = self._slots
        if not 0 <= slot < len(slots):
            raise IndexError(f"slot {slot} outside range({len(slots)})")
        if switch is not None and switch.num_sbs != self.num_sbs:
            raise ValueError(
                f"switch vector covers {switch.num_sbs} SBSs, scenario has {self.num_sbs}"
            )
        return slots[slot]


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


def daily_breakdown(per_slot: Sequence[RevenueBreakdown]) -> RevenueBreakdown:
    """Sum per-slot revenue into a daily figure with compensated addition;
    a stream whose sum passes the largest double raises ``ValueError``."""
    sums = []
    for stream in ("energy", "leasing"):
        try:
            sums.append(math.fsum(getattr(r, stream) for r in per_slot))
        except OverflowError:
            raise ValueError(f"daily {stream} revenue overflows a double") from None
    return RevenueBreakdown(*sums)
