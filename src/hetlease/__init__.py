"""Revenue optimization for heterogeneous cellular networks.

Switch small base stations off during quiet periods, offload their
traffic to the always-on macro cell, and lease the freed spectrum to a
secondary network.  The per-slot decision is solved by simulated
annealing, validated against exhaustive search and two sorting
heuristics.
"""

from .economics import (
    SlotProblem,
    all_on_power_slot,
    daily_revenue,
    energy_revenue_slot,
    hetnet_power_slot,
    leasing_revenue_slot,
    power_saving_slot,
    sbs_off_weights,
    slot_problem,
    total_revenue_slot,
)
from .feasibility import (
    OffloadReport,
    is_feasible,
    offloaded_mbs_load,
)
from .metrics import (
    network_throughput,
    runtime_scaling,
    throughput_invariance_report,
    write_bench_csv,
)
from .model import (
    BaseStation,
    BsKind,
    ConfigError,
    EnumerationCapError,
    InfeasibleSwitchError,
    OffloadMode,
    RevenueBreakdown,
    Scenario,
    SolverResult,
    SwitchVector,
    TimeGrid,
    default_parameter_set,
)
from .scenario import (
    CsvFormatError,
    bench_config,
    bench_scenario,
    build_scenario,
    default_electricity_multipliers,
    load_config,
    reference_config,
    reference_scenario,
    reference_variants,
    save_config,
    validate_config,
)
from .solvers import (
    ES_MAX_SBS,
    Method,
    SaParams,
    SortOrder,
    es_solve_slot,
    metropolis_accept,
    sa_solve_slot,
    solve_day,
    sorting_solve_slot,
    utility_vector,
)

__version__ = "0.1.0"
