"""cstatesim: analytical model and simulator for CPU core idle states.

The package models a family of per-core idle states including two agile
deep idle states (C6A, C6AE) that power-gate the core with in-place
state retention, keeping the PLL locked and the caches coherent so that
entry and exit cost nanoseconds instead of the microseconds a full-save
deep state needs.  It provides:

  * catalog: per-state power/latency data with validation and a text
    config format for overrides;
  * model: residency-weighted average power, an ideal-replacement
    savings bound, and a first-order estimate of agile-idle savings;
  * fsm: cycle-accurate controller flow timelines for entry, exit, and
    snoop handling;
  * sim: a deterministic discrete-event simulator of cores, queues,
    governor decisions, and energy;
  * reporting / cli: file formats and a command-line front end.
"""

__version__ = "0.1.0"

from .catalog import (  # noqa: E402
    C6ABudget,
    Catalog,
    CStateSpec,
    PState,
    budget_total,
    default_budget,
    default_catalog,
    dumps_catalog,
    load_catalog,
    loads_catalog,
    power_ratio_vs_active,
    save_catalog,
)
from .errors import ParseError, ValidationError  # noqa: E402
from .fsm import (  # noqa: E402
    CoreDomainState,
    FsmStep,
    FsmTimeline,
    StaggerPlan,
    entry_timeline,
    exit_timeline,
    reference_flow,
    snoop_timeline,
)
from .model import (  # noqa: E402
    TRANSITION_BUCKET,
    PerfModel,
    PowerEstimate,
    ResidencyProfile,
    SavingsVs,
    avg_power,
    avg_power_aw,
    rescale_residency,
    upper_bound_savings,
)
from .sim import (  # noqa: E402
    ArrivalSpec,
    GovernorPolicy,
    LatencyStats,
    ServiceSpec,
    SimConfig,
    SimReport,
    SnoopSpec,
    SweepPoint,
    VariantSpec,
    derive_subseed,
    run,
    select_state,
    sweep,
)

__all__ = [
    "__version__",
    "ValidationError",
    "ParseError",
    "PState",
    "CStateSpec",
    "C6ABudget",
    "Catalog",
    "default_catalog",
    "default_budget",
    "budget_total",
    "power_ratio_vs_active",
    "load_catalog",
    "loads_catalog",
    "save_catalog",
    "dumps_catalog",
    "TRANSITION_BUCKET",
    "ResidencyProfile",
    "PerfModel",
    "PowerEstimate",
    "SavingsVs",
    "avg_power",
    "upper_bound_savings",
    "rescale_residency",
    "avg_power_aw",
    "CoreDomainState",
    "FsmStep",
    "FsmTimeline",
    "StaggerPlan",
    "entry_timeline",
    "exit_timeline",
    "snoop_timeline",
    "reference_flow",
    "ArrivalSpec",
    "ServiceSpec",
    "SnoopSpec",
    "GovernorPolicy",
    "SimConfig",
    "SimReport",
    "LatencyStats",
    "VariantSpec",
    "SweepPoint",
    "run",
    "sweep",
    "select_state",
    "derive_subseed",
]
