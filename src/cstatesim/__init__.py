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

# perfbench/setup_probe.py calls cstatesim.default_catalog().
from .catalog import default_catalog  # noqa: E402,F401
