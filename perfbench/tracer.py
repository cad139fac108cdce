"""Spans around cstatesim's public functions, for the traced run only.

Each function is wrapped at the module attribute its caller resolves at
call time: `sim.run` is called as a global of cstatesim.sim (by sweep) and
of cstatesim.demo (by demo_sweep), so both attributes get the wrapper.
Open spans live on an in-memory stack.  When a span closes, its duration
is charged to its parent as child time, and the span's self time (its
duration minus its children's) goes to its layer's totals.
"""

import time
from contextlib import contextmanager

from cstatesim import catalog, demo, fsm, model, reporting, sim

# Layer name -> the (module, attribute) pairs its callers resolve.
TARGETS = {
    "sim.run": [(sim, "run"), (demo, "run")],
    "sim.select_state": [(sim, "select_state")],
    "sim.sweep": [(sim, "sweep")],
    "fsm.timeline": [(fsm, "entry_timeline"), (fsm, "exit_timeline"), (fsm, "snoop_timeline")],
    "catalog.default_catalog": [
        (catalog, "default_catalog"), (sim, "default_catalog"), (demo, "default_catalog"),
    ],
    "model.avg_power": [(model, "avg_power")],
    "model.upper_bound_savings": [(model, "upper_bound_savings"), (demo, "upper_bound_savings")],
    "reporting.loads_sim_config": [(reporting, "loads_sim_config")],
    "reporting.sweep_document": [(reporting, "sweep_document")],
    "reporting.document_to_json": [(reporting, "document_to_json")],
    "reporting.canonical_hash": [(reporting, "canonical_hash")],
    "reporting.emit_plot_table": [(reporting, "emit_plot_table")],
    "demo.demo_sweep": [(demo, "demo_sweep")],
}


class Tracer:
    """Per-layer call counts and self time, summed over every traced round."""

    def __init__(self):
        self.calls = {name: 0 for name in TARGETS}
        self.self_ns = {name: 0 for name in TARGETS}
        self._stack = []   # child nanoseconds of each open span

    def _wrap(self, name, fn):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_ns[name] += span - child
                if stack:
                    stack[-1] += span

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for name, attrs in TARGETS.items():
                for module, attr in attrs:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
