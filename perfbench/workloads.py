"""One timed round of each workload, and the counts it reports.

Every call into cstatesim goes through a module attribute (`sim.run`,
`reporting.sweep_document`, ...), so the traced run can wrap it there.
Imported only after set_up() has put the checkout's src/ on sys.path.
"""

from dataclasses import dataclass, field
from typing import List, Optional

from cstatesim import demo, reporting, sim

import configs


@dataclass
class RoundOutput:
    """What one round produced, kept for the checks after the clock stops."""

    reports: List[object]                 # SimReports of the runs under `perf`
    perf: object                          # the PerfModel those runs used
    sweep_points: List[object] = field(default_factory=list)
    sweep_json: str = ""
    sweep_hash: str = ""
    demo_result: Optional[object] = None
    demo_table: str = ""
    bytes_out: int = 0


def sim_round(setup: dict) -> RoundOutput:
    """sim-steady and sim-agile-snoop: one long sim.run of the parsed config."""
    parsed = setup["parsed"]
    report = sim.run(parsed.config, catalog=setup["catalog"], perf=parsed.perf)
    return RoundOutput(reports=[report], perf=parsed.perf)


def sweep_demo_round(setup: dict, seed: int) -> RoundOutput:
    """sweep-demo: the library path of `sim sweep` and `sim demo`, serially."""
    parsed = reporting.loads_sim_config(setup["config_text"])
    variants = [parsed.variants[name] for name in configs.SWEEP_VARIANTS]
    points = sim.sweep(parsed.config, configs.SWEEP_LOADS_QPS, variants,
                       catalog=setup["catalog"], perf=parsed.perf, jobs=1)
    doc = reporting.sweep_document(points, parsed.config)
    text = reporting.document_to_json(doc)
    table = reporting.emit_plot_table(points)
    digest = reporting.canonical_hash(doc)
    # As `sim demo` calls it: no catalog, the demo's own performance model.
    result = demo.demo_sweep(seed=seed, duration_s=configs.DEMO_DURATION_S)
    demo_table = reporting.emit_plot_table(result.sweep_points())
    return RoundOutput(
        reports=[p.report for p in points],
        perf=parsed.perf,
        sweep_points=points,
        sweep_json=text,
        sweep_hash=digest,
        demo_result=result,
        demo_table=demo_table,
        bytes_out=len(text) + len(table) + len(demo_table),
    )


def make_round(workload: str, setup: dict, seed: int):
    """A no-argument callable that runs one round of the workload."""
    if workload == "sweep-demo":
        return lambda: sweep_demo_round(setup, seed)
    return lambda: sim_round(setup)


def round_counts(out: RoundOutput) -> dict:
    """Simulated work of one round, summed over all its SimReports."""
    reports = list(out.reports)
    if out.demo_result is not None:
        for p in out.demo_result.points:
            reports += [p.baseline, p.agile]
    return {
        "requests": sum(r.requests_completed for r in reports),
        "idle_entries": sum(
            n for r in reports for state, n in r.transitions.items() if state != "C0"
        ),
        "wakeups_aborted": sum(r.wakeups_aborted for r in reports),
        "snoops_served": sum(r.snoops_served for r in reports),
        "bytes_out": out.bytes_out,
    }
