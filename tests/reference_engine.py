"""An independent reference for cstatesim.sim.run on snoop-free runs.

It is written from the spec that sim.py's module docstring, its
same-nanosecond tie rules and the GovernorPolicy docstring give, not
from run's loop, so a fault that every rewrite of the loop inherited
from its parent shows up as a difference.  It keeps it plain, not fast:

* each core keeps an explicit list of its jobs, (arrival, completion);
* each idle period is charged as segments (entry, residency, exit),
  each clipped at the horizon;
* a state is picked straight from the catalog: the deepest enabled idle
  state whose target residency the prediction reaches, deeper meaning a
  longer target residency and then a lower power, the first name on
  ties, and the shallowest idle state when none fits;
* the clairvoyant prediction is found by a linear scan for the first
  arrival after the idle period starts, on any core;
* the backlog is counted from the job lists at each arrival.

From cstatesim.sim it takes only the stream draws (_draw_streams and
its service_ns method), derive_subseed and _rank_index.  Snoops are not
modelled: a config with a snoop rate is refused.
"""

import random

from cstatesim.sim import _draw_streams, _rank_index, derive_subseed

# The agile deep idle states: with one on the menu, service is inflated.
AGILE = {"C6A", "C6AE"}


def pick_state(idle_states, predicted_us):
    """The deepest state that fits predicted_us, else the shallowest.

    idle_states are catalog specs sorted by name, so max() and min()
    return the first name among equally deep states.
    """
    def depth(spec):
        return spec.target_residency_us, -spec.power_mw

    fits = [s for s in idle_states if s.target_residency_us <= predicted_us]
    return max(fits, key=depth) if fits else min(idle_states, key=depth)


def reference_run(config, catalog, perf):
    """What run(config, catalog, perf, trace=True) reports, as plain data.

    Returns a dict: energy_j, per_core (one {"residency", "transitions"}
    dict per core), latency_us (mean, p50, p95, p99, p999), and the
    counters wakeups_aborted, peak_queue, requests_offered and
    requests_completed, and the trace lists decisions and idle_intervals.
    """
    if config.snoop.rate_per_core_hz > 0:
        raise ValueError("the reference engine models no snoops")
    names = sorted(config.cstates_enabled)
    idle_states = [catalog[name] for name in names if name != "C0"]
    inflation = perf.service_inflation if AGILE & set(names) else 1.0
    streams = _draw_streams(config)
    arrivals = list(streams.arrivals)
    services = list(streams.service_ns(inflation))
    t_end = round(config.duration_s * 1e9)
    n_cores = config.cores
    predictor = config.governor.predictor

    jobs = [[] for _ in range(n_cores)]          # (arrival, completion) per core
    free = [0] * n_cores                         # when the core's last job completes
    abort_end = [0] * n_cores                    # when its latest aborted entry completes
    pred_us = [0.0] * n_cores
    resident = [{s.name: 0 for s in idle_states} for _ in range(n_cores)]
    entries = [{name: 0 for name in names} for _ in range(n_cores)]
    transition = [0] * n_cores
    decisions, idle_intervals = [], []
    wakeups_aborted = peak_queue = 0

    def clipped(start, end):
        return max(0, min(end, t_end) - min(start, t_end))

    def waiting(c, t):
        """Jobs on core c not yet complete at t (a completion at t has left).

        A core's completions ascend, so the count stops at the first done.
        """
        count = 0
        for _, done in reversed(jobs[c]):
            if done <= t:
                break
            count += 1
        return count

    def idle_period(c, f, t, index):
        """Resolve core c's idle period from f, ended at t by arrival index
        (by the horizon when t == t_end); the time service can start."""
        nonlocal wakeups_aborted
        if predictor == "clairvoyant":
            # The first arrival after f on any core (the one after the
            # last drawn is the lookahead).
            k = index
            while k > 0 and arrivals[k - 1] > f:
                k -= 1
            nxt = arrivals[k] if k < len(arrivals) else streams.lookahead
            predicted = (nxt - f) / 1000.0
        else:  # a core's own idle periods, each taken in once it ends
            predicted = pred_us[c]
            observed = (t - f) / 1000.0
            if predictor == "last_idle":
                pred_us[c] = observed
            else:
                alpha = config.governor.ewma_alpha
                pred_us[c] = alpha * observed + (1.0 - alpha) * predicted
        state = pick_state(idle_states, predicted)
        decisions.append((c, state.name))
        entries[c][state.name] += 1
        entry_end = f + state.hw_entry_ns
        if t >= entry_end:  # resident from the entry's end up to t
            resident[c][state.name] += clipped(entry_end, t)
            exit_start = t
        else:  # t aborts the entry, which completes before the exit starts
            exit_start = entry_end
            if t < t_end:
                wakeups_aborted += 1
                abort_end[c] = entry_end
        wake = exit_start + state.hw_exit_ns
        transition[c] += clipped(f, entry_end) + clipped(exit_start, wake)
        if wake < t_end:
            entries[c]["C0"] += 1
        if t < t_end:
            idle_intervals.append((state.name, t - f))
        return wake

    if config.dispatch == "random":
        dispatch_rng = random.Random(derive_subseed(config.seed, "dispatch"))
    for i, (t, service) in enumerate(zip(arrivals, services)):
        if config.dispatch == "round_robin":
            c = i % n_cores
        elif config.dispatch == "random":
            c = dispatch_rng.randrange(n_cores)
        else:  # pack_lowest_index
            backlog = [waiting(core, t) for core in range(n_cores)]
            room = [core for core in range(n_cores) if backlog[core] < config.pack_queue_cap]
            c = room[0] if room else backlog.index(min(backlog))
        if t < free[c]:
            start = free[c]
            if t < abort_end[c]:
                wakeups_aborted += 1
        elif t == free[c]:
            start = t
        else:
            start = idle_period(c, free[c], t, i)
        free[c] = start + service
        jobs[c].append((t, free[c]))
        peak_queue = max(peak_queue, sum(waiting(core, t) for core in range(n_cores)))
    for c in range(n_cores):
        if free[c] < t_end:
            idle_period(c, free[c], t_end, len(arrivals))

    energy_pj = 0
    per_core = []
    for c in range(n_cores):
        idle_ns = sum(resident[c].values())
        energy_pj += (t_end - idle_ns) * catalog["C0"].power_mw
        energy_pj += sum(ns * catalog[name].power_mw for name, ns in resident[c].items())
        buckets = {"C0": t_end - idle_ns - transition[c], **resident[c],
                   "transition": transition[c]}
        per_core.append({"residency": {name: ns / t_end for name, ns in buckets.items()},
                         "transitions": entries[c]})

    rtt_ns = round(config.network_rtt_us * 1000)
    latencies = sorted(done - t + rtt_ns for core_jobs in jobs for t, done in core_jobs
                       if done < t_end)
    n = len(latencies)
    latency_us = (0.0,) * 5
    if n:
        latency_us = (sum(latencies) / n / 1000.0,) + tuple(
            latencies[_rank_index(n, pct)] / 1000.0 for pct in (50.0, 95.0, 99.0, 99.9))
    return {
        "energy_j": energy_pj * 1e-12,
        "per_core": per_core,
        "latency_us": latency_us,
        "wakeups_aborted": wakeups_aborted,
        "peak_queue": peak_queue,
        "requests_offered": len(arrivals),
        "requests_completed": n,
        "decisions": decisions,
        "idle_intervals": idle_intervals,
    }
