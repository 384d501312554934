"""Probes on the program's layers, attached from outside the package.

Each probe replaces a module attribute that its caller looks up at call
time, so the code under src/ runs unchanged and is measured as it
stands. Span names follow the module that defines the function, not the
module the attribute is replaced in (control.run_cascade is hqp's
run_cascade, for instance).

Every probe must fire. A refactor that inlines or renames one of these
calls makes the benchmark fail loudly instead of reporting zeros.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from spans import SpanLog, median, percentile


class ProbeError(RuntimeError):
    """A probe could not attach to, or did not fire in, the program."""


# (module, attribute the caller looks up, span name)
PROBES = (
    ("sim", "load_scenario", "sim.load_scenario"),
    ("sim", "resolve_model", "sim.resolve_model"),
    ("sim", "run_scenario", "sim.run_scenario"),
    ("sim", "compute_state", "dynamics.compute_state"),
    ("sim", "integrate_step", "sim.integrate_step"),
    ("sim", "write_csv", "sim.write_csv"),
    ("sim", "audit", "sim.audit"),
    ("control", "step", "control.step"),
    ("control", "task_space_inertia", "control.task_space_inertia"),
    ("control", "nominal_torque", "control.nominal_torque"),
    ("control", "nullspace_basis", "control.nullspace_basis"),
    ("control", "energy_cbf_row", "tasks.energy_cbf_row"),
    ("control", "build_strict_tasks", "control.build_strict_tasks"),
    ("control", "run_cascade", "hqp.run_cascade"),
    ("hqp", "init_stage0", "hqp.init_stage0"),
    ("hqp", "solve_level", "hqp.solve_level"),
    ("hqp", "solve_qp", "qpcore.solve_qp"),
)
ROW_SPANS = ("tasks.energy_cbf_row", "control.build_strict_tasks")
LEVELS = (1, 2, 3)


@contextmanager
def patched(modules, replacements):
    """Swap module attributes for wrappers; restore them on exit.

    replacements: (module name, attribute, factory) where the factory
    takes the original function and returns its wrapper.
    """
    originals = []
    try:
        for mod_name, attr, factory in replacements:
            mod = getattr(modules, mod_name)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                raise ProbeError(f"{mod.__name__}.{attr} is gone; the probe "
                                 f"on it cannot attach")
            originals.append((mod, attr, fn))
            setattr(mod, attr, factory(fn))
        yield
    finally:
        for mod, attr, fn in reversed(originals):
            setattr(mod, attr, fn)


class EntryProbe:
    """The untraced run's only probe: an entry timestamp on control.step.

    The stamp is the process's CPU time, so a period's length is the work
    the program did in it; the time the host hands the core to someone
    else is left out (rtf keeps the wall-clock view). It also keeps each
    returned StepInfo for the behaviour fingerprint.
    """

    def __init__(self):
        self.stamps: list[int] = []
        self.infos: list = []

    def wrap(self, fn):
        stamps, infos, clock = self.stamps, self.infos, time.process_time_ns

        def step(*args, **kwargs):
            stamps.append(clock())
            out = fn(*args, **kwargs)
            infos.append(out[1])
            return out
        return step

    def install(self, modules):
        return patched(modules, [("control", "step", self.wrap)])


def entry_probe_overhead_ns(calls: int = 20000, repeats: int = 5) -> float:
    """Extra ns one EntryProbe call costs over a bare call."""
    def bare(*args, **kwargs):
        return None, None

    wrapped = EntryProbe().wrap(bare)
    clock = time.perf_counter_ns
    diffs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            bare(0)
        t1 = clock()
        for _ in range(calls):
            wrapped(0)
        diffs.append((clock() - t1) - (t1 - t0))
    return max(0.0, median(diffs) / calls)


class Tracer:
    """One span per probed call, with per-call facts from return values.

    The request id of a span is the index of the control period begun
    last (control.step opens a new one), counted across the whole run.
    """

    def __init__(self, feas_tol: float):
        self.log = SpanLog()
        self.infos: list = []
        self.feas_tol = feas_tol

    def _after(self, name, out, args, kwargs):
        if name == "control.step":
            self.infos.append(out[1])
        elif name == "hqp.run_cascade":
            return bool(out.phase1_used)
        elif name == "hqp.solve_level":
            ledger = out[2]
            return ledger.level, ledger.records[-1].iterations
        elif name == "qpcore.solve_qp":
            problem = args[0] if args else kwargs["problem"]
            x0 = kwargs.get("x0", args[2] if len(args) > 2 else None)
            warm = (x0 is not None and problem.max_violation(
                np.asarray(x0, dtype=float)) <= self.feas_tol)
            return out.iterations, out.status == "optimal", warm
        return None

    def wrap(self, name, fn):
        log, after = self.log, self._after
        new_period = name == "control.step"

        def traced(*args, **kwargs):
            if new_period:
                log.request_id += 1
            idx = log.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                log.close(idx)
            fact = after(name, out, args, kwargs)
            if fact is not None:
                log.extra[idx] = fact
            return out
        return traced

    def install(self, modules):
        return patched(modules, [
            (mod, attr, lambda fn, name=name: self.wrap(name, fn))
            for mod, attr, name in PROBES])


def cell_counts(log: SpanLog, lo: int, hi: int) -> dict:
    """Deterministic counts of the spans log[lo:hi] (one rollout)."""
    counts = Counter(log.names[lo:hi])
    phase1 = 0
    level_calls = Counter()
    level_iters = Counter()
    qp_iters = 0
    not_optimal = 0
    for i in range(lo, hi):
        fact = log.extra.get(i)
        name = log.names[i]
        if name == "hqp.run_cascade":
            phase1 += fact
        elif name == "hqp.solve_level":
            level_calls[fact[0]] += 1
            level_iters[fact[0]] += fact[1]
        elif name == "qpcore.solve_qp":
            qp_iters += fact[0]
            not_optimal += not fact[1]
    out = {f"{name}.calls": counts[name] for _, _, name in PROBES}
    out["hqp.init_stage0.phase1_count"] = phase1
    for lvl in LEVELS:
        out[f"hqp.solve_level.L{lvl}.calls"] = level_calls[lvl]
        out[f"hqp.solve_level.L{lvl}.iterations_total"] = level_iters[lvl]
    out["qpcore.solve_qp.iterations_total"] = qp_iters
    out["qpcore.solve_qp.not_optimal"] = not_optimal
    return out


def check_counts(counts: dict, periods: int) -> list[str]:
    """Probe integrity for one traced rollout of `periods` periods."""
    problems = [f"probe {key[:-6]} never fired"
                for key, n in counts.items()
                if key.endswith(".calls") and not key.startswith(
                    "hqp.solve_level.L") and n == 0]
    if counts["control.step.calls"] != periods:
        problems.append(f"control.step fired {counts['control.step.calls']} "
                        f"times over {periods} periods")
    if counts["dynamics.compute_state.calls"] != periods + 1:
        problems.append(f"compute_state fired "
                        f"{counts['dynamics.compute_state.calls']} times, "
                        f"expected periods + 1 = {periods + 1}")
    return problems


def layer_metrics(log: SpanLog, counts: dict, periods: int) -> dict:
    """Per-layer metrics over every traced rollout in the log.

    counts are one rollout's cell_counts (all traced rollouts of a seed
    give the same ones); periods is the total over traced rollouts.
    Values are (value, unit, note) where note gives the sample count and
    the percentile actually reported.
    """
    idx = defaultdict(list)
    for i, name in enumerate(log.names):
        idx[name].append(i)
    selft = log.self_times()
    m = {}

    def put(key, value, unit, note=""):
        m[key] = (value, unit, note)

    def dur_us(name, self_time=False):
        return [(selft[i] if self_time else log.end[i] - log.start[i]) / 1e3
                for i in idx[name]]

    def timing(key, samples, p50=True, p99=True):
        if p50:
            put(f"{key}.us_p50", median(samples), "us", f"n={len(samples)}")
        if p99:
            v, q = percentile(samples, 99.0)
            put(f"{key}.us_p99", v, "us", f"n={len(samples)} q={q:.2f}")

    def total_ns(name, self_time=False):
        return sum(selft[i] if self_time else log.end[i] - log.start[i]
                   for i in idx[name])

    put("dynamics.compute_state.calls", counts["dynamics.compute_state.calls"],
        "count")
    timing("dynamics.compute_state", dur_us("dynamics.compute_state"))
    put("dynamics.compute_state.busy_share", total_ns("dynamics.compute_state")
        / max(1, total_ns("sim.run_scenario")), "share")

    put("control.step.calls", counts["control.step.calls"], "count")
    timing("control.step", dur_us("control.step"))
    put("control.step.self_us_p50", median(dur_us("control.step", True)), "us")
    for name in ("control.task_space_inertia", "control.nominal_torque",
                 "control.nullspace_basis"):
        timing(name, dur_us(name), p99=False)

    rows = defaultdict(int)
    for name in ROW_SPANS:
        for i in idx[name]:
            rows[log.request[i]] += log.end[i] - log.start[i]
    timing("tasks.rows", [v / 1e3 for v in rows.values()])

    timing("hqp.run_cascade", dur_us("hqp.run_cascade"))
    put("hqp.run_cascade.self_us_p50",
        median(dur_us("hqp.run_cascade", True)), "us")
    timing("hqp.init_stage0", dur_us("hqp.init_stage0"))
    put("hqp.init_stage0.phase1_rate",
        counts["hqp.init_stage0.phase1_count"]
        / max(1, counts["hqp.init_stage0.calls"]), "share")

    by_level = defaultdict(list)
    for i in idx["hqp.solve_level"]:
        by_level[log.extra[i][0]].append(i)
    for lvl in LEVELS:
        key = f"hqp.solve_level.L{lvl}"
        ids = by_level[lvl]
        put(f"{key}.calls", counts[f"{key}.calls"], "count")
        timing(key, [(log.end[i] - log.start[i]) / 1e3 for i in ids])
        iters = [log.extra[i][1] for i in ids]
        put(f"{key}.iterations_mean", float(np.mean(iters)) if iters else 0.0,
            "count", f"n={len(iters)}")
        v, q = percentile(iters, 99.0)
        put(f"{key}.iterations_p99", v, "count", f"n={len(iters)} q={q:.2f}")

    qp = idx["qpcore.solve_qp"]
    put("qpcore.solve_qp.calls", counts["qpcore.solve_qp.calls"], "count")
    timing("qpcore.solve_qp", dur_us("qpcore.solve_qp"))
    put("qpcore.solve_qp.iterations_total",
        counts["qpcore.solve_qp.iterations_total"], "count")
    put("qpcore.solve_qp.not_optimal", counts["qpcore.solve_qp.not_optimal"],
        "count")
    put("qpcore.solve_qp.warm_start_hit_rate",
        sum(log.extra[i][2] for i in qp) / max(1, len(qp)), "share")

    put("sim.integrate_step.self_us_p50",
        median(dur_us("sim.integrate_step", True)), "us")
    put("sim.run_scenario.self_us_per_period",
        total_ns("sim.run_scenario", True) / 1e3 / max(1, periods), "us")
    for name in ("sim.write_csv", "sim.audit", "sim.load_scenario",
                 "sim.resolve_model"):
        samples = [(log.end[i] - log.start[i]) / 1e9 for i in idx[name]]
        put(f"{name}.s", median(samples), "s", f"n={len(samples)}")
    return m
