"""Closed-loop control-period benchmark for cbf-hqp.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload step_cascade --seed 0 \
        --seconds 30 --trace 0

It imports cbf_hqp from the checkout's own src/ and repeats one grid
cell, done the way `cbf-hqp run` does it (load the scenario text, roll
it, write the CSV, audit), until --seconds is used up. The load is a
closed loop with one client: each control period starts only after the
previous one has been integrated, so there is no arrival rate.

--trace 0 prints the end-to-end metrics; the only probe is an entry
stamp of the process's CPU time on control.step, so the period
percentiles hold the program's work and not the time the host gives
the core to other tenants. --trace 1 alternates untraced and traced
rollouts and prints the per-layer metrics from spans recorded around
the package's own functions (see layers.py). Every rollout passes the
correctness gate or the run reports correct: false. The last line of
stdout is one JSON object; human-readable lines come before it.
Outputs go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import (EntryProbe, ProbeError, Tracer, cell_counts,
                    check_counts, entry_probe_overhead_ns, layer_metrics)
from spans import median, percentile
from workloads import DEFAULT_SEED, WORKLOADS, scenario_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
K_TOL = 1e-6          # energy bound tolerance of the hard-energy modes


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def import_package():
    """cbf_hqp's modules from this checkout's src/, nowhere else."""
    if not (SRC / "cbf_hqp" / "__init__.py").is_file():
        raise BenchError(f"no cbf_hqp package under {SRC}")
    sys.path.insert(0, str(SRC))
    from cbf_hqp import control, hqp, qpcore, sim
    if not Path(sim.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"cbf_hqp was imported from {sim.__file__}")
    return types.SimpleNamespace(sim=sim, control=control, hqp=hqp,
                                 qpcore=qpcore)


def host_reference_ms(iterations: int = 400, repeats: int = 5) -> float:
    """Median time of a fixed pure-numpy loop of 7x7 solves and eigh
    calls. It shares nothing with cbf_hqp; printed beside the metrics, it
    shows how fast the host ran around a run."""
    rng = np.random.default_rng(12345)
    B = rng.standard_normal((7, 7))
    A = B @ B.T + 7.0 * np.eye(7)
    b = rng.standard_normal(7)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iterations):
            x = np.linalg.solve(A, b)
            w, V = np.linalg.eigh(A)
            b = x / np.linalg.norm(x) + 1e-3 * w[0] * V[:, 0]
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def setup_samples(text: str, n: int) -> list[float]:
    """Cold set-up times, each from a fresh interpreter."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                              input=text, capture_output=True, text=True,
                              cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(float(json.loads(proc.stdout.splitlines()[-1])["setup_s"]))
    return out


@dataclass
class Cell:
    """One grid cell: load, roll, write CSV, audit."""
    traced: bool
    periods: int = 0
    roll_s: float = 0.0
    cell_s: float = 0.0
    period_us: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    faulted_periods: int = 0
    fingerprint: dict | None = None
    counts: dict | None = None


def fingerprint(result, infos) -> dict:
    """Behaviour summary two commits can be compared by."""
    recs = result.records
    return {
        "peak_K": max(r.K for r in recs),
        "max_abs_dW": max(float(np.max(np.abs(r.dW))) for r in recs),
        "final_q": [float(v) for v in recs[-1].q],
        "phase1_count": sum(bool(i.phase1_used) for i in infos),
        "qp_iterations": sum(sum(i.iterations) for i in infos),
    }


def gate(wl, result, audit_problems) -> list[str]:
    problems = []
    if result.fault:
        problems.append(f"controller fault: {result.fault_reason}")
    problems += [f"audit: {p}" for p in audit_problems]
    if wl.energy_bounded and result.records:
        peak = max(r.K for r in result.records)
        if peak > result.k_max + K_TOL:
            problems.append(f"energy bound broken: peak K {peak:.9g} > "
                            f"k_max {result.k_max:.9g} + {K_TOL:g}")
    return problems


def run_cell(pkg, wl, text, probe, traced: bool) -> Cell:
    """One cell under `probe` (an EntryProbe, or the Tracer if traced),
    with the correctness gate and the probe integrity checks."""
    sim = pkg.sim
    cell = Cell(traced=traced)
    probe.infos.clear()
    n_spans = len(probe.log) if traced else 0
    clock = time.perf_counter_ns
    try:
        t0 = clock()
        scenario = sim.load_scenario(text)
        t1 = clock()
        result = sim.run_scenario(scenario, mode=wl.mode, duration=wl.window_s)
        t2, cpu2 = clock(), time.process_time_ns()
        sim.write_csv(result, OUT / f"{wl.name}.csv")
        audit_problems = sim.audit(result)
        t3 = clock()
    except Exception:  # a crash in the program fails the run, loudly
        cell.problems.append("exception in the program:\n"
                             + traceback.format_exc())
        cell.periods = len(probe.infos) + 1   # periods begun, the last raised
        return cell
    infos = probe.infos
    cell.periods = len(result.records)
    cell.roll_s = (t2 - t1) / 1e9
    cell.cell_s = (t3 - t0) / 1e9
    cell.faulted_periods = sum(bool(i.fault) for i in infos)
    cell.problems = gate(wl, result, audit_problems)
    if result.records:
        cell.fingerprint = fingerprint(result, infos)
    if traced:
        cell.counts = cell_counts(probe.log, n_spans, len(probe.log))
        cell.problems += check_counts(cell.counts, cell.periods)
    else:
        stamps = probe.stamps + [cpu2]
        if len(stamps) - 1 != cell.periods:
            cell.problems.append(f"control.step entry probe fired "
                                 f"{len(stamps) - 1} times over "
                                 f"{cell.periods} periods")
        cell.period_us = [(b - a) / 1e3 for a, b in zip(stamps, stamps[1:])]
    return cell


def run_cells(pkg, wl, text, seconds: float, trace: bool):
    """Repeat the cell until the time is used; with trace, alternate
    untraced and traced rollouts so host drift hits both alike."""
    tracer = Tracer(pkg.qpcore.FEAS_TOL) if trace else None
    cells: list[Cell] = []
    last_s = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(cells) % 2 == 1
        probe = tracer if traced else EntryProbe()
        t0 = time.perf_counter()
        with probe.install(pkg):
            cells.append(run_cell(pkg, wl, text, probe, traced))
        last_s[traced] = time.perf_counter() - t0
        if cells[-1].problems:
            break
        next_traced = trace and len(cells) % 2 == 1
        done = len(cells) >= (2 if trace else 1)
        if done and time.perf_counter() + last_s[next_traced] > deadline:
            break
    return cells, tracer


def consistency_problems(cells: list[Cell]) -> list[str]:
    """Identical rollouts must agree exactly: behaviour and counts."""
    problems = []
    prints = [c.fingerprint for c in cells if c.fingerprint is not None]
    if any(p != prints[0] for p in prints[1:]):
        problems.append("repeated rollouts of one seed differ in behaviour")
    counts = [c.counts for c in cells if c.counts is not None]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("repeated traced rollouts differ in span counts")
    return problems


def end_to_end_rows(wl, cells, setup) -> list[tuple]:
    plain = [c for c in cells if not c.traced]
    period_us = [v for c in plain for v in c.period_us]
    p99, q99 = percentile(period_us, 99.0)
    return [
        ("setup_s", median(setup), "s", f"median of {len(setup)}"),
        ("rtf", rollout_rtf(wl, plain), "s/s", f"median of {len(plain)} rollouts"),
        ("period_us_p50", median(period_us), "us", f"n={len(period_us)}"),
        ("period_us_p99", p99, "us", f"n={len(period_us)} q={q99:.2f}"),
        ("cell_s", median([c.cell_s for c in plain]), "s",
         f"median of {len(plain)}"),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", ""),
    ]


def per_layer_rows(wl, cells, tracer) -> list[tuple]:
    plain = [c for c in cells if not c.traced]
    traced = [c for c in cells if c.traced]
    rows = []
    if traced and traced[0].counts is not None:
        rows = [(k, v, u, note) for k, (v, u, note) in layer_metrics(
            tracer.log, traced[0].counts,
            sum(c.periods for c in traced)).items()]
    rtf, t_rtf = rollout_rtf(wl, plain), rollout_rtf(wl, traced)
    period_p50 = median([v for c in plain for v in c.period_us])
    entry_ns = entry_probe_overhead_ns()
    return rows + [
        ("trace.overhead_share", rtf / t_rtf - 1.0 if t_rtf else 0.0, "share",
         f"untraced rtf {rtf:.4f} / traced rtf {t_rtf:.4f} - 1"),
        ("probe.entry_overhead_share", entry_ns / 1e3 / max(1e-9, period_p50),
         "share", f"{entry_ns:.0f} ns per period"),
    ]


def rollout_rtf(wl, cells) -> float:
    """Median real-time factor, simulated over wall seconds of run_scenario."""
    return median([wl.window_s / c.roll_s for c in cells if c.roll_s > 0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        pkg = import_package()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bundled = pkg.sim.bundled_scenario_path(wl.scenario).read_text()
    text = scenario_text(bundled, wl.scenario, args.seed)

    host_before = host_reference_ms()
    setup = [] if args.trace else setup_samples(text, SETUP_SAMPLES)
    try:
        cells, tracer = run_cells(pkg, wl, text, args.seconds,
                                  bool(args.trace))
    except ProbeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    host_after = host_reference_ms()

    problems = [p for c in cells for p in c.problems]
    problems += consistency_problems(cells)
    attempted = sum(c.periods for c in cells)
    correct = not problems
    failed = sum(c.faulted_periods for c in cells) if correct else attempted
    for p in problems:
        print(f"perfbench: FAIL {p}", file=sys.stderr)

    print(f"perfbench {wl.name} (scenario {wl.scenario}, mode {wl.mode}, "
          f"{wl.window_s:g} s window) seed={args.seed} trace={args.trace}: "
          f"{len(cells)} rollouts, {attempted} periods")
    if cells[0].fingerprint is not None:
        print("  fingerprint " + json.dumps(cells[0].fingerprint))
    for i, c in enumerate(cells):
        line = (f"  rollout {i}{' traced' if c.traced else ''}: "
                f"{c.roll_s:.4f} s roll, {c.cell_s:.4f} s cell")
        if c.period_us:
            line += (f", period p50 {median(c.period_us):.1f} us, "
                     f"p99 {percentile(c.period_us, 99.0)[0]:.1f} us")
        print(line)

    fault = ("fault_rate", failed / max(1, attempted), "share",
             f"{failed}/{attempted}")
    host = [("host.ref_ms_before", host_before, "ms", "not gated"),
            ("host.ref_ms_after", host_after, "ms", "not gated")]
    if args.trace:
        rows = per_layer_rows(wl, cells, tracer) + host + [fault]
        shown = rows
        tracer.log.write_csv(OUT / f"spans_{wl.name}.csv")
    else:
        # fault_rate is 0 on a healthy run, so it is shown here and
        # reported among the per-layer metrics, not as an end-to-end one.
        rows = end_to_end_rows(wl, cells, setup)
        shown = rows + [fault] + host
    for name, value, unit, note in shown:
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())

    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows}
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
