"""Command-line front end.

Two subcommands:

  run    roll a scenario over a (mode, gamma) grid, write one CSV per
         combination, and print a summary table per run
  check  load a robot model and evaluate the dynamics invariants at
         randomly sampled states, printing pass/fail per invariant

Exit codes: 0 everything passed, 1 a run faulted or an invariant or
audit failed, 2 usage or I/O errors. Grid runs are independent and are
dispatched to a process pool; CBF_HQP_THREADS caps the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import ModelError, compute_state
from .sim import (Scenario, ScenarioError, audit, bundled_scenario_path,
                  csv_filename, load_scenario_file, resolve_model,
                  run_scenario, write_csv)


def _override(scenario: Scenario, flag: str, value, **change) -> Scenario:
    """The scenario with the barrier parameters a command-line flag sets."""
    try:
        return dataclasses.replace(
            scenario, cbf=dataclasses.replace(scenario.cbf, **change))
    except ValueError as exc:
        raise ScenarioError(f"{flag} {value:g}: {exc}") from None


@dataclass(frozen=True)
class RunSpec:
    """A (mode, gamma) grid over one scenario. Its cells, the scenario
    under each mode, each gamma and the k_max override, are built and
    checked here, before any of them runs."""
    scenario: Scenario
    modes: tuple[str, ...]
    gammas: tuple[float, ...]
    k_max: float | None
    duration: float | None
    out_dir: Path
    cells: tuple[Scenario, ...] = field(init=False)

    def __post_init__(self):
        base = self.scenario
        if self.k_max is not None:
            base = _override(base, "--kmax", self.k_max, k_max=self.k_max)
        by_gamma = [_override(base, "--gamma", g, gamma=g)
                    for g in self.gammas]
        cells = tuple(dataclasses.replace(sc, mode=m)
                      for m in self.modes for sc in by_gamma)
        if not cells:
            raise ScenarioError("a grid needs a mode and a gamma")
        names = [csv_filename(sc.name, sc.mode, sc.cbf.gamma) for sc in cells]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ScenarioError(
                    f"two grid cells would both write {name}")
        object.__setattr__(self, "cells", cells)


def _execute_run(job: tuple) -> dict:
    """One grid cell: roll, write, audit. Top level so the process
    pool can pickle it."""
    scenario, duration, out_dir = job
    result = run_scenario(scenario, duration=duration)
    path = Path(out_dir) / csv_filename(result.scenario_name, result.mode,
                                        result.gamma)
    write_csv(result, path)
    recs = result.records
    alpha = [abs(r.alpha_dev) for r in recs if np.isfinite(r.alpha_dev)]
    return {
        "name": path.stem,
        "path": str(path),
        "max_k": max(r.K for r in recs),
        "max_over": max(r.K - result.k_max for r in recs),
        "max_dw": max(float(np.max(np.abs(r.dW))) for r in recs),
        "max_alpha": max(alpha) if alpha else float("nan"),
        "mean_solve_us": float(np.mean([r.solve_time_us for r in recs])),
        "problems": audit(result),
    }


def _worker_cap(n_jobs: int) -> int:
    env = os.environ.get("CBF_HQP_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ScenarioError(f"CBF_HQP_THREADS is not an integer: '{env}'")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_jobs))


def cmd_run(spec: RunSpec) -> int:
    spec.out_dir.mkdir(parents=True, exist_ok=True)

    jobs = [(scenario, spec.duration, spec.out_dir) for scenario in spec.cells]
    workers = _worker_cap(len(jobs))
    if workers == 1:
        summaries = [_execute_run(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_execute_run, jobs))

    name_w = max(len(s["name"]) for s in summaries)
    header = (f"{'run':<{name_w}}  {'max K':>9}  {'max K-Kmax':>11}  "
              f"{'max |dW|':>9}  {'max |a-dev|':>11}  {'mean solve us':>13}")
    print(header)
    print("-" * len(header))
    for s in summaries:
        print(f"{s['name']:<{name_w}}  {s['max_k']:>9.5f}  "
              f"{s['max_over']:>+11.3e}  {s['max_dw']:>9.3e}  "
              f"{s['max_alpha']:>11.3e}  {s['mean_solve_us']:>13.1f}")

    failed = False
    for s in summaries:
        for p in s["problems"]:
            print(f"{s['name']}: {p}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


_CHECKS = ("mass-symmetry", "mass-positive-definite", "coriolis-skew",
           "jacobian-fd")


def cmd_check(model_ref: str, seed: int, n_states: int = 50) -> int:
    model = resolve_model(model_ref)
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(_CHECKS, 0.0)
    worst["mass-positive-definite"] = np.inf

    for _ in range(n_states):
        q = rng.uniform(model.q_min, model.q_max)
        qd = rng.uniform(-1.0, 1.0, model.n_joints) * model.v_max
        state = compute_state(model, q, qd)

        worst["mass-symmetry"] = max(worst["mass-symmetry"],
                                     np.max(np.abs(state.M - state.M.T)))
        worst["mass-positive-definite"] = min(
            worst["mass-positive-definite"], np.linalg.eigvalsh(state.M)[0])

        h = 1e-6
        dM = (compute_state(model, q + h * qd, qd).M
              - compute_state(model, q - h * qd, qd).M) / (2.0 * h)
        skew = (dM - 2.0 * state.C) + (dM - 2.0 * state.C).T
        worst["coriolis-skew"] = max(worst["coriolis-skew"],
                                     np.max(np.abs(skew)))

        fd = np.zeros((3, model.n_joints))
        for i in range(model.n_joints):
            e = np.zeros(model.n_joints)
            e[i] = 1e-7
            fd[:, i] = (compute_state(model, q + e, qd).ee_pos
                        - compute_state(model, q - e, qd).ee_pos) / 2e-7
        worst["jacobian-fd"] = max(worst["jacobian-fd"],
                                   np.max(np.abs(state.J[:3] - fd)))

    limits = {"mass-symmetry": 1e-10, "coriolis-skew": 1e-6,
              "jacobian-fd": 1e-5}
    failed = False
    for name in _CHECKS:
        if name == "mass-positive-definite":
            ok = worst[name] > 0.0
            detail = f"min eig {worst[name]:.3e}"
        else:
            ok = worst[name] <= limits[name]
            detail = f"worst {worst[name]:.3e} (limit {limits[name]:.0e})"
        print(f"{name:<24} {'pass' if ok else 'FAIL'}   {detail}")
        failed = failed or not ok
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cbf-hqp",
        description="Energy-bounded safety filtering experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="roll scenarios over a parameter grid")
    run.add_argument("--scenario", required=True,
                     help="scenario YAML path or bundled name "
                          "(step, sine, push)")
    run.add_argument("--mode", default=None,
                     help="comma-separated controller modes "
                          "(default: the scenario's own)")
    run.add_argument("--gamma", default=None,
                     help="comma-separated energy-barrier gains "
                          "(default: the scenario's own)")
    run.add_argument("--kmax", type=float, default=None,
                     help="kinetic-energy bound override (J)")
    run.add_argument("--duration", type=float, default=None,
                     help="simulated duration override (s)")
    run.add_argument("--out", default=".", help="output directory for CSVs")

    check = sub.add_parser("check", help="dynamics invariants on a model")
    check.add_argument("model", help="bundled model name or YAML path")
    check.add_argument("--seed", type=int, default=0,
                       help="RNG seed for the sampled states")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario_path = Path(args.scenario)
            if not scenario_path.exists() and "/" not in args.scenario:
                bundled = bundled_scenario_path(args.scenario)
                if bundled.exists():
                    scenario_path = bundled
            if not scenario_path.exists():
                print(f"scenario file not found: {scenario_path}",
                      file=sys.stderr)
                return 2
            scenario = load_scenario_file(scenario_path)
            modes = (tuple(args.mode.split(",")) if args.mode
                     else (scenario.mode,))
            gammas = (tuple(float(g) for g in args.gamma.split(","))
                      if args.gamma else (scenario.cbf.gamma,))
            spec = RunSpec(scenario=scenario, modes=modes, gammas=gammas,
                           k_max=args.kmax, duration=args.duration,
                           out_dir=Path(args.out))
            return cmd_run(spec)
        return cmd_check(args.model, args.seed)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except (ModelError, ScenarioError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
