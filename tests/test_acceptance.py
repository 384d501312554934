"""End-to-end acceptance gate.

Rolls the two bundled experiments (an equilibrium step and a sinusoidal
end-effector force) across controller modes and barrier gains, then
checks the headline guarantees: the energy bound holds, the task wrench
is untouched while no safety row is active, the performance mode's
slack decays, and the solver layers agree with brute-force oracles on
randomized instances. Each criterion is one test and prints its own
pass/fail line.
"""

import time

import numpy as np
import pytest
from oracles import (
    cascade_violation,
    level_objective,
    max_violation,
    objective,
    oracle_solve,
    projections,
    random_levels,
    random_problem,
    random_strict,
    replay_level_qp,
    rk4_step,
)

from cbf_hqp.control import task_space_inertia
from cbf_hqp.dynamics import compute_state, load_bundled_model, mass_matrix
from cbf_hqp.hqp import LevelSpec, run_cascade
from cbf_hqp.qpcore import QpProblem, solve_qp
from cbf_hqp.sim import (audit, bundled_scenario_path, load_scenario_file,
                         run_scenario)
from cbf_hqp.tasks import Task

K_BOUND_TOL = 1e-6
WALL_LIMIT_S = 30.0

RUN_GRID = (
    ("step", "single_qp", (1.0, 5.0, 20.0)),
    ("step", "hqp_performance", (5.0,)),
    ("sine", "hqp_performance", (5.0,)),
    ("sine", "hqp_safety", (1.0, 5.0, 20.0)),
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def runs():
    """All experiment rollouts the criteria share, keyed by
    (scenario, mode, gamma); values are (result, wall_seconds)."""
    out = {}
    for name, mode, gammas in RUN_GRID:
        scenario = load_scenario_file(bundled_scenario_path(name))
        for gamma in gammas:
            t0 = time.perf_counter()
            res = run_scenario(scenario, mode=mode, gamma=gamma)
            wall = time.perf_counter() - t0
            assert not res.fault, f"{name}/{mode}/g={gamma}: {res.fault_reason}"
            assert audit(res) == [], f"{name}/{mode}/g={gamma}"
            out[(name, mode, gamma)] = (res, wall)
    return out


@pytest.fixture(scope="module")
def per_step_worst(runs):
    """Worst-case dynamics and projector residuals over every logged
    step of the two experiments in their native modes."""
    worst = {"skew": 0.0, "power": 0.0, "idem": 0.0, "null": 0.0}
    h = 1e-5
    for name, mode in (("step", "hqp_performance"), ("sine", "hqp_safety")):
        scenario = load_scenario_file(bundled_scenario_path(name))
        model = load_bundled_model(scenario.model_name)
        res, _ = runs[(name, mode, 5.0)]
        for rec in res.records:
            st = compute_state(model, rec.q, rec.qd)
            dM = (mass_matrix(model, rec.q + h * rec.qd)
                  - mass_matrix(model, rec.q - h * rec.qd)) / (2.0 * h)
            skew = (dM - 2.0 * st.C) + (dM - 2.0 * st.C).T
            worst["skew"] = max(worst["skew"], np.max(np.abs(skew)))

            wrench = scenario.wrench.at(rec.t)
            tau_ext = st.J.T @ wrench if wrench is not None else 0.0
            k_p = rk4_step(model, st, rec.u_applied, wrench, h).K
            k_m = rk4_step(model, st, rec.u_applied, wrench, -h).K
            k_dot_fd = (k_p - k_m) / (2.0 * h)
            power = rec.qd @ (rec.u_applied + tau_ext - st.g)
            worst["power"] = max(worst["power"], abs(k_dot_fd - power))

            P, N = projections(st)
            worst["idem"] = max(worst["idem"], np.max(np.abs(P @ P - P)))
            worst["null"] = max(worst["null"],
                                np.max(np.abs(st.J @ st.M_inv @ N)))
    return worst


def test_criterion_1_step_single_qp_respects_energy_bound(runs):
    peaks, walls = {}, {}
    for gamma in (1.0, 5.0, 20.0):
        res, wall = runs[("step", "single_qp", gamma)]
        peaks[gamma] = max(r.K for r in res.records)
        walls[gamma] = wall
    ok = (all(k <= 0.5 + K_BOUND_TOL for k in peaks.values())
          and all(w <= WALL_LIMIT_S for w in walls.values()))
    report(1, ok, "max K " + ", ".join(
        f"g={g:g}: {peaks[g]:.4f} J in {walls[g]:.1f} s" for g in peaks))


def test_criterion_2_wrench_untouched_while_inactive(runs):
    worst_dw, worst_eq, quiet_total = 0.0, 0.0, 0
    for name in ("step", "sine"):
        res, _ = runs[(name, "hqp_performance", 5.0)]
        quiet = [r for r in res.records if not r.active_strict]
        assert quiet, f"{name}: no steps with every safety row inactive"
        quiet_total += len(quiet)
        worst_dw = max(worst_dw, max(np.max(np.abs(r.dW)) for r in quiet))
        worst_eq = max(worst_eq, max(r.eq_residual for r in res.records))
    ok = worst_dw <= 1e-6 and worst_eq <= 1e-8
    report(2, ok, f"max |dW| {worst_dw:.2e} over {quiet_total} quiet steps, "
                  f"max frozen-equality residual {worst_eq:.2e}")


def test_criterion_3_performance_slack_engages_then_decays(runs):
    res, _ = runs[("step", "hqp_performance", 5.0)]
    transient = [r for r in res.records if r.delta > 0.0]
    final_delta = res.records[-1].delta
    energy_ok = all(r.K <= res.k_max + r.delta + K_BOUND_TOL
                    for r in res.records)
    ok = bool(transient) and final_delta <= 1e-12 and energy_ok
    report(3, ok, f"{len(transient)} steps with delta > 0, final delta "
                  f"{final_delta:.2e}, relaxed bound held: {energy_ok}")


def test_criterion_4_sine_hqp_safety_respects_energy_bound(runs):
    peaks = {g: max(r.K for r in runs[("sine", "hqp_safety", g)][0].records)
             for g in (1.0, 5.0, 20.0)}
    ok = all(k <= 0.5 + K_BOUND_TOL for k in peaks.values())
    report(4, ok, "max K " + ", ".join(
        f"g={g:g}: {k:.4f} J" for g, k in peaks.items()))


def test_criterion_5_nullspace_absorbs_the_intervention(runs):
    def worst_dev(key):
        res, _ = runs[key]
        vals = [abs(r.alpha_dev) for r in res.records
                if np.isfinite(r.alpha_dev)]
        return max(vals)

    single = worst_dev(("step", "single_qp", 5.0))
    hqp = worst_dev(("step", "hqp_performance", 5.0))
    ok = hqp >= 10.0 * single
    report(5, ok, f"max |alpha - alpha_nom| single_qp {single:.3e}, "
                  f"hqp_performance {hqp:.3e}, ratio {hqp / single:.1f}")


# ---------------------------------------------------------------------------
# Randomized solver agreement, on the seeded generators and the flat
# per-level replay in tests/oracles.py.


def test_criterion_6_cascades_match_stacked_oracle():
    rng = np.random.default_rng(20260815)
    worst_con, worst_obj, compared = 0.0, 0.0, 0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        strict, w = random_strict(rng, n)
        levels = random_levels(rng, n)
        res = run_cascade([strict], levels, rng.normal(size=n))
        con = cascade_violation([strict], levels, res.records, res.u_final)
        assert con <= 1e-8
        worst_con = max(worst_con, con)
        for j, spec in enumerate(levels):
            rec = res.records[j]
            prob = replay_level_qp(n, strict, res.records, levels, j)
            if prob.H.shape[0] > 8 or prob.A_in.shape[0] > 12:
                continue
            z, _ = oracle_solve(prob)
            assert z is not None, "oracle disagrees on level feasibility"
            delta_o = float(z[n]) if spec.inequality is not None else 0.0
            obj_o = level_objective(spec, z[:n], delta_o)
            gap = abs(level_objective(spec, rec.u, rec.delta) - obj_o) \
                / (1.0 + abs(obj_o))
            worst_obj = max(worst_obj, gap)
            compared += 1
    ok = worst_con <= 1e-8 and worst_obj <= 1e-6 and compared >= 1000
    report(6, ok, f"1000 cascades, worst constraint violation "
                  f"{worst_con:.2e}, worst level-objective gap {worst_obj:.2e} "
                  f"over {compared} oracle comparisons")


def test_criterion_7_dissipation_accounting_holds_on_logs(per_step_worst):
    ok = (per_step_worst["skew"] < 1e-6 and per_step_worst["power"] < 1e-3)
    report(7, ok, f"worst skew residual {per_step_worst['skew']:.2e}, "
                  f"worst power-balance residual {per_step_worst['power']:.2e}")


def test_criterion_8_projector_identities(per_step_worst):
    # The identities hold at regular configurations; draws the controller
    # itself would flag as singularity-damped are rejected (about 2% of
    # uniform draws over the full panda joint box).
    model = load_bundled_model("panda")
    rng = np.random.default_rng(1234)
    idem, null = per_step_worst["idem"], per_step_worst["null"]
    accepted = 0
    for _ in range(1000):
        if accepted == 100:
            break
        q = rng.uniform(model.q_min, model.q_max)
        qd = rng.uniform(-1.0, 1.0, model.n_joints) * model.v_max
        st = compute_state(model, q, qd)
        if task_space_inertia(st)[1]:
            continue
        P, N = projections(st)
        idem = max(idem, np.max(np.abs(P @ P - P)))
        null = max(null, np.max(np.abs(st.J @ st.M_inv @ N)))
        accepted += 1
    assert accepted == 100
    ok = idem <= 1e-8 and null <= 1e-8
    report(8, ok, f"worst |P^2 - P| {idem:.2e}, "
                  f"worst |J M^-1 N| {null:.2e}, logs + 100 random configs")


def test_criterion_9_single_level_cascade_equals_plain_qp():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        u_nom = rng.normal(size=n) * 2.0
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        b = A @ (rng.normal(size=n) * 0.3) - rng.uniform(0.1, 1.0, size=m)
        level = LevelSpec(
            equality=Task(kind="eq", A=np.eye(n), b=u_nom, label="track"),
            inequality=Task(kind="ineq", A=A, b=b, label="hard"))
        res = run_cascade([], [level], u_nom)
        direct = solve_qp(QpProblem(H=np.eye(n), f=-u_nom, A_in=A, b_in=b),
                          anchor=u_nom)
        assert direct.status == "optimal"
        worst = max(worst, np.max(np.abs(res.u_final - direct.z_star)))
    ok = worst <= 1e-8
    report(9, ok, f"worst torque mismatch {worst:.2e} over 100 instances")


def test_criterion_10_qp_solver_matches_enumeration_oracle():
    rng = np.random.default_rng(20260816)
    worst_obj, worst_feas, n_feasible, n_infeasible = 0.0, 0.0, 0, 0
    for k in range(1000):
        p = random_problem(rng, feasible=bool(k % 2))
        sol = solve_qp(p)
        z_ref, obj_ref = oracle_solve(p)
        if z_ref is None:
            assert sol.status == "infeasible", f"instance {k}"
            n_infeasible += 1
        else:
            assert sol.status == "optimal", f"instance {k}"
            worst_obj = max(worst_obj, abs(objective(p, sol.z_star) - obj_ref)
                            / (1.0 + abs(obj_ref)))
            worst_feas = max(worst_feas, max_violation(p, sol.z_star))
            n_feasible += 1
    ok = worst_obj <= 1e-6 and worst_feas <= 1e-8
    report(10, ok, f"{n_feasible} optimal / {n_infeasible} infeasible all "
                   f"classified alike, worst objective gap {worst_obj:.2e}, "
                   f"worst violation {worst_feas:.2e}")
