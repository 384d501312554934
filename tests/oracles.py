"""Test oracles kept out of the package: a brute-force QP solver, the
objective, violation, multipliers and tight rows of a QP solution, the
worst violation of a cascade's frozen rows, a level's QP posed the
general way (explicit C Z, validated QpProblem), the rollout audit as a
record-by-record loop, an RK4 step of the
simulator's vector field, the n x n task and nullspace projectors the
controller's full-rank rows stand in for, and the seeded random QPs and
cascades, with the flat per-level replay, that the solver and cascade
suites share."""

from __future__ import annotations

import itertools

import numpy as np

from cbf_hqp.control import task_space_inertia
from cbf_hqp.dynamics import RobotState, compute_state
from cbf_hqp.hqp import (RHO, CascadeInfeasibleError, LevelSpec,
                         _interval_minimizer)
from cbf_hqp.qpcore import FEAS_TOL, REG, QpProblem, QpSolution, solve_qp
from cbf_hqp.tasks import Task

Array = np.ndarray


def objective(problem: QpProblem, z: Array) -> float:
    return float(0.5 * z @ problem.H @ z + problem.f @ z)


def max_violation(problem: QpProblem, z: Array) -> float:
    v = 0.0
    if problem.A_eq.shape[0]:
        v = float(np.abs(problem.A_eq @ z - problem.b_eq).max())
    if problem.A_in.shape[0]:
        v = max(v, float((problem.b_in - problem.A_in @ z).max(initial=0.0)))
    return v


def multipliers(problem: QpProblem, sol: QpSolution) -> tuple[Array, Array]:
    """(lam_eq, mu_in): the solution's multipliers scattered over the
    equality and the inequality rows, zero on the rows not in working."""
    m_e = problem.A_eq.shape[0]
    nu = np.zeros(m_e + problem.A_in.shape[0])
    nu[sol.working] = sol.multipliers
    return nu[:m_e], nu[m_e:]


def active_rows(problem: QpProblem, z: Array) -> Array:
    """Indices of the inequality rows tight at z within FEAS_TOL."""
    return np.flatnonzero(np.abs(problem.A_in @ z - problem.b_in) <= FEAS_TOL)


def cascade_violation(strict_tasks: list[Task], levels: list[LevelSpec],
                      records, u: Array) -> float:
    """Worst violation at u of every row a cascade froze, rebuilt from
    its inputs and records: the strict rows A u >= b, A u = A u_j for
    each equality task and C u >= d - c delta_j for each inequality task
    (c = 0 for a hard one)."""
    v = 0.0
    for t in strict_tasks:
        v = max(v, float(np.max(t.b - t.A @ u, initial=0.0)))
    for spec, rec in zip(levels, records):
        if spec.equality is not None:
            A = spec.equality.A
            v = max(v, float(np.max(np.abs(A @ u - A @ rec.u), initial=0.0)))
        if spec.inequality is not None:
            t = spec.inequality
            c = t.slack if t.slack is not None else 0.0
            v = max(v, float(np.max(t.b - c * rec.delta - t.A @ u,
                                    initial=0.0)))
    return v


def general_level_optimum(ledger, eq, C, d, slack_coef, anchor):
    """A level's (u_star, delta_star, iterations) posed the general way,
    as `hqp._level_optimum` posed it before its identity and trusted
    shortcuts: the search space u = w + Z y with Z read from the ledger
    (an explicit identity before the first equality level), C Z formed,
    the slack column and the delta >= 0 row stacked on, and the QP
    built with the validating QpProblem constructor."""
    w, Z = ledger.witness, ledger.Z
    k = Z.shape[1]
    dim = k + (1 if slack_coef is not None else 0)
    A_in, b_in = C @ Z, d - C @ w
    if ledger.witness_meets_rows:
        m = ledger.b_in.shape[0]
        b_in[:m] = np.minimum(b_in[:m], 0.0)
    H = np.zeros((dim, dim))
    f = np.zeros(dim)
    if eq is not None:
        AZ = eq.A @ Z
        H[:k, :k] = AZ.T @ AZ
        f[:k] = -AZ.T @ (eq.b - eq.A @ w)
    if slack_coef is not None:
        H[k, k] = RHO
        c = np.concatenate([np.zeros(ledger.A_in.shape[0]), slack_coef])
        A_in = np.vstack([np.hstack([A_in, c[:, None]]), np.eye(1, dim, k)])
        b_in = np.append(b_in, 0.0)
    H = 0.5 * (H + H.T)
    y_anchor = np.zeros(dim)
    y_anchor[:k] = Z.T @ (anchor - w)
    iterations = 0
    if dim == 0:
        if b_in.max(initial=0.0) > FEAS_TOL:
            raise CascadeInfeasibleError(ledger.level + 1, "infeasible")
        y = np.zeros(0)
    elif dim == 1 and slack_coef is None:
        y = _interval_minimizer(
            A_in[:, 0], b_in,
            -(f[0] - 2.0 * REG * y_anchor[0]) / (H[0, 0] + 2.0 * REG))
        if y is None:
            raise CascadeInfeasibleError(ledger.level + 1, "infeasible")
        y = np.array([y])
    else:
        sol = solve_qp(QpProblem(H=H, f=f, A_in=A_in, b_in=b_in),
                       anchor=y_anchor)
        if sol.status != "optimal":
            raise CascadeInfeasibleError(ledger.level + 1, sol.status)
        y, iterations = sol.z_star, sol.iterations
    delta = float(y[k]) if slack_coef is not None else 0.0
    return w + Z @ y[:k], delta, iterations


def oracle_solve(problem: QpProblem) -> tuple[Array | None, float]:
    """Exhaustive-enumeration reference solver for small problems.

    Tries every subset of inequality rows as the active set, keeps the
    candidates that are primal feasible with nonnegative multipliers,
    and returns the best. Returns (None, inf) when no candidate exists,
    which for a positive definite Hessian means the problem is
    infeasible.
    """
    n = problem.n
    m_i = problem.A_in.shape[0]
    if n > 8 or m_i > 12:
        raise ValueError("problem too large for the exhaustive oracle")

    H = problem.H + 2.0 * REG * np.eye(n)
    f = problem.f
    m_e = problem.A_eq.shape[0]
    best_z = None
    best_obj = float("inf")

    for r in range(m_i + 1):
        for subset in itertools.combinations(range(m_i), r):
            S = list(subset)
            A_act = np.vstack([problem.A_eq, problem.A_in[S]])
            b_act = np.concatenate([problem.b_eq, problem.b_in[S]])
            m = A_act.shape[0]
            K = np.zeros((n + m, n + m))
            K[:n, :n] = H
            K[:n, n:] = A_act.T
            K[n:, :n] = A_act
            rhs = np.concatenate([-f, b_act])
            sol = np.linalg.lstsq(K, rhs, rcond=None)[0]
            if np.max(np.abs(K @ sol - rhs)) > 1e-7 * (1.0 + np.max(np.abs(rhs))):
                continue  # this face is empty or inconsistent
            z = sol[:n]
            # the KKT block solves H z + A^T y = -f, so y = -mu
            mu = -sol[n + m_e:]
            if m_i and np.max(problem.b_in - problem.A_in @ z, initial=0.0) > FEAS_TOL:
                continue
            if mu.size and np.min(mu) < -FEAS_TOL:
                continue
            obj = objective(problem, z)
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_z = z

    return best_z, best_obj


def audit_loop(result) -> list[str]:
    """`sim.audit` as a loop over the records, one record and one check
    at a time: the reference its vectorized pass must agree with."""
    problems = []
    if result.fault:
        problems.append(f"controller fault: {result.fault_reason}")
    elif len(result.records) != int(round(result.duration / result.dt)):
        problems.append("record count does not match duration/dt")
    prev_t = None
    for i, r in enumerate(result.records):
        if prev_t is not None and not np.isclose(r.t - prev_t, result.dt,
                                                 rtol=0, atol=1e-12):
            problems.append(f"time stride broken at record {i}")
            break
        prev_t = r.t
    for i, r in enumerate(result.records):
        numeric = np.concatenate(
            [r.q, r.qd, r.u_nom, r.u_applied, r.dW,
             [r.K, r.k_max_eff, r.delta, r.solve_time_us]])
        if not np.all(np.isfinite(numeric)):
            problems.append(f"non-finite value at record {i}")
            break
        if r.delta < 0.0:
            problems.append(f"negative slack at record {i}")
            break
        if abs(r.k_max_eff - (result.k_max + r.delta)) > 1e-12:
            problems.append(f"slack bookkeeping broken at record {i}")
            break
        if np.isfinite(r.eq_residual) and r.eq_residual > 1e-8:
            problems.append(f"inherited equality residual {r.eq_residual:.3g} "
                            f"at record {i}")
            break
    return problems


def rk4_step(state: RobotState, u_applied: Array,
             wrench: Array | None = None, dt: float = 1e-3) -> RobotState:
    """Classical RK4 on the same held-input vector field (test oracle)."""
    u = np.asarray(u_applied, dtype=float)

    def accel(st: RobotState) -> Array:
        tau = u if wrench is None else u + st.J.T @ np.asarray(wrench, float)
        return st.M_inv @ (tau - st.C @ st.qd - st.g)

    def deriv(q, qd):
        st = compute_state(state.model, q, qd)
        return qd, accel(st)

    q, qd = state.q, state.qd
    k1q, k1v = deriv(q, qd)
    k2q, k2v = deriv(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v)
    k3q, k3v = deriv(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v)
    k4q, k4v = deriv(q + dt * k3q, qd + dt * k3v)
    q_next = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
    qd_next = qd + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return compute_state(state.model, q_next, qd_next)


def projections(state: RobotState,
                lam: Array | None = None) -> tuple[Array, Array]:
    """Dynamically consistent task projector P = J^T Lambda J M^-1 and
    its complement N = I - P (torques in range(N) cause no task-space
    acceleration); Lambda is the controller's task-space inertia unless
    lam is given."""
    if lam is None:
        lam = task_space_inertia(state).lam
    P = state.J.T @ lam @ (state.J @ state.M_inv)
    return P, np.eye(state.n) - P


def two_eigh_damping(state: RobotState,
                     stiffness: Array) -> tuple[Array, bool, Array]:
    """(Lambda, damped, D) computed the long way: eigvalsh and inv of
    J M^-1 J^T for the damping flag and Lambda, then an eigh of Lambda
    for its square roots in D = 2 sym(sqrt(Lambda K))."""
    A = state.J @ state.M_inv @ state.J.T
    A = 0.5 * (A + A.T)
    w = np.linalg.eigvalsh(A)
    damped = bool(w[0] <= 1e-6 * max(1.0, w[-1]))
    if damped:
        A = A + 1e-6 * np.eye(A.shape[0])
    lam = np.linalg.inv(A)
    w, V = np.linalg.eigh(0.5 * (lam + lam.T))
    w = np.clip(w, 1e-12, None)
    half = (V * np.sqrt(w)) @ V.T
    inv_half = (V / np.sqrt(w)) @ V.T
    s, U = np.linalg.eigh(half @ stiffness @ half)
    X = half @ ((U * np.sqrt(np.clip(s, 0.0, None))) @ U.T) @ inv_half
    return lam, damped, X + X.T


def random_problem(rng, feasible=True):
    """A random QP; a feasible one has its rows built around a random
    point."""
    n = int(rng.integers(1, 6))
    m_e = int(rng.integers(0, 3)) if n > 1 else 0
    m_i = int(rng.integers(0, 9))
    G = rng.normal(size=(n, n))
    if rng.random() < 0.3:
        # rank-deficient curvature; the anchor term resolves the flat part
        G = G[: max(1, n - 1)]
    H = G.T @ G
    # least-squares shape: f in range(H), so flatness means ties rather
    # than an unbounded objective
    f = -G.T @ rng.normal(size=G.shape[0])
    A_eq = rng.normal(size=(m_e, n)) if m_e else None
    A_in = rng.normal(size=(m_i, n)) if m_i else None
    if feasible:
        z0 = rng.normal(size=n)
        b_eq = A_eq @ z0 if m_e else None
        b_in = A_in @ z0 - np.abs(rng.normal(size=m_i)) if m_i else None
    else:
        b_eq = rng.normal(size=m_e) if m_e else None
        b_in = rng.normal(size=m_i) if m_i else None
    return QpProblem(H=H, f=f, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)


def random_strict(rng, n):
    """A few random halfspaces guaranteed feasible at a witness point."""
    k = int(rng.integers(2, 4))
    A = rng.normal(size=(k, n))
    w = rng.normal(size=n) * 0.5
    b = A @ w - rng.uniform(0.2, 1.0, size=k)
    return Task(A=A, b=b, label="strict"), w


def random_levels(rng, n):
    """One to three levels, each an equality task, an inequality task
    with slack, or both."""
    levels = []
    for _ in range(int(rng.integers(1, 4))):
        eq = ineq = None
        pick = rng.integers(0, 3)
        if pick in (0, 2):
            r = int(rng.integers(1, n + 1))
            eq = Task(A=rng.normal(size=(r, n)),
                      b=rng.normal(size=r), label="track")
        if pick in (1, 2):
            r = int(rng.integers(1, 3))
            ineq = Task(A=rng.normal(size=(r, n)),
                        b=rng.normal(size=r), label="soft",
                        slack=rng.uniform(0.5, 2.0, size=r))
        levels.append(LevelSpec(equality=eq, inequality=ineq))
    return levels


def replay_level_qp(n, strict, records, levels, k):
    """Rebuild level k's stacked QP exactly as the cascade poses it,
    from the strict rows and the recorded outcomes of levels < k."""
    A_eq = np.zeros((0, n))
    b_eq = np.zeros(0)
    A_in, b_in = strict.A.copy(), strict.b.copy()
    for j in range(k):
        spec, rec = levels[j], records[j]
        if spec.equality is not None:
            A_eq = np.vstack([A_eq, spec.equality.A])
            b_eq = np.concatenate([b_eq, spec.equality.A @ rec.u])
        if spec.inequality is not None:
            A_in = np.vstack([A_in, spec.inequality.A])
            b_in = np.concatenate(
                [b_in, spec.inequality.b - spec.inequality.slack * rec.delta])
    spec = levels[k]
    slack = spec.inequality is not None
    dim = n + (1 if slack else 0)
    H = np.zeros((dim, dim))
    f = np.zeros(dim)
    if spec.equality is not None:
        H[:n, :n] += spec.equality.A.T @ spec.equality.A
        f[:n] -= spec.equality.A.T @ spec.equality.b
    rows = [np.hstack([A_in, np.zeros((A_in.shape[0], dim - n))])]
    rhs = [b_in]
    if slack:
        H[n, n] += RHO
        rows.append(np.hstack([spec.inequality.A,
                               spec.inequality.slack[:, None]]))
        rhs.append(spec.inequality.b)
        e = np.zeros((1, dim))
        e[0, n] = 1.0
        rows.append(e)
        rhs.append(np.zeros(1))
    eqs = np.hstack([A_eq, np.zeros((A_eq.shape[0], dim - n))])
    return QpProblem(H=0.5 * (H + H.T), f=f, A_eq=eqs, b_eq=b_eq,
                     A_in=np.vstack(rows), b_in=np.concatenate(rhs))


def level_objective(spec, u, delta):
    obj = 0.0
    if spec.equality is not None:
        r = spec.equality.A @ u - spec.equality.b
        obj += 0.5 * float(r @ r)
    if spec.inequality is not None:
        obj += 0.5 * RHO * delta * delta
    return obj
