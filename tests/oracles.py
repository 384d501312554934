"""Test oracles kept out of the package: a brute-force QP solver, an
RK4 step of the simulator's vector field, and the n x n task and
nullspace projectors the controller's full-rank rows stand in for."""

from __future__ import annotations

import itertools

import numpy as np

from cbf_hqp.control import task_space_inertia
from cbf_hqp.dynamics import RobotModel, RobotState, compute_state
from cbf_hqp.qpcore import FEAS_TOL, REG, QpProblem

Array = np.ndarray


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
            obj = problem.objective(z)
            if obj < best_obj - 1e-12:
                best_obj = obj
                best_z = z

    return best_z, best_obj


def rk4_step(model: RobotModel, state: RobotState, u_applied: Array,
             wrench: Array | None = None, dt: float = 1e-3) -> RobotState:
    """Classical RK4 on the same held-input vector field (test oracle)."""
    u = np.asarray(u_applied, dtype=float)

    def accel(st: RobotState) -> Array:
        tau = u if wrench is None else u + st.J.T @ np.asarray(wrench, float)
        return st.M_inv @ (tau - st.C @ st.qd - st.g)

    def deriv(q, qd):
        st = compute_state(model, q, qd)
        return qd, accel(st)

    q, qd = state.q, state.qd
    k1q, k1v = deriv(q, qd)
    k2q, k2v = deriv(q + 0.5 * dt * k1q, qd + 0.5 * dt * k1v)
    k3q, k3v = deriv(q + 0.5 * dt * k2q, qd + 0.5 * dt * k2v)
    k4q, k4v = deriv(q + dt * k3q, qd + dt * k3v)
    q_next = q + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
    qd_next = qd + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
    return compute_state(model, q_next, qd_next)


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
