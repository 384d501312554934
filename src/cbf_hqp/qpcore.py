"""Dense convex quadratic programming with a primal active-set method.

Problems have the form

    min  1/2 z^T H z + f^T z
    s.t. A_eq z  = b_eq
         A_in z >= b_in

with H symmetric positive semidefinite. The solver adds a small Tikhonov
term eps * ||z - anchor||^2, which makes the Hessian positive definite
and picks the minimum-distance-to-anchor point whenever the optimum is
non-unique. Identical inputs produce identical outputs; there is no
randomization anywhere in the path.

A row that blocks a step joins the working set unconditionally. Should
nearly concurrent rows ever leave that set inconsistent (its face is
empty, so no step lands on all of its rows), the iteration idles until
MAX_ITER and the solve ends as 'max_iterations'; the cascade raises that
as CascadeInfeasibleError and the controller logs it as a fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Array = np.ndarray

FEAS_TOL = 1e-8
REG = 1e-9
MAX_ITER = 200


@dataclass
class QpProblem:
    H: Array
    f: Array
    A_eq: Array | None = None
    b_eq: Array | None = None
    A_in: Array | None = None
    b_in: Array | None = None

    def __post_init__(self):
        self.H = np.asarray(self.H, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        n = self.f.shape[0]
        if self.H.shape != (n, n):
            raise ValueError("H and f dimensions disagree")
        if np.max(np.abs(self.H - self.H.T), initial=0.0) > 1e-12:
            raise ValueError("H must be symmetric")
        if self.A_eq is None:
            self.A_eq = np.zeros((0, n))
            self.b_eq = np.zeros(0)
        else:
            self.A_eq = np.asarray(self.A_eq, dtype=float).reshape(-1, n)
            self.b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        if self.A_in is None:
            self.A_in = np.zeros((0, n))
            self.b_in = np.zeros(0)
        else:
            self.A_in = np.asarray(self.A_in, dtype=float).reshape(-1, n)
            self.b_in = np.asarray(self.b_in, dtype=float).reshape(-1)
        if self.A_eq.shape[0] != self.b_eq.shape[0]:
            raise ValueError("A_eq and b_eq row counts disagree")
        if self.A_in.shape[0] != self.b_in.shape[0]:
            raise ValueError("A_in and b_in row counts disagree")

    @property
    def n(self) -> int:
        return self.f.shape[0]

    def objective(self, z: Array) -> float:
        return float(0.5 * z @ self.H @ z + self.f @ z)

    def max_violation(self, z: Array) -> float:
        v = 0.0
        if self.A_eq.shape[0]:
            v = float(np.abs(self.A_eq @ z - self.b_eq).max())
        if self.A_in.shape[0]:
            v = max(v, float((self.b_in - self.A_in @ z).max(initial=0.0)))
        return v


@dataclass
class QpSolution:
    """Outcome of `solve_qp`. phase1_used says whether the start came from
    the phase-1 search (no feasible x0 was given). active_set (indices of
    the inequality rows tight within FEAS_TOL), objective_value, lam_eq
    and mu_in are computed from the problem on first read; the problem's
    arrays are not copied and must not be changed in place after the
    solve."""
    z_star: Array
    status: str                 # optimal | infeasible | max_iterations
    iterations: int
    phase1_used: bool
    problem: QpProblem = field(repr=False)
    work: list[int] = field(default_factory=list, repr=False)
    nu: Array = field(default_factory=lambda: np.zeros(0), repr=False)

    @cached_property
    def active_set(self) -> Array:
        if self.status == "infeasible" or not self.problem.A_in.shape[0]:
            return np.zeros(0, dtype=int)
        resid = self.problem.A_in @ self.z_star - self.problem.b_in
        return np.flatnonzero(np.abs(resid) <= FEAS_TOL)

    @cached_property
    def objective_value(self) -> float:
        if self.status == "infeasible":
            return float("nan")
        return self.problem.objective(self.z_star)

    @cached_property
    def lam_eq(self) -> Array:
        m_e = self.problem.A_eq.shape[0]
        return self.nu[:m_e] if self.nu.size >= m_e else np.zeros(m_e)

    @cached_property
    def mu_in(self) -> Array:
        m_e = self.problem.A_eq.shape[0]
        mu = np.zeros(self.problem.A_in.shape[0])
        for k, i in enumerate(self.work):
            if m_e + k < self.nu.size:
                mu[i] = self.nu[m_e + k]
        return mu


def numerical_rank(sig: Array) -> int:
    """Rank from singular values sorted in descending order."""
    return int(np.sum(sig > 1e-12 * max(1.0, sig[0] if sig.size else 0.0)))


def _newton_step(H: Array, grad: Array) -> Array:
    """Minimizer p of 1/2 p^T H p + grad^T p; least squares when H is
    singular or the direct solve leaves a residual."""
    try:
        p = -np.linalg.solve(H, grad)
        ok = (np.abs(H @ p + grad).max()
              <= 1e-9 * (1.0 + np.abs(grad).max()))
    except np.linalg.LinAlgError:
        ok = False
    if not ok:
        p = -np.linalg.lstsq(H, grad, rcond=None)[0]
    return p


def _kkt_step(H: Array, grad: Array, A_act: Array, resid: Array):
    """Direction and multipliers for the working-set subproblem.

    Solves min 1/2 p^T H p + grad^T p subject to A_act p = resid, where
    resid is the current violation of the working rows (zero once the
    iterate sits exactly on them; nonzero residuals from an inexact
    start get absorbed instead of carried along).

    Uses the nullspace method rather than a monolithic KKT solve: the
    curvature here spans many orders of magnitude (regularization-only
    directions against penalty-weighted ones), and factoring the full
    KKT matrix smears that conditioning into the constraint block. The
    returned multipliers are the least-squares solution of
    A_act^T nu = grad + H p, read off the same SVD, so they are the
    multipliers at z + p. full_rank says A_act has full row rank, in
    which case z + p lies on every working row.
    """
    U, sig, Vt = np.linalg.svd(A_act)
    r = numerical_rank(sig)
    U_r, V_r, sig_r = U[:, :r], Vt[:r].T, sig[:r]
    p = V_r @ ((U_r.T @ resid) / sig_r)
    N = Vt[r:].T
    if N.shape[1]:
        p = p + N @ _newton_step(N.T @ H @ N, N.T @ (grad + H @ p))
    nu = U_r @ ((V_r.T @ (grad + H @ p)) / sig_r)
    return p, nu, r == A_act.shape[0]


def _active_set_core(H: Array, f: Array, A_eq: Array, b_eq: Array,
                     A_in: Array, b_in: Array, z0: Array):
    """Primal active-set iteration from a start feasible within FEAS_TOL.

    An inequality row the start breaks holds where the start has it: its
    bound is clamped to the start's value. Pulling the iterate back onto
    such a row could be blocked for good by a tight row on its other
    side, when no point meets both exactly.

    A full step (alpha = 1) over working rows of full row rank lands on
    the minimizer of its face, and the step's multipliers are that
    point's: the iteration ends there (optimal) or drops the row with
    the most negative multiplier, without a further solve to confirm
    the point. The working-row matrix is rebuilt only when the working
    set changes, and the slack A_in z - b_in is carried along with the
    ratio test's d = A_in p.
    """
    m_e = A_eq.shape[0]
    z = z0.astype(float).copy()
    slack = A_in @ z
    b_in = np.minimum(b_in, slack)
    slack -= b_in
    work: list[int] = []
    nu = np.zeros(m_e)
    changed = True

    for it in range(1, MAX_ITER + 1):
        grad = H @ z + f
        if changed:
            A_act = np.vstack([A_eq, A_in[work]]) if work else A_eq
            face_tol = 1e-11 * (1.0 + max(np.abs(b_eq).max(initial=0.0),
                                          np.abs(b_in[work]).max(initial=0.0)))
            changed = False
        if A_act.shape[0]:
            resid = -slack[work]
            if m_e:
                resid = np.concatenate([b_eq - A_eq @ z, resid])
            p, nu, full_rank = _kkt_step(H, grad, A_act, resid)
            on_face = np.abs(resid).max() <= face_tol
        else:
            p, nu, full_rank, on_face = (_newton_step(H, grad), np.zeros(0),
                                         True, True)

        # Stationary when the step is negligible or cannot improve the
        # objective beyond roundoff. The second test matters for nearly
        # flat directions, where solve noise divided by the tiny
        # regularized curvature produces small wandering steps forever.
        # Neither applies while the iterate still has to be pulled onto
        # the working-set rows (resid nonzero): that correction step may
        # move uphill and must be taken.
        stationary = on_face and (
            np.abs(p).max(initial=0.0)
            <= 1e-10 * (1.0 + np.abs(z).max(initial=0.0))
            or -(grad @ p + 0.5 * p @ H @ p)
            <= 1e-17 * (1.0 + abs(0.5 * z @ grad + 0.5 * f @ z))
        )
        if not stationary:
            # Longest feasible step along p; inactive rows with
            # a^T p < 0 block.
            alpha = 1.0
            blocker = None
            d = A_in @ p
            blocking = d < -1e-12
            blocking[work] = False
            if blocking.any():
                ratio = np.full(d.shape[0], np.inf)
                ratio[blocking] = (np.maximum(slack[blocking], 0.0)
                                   / -d[blocking])
                i = int(np.argmin(ratio))
                if ratio[i] < alpha - 1e-14:
                    alpha, blocker = ratio[i], i
            z = z + alpha * p
            slack += alpha * d
            if blocker is not None:
                work.append(blocker)
                changed = True
                continue
            if not full_rank:
                continue

        mu_w = nu[m_e:]
        if mu_w.size == 0 or mu_w.min() >= -1e-9:
            return z, "optimal", it, work, nu
        work.pop(int(np.argmin(mu_w)))
        changed = True

    return z, "max_iterations", MAX_ITER, work, nu


def _phase1(A_eq: Array, b_eq: Array, A_in: Array, b_in: Array, n: int):
    """Feasibility search: minimize ||s||^2 over A_in z + s >= b_in, s >= 0.

    Returns (z, feasible, iterations). z is the minimizer's z block even
    when the constraints are inconsistent, so callers can report which
    rows are violated and by how much.
    """
    if A_eq.shape[0]:
        z0, *_ = np.linalg.lstsq(A_eq, b_eq, rcond=None)
        if np.max(np.abs(A_eq @ z0 - b_eq)) > FEAS_TOL:
            return z0, False, 0
    else:
        z0 = np.zeros(n)
    m_i = A_in.shape[0]
    if m_i == 0:
        return z0, True, 0

    # No regularization here: the objective ignores z entirely, and any
    # shrinkage term on z would prop s up at its own scale, which can
    # sit above the feasibility tolerance. Flat z directions are handled
    # by the least-squares fallback inside the step computation.
    nv = n + m_i
    H = np.zeros((nv, nv))
    H[n:, n:] = np.eye(m_i)
    f = np.zeros(nv)
    A_eq1 = np.hstack([A_eq, np.zeros((A_eq.shape[0], m_i))])
    A_in1 = np.vstack([
        np.hstack([A_in, np.eye(m_i)]),
        np.hstack([np.zeros((m_i, n)), np.eye(m_i)]),
    ])
    b_in1 = np.concatenate([b_in, np.zeros(m_i)])
    s0 = np.maximum(0.0, b_in - A_in @ z0)
    start = np.concatenate([z0, s0])
    sol, _, iters, _, _ = _active_set_core(H, f, A_eq1, b_eq, A_in1, b_in1,
                                           start)
    z = sol[:n]
    feasible = np.max(b_in - A_in @ z, initial=0.0) <= FEAS_TOL
    return z, feasible, iters


def solve_qp(problem: QpProblem, anchor: Array | None = None,
             x0: Array | None = None) -> QpSolution:
    """Solve the QP. `anchor` centers the Tikhonov term; a feasible `x0`
    skips the phase-1 search."""
    n = problem.n
    H = problem.H.copy()
    H.flat[::n + 1] += 2.0 * REG
    f = problem.f.copy()
    if anchor is not None:
        f -= 2.0 * REG * np.asarray(anchor, dtype=float)

    iters0 = 0
    z0 = None
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if problem.max_violation(x0) <= FEAS_TOL:
            z0 = x0
    phase1_used = z0 is None
    if phase1_used:
        z0, feasible, iters0 = _phase1(problem.A_eq, problem.b_eq,
                                       problem.A_in, problem.b_in, n)
        if not feasible:
            return QpSolution(z_star=z0, status="infeasible",
                              iterations=iters0, phase1_used=True,
                              problem=problem)

    z, status, iters, work, nu = _active_set_core(
        H, f, problem.A_eq, problem.b_eq, problem.A_in, problem.b_in, z0)
    return QpSolution(z_star=z, status=status, iterations=iters0 + iters,
                      phase1_used=phase1_used, problem=problem, work=work,
                      nu=nu)
