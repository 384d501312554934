"""Dense convex quadratic programming with a dual active-set method.

Problems have the form

    min  1/2 z^T H z + f^T z
    s.t. A_eq z  = b_eq
         A_in z >= b_in

with H symmetric positive semidefinite. The solver adds a small Tikhonov
term eps * ||z - anchor||^2, which makes the Hessian G = H + 2 eps I
positive definite and picks the minimum-distance-to-anchor point whenever
the optimum is non-unique. Identical inputs produce identical outputs;
there is no randomization anywhere in the path.

The method is the dual active-set method of Goldfarb and Idnani (Math.
Programming 27, 1983), and it needs no feasible start. It begins at the
minimizer of the regularized objective with no row active, adds the
equality rows, then adds the most violated inequality row, one row at a
time. A step toward the chosen row keeps the active rows tight; it is
cut short when an active inequality row's multiplier reaches zero, and
that row leaves the active set (the dual ratio test). A problem whose
minimizer already meets every row returns it after 0 iterations. A
violated row that admits neither a primal step (it depends on the active
rows) nor a dual step (no active multiplier bounds it) proves the rows
inconsistent, and the solve ends 'infeasible'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

Array = np.ndarray

FEAS_TOL = 1e-8
REG = 1e-9
MAX_ITER = 200
# A row joins the active set only when broken by more than ADD_TOL (1 + |b|),
# and is dependent on the active rows when its primal step z has
# z^T a <= DEPENDENT ||L^-1 a||^2.
ADD_TOL = 0.1 * FEAS_TOL
DEPENDENT = 1e-20


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
        for name, arr in (("H", self.H), ("f", self.f), ("A_eq", self.A_eq),
                          ("b_eq", self.b_eq), ("A_in", self.A_in)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds a nan or an infinity")
        # b_in = -inf is a row that binds nothing
        if not (self.b_in < np.inf).all():
            raise ValueError("b_in holds a nan or +inf")
        if np.abs(self.H - self.H.T).max(initial=0.0) > 1e-12:
            raise ValueError("H must be symmetric")

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
    """Outcome of `solve_qp`. working holds the rows active at z_star
    (equality rows by their index, inequality row i as m_eq + i) and
    multipliers their multipliers, in the same order. active_set
    (indices of the inequality rows tight within FEAS_TOL),
    objective_value, lam_eq and mu_in are computed from the problem on
    first read; the problem's arrays are not copied and must not be
    changed in place after the solve."""
    z_star: Array
    status: str                 # optimal | infeasible | max_iterations
    iterations: int
    problem: QpProblem = field(repr=False)
    working: list[int] = field(default_factory=list, repr=False)
    multipliers: Array = field(default_factory=lambda: np.zeros(0),
                               repr=False)

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

    def _scatter(self) -> Array:
        m_e = self.problem.A_eq.shape[0]
        nu = np.zeros(m_e + self.problem.A_in.shape[0])
        nu[self.working] = self.multipliers
        return nu

    @cached_property
    def lam_eq(self) -> Array:
        return self._scatter()[:self.problem.A_eq.shape[0]]

    @cached_property
    def mu_in(self) -> Array:
        return self._scatter()[self.problem.A_eq.shape[0]:]


def numerical_rank(sig: Array) -> int:
    """Rank from singular values sorted in descending order."""
    return int(np.sum(sig > 1e-12 * max(1.0, sig[0] if sig.size else 0.0)))


def _dual_core(G: Array, g: Array, A: Array, b: Array, m_e: int):
    """Goldfarb-Idnani iteration for min 1/2 z^T G z + g^T z with G
    positive definite, over the rows A z = b (the first m_e) and
    A z >= b (the rest).

    With G = L L^T the work is done in y = L^T z, where the objective is
    1/2 ||y - y0||^2 up to a constant and row i reads T_i y >= b_i with
    T_i = (L^-1 a_i)^T. The active rows are kept as T_W^T = Q R with
    R^-1 at hand: a row that joins adds a column by Gram-Schmidt, and a
    row that leaves has the factors recomputed. While row p is being
    added with multiplier u_p, the iterate is the point nearest
    c = y0 + u_p T_p on the active rows, recomputed with their
    multipliers from Q and R^-1 rather than updated step by step:
    updates would carry the roundoff of the stretched coordinates (L^-1
    is as large as 1 / sqrt(2 REG) along flat directions of H) into z.
    The part of T_p orthogonal to the active rows is the primal step,
    and the coefficients r of the rest are the rates at which the active
    multipliers fall as u_p grows.
    Returns (z, status, iterations, working, multipliers).
    """
    Li = np.linalg.inv(np.linalg.cholesky(G))
    T = A @ Li.T
    TT = np.einsum("ij,ij->i", T, T)
    y0 = -(Li @ g)
    scale = 1.0 + np.abs(b)
    add_at = b - ADD_TOL * scale  # a row goes in when T_i y < add_at_i
    active = np.zeros(b.shape[0], dtype=bool)
    met = np.zeros(b.shape[0], dtype=bool)  # pinned, accepted as met
    pending = list(range(m_e))  # the equality rows go in first
    work: list[int] = []
    Q, Rinv = np.zeros((y0.shape[0], 0)), np.zeros((0, 0))

    def face(c):
        """The point nearest c on the active rows, and their multipliers."""
        lam = Rinv.T @ b[work] - Q.T @ c
        return c + Q @ lam, Rinv @ lam

    y, u = y0, np.zeros(0)
    it = 0
    while True:
        if pending:
            p = pending.pop(0)
        else:
            e = T @ y - add_at
            e[:m_e] = np.inf
            e[active | met] = np.inf
            p = int(e.argmin()) if e.size else -1
            if p < 0 or e[p] >= 0.0:
                return Li.T @ y, "optimal", it, work, u
        u_p = 0.0
        while True:
            if it == MAX_ITER:
                return Li.T @ y, "max_iterations", it, work, u
            it += 1
            v = T[p]
            w = Q.T @ v
            v = v - Q @ w
            zn = float(v @ v)
            if zn < 0.5 * TT[p]:
                # a second Gram-Schmidt pass when the first cancelled
                # much of T_p keeps Q orthonormal
                w2 = Q.T @ v
                v = v - Q @ w2
                w = w + w2
                zn = float(v @ v)
            r = Rinv @ w
            s_p = float(T[p] @ y - b[p])
            primal = zn > DEPENDENT * TT[p]
            t2 = -s_p / zn if primal else np.inf
            t1, k = np.inf, -1
            if p >= m_e:
                # the dual ratio test over the active inequality rows
                for j, (r_j, u_j) in enumerate(zip(r.tolist(), u.tolist())):
                    u_j = max(u_j, 0.0)
                    if r_j > 0.0 and work[j] >= m_e and u_j < t1 * r_j:
                        t1, k = u_j / r_j, j
            if not primal and k < 0:
                # p depends on the active rows and no active multiplier
                # bounds the dual step: no point meets every row, unless
                # p is broken by no more than FEAS_TOL (1 + |b|). Such a
                # row is accepted as met while the active set stands.
                if abs(s_p) > FEAS_TOL * scale[p]:
                    return Li.T @ y, "infeasible", it, work, u
                met[p] = True
                y, u = face(y0)
                break
            met[:] = False
            if primal and t2 <= t1:
                rho = np.sqrt(zn)
                q = len(work)
                Ri = np.zeros((q + 1, q + 1))
                Ri[:q, :q] = Rinv
                Ri[:q, q] = -r / rho
                Ri[q, q] = 1.0 / rho
                Q, Rinv = np.column_stack([Q, v / rho]), Ri
                work.append(p)
                active[p] = True
                y, u = face(y0)
                break
            u_p += t1
            active[work.pop(k)] = False
            if work:
                Q, R = np.linalg.qr(T[work].T)
                Rinv = np.linalg.inv(R)
            else:
                Q, Rinv = Q[:, :0], Rinv[:0, :0]
            y, u = face(y0 + u_p * T[p])


def solve_qp(problem: QpProblem, anchor: Array | None = None) -> QpSolution:
    """Solve the QP; `anchor` centers the Tikhonov term (the origin when
    None), and the regularized minimizer is the method's start. An
    anchor that is not a finite (n,) vector is refused."""
    n = problem.n
    G = problem.H.copy()
    G.flat[::n + 1] += 2.0 * REG
    g = problem.f
    if anchor is not None:
        anchor = np.asarray(anchor, dtype=float)
        if anchor.shape != (n,) or not np.isfinite(anchor).all():
            raise ValueError(f"anchor must be a finite ({n},) vector")
        g = g - 2.0 * REG * anchor
    m_e = problem.A_eq.shape[0]
    A, b = problem.A_in, problem.b_in
    if m_e:
        A = np.vstack([problem.A_eq, A])
        b = np.concatenate([problem.b_eq, b])
    z, status, iters, work, u = _dual_core(G, g, A, b, m_e)
    return QpSolution(z_star=z, status=status, iterations=iters,
                      problem=problem, working=work, multipliers=u)
