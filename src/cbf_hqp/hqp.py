"""Lexicographic QP cascade over joint torques.

Priority levels are solved one at a time. Each level minimizes its own
objective subject to every constraint row accumulated so far; once it is
solved, its achieved equality values and its relaxed inequality bounds
are appended to the ledger as literal rows, so later levels can never
degrade what earlier levels attained. Stage 0 installs the rows that are
never negotiable (actuation box, barrier rows marked hard) and runs no
QP: the first level's solve meets them. When that level fails, the
cascade checks whether the strict rows alone admit a torque, and names
the violated rows when they do not.

A level may carry one equality task, one inequality task, or both:

    min  1/2 ||A u - b||^2 + RHO/2 delta^2
    s.t. ledger rows, C u + c * delta >= d, delta >= 0

with delta a single scalar shared by the level's inequality rows through
per-row coefficients c (c = 0 makes a row hard even inside a level).
After the solve, `A u = A u*` and `C u >= d - c delta*` join the ledger,
and the level's u*, delta* and iteration count are recorded.

The frozen equality rows are eliminated rather than re-solved: the
ledger keeps an orthonormal basis Z of their kernel and a witness w that
satisfies every ledger row, and each level searches u = w + Z y only
(the nullspace approach of Kanoun, Lamiraux & Wieber, IEEE T-RO 2011,
and Escande, Mansard & Wieber, IJRR 2014). An equality level then
shrinks Z to Z ker(A Z), formed only when a later level reads Z.

An equality level whose answer is its witness (the anchor is the
witness, A w == b exactly, no inequality task, and the ledger rows hold
at w) passes through: it freezes its rows at w and builds no QP. When
u_nom meets every row, only the levels with inequality rows solve.

Until the first equality level, Z is the identity. The ledger holds it
as None, and a level searches u = w + y directly: it forms no C Z, Z^T x
or Z y, whose products with an identity would give the same numbers.
The ledger's rows were checked where they entered (`Task`, the witness
of `init_stage0`), so a level poses its QP with `QpProblem._trusted`,
without the public constructor's conversions and checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .qpcore import (ADD_TOL, FEAS_TOL, REG, QpProblem, numerical_rank,
                     solve_qp)
from .tasks import Task

Array = np.ndarray

RHO = 1e3  # the slack penalty weight of every level


class S0EmptyError(RuntimeError):
    """The non-negotiable rows admit no torque at all.

    Carries (label, magnitude) pairs for every row violated at the
    least-infeasible point, worst first.
    """

    def __init__(self, violations: list[tuple[str, float]]):
        self.violations = violations
        worst = ", ".join(f"{lab} by {mag:.3g}" for lab, mag in violations)
        super().__init__(f"strict constraint set is empty; violated rows: {worst}")

    @property
    def most_violated(self) -> str:
        return self.violations[0][0]


class CascadeInfeasibleError(RuntimeError):
    """A priority level failed to solve (hard rows clashed, or the
    iteration limit was hit)."""

    def __init__(self, level: int, status: str):
        self.level = level
        self.status = status
        super().__init__(f"priority level {level} ended with status '{status}'")


@lru_cache(maxsize=None)
def identity(n: int) -> Array:
    """A shared read-only n x n identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _slack_of(task: Task | None) -> Array | None:
    """The task's slack coefficients when it has a slack variable, i.e.
    when some coefficient is positive; None for a hard task."""
    if task is not None and task.slack is not None and (task.slack > 0.0).any():
        return task.slack
    return None


@dataclass
class LevelRecord:
    """What one priority level did: its optimum u, its slack delta and
    the active-set iterations (0 for a level solved in closed form or
    whose unconstrained minimizer meets every row)."""
    u: Array
    delta: float
    iterations: int


@dataclass
class StageLedger:
    """Monotonically growing constraint stack shared across levels.

    Inequality rows installed at stage 0 (the first n_strict of A_in)
    are the non-negotiable ones; everything after them was frozen in by
    some solved level, and every equality row was. Row counts never
    shrink. Z is an orthonormal basis of the kernel of A_eq (held as
    None while it is the identity), and witness satisfies every row, so
    witness + Z y keeps every frozen equality for any y. The one
    exception is stage 0's witness (u_nom inside the cascade), kept as
    given: phase1_used says it breaks a strict row by more than
    FEAS_TOL, and then the first level projects it. An equality level
    leaves its A in a list of pending kernels, and the next read of Z
    folds them in order, Z <- Z ker(A Z), so neither the last level's
    kernel nor one that no later level reads is ever computed.
    strict_tasks holds the tasks behind the stage-0 rows, which are the
    only rows the cascade names; their labels are built on demand.
    """
    n: int
    A_eq: Array
    b_eq: Array
    A_in: Array
    b_in: Array
    n_strict: int
    witness: Array
    phase1_used: bool
    strict_tasks: list[Task] = field(default_factory=list)
    _Z: Array | None = field(default=None, repr=False)
    level: int = 0
    records: list[LevelRecord] = field(default_factory=list)
    _pending_kernels: list[Array] = field(default_factory=list, repr=False)

    @property
    def Z(self) -> Array:
        Z = self._basis()
        return identity(self.n) if Z is None else Z

    def _basis(self) -> Array | None:
        """Z after folding the pending kernels, None for the identity."""
        for A in self._pending_kernels:
            if self._Z is None:
                # I ker(A I) has ker(A)'s numbers in C order; later
                # products with Z round as they would with that product
                # only when Z has its layout
                self._Z = np.ascontiguousarray(_kernel(A))
            elif self._Z.shape[1]:
                self._Z = self._Z @ _kernel(A @ self._Z)
        self._pending_kernels.clear()
        return self._Z

    @property
    def witness_meets_rows(self) -> bool:
        """Whether the witness meets every ledger row within FEAS_TOL:
        always past stage 0, and at stage 0 unless phase1_used."""
        return bool(self.level) or not self.phase1_used

    @property
    def strict_labels(self) -> list[str]:
        return [lab for t in self.strict_tasks for lab in t.row_labels]

    def eq_violation(self, u: Array) -> float:
        if not self.A_eq.shape[0]:
            return 0.0
        return float(np.abs(self.A_eq @ u - self.b_eq).max())

    def in_violation(self, u: Array) -> float:
        if not self.A_in.shape[0]:
            return 0.0
        return float((self.b_in - self.A_in @ u).max(initial=0.0))

    def strict_tight_rows(self, u: Array) -> tuple[str, ...]:
        """Labels of the stage-0 inequality rows active at u, those with
        |A u - b| <= FEAS_TOL (1 + |b|), in order. The labels are built
        only when some row is tight."""
        m = self.n_strict
        rhs = self.b_in[:m]
        tight = np.flatnonzero(np.abs(self.A_in[:m] @ u - rhs)
                               <= FEAS_TOL * (1.0 + np.abs(rhs)))
        if not tight.size:
            return ()
        names = self.strict_labels
        return tuple(names[i] for i in tight)


@dataclass(frozen=True)
class LevelSpec:
    """One priority level: an equality task, whose rows read A u = b, an
    inequality task, whose rows read A u (+ c delta) >= b, or both."""
    equality: Task | None = None
    inequality: Task | None = None

    def __post_init__(self):
        if self.equality is None and self.inequality is None:
            raise ValueError("a level needs at least one task")


@dataclass
class HqpResult:
    """Outcome of a full cascade run: the final torque, one record per
    level, the worst frozen-equality residual at u_final, and the labels
    of the strict rows tight there. phase1_used says u_nom broke a
    strict row by more than FEAS_TOL, so the first level projected it
    onto the strict rows. A level that finds no optimum raises instead.
    """
    u_final: Array
    records: list[LevelRecord]
    eq_residual: float
    active_strict_rows: tuple[str, ...]
    phase1_used: bool


def _kernel(A: Array) -> Array:
    """Orthonormal basis of the kernel of A, one column per direction."""
    _, sig, Vt = np.linalg.svd(A)
    return Vt[numerical_rank(sig):].T


def _equal(a: Array, b: Array) -> bool:
    """Whether a and b have one shape and equal entries."""
    return a.shape == b.shape and bool((a == b).all())


def _interval_minimizer(a: Array, b: Array, y_unc: float) -> float | None:
    """Minimizer over {y : a y >= b} of a strictly convex scalar QP whose
    unconstrained minimizer is y_unc: y_unc clipped into the rows'
    interval, or None when the interval is empty. As in `solve_qp`, a
    row y_unc breaks by no more than ADD_TOL (1 + |b|) does not move it,
    and a row the clipped point breaks by no more than FEAS_TOL (1 + |b|)
    does not empty the interval.
    """
    scale = 1.0 + np.abs(b)
    viol = a * y_unc - b < -ADD_TOL * scale
    if not viol.any():
        return y_unc
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = b / a
    lo = bound[viol & (a > 0.0)].max(initial=-np.inf)
    hi = bound[viol & (a < 0.0)].min(initial=np.inf)
    y = min(max(y_unc, lo), hi)
    if not np.isfinite(y) or (a * y - b < -FEAS_TOL * scale).any():
        return None
    return y


def _least_infeasible(ledger: StageLedger, anchor: Array
                      ) -> list[tuple[str, float]]:
    """The strict rows violated by more than FEAS_TOL at the torque of
    min 1/2 ||s||^2 over A u + s >= b, the stage-0 rows (s >= 0 holds at
    the optimum without being imposed), worst first: empty when the rows
    admit a torque. Used only to name the rows of an empty strict set."""
    n, m = ledger.n, ledger.n_strict
    A, b = ledger.A_in[:m], ledger.b_in[:m]
    H = np.zeros((n + m, n + m))
    H[n:, n:] = np.eye(m)
    sol = solve_qp(QpProblem(H=H, f=np.zeros(n + m),
                             A_in=np.hstack([A, np.eye(m)]), b_in=b),
                   anchor=np.concatenate([anchor, np.zeros(m)]))
    gap = b - A @ sol.z_star[:n]
    viol = [(lab, float(g)) for lab, g in zip(ledger.strict_labels, gap)
            if g > FEAS_TOL]
    return sorted(viol, key=lambda item: -item[1])


def init_stage0(strict_tasks: list[Task], witness: Array) -> StageLedger:
    """Install the non-negotiable rows. Every strict task's rows read
    A u >= b and must be hard, so a task with slack or a task whose
    column count differs from the witness's length is refused, and so is
    a witness that is not a finite 1-D vector.

    The witness torque (inside a control loop, u_nom) sets n and becomes
    the ledger's witness as it is; phase1_used records that it breaks a
    strict row by more than FEAS_TOL. No QP runs here: the first level's
    solve meets the strict rows, and `run_cascade` names the violated
    rows when they admit no torque.
    """
    w = np.array(witness, dtype=float)
    if w.ndim != 1 or not np.isfinite(w).all():
        raise ValueError("witness must be a finite 1-D vector")
    n = w.shape[0]
    tasks = list(strict_tasks)
    for t in tasks:
        if _slack_of(t) is not None:
            raise ValueError(
                f"strict task '{t.label}' carries slack coefficients")
        if t.A.shape[1] != n:
            raise ValueError(f"strict task '{t.label}' has {t.A.shape[1]} "
                             f"columns, the witness {n} entries")

    A_in = np.concatenate([t.A for t in tasks]) if tasks else np.zeros((0, n))
    b_in = np.concatenate([t.b for t in tasks]) if tasks else np.zeros(0)
    ledger = StageLedger(n=n, A_eq=np.zeros((0, n)), b_eq=np.zeros(0),
                         A_in=A_in, b_in=b_in, n_strict=A_in.shape[0],
                         witness=w, phase1_used=False, strict_tasks=tasks)
    ledger.phase1_used = ledger.in_violation(w) > FEAS_TOL
    return ledger


def solve_level(ledger: StageLedger, spec: LevelSpec, anchor: Array
                ) -> tuple[Array, float, StageLedger]:
    """Solve the next priority level and freeze its outcome into the ledger.

    The level is solved over u = w + Z y (w the ledger's witness, Z its
    kernel basis), which holds every frozen equality row by
    construction; anchor (u_nom inside the cascade) centers the Tikhonov
    term. Returns (u_star, delta_star, ledger). The ledger is mutated in
    place: the equality task contributes rows A u = A u_star and shrinks
    Z, the inequality task adds rows C u >= d - c delta_star, and a
    LevelRecord is appended. A level with one free direction and no
    slack is a scalar QP over an interval and is minimized in closed
    form, without `solve_qp`; its record reports 0 iterations.

    An equality level with no inequality task passes through when the
    anchor is the witness, A w == b holds exactly and the ledger rows
    hold at w (always past stage 0, and at stage 0 unless phase1_used):
    its QP would have f = 0, a zero anchor and every row met at y = 0,
    so its answer is w after 0 iterations. Such a level builds no QP and
    reads no Z. Raises CascadeInfeasibleError if the level cannot be
    solved, which can only happen through hard (c = 0) inequality rows.
    """
    eq, ineq = spec.equality, spec.inequality
    n = ledger.n
    for t in (eq, ineq):
        if t is not None and t.A.shape[1] != n:
            raise ValueError(f"task '{t.label}' has {t.A.shape[1]} "
                             f"columns, the ledger's torque {n} entries")

    w = ledger.witness
    slack_coef = _slack_of(ineq)
    # Inequality rows C u + c delta >= d: the ledger's, then the level's.
    C, d = ledger.A_in, ledger.b_in
    if ineq is not None:
        C = np.concatenate([C, ineq.A])
        d = np.concatenate([d, ineq.b])
    Au = None  # A u_star, once known
    if ineq is None and ledger.witness_meets_rows and _equal(anchor, w):
        Au = eq.A @ w
        if not _equal(Au, eq.b):
            Au = None
    if Au is not None:
        u_star, delta, iterations = w, 0.0, 0
    else:
        u_star, delta, iterations = _level_optimum(ledger, eq, C, d,
                                                   slack_coef, anchor)

    if eq is not None:
        if Au is None:
            Au = eq.A @ u_star
        ledger.A_eq = np.concatenate([ledger.A_eq, eq.A])
        ledger.b_eq = np.concatenate([ledger.b_eq, Au])
        ledger._pending_kernels.append(eq.A)
    if ineq is not None:
        ledger.A_in = C
        ledger.b_in = d if slack_coef is None else np.concatenate(
            [ledger.b_in, ineq.b - slack_coef * delta])

    ledger.level += 1
    ledger.witness = u_star
    ledger.records.append(LevelRecord(u=u_star, delta=delta,
                                      iterations=iterations))
    return u_star, delta, ledger


def _level_optimum(ledger: StageLedger, eq: Task | None, C: Array, d: Array,
                   slack_coef: Array | None, anchor: Array
                   ) -> tuple[Array, float, int]:
    """The next level's (u_star, delta_star, iterations): the optimum of
    its QP over u = w + Z y and its slack, under the rows
    C u + c delta >= d (the ledger's, then the level's)."""
    w, Z = ledger.witness, ledger._basis()   # Z None: the identity
    k = ledger.n if Z is None else Z.shape[1]
    dim = k + (1 if slack_coef is not None else 0)
    level = ledger.level + 1
    m_ledger, m = ledger.b_in.shape[0], d.shape[0]

    # The same rows on the search space: A_in y >= b_in. The witness
    # meets every ledger row within FEAS_TOL, and a ledger row it misses
    # by less holds where the witness has it, so the ledger alone never
    # empties the level. Stage 0's witness may break the strict rows by
    # more; the first level then meets them as they are. With slack, the
    # level's rows gain the column c and the row delta >= 0.
    CZ = C if Z is None else C @ Z
    if slack_coef is None:
        A_in, b_in = CZ, d - C @ w
    else:
        A_in = np.zeros((m + 1, dim))
        A_in[:m, :k] = CZ
        A_in[m_ledger:m, k] = slack_coef
        A_in[m, k] = 1.0
        b_in = np.empty(m + 1)
        b_in[:m] = d - C @ w
        b_in[m] = 0.0
    if ledger.witness_meets_rows:
        b_in[:m_ledger] = np.minimum(b_in[:m_ledger], 0.0)

    # The level's QP in y (and delta): 1/2 ||A Z y - (b - A w)||^2 and
    # RHO/2 delta^2; y_anchor centers the Tikhonov term on the search
    # space. Only the equality part can leave H unsymmetric.
    H = np.zeros((dim, dim))
    f = np.zeros(dim)
    if slack_coef is not None:
        H[k, k] = RHO
    if eq is not None:
        if not np.isfinite(eq.b).all():
            raise ValueError(f"equality task '{eq.label}': b must be finite")
        AZ = eq.A if Z is None else eq.A @ Z
        H[:k, :k] = AZ.T @ AZ
        f[:k] = -AZ.T @ (eq.b - eq.A @ w)
        H = 0.5 * (H + H.T)
    y_anchor = np.zeros(dim)
    y_anchor[:k] = anchor - w if Z is None else Z.T @ (anchor - w)

    iterations = 0
    if dim == 0:
        # No free direction is left: the witness is the only candidate.
        if b_in.max(initial=0.0) > FEAS_TOL:
            raise CascadeInfeasibleError(level, "infeasible")
        y = np.zeros(0)
    elif dim == 1 and slack_coef is None:
        # One free direction and no slack: a scalar QP over an interval,
        # minimized in closed form.
        y = _interval_minimizer(
            A_in[:, 0], b_in,
            -(f[0] - 2.0 * REG * y_anchor[0]) / (H[0, 0] + 2.0 * REG))
        if y is None:
            raise CascadeInfeasibleError(level, "infeasible")
        y = np.array([y])
    else:
        sol = solve_qp(QpProblem._trusted(H, f, A_in, b_in), anchor=y_anchor)
        if sol.status != "optimal":
            raise CascadeInfeasibleError(level, sol.status)
        y, iterations = sol.z_star, sol.iterations
    delta = float(y[k]) if slack_coef is not None else 0.0
    return (w + y[:k] if Z is None else w + Z @ y[:k]), delta, iterations


def run_cascade(strict_tasks: list[Task], levels: list[LevelSpec],
                u_nom: Array) -> HqpResult:
    """Run the full priority cascade and report the final torque.

    u_nom is stage 0's witness and the regularization anchor of every
    level. Each level searches around the witness its predecessor left
    behind, so when u_nom meets every row, every level returns it. When
    the first level fails, S0EmptyError names the strict rows violated
    at the least-infeasible torque if the strict rows admit no torque;
    otherwise the level's CascadeInfeasibleError stands.
    """
    u_nom = np.asarray(u_nom, dtype=float)
    ledger = init_stage0(strict_tasks, u_nom)
    u = ledger.witness
    for spec in levels:
        try:
            u, _, ledger = solve_level(ledger, spec, u_nom)
        except CascadeInfeasibleError:
            viol = [] if ledger.level else _least_infeasible(ledger, u_nom)
            if viol:
                raise S0EmptyError(viol) from None
            raise
    return HqpResult(u_final=u, records=ledger.records,
                     eq_residual=ledger.eq_violation(u),
                     active_strict_rows=ledger.strict_tight_rows(u),
                     phase1_used=ledger.phase1_used)
