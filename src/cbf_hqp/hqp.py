"""Lexicographic QP cascade over joint torques.

Priority levels are solved one at a time. Each level minimizes its own
objective subject to every constraint row accumulated so far; once it is
solved, its achieved equality values and its relaxed inequality bounds
are appended to the ledger as literal rows, so later levels can never
degrade what earlier levels attained. Stage 0 installs the rows that are
never negotiable (actuation box, barrier rows marked hard) and proves
that set nonempty before any level runs.

A level may carry one equality task, one inequality task, or both:

    min  1/2 ||A u - b||^2 + rho/2 delta^2
    s.t. ledger rows, C u + c * delta >= d, delta >= 0

with delta a single scalar shared by the level's inequality rows through
per-row coefficients c (c = 0 makes a row hard even inside a level).
After the solve, `A u = A u*` and `C u >= d - c delta*` join the ledger.

The frozen equality rows are eliminated rather than re-solved: the
ledger keeps an orthonormal basis Z of their kernel and a witness w that
satisfies every ledger row, and each level searches u = w + Z y only
(the nullspace approach of Kanoun, Lamiraux & Wieber, IEEE T-RO 2011,
and Escande, Mansard & Wieber, IJRR 2014). An equality level then
shrinks Z to Z ker(A Z).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qpcore import FEAS_TOL, QpProblem, numerical_rank, solve_qp
from .tasks import Task

Array = np.ndarray


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


@dataclass
class LevelRecord:
    """What one priority level did: its optimum, slack, objective value
    1/2 ||A u - b||^2 + rho/2 delta^2, the residual of all equality rows
    inherited from earlier levels, and which inequality rows were tight."""
    level: int
    status: str
    u: Array
    delta: float
    objective: float
    eq_residual: float
    active_rows: tuple[str, ...]
    iterations: int


@dataclass
class StageLedger:
    """Monotonically growing constraint stack shared across levels.

    Inequality rows installed at stage 0 (the first n_strict of A_in)
    are the non-negotiable ones; everything after them was frozen in by
    some solved level. Row counts never shrink. Z is an orthonormal
    basis of the kernel of A_eq, and witness satisfies every row, so
    witness + Z y keeps every frozen equality for any y.
    """
    n: int
    A_eq: Array
    b_eq: Array
    eq_labels: list[str]
    A_in: Array
    b_in: Array
    in_labels: list[str]
    n_strict: int
    witness: Array
    phase1_used: bool
    Z: Array
    level: int = 0
    records: list[LevelRecord] = field(default_factory=list)

    def eq_violation(self, u: Array) -> float:
        if not self.A_eq.shape[0]:
            return 0.0
        return float(np.max(np.abs(self.A_eq @ u - self.b_eq)))

    def in_violation(self, u: Array) -> float:
        if not self.A_in.shape[0]:
            return 0.0
        return float(np.max(self.b_in - self.A_in @ u, initial=0.0))

    def max_violation(self, u: Array) -> float:
        return max(self.eq_violation(u), self.in_violation(u))

    def strict_tight_rows(self, u: Array) -> tuple[str, ...]:
        """Labels of stage-0 inequality rows active at u."""
        m = self.n_strict
        return _tight_labels(self.in_labels, self.A_in[:m] @ u, self.b_in[:m])


@dataclass(frozen=True)
class LevelSpec:
    """One priority level: an equality task, an inequality task, or both,
    plus the slack penalty weight."""
    equality: Task | None = None
    inequality: Task | None = None
    rho: float = 1e3

    def __post_init__(self):
        if self.equality is None and self.inequality is None:
            raise ValueError("a level needs at least one task")
        if self.equality is not None and self.equality.kind != "eq":
            raise ValueError("equality slot holds a task of kind 'ineq'")
        if self.inequality is not None and self.inequality.kind != "ineq":
            raise ValueError("inequality slot holds a task of kind 'eq'")
        if self.inequality is not None and self.rho <= 0.0:
            raise ValueError("rho must be > 0 when an inequality task is present")


@dataclass
class HqpResult:
    """Outcome of a full cascade run.

    feasible means u_final satisfies every row the ledger ever
    accumulated within 1e-8 and every level reported an optimum.
    """
    u_final: Array
    records: list[LevelRecord]
    feasible: bool
    eq_residual: float
    max_violation: float
    active_strict_rows: tuple[str, ...]
    phase1_used: bool


def _tight_labels(labels: list[str], lhs: Array,
                  rhs: Array) -> tuple[str, ...]:
    """Labels of the rows with |lhs - rhs| <= FEAS_TOL (1 + |rhs|), in order."""
    tight = np.abs(lhs - rhs) <= FEAS_TOL * (1.0 + np.abs(rhs))
    return tuple(labels[i] for i in np.flatnonzero(tight))


def _kernel(A: Array) -> Array:
    """Orthonormal basis of the kernel of A, one column per direction."""
    _, sig, Vt = np.linalg.svd(A)
    return Vt[numerical_rank(sig):].T


def init_stage0(strict_tasks: list[Task], witness: Array | None = None,
                n: int | None = None) -> StageLedger:
    """Install the non-negotiable rows and prove them satisfiable.

    If a witness torque is supplied and already satisfies every row, the
    feasibility QP is skipped entirely (the common case inside a control
    loop, where the previous torque is such a witness). Raises
    S0EmptyError when no torque satisfies the rows.
    """
    tasks = list(strict_tasks)
    for t in tasks:
        if t.slack is not None and np.any(t.slack > 0.0):
            raise ValueError(
                f"strict task '{t.label}' carries slack coefficients")
    if tasks:
        n = tasks[0].A.shape[1]
    elif n is None:
        raise ValueError("n is required when there are no strict tasks")

    eq = [t for t in tasks if t.kind == "eq"]
    ineq = [t for t in tasks if t.kind == "ineq"]
    A_eq = np.vstack([t.A for t in eq]) if eq else np.zeros((0, n))
    b_eq = np.concatenate([t.b for t in eq]) if eq else np.zeros(0)
    eq_labels = [lab for t in eq for lab in t.row_labels]
    A_in = np.vstack([t.A for t in ineq]) if ineq else np.zeros((0, n))
    b_in = np.concatenate([t.b for t in ineq]) if ineq else np.zeros(0)
    in_labels = [lab for t in ineq for lab in t.row_labels]
    if any(t.A.shape[1] != n for t in tasks):
        raise ValueError("strict tasks disagree on torque dimension")

    ledger = StageLedger(n=n, A_eq=A_eq, b_eq=b_eq, eq_labels=eq_labels,
                         A_in=A_in, b_in=b_in, in_labels=in_labels,
                         n_strict=A_in.shape[0],
                         witness=np.zeros(n), phase1_used=False,
                         Z=_kernel(A_eq) if eq else np.eye(n))

    if witness is not None:
        w = np.asarray(witness, dtype=float)
        if ledger.max_violation(w) <= FEAS_TOL:
            ledger.witness = w.copy()
            return ledger

    feas = QpProblem(H=np.zeros((n, n)), f=np.zeros(n),
                     A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)
    sol = solve_qp(feas, anchor=witness)
    if sol.status == "infeasible":
        z = sol.z_star
        viol = [(lab, abs(float(A_eq[i] @ z - b_eq[i])))
                for i, lab in enumerate(eq_labels)]
        viol += [(lab, float(b_in[i] - A_in[i] @ z))
                 for i, lab in enumerate(in_labels)]
        viol = [(lab, v) for lab, v in viol if v > FEAS_TOL]
        viol.sort(key=lambda item: -item[1])
        if not viol:
            viol = [("unknown", float("nan"))]
        raise S0EmptyError(viol)
    if sol.status != "optimal":
        raise CascadeInfeasibleError(0, sol.status)
    ledger.witness = sol.z_star
    ledger.phase1_used = True
    return ledger


def solve_level(ledger: StageLedger, equality_task: Task | None = None,
                inequality_task: Task | None = None, rho: float = 1e3,
                regularization_anchor: Array | None = None
                ) -> tuple[Array, float, StageLedger]:
    """Solve the next priority level and freeze its outcome into the ledger.

    The level is solved over u = w + Z y (w the ledger's witness, Z its
    kernel basis), which holds every frozen equality row by
    construction. Returns (u_star, delta_star, ledger). The ledger is
    mutated in place: the equality task contributes rows A u = A u_star
    and shrinks Z, the inequality task adds rows C u >= d - c delta_star.
    Raises CascadeInfeasibleError if the level cannot be solved, which
    can only happen through hard (c = 0) inequality rows.
    """
    LevelSpec(equality_task, inequality_task, rho)  # validates the level
    n = ledger.n
    for t in (equality_task, inequality_task):
        if t is not None and t.A.shape[1] != n:
            raise ValueError(f"task '{t.label}' has wrong torque dimension")

    w, Z = ledger.witness, ledger.Z
    k = Z.shape[1]
    slack_coef = None
    if inequality_task is not None and inequality_task.slack is not None \
            and np.any(inequality_task.slack > 0.0):
        slack_coef = inequality_task.slack
    dim = k + (1 if slack_coef is not None else 0)

    # Inequality rows C u + c delta >= d: the ledger's, then the level's.
    C, d, c = ledger.A_in, ledger.b_in, np.zeros(ledger.A_in.shape[0])
    if inequality_task is not None:
        c_level = slack_coef if slack_coef is not None \
            else np.zeros(inequality_task.A.shape[0])
        C = np.vstack([C, inequality_task.A])
        d = np.concatenate([d, inequality_task.b])
        c = np.concatenate([c, c_level])

    level = ledger.level + 1
    if dim == 0:
        # No free direction is left: the witness is the only candidate.
        if np.max(d - C @ w, initial=0.0) > FEAS_TOL:
            raise CascadeInfeasibleError(level, "infeasible")
        u_star, delta, status, iterations = w.copy(), 0.0, "optimal", 0
    else:
        H = np.zeros((dim, dim))
        f = np.zeros(dim)
        if equality_task is not None:
            AZ = equality_task.A @ Z
            H[:k, :k] = AZ.T @ AZ
            f[:k] = -AZ.T @ (equality_task.b - equality_task.A @ w)
        A_in = C @ Z
        b_in = d - C @ w
        start = np.zeros(dim)
        if slack_coef is not None:
            H[k, k] = rho
            A_in = np.vstack([np.hstack([A_in, c[:, None]]),
                              np.eye(1, dim, k)])
            b_in = np.append(b_in, 0.0)
            need = inequality_task.b - inequality_task.A @ w
            pos = slack_coef > 0.0
            start[k] = max(0.0, float(np.max(need[pos] / slack_coef[pos])))
        H = 0.5 * (H + H.T)

        # The Tikhonov term eps ||u - anchor||^2 restricted to the search
        # space, up to a constant.
        anchor = np.zeros(dim)
        ref = np.zeros(n) if regularization_anchor is None \
            else regularization_anchor
        anchor[:k] = Z.T @ (ref - w)

        sol = solve_qp(QpProblem(H=H, f=f, A_in=A_in, b_in=b_in),
                       anchor=anchor, x0=start)
        if sol.status != "optimal":
            raise CascadeInfeasibleError(level, sol.status)
        u_star = w + Z @ sol.z_star[:k]
        delta = float(sol.z_star[k]) if slack_coef is not None else 0.0
        status, iterations = sol.status, sol.iterations

    objective = 0.0
    if equality_task is not None:
        r = equality_task.A @ u_star - equality_task.b
        objective += 0.5 * float(r @ r)
    if slack_coef is not None:
        objective += 0.5 * rho * delta * delta
    eq_residual = ledger.eq_violation(u_star)

    labels = list(ledger.in_labels)
    if inequality_task is not None:
        labels += [f"level{level}:{lab}" for lab in inequality_task.row_labels]
    lhs, rhs = C @ u_star + c * delta, d
    if slack_coef is not None:
        labels += [f"level{level}:slack"]
        lhs, rhs = np.append(lhs, delta), np.append(rhs, 0.0)
    active = _tight_labels(labels, lhs, rhs)

    if equality_task is not None:
        ledger.A_eq = np.vstack([ledger.A_eq, equality_task.A])
        ledger.b_eq = np.concatenate([ledger.b_eq, equality_task.A @ u_star])
        ledger.eq_labels += [f"level{level}:{lab}"
                             for lab in equality_task.row_labels]
        if k:
            ledger.Z = Z @ _kernel(equality_task.A @ Z)
    if inequality_task is not None:
        ledger.A_in = np.vstack([ledger.A_in, inequality_task.A])
        ledger.b_in = np.concatenate(
            [ledger.b_in, inequality_task.b - c_level * delta])
        ledger.in_labels += [f"level{level}:{lab}"
                             for lab in inequality_task.row_labels]

    ledger.level = level
    ledger.witness = u_star
    ledger.records.append(LevelRecord(
        level=level, status=status, u=u_star, delta=delta,
        objective=objective, eq_residual=eq_residual, active_rows=active,
        iterations=iterations))
    return u_star, delta, ledger


def run_cascade(strict_tasks: list[Task], levels: list[LevelSpec],
                u_nom: Array, x0: Array | None = None) -> HqpResult:
    """Run the full priority cascade and report the final torque.

    u_nom doubles as the regularization anchor of every level and as the
    default feasibility witness for stage 0; x0, when given (typically
    the previous control step's torque), takes over the witness role.
    Every level starts from the witness its predecessor left behind.
    """
    u_nom = np.asarray(u_nom, dtype=float)
    witness = x0 if x0 is not None else u_nom
    ledger = init_stage0(strict_tasks, witness=witness, n=u_nom.shape[0])
    u = ledger.witness
    for spec in levels:
        u, _, ledger = solve_level(
            ledger, spec.equality, spec.inequality, rho=spec.rho,
            regularization_anchor=u_nom)
    eq_residual = ledger.eq_violation(u)
    max_violation = ledger.max_violation(u)
    feasible = (max_violation <= 1e-8
                and all(r.status == "optimal" for r in ledger.records))
    return HqpResult(u_final=u, records=ledger.records, feasible=feasible,
                     eq_residual=eq_residual, max_violation=max_violation,
                     active_strict_rows=ledger.strict_tight_rows(u),
                     phase1_used=ledger.phase1_used)
