"""Cartesian impedance control with a torque-level safety filter.

The nominal law is u_nom = J^T (K_c e - D_c J qd) + g with a stiffness
matrix K_c over [position error; quaternion-log orientation error] and a
configuration-dependent critical damping D_c = 2 sym(sqrt(Lambda K_c)),
Lambda = (J M^-1 J^T)^-1 being the task-space inertia.

Every control step the filter assembles the hard rows (actuation box and
any enabled limit barriers), the relaxable kinetic-energy row, and the
mode's priority levels, then runs the QP cascade:

  single_qp          one level: track u_nom, energy row hard (no slack)
  hqp_performance    1: task wrench  2: energy + slack  3: nullspace
  hqp_safety         1: energy + slack  2: task wrench  3: nullspace

The dynamically consistent projector P = J^T Lambda J M^-1 splits torque
into a task part and a nullspace part N = I - P. The cascade tracks them
through full-row-rank rows with the same norms (`task_rows`): the wrench
rows W = S U^T Lambda J M^-1, from the thin SVD J = U S V^T, satisfy
P = V W and so ||W x|| = ||P x||; the nullspace row kappa z^T, with z
spanning ker J and kappa = ||M z|| / (z^T M z), satisfies
|kappa z^T x| = ||N x|| because N x = M z (z^T x) / (z^T M z). The
wrench deviation Lambda J M^-1 (u - u_nom) and the nullspace coefficient
z^T (u - u_nom) = z^T N (u - u_nom) quantify where the filter spent its
adjustments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dynamics import RobotState
from .hqp import (CascadeInfeasibleError, LevelSpec, S0EmptyError, identity,
                  run_cascade)
from .tasks import (
    CbfParams,
    Task,
    acceleration_rows,
    collision_plane_rows,
    energy_cbf_row,
    torque_limit_rows,
)

Array = np.ndarray

MODES = ("single_qp", "hqp_performance", "hqp_safety")
STRICT_FAMILIES = ("torque", "velocity", "position", "plane")


class UnsupportedConfigurationError(RuntimeError):
    """The arm does not have the one-dimensional nullspace the
    nullspace row assumes."""


def _quat_log_error(q_des: tuple[float, ...], q_cur: Array) -> Array:
    """Rotation vector (base frame) taking the current orientation to the
    desired one: log of R_des R_cur^T. The quaternion product
    q_des conj(q_cur) runs on Python floats."""
    w1, x1, y1, z1 = q_des
    w2, x2, y2, z2 = q_cur.tolist()
    x2, y2, z2 = -x2, -y2, -z2
    e = np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])
    if e[0] < 0.0:
        e = -e
    v = e[1:]
    s = float(np.linalg.norm(v))
    if s < 1e-12:
        return np.zeros(3)
    angle = 2.0 * np.arctan2(s, float(e[0]))
    return angle * v / s


def _sqrtm_spd(A: Array) -> Array:
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


@dataclass(frozen=True)
class ImpedanceParams:
    """Stiffness and equilibrium pose of the nominal Cartesian law.

    Damping is not a field: it is derived per step from the stiffness
    and the task-space inertia so the closed loop stays critically
    damped in every configuration.
    """
    k_trans: tuple[float, float, float] = (200.0, 200.0, 200.0)
    k_rot: tuple[float, float, float] = (50.0, 50.0, 50.0)
    eq_position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    eq_quat: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("k_trans", "k_rot"):
            if not all(0.0 < k < np.inf for k in getattr(self, name)):
                raise ValueError(f"{name}: stiffnesses must be finite "
                                 f"numbers > 0")
        if not np.all(np.isfinite(self.eq_position)):
            raise ValueError("eq_position must hold finite numbers")
        q = np.asarray(self.eq_quat, dtype=float)
        if q.shape != (4,) or not abs(np.linalg.norm(q) - 1.0) <= 1e-6:
            raise ValueError("eq_quat must be a unit quaternion (w, x, y, z)")

    @cached_property
    def stiffness(self) -> Array:
        K = np.diag(np.concatenate([self.k_trans, self.k_rot]).astype(float))
        K.flags.writeable = False
        return K

    @cached_property
    def position_target(self) -> Array:
        """eq_position as a read-only float array."""
        p = np.asarray(self.eq_position, dtype=float)
        p.flags.writeable = False
        return p

    @cached_property
    def quat_target(self) -> tuple[float, ...]:
        """eq_quat as Python floats."""
        return tuple(float(v) for v in self.eq_quat)


def check_strict_families(families: tuple[str, ...], cbf: CbfParams) -> None:
    """Raise ValueError unless each family is one of STRICT_FAMILIES and
    is named once, and cbf configures the plane when 'plane' is named."""
    for i, fam in enumerate(families):
        if fam not in STRICT_FAMILIES:
            raise ValueError(f"unknown strict family '{fam}'")
        if fam in families[:i]:
            raise ValueError(f"strict family '{fam}' is named twice")
    if "plane" in families and cbf.plane_normal is None:
        raise ValueError("strict family 'plane' needs cbf.plane_normal")


@dataclass
class ControllerState:
    """Mutable per-simulation controller memory.

    delta_prev is the previous step's optimal energy slack (the discrete
    slack-rate term of the energy row); z_prev keeps the nullspace basis
    sign-continuous; u_prev, the last torque the filter returned, is the
    fallback torque on a fault. The cascade needs no start from it: its
    first level starts at u_nom.
    """
    mode: str
    cbf: CbfParams
    impedance: ImpedanceParams
    strict_families: tuple[str, ...] = ("torque", "velocity", "position")
    delta_prev: float = 0.0
    z_prev: Array | None = None
    u_prev: Array | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.delta_prev < 0.0:
            raise ValueError("delta_prev must be >= 0")
        check_strict_families(self.strict_families, self.cbf)


@dataclass
class StepInfo:
    """Everything one control step reports to the logger.

    phase1_used says u_nom broke a strict row by more than FEAS_TOL, so
    the cascade's first level projected it onto the strict rows.
    """
    u_nom: Array
    u_applied: Array
    K: float
    k_max_eff: float
    delta: float
    dW: Array
    alpha_dev: float
    statuses: tuple[str, ...]
    active_strict: tuple[str, ...]
    eq_residual: float
    iterations: tuple[int, ...]
    damped: bool
    phase1_used: bool
    fault: bool
    fault_reason: str
    solve_time_us: float


class TaskInertia(NamedTuple):
    """Task-space inertia lam = (J M^-1 J^T)^-1, its singularity-damping
    flag, and its square roots half = lam^1/2 and inv_half = lam^-1/2."""
    lam: Array
    damped: bool
    half: Array
    inv_half: Array


def task_space_inertia(state: RobotState) -> TaskInertia:
    """Task-space inertia Lambda = (J M^-1 J^T)^-1 and its square roots,
    all from one SVD J L = U S V^T, L L^T = M^-1 (Cholesky), which gives
    J M^-1 J^T = U diag(w) U^T with w = s^2 (zero past rank J). The SVD
    of the factor resolves the small w near a singularity to working
    precision; an eigendecomposition of the formed product would lose
    them to its roundoff of order eps * w_max.

    Near a kinematic singularity the inverse is damped with 1e-6 * I
    (w + 1e-6) and the flag goes up so logs can mark the step.
    """
    U, s, _ = np.linalg.svd(state.J @ np.linalg.cholesky(state.M_inv))
    w = np.zeros(U.shape[0])
    w[:s.shape[0]] = s * s
    damped = bool(w[-1] <= 1e-6 * max(1.0, w[0]))
    if damped:
        w += 1e-6
    root = np.sqrt(w)
    return TaskInertia(lam=(U / w) @ U.T, damped=damped,
                       half=(U / root) @ U.T, inv_half=(U * root) @ U.T)


def pose_error(state: RobotState, impedance: ImpedanceParams) -> Array:
    """6-vector [position error; orientation log error], desired minus
    current, in the base frame."""
    e_pos = impedance.position_target - state.ee_pos
    e_rot = _quat_log_error(impedance.quat_target, state.ee_quat)
    return np.concatenate([e_pos, e_rot])


def critical_damping(inertia: TaskInertia, stiffness: Array) -> Array:
    """D = 2 sym(sqrt(Lambda K_c)), the symmetrized principal square
    root, via sqrt(Lambda K) = L^1/2 sqrt(L^1/2 K L^1/2) L^-1/2 with the
    roots of `task_space_inertia`."""
    half = inertia.half
    X = half @ _sqrtm_spd(half @ stiffness @ half) @ inertia.inv_half
    return X + X.T


def nominal_torque(state: RobotState, impedance: ImpedanceParams,
                   inertia: TaskInertia) -> Array:
    """Impedance law u_nom = J^T (K_c e - D_c J qd) + g, with inertia
    the task-space inertia."""
    K_c = impedance.stiffness
    D_c = critical_damping(inertia, K_c)
    wrench = K_c @ pose_error(state, impedance) - D_c @ (state.J @ state.qd)
    return state.J.T @ wrench + state.g


def nullspace_basis(state: RobotState, z_prev: Array | None = None) -> Array:
    """Unit vector spanning the nullspace of J, sign-matched to z_prev.

    Raises UnsupportedConfigurationError unless that nullspace is
    exactly one-dimensional (redundant arm away from singularities).
    """
    _, s, Vt = state.J_svd
    rank = int(np.sum(s > 1e-8 * s[0]))
    if state.n - rank != 1:
        raise UnsupportedConfigurationError(
            f"nullspace dimension is {state.n - rank}, expected 1")
    z = Vt[-1]
    if z_prev is not None and float(z @ z_prev) < 0.0:
        z = -z
    return z


def task_rows(state: RobotState, lam: Array,
              z: Array | None) -> tuple[Array, Array]:
    """The wrench rows W and the nullspace row V of the module docstring;
    V has no rows when z is None (no one-dimensional nullspace). U S is
    read from the state's full SVD, U cut to its first len(s) columns."""
    U, s, _ = state.J_svd
    W = (s[:, None] * U[:, :s.shape[0]].T) @ (lam @ (state.J @ state.M_inv))
    if z is None:
        return W, np.zeros((0, state.n))
    Mz = state.M @ z
    return W, (np.linalg.norm(Mz) / float(z @ Mz)) * z[None, :]


def wrench_deviation(state: RobotState, u: Array, u_nom: Array,
                     lam: Array) -> Array:
    """Equivalent end-effector wrench of the torque adjustment:
    Lambda J M^-1 (u - u_nom); zero exactly when P (u - u_nom) = 0."""
    return lam @ (state.J @ (state.M_inv @ (u - u_nom)))


def build_strict_tasks(state: RobotState, ctrl: ControllerState,
                       tau_ext: Array | None) -> list[Task]:
    """The hard rows the controller enforces at every priority level, in
    the order ctrl.strict_families names them; the one acceleration task
    of the velocity and position families stands where the first of them
    is named."""
    tasks = []
    for fam in ctrl.strict_families:
        if fam == "torque":
            tasks.append(torque_limit_rows(state.model))
        elif fam == "plane":
            tasks.append(collision_plane_rows(state, ctrl.cbf, tau_ext))
        elif not any(t.label == "acceleration" for t in tasks):
            tasks.append(acceleration_rows(state, ctrl.cbf,
                                           ctrl.strict_families, tau_ext))
    return tasks


def _levels_for_mode(mode: str, u_nom: Array, energy: Task,
                     state: RobotState, lam: Array,
                     z: Array | None) -> list[LevelSpec]:
    """The mode's levels. The hqp modes track W, V from `task_rows`:
    ||W x|| = ||P x|| and |V x| = ||N x||, so task_wrench and nullspace
    minimize P, N (u - u_nom). single_qp tracks u_nom itself."""
    if mode == "single_qp":
        track = Task._trusted(identity(u_nom.shape[0]), u_nom,
                              "torque_tracking")
        hard_energy = Task._trusted(energy.A, energy.b, energy.label,
                                    row_labels=list(energy.row_labels))
        return [LevelSpec(equality=track, inequality=hard_energy)]
    W, V = task_rows(state, lam, z)
    cartesian = Task._trusted(W, W @ u_nom, "task_wrench")
    nullspace = Task._trusted(V, V @ u_nom, "nullspace")
    if mode == "hqp_performance":
        return [LevelSpec(equality=cartesian),
                LevelSpec(inequality=energy),
                LevelSpec(equality=nullspace)]
    return [LevelSpec(inequality=energy),
            LevelSpec(equality=cartesian),
            LevelSpec(equality=nullspace)]


def step(state: RobotState, ctrl: ControllerState,
         tau_ext: Array | None = None) -> tuple[Array, StepInfo]:
    """Run one control period: nominal law, safety filter, bookkeeping.

    On an infeasible constraint set the controller reports a fault and
    emits the last feasible torque (the nominal one if there is none
    yet); delta_prev is left untouched in that case.
    """
    t0 = time.perf_counter()
    inertia = task_space_inertia(state)
    lam = inertia.lam
    u_nom = nominal_torque(state, ctrl.impedance, inertia)

    z = None
    try:
        z = nullspace_basis(state, ctrl.z_prev)
    except UnsupportedConfigurationError:
        pass

    energy = energy_cbf_row(state, ctrl.cbf, tau_ext=tau_ext,
                            delta_prev=ctrl.delta_prev)
    strict = build_strict_tasks(state, ctrl, tau_ext)
    levels = _levels_for_mode(ctrl.mode, u_nom, energy, state, lam, z)

    fault = False
    reason = ""
    try:
        res = run_cascade(strict, levels, u_nom)
        u = res.u_final
        delta = max((r.delta for r in res.records), default=0.0)
        statuses = ("optimal",) * len(res.records)  # a failed level raises
        iterations = tuple(r.iterations for r in res.records)
        active = res.active_strict_rows
        eq_residual = res.eq_residual
        phase1_used = res.phase1_used
        ctrl.delta_prev = delta
        ctrl.u_prev = u.copy()
    except (S0EmptyError, CascadeInfeasibleError) as exc:
        fault = True
        reason = str(exc)
        u = ctrl.u_prev.copy() if ctrl.u_prev is not None else u_nom.copy()
        delta = ctrl.delta_prev
        statuses = ("fault",)
        iterations = ()
        active = ()
        eq_residual = float("nan")
        phase1_used = False

    if z is not None:
        alpha_dev = float(z @ (u - u_nom))
        ctrl.z_prev = z
    else:
        alpha_dev = float("nan")

    info = StepInfo(
        u_nom=u_nom, u_applied=u, K=state.K,
        k_max_eff=ctrl.cbf.k_max + delta, delta=delta,
        dW=wrench_deviation(state, u, u_nom, lam),
        alpha_dev=alpha_dev, statuses=statuses, active_strict=active,
        eq_residual=eq_residual, iterations=iterations, damped=inertia.damped,
        phase1_used=phase1_used, fault=fault, fault_reason=reason,
        solve_time_us=(time.perf_counter() - t0) * 1e6)
    return u, info
