"""Constraint rows for the torque QPs.

Every safety condition here is a control barrier function h(x) >= 0
turned into an affine inequality on the commanded torque u, of the form

    A u (+ c * delta) >= b

so the QP layers can stack rows from different sources without caring
where they came from. Rows carry no slack: the priority level that
holds a task may relax it (`hqp.LevelSpec.slack`).

Derivations, in brief:

* Kinetic energy. K = 1/2 qd^T M qd, and skew-symmetry of (Mdot - 2C)
  gives Kdot = qd^T (u + tau_ext - g) exactly, with no Coriolis term.
  The barrier is h = k_max - K + delta with a relaxation delta >= 0
  whose rate enters as a backward difference (delta - delta_prev)/dt.
  Requiring hdot + gamma h >= 0 yields

      -qd^T u + (gamma + 1/dt) delta
          >= -gamma (k_max - K) + delta_prev/dt + qd^T (tau_ext - g).

* Joint velocity, relative degree one. h = v_max_i -+ qd_i, and
  hdot = -+ qdd_i = -+ e_i^T M^{-1} (u + w) with the drift torque
  w = tau_ext - h - g, h = C qd the state's bias torque.

* Joint position, relative degree two. h = (q_max_i - q_i) or
  (q_i - q_min_i); cascading two first-order conditions with rates
  lambda1, lambda2 gives hddot + (l1+l2) hdot + l1 l2 h >= 0.

  Both families are per-joint bounds on qdd = M^-1 (u + w), so they
  are one task: `acceleration_rows` intersects them once per period and
  encodes the box as 2n rows.

* Plane clearance for the end effector, also relative degree two, with
  h = n^T p_ee - offset - d_min and hddot = n^T (Jdot qd + J M^{-1}(u+w)).
  Jdot qd is the rate of the Jacobian along qd, from one complex-step
  chain evaluation (`dynamics.jacobian_rate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dynamics import RobotModel, RobotState, jacobian_rate

Array = np.ndarray


@dataclass(frozen=True)
class CbfParams:
    """Barrier gains and geometry.

    Rates are 1/s and k_max is Joules. The optional plane
    (unit-normal direction, scalar offset, clearance d_min) defines the
    end-effector keep-out halfspace n.p >= offset + d_min.
    """
    k_max: float = 0.5
    gamma: float = 5.0
    gamma_velocity: float = 10.0
    lambda1: float = 10.0
    lambda2: float = 10.0
    plane_normal: tuple[float, float, float] | None = None
    plane_offset: float = 0.0
    d_min: float = 0.0

    def __post_init__(self):
        for name in ("k_max", "gamma", "gamma_velocity", "lambda1",
                     "lambda2"):
            if not (0.0 < getattr(self, name) < np.inf):
                raise ValueError(f"{name} must be a finite number > 0")
        for name in ("plane_offset", "d_min"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        if self.plane_normal is not None:
            n = np.asarray(self.plane_normal, dtype=float).reshape(-1)
            if n.shape[0] != 3 or not np.all(np.isfinite(n)) \
                    or np.linalg.norm(n) < 1e-12:
                raise ValueError("plane_normal must be a finite nonzero "
                                 "3-vector")


@dataclass
class Task:
    """A block of rows for the torque QP.

    The slot a task fills says what its rows mean: in a level's equality
    slot they read A u = b; in its inequality slot, and at stage 0, they
    read A u >= b. The rows carry no slack; a level that relaxes its
    inequality rows holds the coefficients (`hqp.LevelSpec.slack`).
    """
    A: Array
    b: Array
    label: str
    row_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A and b row counts disagree")
        if not np.isfinite(self.A).all():
            raise ValueError(f"task '{self.label}': A holds a nan or an "
                             f"infinity")
        # b = -inf is an inequality row that binds nothing
        if not (self.b < np.inf).all():
            raise ValueError(f"task '{self.label}': b holds a nan or +inf")
        if not self.row_labels:
            self.row_labels = _default_labels(self.label, self.b.shape[0])
        elif len(self.row_labels) != self.b.shape[0]:
            raise ValueError("row_labels and b row counts disagree")

    @classmethod
    def _trusted(cls, A: Array, b: Array, label: str,
                 row_labels: list[str] | None = None) -> Task:
        """A task from arrays the package built itself, without the
        conversions and checks of the public constructor: A a finite
        float (m, n) array, b a float (m,) array, and row_labels m labels
        or None for the default ones. On such input it equals
        Task(A, b, label, row_labels) field for field."""
        task = object.__new__(cls)
        task.A, task.b, task.label = A, b, label
        task.row_labels = (row_labels if row_labels is not None
                           else _default_labels(label, b.shape[0]))
        return task

    @property
    def m(self) -> int:
        return self.b.shape[0]


@lru_cache(maxsize=64)
def _label_table(label: str, m: int) -> tuple[str, ...]:
    return tuple(f"{label}[{i}]" for i in range(m))


def _default_labels(label: str, m: int) -> list[str]:
    """label[0], ..., label[m-1]: the row labels of an unlabelled task."""
    return list(_label_table(label, m))


def _drift_torque(state: RobotState, tau_ext: Array | None) -> Array:
    w = -state.h - state.g
    if tau_ext is not None:
        w = w + tau_ext
    return w


def energy_cbf_row(state: RobotState, params: CbfParams, dt: float,
                   tau_ext: Array | None = None,
                   delta_prev: float = 0.0) -> tuple[Task, float]:
    """Kinetic-energy barrier of a control period dt as one row
    -qd^T u >= b, and the coefficient c = gamma + 1/dt of its relaxation:
    a level holding the row with slack c enforces -qd^T u + c delta >= b,
    and one holding it without slack the unrelaxed barrier.
    """
    if not 0.0 <= delta_prev < np.inf:
        raise ValueError("delta_prev must be a finite number >= 0")
    qd = state.qd
    te = np.zeros(state.n) if tau_ext is None else np.asarray(tau_ext, float)
    A = -qd[None, :]
    b = np.array([
        -params.gamma * (params.k_max - state.K)
        + delta_prev / dt
        + qd @ (te - state.g)
    ])
    return (Task._trusted(A, b, "energy", row_labels=["energy"]),
            params.gamma + 1.0 / dt)


def torque_limit_rows(model: RobotModel) -> Task:
    """Symmetric torque box |u_i| <= tau_max_i as 2n hard rows.

    The task depends on the model only, so it is built on the first call
    for a model and the same task, with read-only arrays, is returned
    after that."""
    task = getattr(model, "_torque_rows", None)
    if task is None:
        n = model.n_joints
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([-model.tau_max, -model.tau_max])
        labels = [f"torque_min[{i}]" for i in range(n)] + \
                 [f"torque_max[{i}]" for i in range(n)]
        task = Task(A=A, b=b, label="torque", row_labels=labels)
        task.A.flags.writeable = task.b.flags.writeable = False
        model._torque_rows = task
    return task


def _family_bounds(state: RobotState, params: CbfParams,
                   family: str) -> tuple[Array, Array]:
    model = state.model
    if family == "velocity":
        g = params.gamma_velocity
        return -g * (state.qd + model.v_max), g * (model.v_max - state.qd)
    l1, l2 = params.lambda1, params.lambda2
    s, p = l1 + l2, l1 * l2
    return (-s * state.qd - p * (state.q - model.q_min),
            p * (model.q_max - state.q) - s * state.qd)


def acceleration_rows(state: RobotState, params: CbfParams, families,
                      tau_ext: Array | None = None) -> Task:
    """The bounds lo <= qdd <= hi the named barrier families put on this
    period's joint acceleration qdd = M^-1 (u + w), w = tau_ext - h - g,
    intersected and encoded as 2n rows A u >= b, upper bounds first.

    The velocity barrier gives -g (v_max + qd) <= qdd <= g (v_max - qd);
    the position barrier gives -s qd - p (q - q_min) <= qdd
    <= p (q_max - q) - s qd with s = l1 + l2 and p = l1 l2. Each row
    carries the label of the family whose bound sets it (vel_max/pos_max,
    vel_min/pos_min); on a tie, the family named first wins. families
    must name velocity or position.
    """
    named = tuple(f for f in families if f in ("velocity", "position"))
    bounds = [_family_bounds(state, params, f) for f in named]
    lo0, hi0 = lo, hi = bounds[0]
    for f_lo, f_hi in bounds[1:]:
        lo, hi = np.maximum(lo, f_lo), np.minimum(hi, f_hi)
    # the first family's bound where it binds, else the other family's
    upper, lower = _acceleration_labels(named, state.n)
    labels = [upper[i][k] for i, k in enumerate((hi0 > hi).tolist())] + \
             [lower[i][k] for i, k in enumerate((lo0 < lo).tolist())]
    a = state.M_inv @ _drift_torque(state, tau_ext)
    return Task._trusted(np.concatenate([-state.M_inv, state.M_inv]),
                         np.concatenate([a - hi, lo - a]), "acceleration",
                         row_labels=labels)


@lru_cache(maxsize=None)
def _acceleration_labels(named: tuple[str, ...], n: int):
    """Per joint, the labels of its upper and of its lower row, one per
    named family (vel_max[i], pos_max[i], ...)."""
    prefix = [f[:3] for f in named]  # vel, pos
    return (tuple(tuple(f"{p}_max[{i}]" for p in prefix) for i in range(n)),
            tuple(tuple(f"{p}_min[{i}]" for p in prefix) for i in range(n)))


def collision_plane_rows(state: RobotState, params: CbfParams,
                         tau_ext: Array | None = None) -> Task:
    """Keep the end effector on the positive side of the configured
    plane: h = n.p_ee - offset - d_min >= 0, relative degree two.
    """
    if params.plane_normal is None:
        raise ValueError("no plane configured in params")
    n_vec = np.asarray(params.plane_normal, dtype=float).reshape(3)
    n_vec = n_vec / np.linalg.norm(n_vec)

    w = _drift_torque(state, tau_ext)
    Jv = state.J[:3]
    h = float(n_vec @ state.ee_pos) - params.plane_offset - params.d_min
    hd = float(n_vec @ (Jv @ state.qd))

    Jdot_qd = jacobian_rate(state.model, state.q, state.qd)[:3]

    l1, l2 = params.lambda1, params.lambda2
    row = n_vec @ Jv @ state.M_inv
    b = (-n_vec @ Jdot_qd - (l1 + l2) * hd - l1 * l2 * h - row @ w)
    return Task._trusted(row[None, :], np.array([b]), "plane",
                         row_labels=["plane"])
