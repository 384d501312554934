"""Serial-chain rigid-body kinematics and dynamics.

Conventions
-----------
Joints are revolute and described by modified Denavit-Hartenberg rows
(Craig convention): the transform from frame i-1 to frame i is

    Rx(alpha) Tx(a) Rz(theta_offset + q_i) Tz(d)

so joint i rotates about the z axis of frame i. A fixed tool transform
maps the last joint frame to the end-effector frame.

The mass matrix is assembled from per-link center-of-mass Jacobians,

    M(q) = sum_i  m_i Jv_i^T Jv_i  +  Jw_i^T (R_i I_i R_i^T) Jw_i,

with I_i the rotational inertia about the COM in link axes.

The control loop needs the Coriolis/centrifugal terms only as the bias
torque h = C(q, qd) qd. By the Jacobian form of Newton-Euler (Siciliano
et al. 2009, ch. 7; Featherstone 2008) it is

    h = sum_i  Jv_i^T m_i Jvdot_i qd
             + Jw_i^T (I_w,i Jwdot_i qd + w_i x I_w,i w_i),

with w_i = Jw_i qd and I_w,i = R_i I_i R_i^T. compute_state evaluates
the chain once on the complex pair Q = [q, q + i eps qd]: the whole
chain is analytic in q, so the imaginary part of any quantity X at the
second row, divided by eps, is its rate dX/dt along qd with no
subtractive cancellation (complex step). That gives Jvdot_i qd, and
d/dt (I_w,i w_i) = I_w,i Jwdot_i qd + w_i x I_w,i w_i in one product,
while the first row gives M, g, J and the pose.

The full Coriolis matrix is built only when RobotState.C is read, from
Christoffel symbols of the first kind,

    C[k, j] = 1/2 sum_i (dM[i][k, j] + dM[j][k, i] - dM[k][i, j]) qd[i],

which makes dM/dt - 2C exactly skew-symmetric provided the partials
dM[i] = dM/dq_i are exact. The partials come from n complex-step
evaluations of the mass-matrix assembly, one per joint, and C qd equals
h to roundoff. Gravity is g(q) = -sum_i m_i Jv_i^T g_vec, the exact
gradient of the potential for the same model.

compute_state is the one evaluator of the dynamics: it accepts plain
array-likes and returns a RobotState that bundles, as read-only float64
arrays, every per-configuration quantity the controller, the integrator
and `cbf-hqp check` read, together with the model it was built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
import yaml

Array = np.ndarray

# Step of the complex-step derivatives (the rates along qd and the
# partials of M). There is no subtractive cancellation, so the step can
# sit far below sqrt(eps).
_CSTEP = 1e-100


class ModelError(ValueError):
    """Raised when a model description fails validation."""


@dataclass
class RobotModel:
    """Parameters of a fixed-base serial chain with revolute joints."""

    name: str
    n_joints: int
    dh_a: Array
    dh_d: Array
    dh_alpha: Array
    dh_theta_offset: Array
    mass: Array
    com: Array          # (n, 3) in link frames
    inertia: Array      # (n, 3, 3) about the COM, link axes
    q_min: Array
    q_max: Array
    v_max: Array
    tau_max: Array
    gravity: Array      # (3,) world frame, m/s^2
    ee_transform: Array  # (4, 4) fixed transform from last joint frame

    def __post_init__(self):
        for name in ("dh_a", "dh_d", "dh_alpha", "dh_theta_offset", "mass",
                     "com", "inertia", "q_min", "q_max", "v_max", "tau_max",
                     "gravity", "ee_transform"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.n_joints
        # Constant factors reused on every evaluation.
        self._tril = np.tril(np.ones((n, n)))
        self._inertia_chol = np.linalg.cholesky(self.inertia)
        self._sqrt_mass = np.sqrt(self.mass)
        self._com_col = self.com[:, :, None]
        self._mg = (self.mass[:, None] * self.gravity).reshape(-1)


def _scalar(value, where: str, kind=float, error=ModelError):
    """value as a `kind`, or `error` naming the field; bools, strings,
    nan, inf and, for an int field, fractions are refused, not
    converted."""
    try:
        out = None if isinstance(value, (bool, str)) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not np.isfinite(out) or (
            kind is int and not out.is_integer()):
        noun = "an integer" if kind is int else "a finite number"
        raise error(f"{where} must be {noun}, got {value!r}")
    return kind(out)


def _vector(value, length: int | None, where: str,
            error=ModelError) -> tuple[float, ...]:
    """value as `length` finite floats (any number of them when length
    is None), or `error` naming the field; as in `_scalar`, bool and
    string elements are refused, not converted."""
    try:
        if isinstance(value, str) or any(isinstance(v, (bool, str))
                                         for v in value):
            raise TypeError
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (length is not None and len(out) != length) or \
            not np.all(np.isfinite(out)):
        count = "" if length is None else f"{length} "
        raise error(f"{where} must be a list of {count}finite numbers, "
                    f"got {value!r}")
    return out


def _field(d, key: str, where: str):
    if not isinstance(d, dict):
        raise ModelError(f"{where} must be a mapping")
    if key not in d:
        raise ModelError(f"{where}.{key} is missing")
    return d[key]


def _number(d, key: str, where: str) -> float:
    return _scalar(_field(d, key, where), f"{where}.{key}")


def load_model(text: str) -> RobotModel:
    """Parse a YAML model description and validate it with the number
    rules of `_scalar`. Raises ModelError naming the offending field on
    invalid input.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ModelError(f"model is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ModelError("model root must be a mapping")

    name = str(raw.get("name", "unnamed"))
    links = _field(raw, "links", "model")
    if not isinstance(links, list) or not links:
        raise ModelError("model.links must be a non-empty list")
    n = len(links)

    a = np.zeros(n)
    d = np.zeros(n)
    alpha = np.zeros(n)
    theta_off = np.zeros(n)
    mass = np.zeros(n)
    com = np.zeros((n, 3))
    inertia = np.zeros((n, 3, 3))
    q_min = np.zeros(n)
    q_max = np.zeros(n)
    v_max = np.zeros(n)
    tau_max = np.zeros(n)

    for i, link in enumerate(links):
        where = f"links[{i}]"
        dh = _field(link, "dh", where)
        a[i] = _number(dh, "a", where + ".dh")
        d[i] = _number(dh, "d", where + ".dh")
        alpha[i] = _number(dh, "alpha", where + ".dh")
        theta_off[i] = _scalar(dh.get("theta_offset", 0.0),
                               where + ".dh.theta_offset")
        mass[i] = _number(link, "mass", where)
        if not mass[i] > 0.0:
            raise ModelError(f"{where}.mass must be > 0")
        com[i] = _vector(_field(link, "com", where), 3, where + ".com")
        rows = _field(link, "inertia", where)
        I = np.array([_vector(r, 3, where + ".inertia") for r in rows]) \
            if isinstance(rows, list) else None
        if I is None or I.shape != (3, 3):
            raise ModelError(f"{where}.inertia must be a 3x3 matrix")
        if np.max(np.abs(I - I.T)) > 1e-9:
            raise ModelError(f"{where}.inertia must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (I + I.T))) <= 0.0:
            raise ModelError(f"{where}.inertia must be positive definite")
        inertia[i] = I
        q_min[i] = _number(link, "q_min", where)
        q_max[i] = _number(link, "q_max", where)
        if not q_min[i] < q_max[i]:
            raise ModelError(f"{where}.q_min must be < {where}.q_max")
        v_max[i] = _number(link, "v_max", where)
        if not v_max[i] > 0.0:
            raise ModelError(f"{where}.v_max must be > 0")
        tau_max[i] = _number(link, "tau_max", where)
        if not tau_max[i] > 0.0:
            raise ModelError(f"{where}.tau_max must be > 0")

    gravity = np.array(_vector(raw.get("gravity", (0.0, 0.0, -9.81)), 3,
                               "model.gravity"))

    ee = np.eye(4)
    if "ee_transform" in raw:
        spec = raw["ee_transform"]
        if not isinstance(spec, dict):
            raise ModelError("model.ee_transform must be a mapping")
        ee[:3, 3] = _vector(spec.get("translation", (0.0, 0.0, 0.0)), 3,
                            "ee_transform.translation")
        if "rpy" in spec:
            r, p, y = _vector(spec["rpy"], 3, "ee_transform.rpy")
            ee[:3, :3] = _rotz(y) @ _roty(p) @ _rotx(r)

    return RobotModel(name=name, n_joints=n, dh_a=a, dh_d=d, dh_alpha=alpha,
                      dh_theta_offset=theta_off, mass=mass, com=com,
                      inertia=inertia, q_min=q_min, q_max=q_max, v_max=v_max,
                      tau_max=tau_max, gravity=gravity, ee_transform=ee)


def load_model_file(path: str | Path) -> RobotModel:
    return load_model(Path(path).read_text())


def bundled_model_path(name: str) -> Path:
    """Path of a model shipped with the package (e.g. 'panda')."""
    return Path(__file__).parent / "data" / "models" / f"{name}.yaml"


def load_bundled_model(name: str) -> RobotModel:
    path = bundled_model_path(name)
    if not path.exists():
        raise ModelError(f"no bundled model named '{name}'")
    return load_model_file(path)


def _rotx(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def _roty(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _rotz(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


# ---------------------------------------------------------------------------
# Batched chain evaluation. Q has shape (B, n) and may be complex; every
# derived array keeps the batch axis first so one call serves both the
# nominal configuration and its complex-step perturbations.

def _chain(model: RobotModel, Q: Array):
    B, n = Q.shape
    dtype = Q.dtype
    theta = Q + model.dh_theta_offset
    ct, st = np.cos(theta), np.sin(theta)          # (B, n)
    ca, sa = np.cos(model.dh_alpha), np.sin(model.dh_alpha)  # (n,)

    T_loc = np.zeros((B, n, 4, 4), dtype=dtype)
    T_loc[..., 0, 0] = ct
    T_loc[..., 0, 1] = -st
    T_loc[..., 0, 3] = model.dh_a
    T_loc[..., 1, 0] = st * ca
    T_loc[..., 1, 1] = ct * ca
    T_loc[..., 1, 2] = -sa
    T_loc[..., 1, 3] = -sa * model.dh_d
    T_loc[..., 2, 0] = st * sa
    T_loc[..., 2, 1] = ct * sa
    T_loc[..., 2, 2] = ca
    T_loc[..., 2, 3] = ca * model.dh_d
    T_loc[..., 3, 3] = 1.0

    T = np.empty_like(T_loc)
    T[:, 0] = T_loc[:, 0]
    for i in range(1, n):
        T[:, i] = T[:, i - 1] @ T_loc[:, i]
    return T


def _cross_rows(a: Array, b: Array) -> Array:
    """Cross product over a trailing axis of length 3, no reordering."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _link_jacobians(model: RobotModel, T: Array):
    """COM Jacobians for every link, batched.

    Returns Jv, Jw with shape (B, n_links, 3, n_joints) where
    [b, l, :, j] is the column of joint j for link l.
    """
    n = model.n_joints
    z = T[..., :3, 2]          # (B, n, 3) joint axes in world
    o = T[..., :3, 3]          # (B, n, 3) joint origins
    R = T[..., :3, :3]
    p = (R @ model._com_col)[..., 0] + o    # (B, n, 3) link COMs in world
    diff = p[:, :, None, :] - o[:, None, :, :]            # (B, L, n, 3)
    cr = _cross_rows(z[:, None, :, :], diff)              # (B, L, n, 3)
    mask = model._tril[None, :, :, None]                  # joint j moves link l iff j <= l
    Jv = np.swapaxes(cr * mask, -1, -2)                   # (B, L, 3, n)
    Jw = np.swapaxes(z[:, None, :, :] * mask, -1, -2)
    return Jv, Jw


def _mass_matrix_batched(model: RobotModel, T: Array, jac=None) -> Array:
    """M(q) as a sum of two Gram products over stacked link Jacobians."""
    B = T.shape[0]
    n = model.n_joints
    Jv, Jw = jac if jac is not None else _link_jacobians(model, T)
    Gv = (model._sqrt_mass[:, None, None] * Jv).reshape(B, 3 * n, n)
    # R @ chol(I) factors the world inertia, so the angular part is a
    # Gram product too: Jw^T (R I R^T) Jw = (S^T R^T Jw)^T (S^T R^T Jw).
    RS = T[..., :3, :3] @ model._inertia_chol
    Gw = (np.swapaxes(RS, -1, -2) @ Jw).reshape(B, 3 * n, n)
    return np.swapaxes(Gv, -1, -2) @ Gv + np.swapaxes(Gw, -1, -2) @ Gw


def _ee_terms(model: RobotModel, T: Array):
    """End-effector pose (4x4) and 6xn geometric Jacobian, batched."""
    T_ee = T[:, -1] @ model.ee_transform
    z = T[..., :3, 2]
    o = T[..., :3, 3]
    p_ee = T_ee[:, :3, 3]
    Jv = _cross_rows(z, p_ee[:, None, :] - o)   # (B, n, 3)
    J = np.concatenate([np.swapaxes(Jv, 1, 2), np.swapaxes(z, 1, 2)], axis=1)
    return T_ee, J


def _quat_from_rot(R: Array) -> Array:
    """Unit quaternion (w, x, y, z) from a rotation matrix, w >= 0."""
    t = np.trace(R)
    if t > 0.0:
        r = np.sqrt(1.0 + t)
        w = 0.5 * r
        x = 0.5 * (R[2, 1] - R[1, 2]) / r
        y = 0.5 * (R[0, 2] - R[2, 0]) / r
        z = 0.5 * (R[1, 0] - R[0, 1]) / r
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        r = np.sqrt(1.0 + R[i, i] - R[j, j] - R[k, k])
        v = np.empty(3)
        v[i] = 0.5 * r
        v[j] = 0.5 * (R[j, i] + R[i, j]) / r
        v[k] = 0.5 * (R[k, i] + R[i, k]) / r
        w = 0.5 * (R[k, j] - R[j, k]) / r
        x, y, z = v
    q = np.array([w, x, y, z])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def jacobian_rate(model: RobotModel, q, qd) -> Array:
    """Jdot qd of the end-effector Jacobian along qd, shape (6,), from
    one complex-step evaluation of the chain at q + i eps qd."""
    qd = np.asarray(qd, dtype=float)
    Q = (np.asarray(q, dtype=float) + 1j * _CSTEP * qd).reshape(1, -1)
    _, J = _ee_terms(model, _chain(model, Q))
    return (J[0].imag @ qd) / _CSTEP


def _bias_torque(model: RobotModel, T: Array, Jv: Array, Jw: Array,
                 qd: Array) -> Array:
    """h = C qd from the chain over Q = [q, q + i eps qd] (module
    docstring). Row 1's imaginary parts over eps are rates along qd:
    m Jv qd gives m Jvdot qd, and I_w Jw qd gives d/dt (I_w w)
    = I_w Jwdot qd + w x I_w w, since dI_w/dt = [w]x I_w - I_w [w]x."""
    n = model.n_joints
    R = T[1, :, :3, :3]
    w = (Jw[1] @ qd)[..., None]
    Iw = R @ (model.inertia @ (np.swapaxes(R, -1, -2) @ w))
    lin = (Jv[1] @ qd).imag * (model.mass[:, None] / _CSTEP)
    ang = Iw[..., 0].imag / _CSTEP
    return (Jv[0].real.reshape(-1, n).T @ lin.reshape(-1)
            + Jw[0].real.reshape(-1, n).T @ ang.reshape(-1))


def _coriolis_from_partials(dM: Array, qd: Array) -> Array:
    # Christoffel symbols of the first kind, contracted with qd:
    # C[k, j] = 1/2 sum_i (dM[i][k, j] + dM[j][k, i] - dM[k][i, j]) qd[i].
    t1 = np.tensordot(qd, dM, axes=(0, 0))         # Mdot
    t2 = np.tensordot(dM, qd, axes=(2, 0)).T
    t3 = np.tensordot(dM, qd, axes=(1, 0))
    return 0.5 * (t1 + t2 - t3)


def _coriolis_matrix(model: RobotModel, q: Array, qd: Array) -> Array:
    """C(q, qd) from Christoffel symbols over complex-step partials of M,
    one chain evaluation per joint."""
    Q = q + 1j * _CSTEP * np.eye(model.n_joints)
    dM = _mass_matrix_batched(model, _chain(model, Q)).imag / _CSTEP
    return _coriolis_from_partials(dM, qd)


@dataclass(frozen=True)
class RobotState:
    """Configuration snapshot with the cached terms one control step needs.

    h is the bias torque C(q, qd) qd; with it the dynamics read
    M qdd + h + g = tau. K = 1/2 qd^T M qd is derived from qd and M when
    the state is built, so it cannot disagree with them. The Coriolis
    matrix C itself is built from Christoffel symbols on first read (n
    more chain evaluations), which the control loop never does. J_svd,
    the full SVD (U, s, Vt) of J, is computed on first read and shared by
    everything that factors J. The state is frozen and its arrays are
    read-only; build a new state instead of mutating one.
    """

    q: Array
    qd: Array
    M: Array
    h: Array
    g: Array
    M_inv: Array
    J: Array
    ee_pos: Array
    ee_quat: Array
    model: RobotModel = field(repr=False, compare=False)
    K: float = field(init=False)

    def __post_init__(self):
        for name in ("q", "qd", "M", "h", "g", "M_inv", "J", "ee_pos",
                     "ee_quat"):
            getattr(self, name).flags.writeable = False
        object.__setattr__(self, "K", 0.5 * float(self.qd @ self.M @ self.qd))

    @cached_property
    def C(self) -> Array:
        C = _coriolis_matrix(self.model, self.q, self.qd)
        C.flags.writeable = False
        return C

    @cached_property
    def J_svd(self) -> tuple[Array, Array, Array]:
        U, s, Vt = np.linalg.svd(self.J)
        for arr in (U, s, Vt):
            arr.flags.writeable = False
        return U, s, Vt

    @property
    def n(self) -> int:
        return self.q.shape[0]


def compute_state(model: RobotModel, q, qd) -> RobotState:
    """Evaluate kinematics and dynamics once and cache the results: one
    chain evaluation over Q = [q, q + i eps qd] (module docstring)."""
    q = np.array(q, dtype=float)
    qd = np.array(qd, dtype=float)
    if q.shape != (model.n_joints,) or qd.shape != (model.n_joints,):
        raise ModelError("q and qd must have length n_joints")

    Q = np.stack([q, q + 1j * _CSTEP * qd])
    T = _chain(model, Q)
    Jv, Jw = _link_jacobians(model, T)
    T0 = T[:1].real
    M = _mass_matrix_batched(model, T0, jac=(Jv[:1].real, Jw[:1].real))[0]
    # g(q) = -sum_l m_l Jv_l^T g_vec, the exact potential gradient.
    g = -(model._mg @ Jv[0].real.reshape(-1, model.n_joints))
    T_ee, J = _ee_terms(model, T0)
    return RobotState(q=q, qd=qd, M=M, h=_bias_torque(model, T, Jv, Jw, qd),
                      g=g, M_inv=np.linalg.inv(M), J=J[0],
                      ee_pos=T_ee[0, :3, 3].copy(),
                      ee_quat=_quat_from_rot(T_ee[0, :3, :3]), model=model)
