"""Dynamics layer checks against closed forms and finite differences."""

import dataclasses

import numpy as np
import pytest

from cbf_hqp import dynamics as dyn
from conftest import random_panda_state

# ---------------------------------------------------------------------------
# Oracles, written from first principles and kept independent of the
# module internals.

L1 = L2 = 1.0
LC1 = LC2 = 0.5
M1 = M2 = 1.0
IZ1 = IZ2 = 1.0 / 12.0
GRAV = 9.81


def twolink_closed_form(q, qd):
    """Textbook planar two-link dynamics, gravity along -y."""
    c2, s2 = np.cos(q[1]), np.sin(q[1])
    m11 = M1 * LC1**2 + M2 * (L1**2 + LC2**2 + 2 * L1 * LC2 * c2) + IZ1 + IZ2
    m12 = M2 * (LC2**2 + L1 * LC2 * c2) + IZ2
    m22 = M2 * LC2**2 + IZ2
    M = np.array([[m11, m12], [m12, m22]])
    h = M2 * L1 * LC2 * s2
    C = np.array([[-h * qd[1], -h * (qd[0] + qd[1])], [h * qd[0], 0.0]])
    g = np.array([
        (M1 * LC1 + M2 * L1) * GRAV * np.cos(q[0])
        + M2 * LC2 * GRAV * np.cos(q[0] + q[1]),
        M2 * LC2 * GRAV * np.cos(q[0] + q[1]),
    ])
    return M, C, g


def mdh_transform_explicit(a, d, alpha, theta):
    """Transform built from four elementary matrices, multiplied out."""
    Rx = np.eye(4)
    Rx[1, 1] = Rx[2, 2] = np.cos(alpha)
    Rx[1, 2] = -np.sin(alpha)
    Rx[2, 1] = np.sin(alpha)
    Tx = np.eye(4)
    Tx[0, 3] = a
    Rz = np.eye(4)
    Rz[0, 0] = Rz[1, 1] = np.cos(theta)
    Rz[0, 1] = -np.sin(theta)
    Rz[1, 0] = np.sin(theta)
    Tz = np.eye(4)
    Tz[2, 3] = d
    return Rx @ Tx @ Rz @ Tz


def fk_oracle(model, q):
    T = np.eye(4)
    for i in range(model.n_joints):
        T = T @ mdh_transform_explicit(model.dh_a[i], model.dh_d[i],
                                       model.dh_alpha[i],
                                       model.dh_theta_offset[i] + q[i])
    return T @ model.ee_transform


def state_at(model, q, qd=None):
    """compute_state at (q, qd), at rest when qd is None."""
    return dyn.compute_state(
        model, q, np.zeros(model.n_joints) if qd is None else qd)


def fd_position_jacobian(model, q, eps=1e-7):
    p0 = state_at(model, q).ee_pos
    cols = []
    for k in range(model.n_joints):
        qp = np.array(q, dtype=float)
        qp[k] += eps
        p1 = state_at(model, qp).ee_pos
        cols.append((p1 - p0) / eps)
    return np.array(cols).T


PEND_YAML = """
name: pendulum
gravity: [0.0, -9.81, 0.0]
ee_transform: {translation: [1.0, 0.0, 0.0]}
links:
  - dh: {a: 0.0, d: 0.0, alpha: 0.0}
    mass: 1.0
    com: [0.5, 0.0, 0.0]
    inertia: [[0.001, 0, 0], [0, 0.001, 0], [0, 0, 0.08333333333333333]]
    q_min: -6.283185307179586
    q_max: 6.283185307179586
    v_max: 10.0
    tau_max: 50.0
"""


@pytest.fixture(scope="module")
def pendulum():
    return dyn.load_model(PEND_YAML)


# ---------------------------------------------------------------------------
# Model loading and validation.


def test_panda_model_shape(panda):
    assert panda.n_joints == 7
    assert np.allclose(panda.tau_max, [87, 87, 87, 87, 12, 12, 12])
    assert panda.gravity[2] == -9.81


def test_zero_mass_rejected_naming_field(twolink):
    import yaml
    raw = yaml.safe_load(dyn.bundled_model_path("twolink").read_text())
    raw["links"][1]["mass"] = 0.0
    with pytest.raises(dyn.ModelError, match=r"links\[1\].mass"):
        dyn.load_model(yaml.dump(raw))


def test_asymmetric_inertia_rejected():
    import yaml
    raw = yaml.safe_load(dyn.bundled_model_path("twolink").read_text())
    raw["links"][0]["inertia"][0][1] = 0.05
    with pytest.raises(dyn.ModelError, match=r"links\[0\].inertia"):
        dyn.load_model(yaml.dump(raw))


def test_indefinite_inertia_rejected():
    import yaml
    raw = yaml.safe_load(dyn.bundled_model_path("twolink").read_text())
    raw["links"][0]["inertia"][2][2] = -0.01
    with pytest.raises(dyn.ModelError, match="positive definite"):
        dyn.load_model(yaml.dump(raw))


def test_bad_limits_rejected():
    import yaml
    raw = yaml.safe_load(dyn.bundled_model_path("twolink").read_text())
    raw["links"][1]["q_min"] = 4.0
    with pytest.raises(dyn.ModelError, match="q_min"):
        dyn.load_model(yaml.dump(raw))


TWOLINK_TEXT = dyn.bundled_model_path("twolink").read_text()
LINK0_DH = "{a: 0.0, d: 0.0, alpha: 0.0}"


@pytest.mark.parametrize("field, old, new", [
    ("model.gravity", "[0.0, -9.81, 0.0]", "[0.0, -9.81, .nan]"),
    ("model.gravity", "[0.0, -9.81, 0.0]", "[0.0, -.inf, 0.0]"),
    (r"links\[0\].dh.a", LINK0_DH, "{a: true, d: 0.0, alpha: 0.0}"),
    (r"links\[0\].dh.a", LINK0_DH, "{a: '0.5', d: 0.0, alpha: 0.0}"),
    (r"links\[0\].dh.d", LINK0_DH, "{a: 0.0, d: .nan, alpha: 0.0}"),
    (r"links\[0\].com", "com: [0.5, 0.0, 0.0]", "com: [.nan, 0.0, 0.0]"),
    (r"links\[0\].v_max", "v_max: 4.0", "v_max: .inf"),
    (r"links\[0\].inertia", "[0.001, 0.0, 0.0]", "[0.001, false, 0.0]"),
    ("ee_transform.translation", "translation: [1.0, 0.0, 0.0]",
     "translation: [1.0, '0', 0.0]"),
], ids=["gravity_nan", "gravity_inf", "dh_a_bool", "dh_a_string",
        "dh_d_nan", "com_nan", "v_max_inf", "inertia_bool",
        "translation_string"])
def test_bad_number_rejected_naming_field(field, old, new):
    assert old in TWOLINK_TEXT
    with pytest.raises(dyn.ModelError, match=field):
        dyn.load_model(TWOLINK_TEXT.replace(old, new, 1))


# ---------------------------------------------------------------------------
# Kinematics.


def test_twolink_fk_stretched(twolink):
    pos = state_at(twolink, [0.0, 0.0]).ee_pos
    assert np.allclose(pos, [L1 + L2, 0.0, 0.0], atol=1e-12)


def test_twolink_fk_quarter_turn(twolink):
    pos = state_at(twolink, [np.pi / 2, 0.0]).ee_pos
    assert np.allclose(pos, [0.0, L1 + L2, 0.0], atol=1e-12)


def test_panda_fk_matches_transform_chain(panda, rng):
    for _ in range(10):
        q, _ = random_panda_state(panda, rng)
        T = fk_oracle(panda, q)
        st = state_at(panda, q)
        pos, quat = st.ee_pos, st.ee_quat
        assert np.allclose(pos, T[:3, 3], atol=1e-12)
        # Same rotation up to quaternion sign convention.
        R = T[:3, :3]
        w, x, y, z = quat
        R_q = np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
        assert np.max(np.abs(R_q - R)) < 1e-9


def test_panda_zero_config_fk(panda):
    T = fk_oracle(panda, np.zeros(7))
    pos = state_at(panda, np.zeros(7)).ee_pos
    assert np.allclose(pos, T[:3, 3], atol=1e-12)


def test_jacobian_matches_fd(panda, twolink, rng):
    for model in (panda, twolink):
        for _ in range(5):
            q = rng.uniform(-1.5, 1.5, model.n_joints)
            J = state_at(model, q).J
            assert np.max(np.abs(J[:3] - fd_position_jacobian(model, q))) < 1e-5


def test_twolink_jacobian_first_column(twolink):
    J = state_at(twolink, [0.0, 0.0]).J
    assert np.allclose(J[:3, 0], [0.0, L1 + L2, 0.0], atol=1e-12)


def test_revolute_angular_columns_unit(twolink, rng):
    for _ in range(5):
        q = rng.uniform(-3, 3, 2)
        J = state_at(twolink, q).J
        norms = np.linalg.norm(J[3:], axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Dynamics terms.


def test_twolink_matches_closed_form(twolink, rng):
    for _ in range(50):
        q = rng.uniform(-3.0, 3.0, 2)
        qd = rng.uniform(-2.0, 2.0, 2)
        st = dyn.compute_state(twolink, q, qd)
        M_ref, C_ref, g_ref = twolink_closed_form(q, qd)
        assert np.max(np.abs(st.M - M_ref)) < 1e-10
        assert np.max(np.abs(st.C - C_ref)) < 1e-10
        assert np.max(np.abs(st.g - g_ref)) < 1e-10


def test_coriolis_vanishes_at_rest(panda, rng):
    q, _ = random_panda_state(panda, rng)
    C = state_at(panda, q).C
    assert np.max(np.abs(C @ np.zeros(7))) == 0.0
    assert np.max(np.abs(C)) < 1e-12


def test_bias_torque_matches_christoffel(panda, rng):
    for _ in range(50):
        q, qd = random_panda_state(panda, rng)
        st = dyn.compute_state(panda, q, qd)
        ref = st.C @ qd
        assert np.max(np.abs(st.h - ref)) <= 1e-12 * (1.0 + np.linalg.norm(ref))


def test_bias_torque_twolink_closed_form(twolink, rng):
    for _ in range(50):
        q = rng.uniform(-3.0, 3.0, 2)
        qd = rng.uniform(-2.0, 2.0, 2)
        _, C_ref, _ = twolink_closed_form(q, qd)
        st = dyn.compute_state(twolink, q, qd)
        assert np.max(np.abs(st.h - C_ref @ qd)) < 1e-10


def test_bias_torque_vanishes_at_rest(panda, rng):
    q, _ = random_panda_state(panda, rng)
    st = dyn.compute_state(panda, q, np.zeros(7))
    assert np.all(st.h == 0.0)


def test_coriolis_built_on_first_read(panda, rng):
    q, qd = random_panda_state(panda, rng)
    st = dyn.compute_state(panda, q, qd)
    assert "C" not in vars(st)
    C = dyn.compute_state(panda, q, qd).C
    np.testing.assert_array_equal(st.C, C)
    assert st.C is st.C
    with pytest.raises(ValueError):
        st.C[0, 0] = 1.0


def test_jacobian_rate_matches_central_difference(twolink, rng):
    eps = 1e-6
    for _ in range(20):
        q = rng.uniform(-3.0, 3.0, 2)
        qd = rng.uniform(-2.0, 2.0, 2)
        fd = (state_at(twolink, q + eps * qd).J
              - state_at(twolink, q - eps * qd).J) @ qd / (2 * eps)
        assert np.max(np.abs(dyn.jacobian_rate(twolink, q, qd) - fd)) <= 1e-6


def test_mass_matrix_symmetric_spd(panda, twolink, rng):
    for model in (panda, twolink):
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, model.n_joints)
            M = state_at(model, q).M
            assert np.max(np.abs(M - M.T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(M)) > 0.0


def test_skew_symmetry_identity(panda, rng):
    eps = 1e-6
    for _ in range(10):
        q, qd = random_panda_state(panda, rng)
        st = dyn.compute_state(panda, q, qd)
        M_p = state_at(panda, q + eps * qd).M
        M_m = state_at(panda, q - eps * qd).M
        Mdot = (M_p - M_m) / (2 * eps)
        S = Mdot - 2 * st.C
        assert np.max(np.abs(S + S.T)) < 1e-6
        assert abs(qd @ S @ qd) < 1e-8


# ---------------------------------------------------------------------------
# Kinetic energy and the power identity.


def test_kinetic_energy_at_rest(panda, rng):
    q, _ = random_panda_state(panda, rng)
    assert state_at(panda, q).K == 0.0


def test_pendulum_kinetic_energy(pendulum):
    # Point of reference: uniform rod of length 1, pivoted at one end.
    I_pivot = IZ1 + M1 * LC1**2
    for w in (0.3, -1.2, 2.5):
        K = state_at(pendulum, [0.7], [w]).K
        assert abs(K - 0.5 * I_pivot * w**2) < 1e-12


def _rk4(model, q, qd, tau, dt):
    def f(y):
        qq, vv = y[: model.n_joints], y[model.n_joints:]
        st = dyn.compute_state(model, qq, vv)
        acc = np.linalg.solve(st.M, tau - st.C @ vv - st.g)
        return np.concatenate([vv, acc])

    y = np.concatenate([q, qd])
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def test_power_identity(panda, rng):
    # dK/dt must equal qd^T (tau - g) when tau_ext = 0; the Coriolis
    # term drops out by skew-symmetry. Differentiate K along accurate
    # micro-steps of the true flow under a held torque.
    h = 1e-5
    for _ in range(10):
        q, qd = random_panda_state(panda, rng)
        tau = rng.uniform(-10, 10, 7)
        y_p = _rk4(panda, q, qd, tau, h)
        y_m = _rk4(panda, q, qd, tau, -h)
        K_p = state_at(panda, y_p[:7], y_p[7:]).K
        K_m = state_at(panda, y_m[:7], y_m[7:]).K
        K_dot_fd = (K_p - K_m) / (2 * h)
        g = state_at(panda, q).g
        assert abs(K_dot_fd - qd @ (tau - g)) < 1e-3


# ---------------------------------------------------------------------------
# State cache.


def test_state_matches_standalone_terms(panda, rng):
    q, qd = random_panda_state(panda, rng)
    st = dyn.compute_state(panda, q, qd)
    assert np.allclose(st.M_inv @ st.M, np.eye(7), atol=1e-10)


def test_state_arrays_read_only(panda, rng):
    q, qd = random_panda_state(panda, rng)
    st = dyn.compute_state(panda, q, qd)
    with pytest.raises(ValueError):
        st.q[0] = 1.0


def test_state_K_cannot_go_stale(panda, rng):
    """The state is frozen, and K is derived from qd and M, not passed."""
    q, qd = random_panda_state(panda, rng)
    st = dyn.compute_state(panda, q, qd)
    for name, value in (("K", st.K + 1.0), ("qd", qd + 1.0), ("M", st.M)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(st, name, value)
    assert st.K == 0.5 * float(qd @ st.M @ qd)
    with pytest.raises(TypeError):
        dyn.RobotState(q=st.q, qd=st.qd, M=st.M, h=st.h, g=st.g,
                       M_inv=st.M_inv, J=st.J, ee_pos=st.ee_pos,
                       ee_quat=st.ee_quat, model=panda, K=0.0)
