"""Controller checks: impedance law structure, projector identities,
nullspace bookkeeping, and the three filter modes on short rollouts."""

import dataclasses
import math

import numpy as np
import pytest
from oracles import projections, two_eigh_damping

from cbf_hqp import control, hqp, sim
from cbf_hqp.control import (
    ControllerState,
    ImpedanceParams,
    TaskInertia,
    UnsupportedConfigurationError,
    build_strict_tasks,
    critical_damping,
    nominal_torque,
    nullspace_basis,
    pose_error,
    step,
    task_rows,
    task_space_inertia,
    wrench_deviation,
)
from cbf_hqp.dynamics import compute_state
from cbf_hqp.qpcore import FEAS_TOL
from cbf_hqp.tasks import CbfParams, Task

HOME = np.array([0.0, -np.pi / 4, 0.0, -2.3562, 0.0, 1.5708, np.pi / 4])
TWOLINK_HOME = np.array([0.4, 0.8])


def impedance_at(state, dz=0.0):
    pos = state.ee_pos.copy()
    pos[2] += dz
    return ImpedanceParams(eq_position=tuple(pos), eq_quat=tuple(state.ee_quat))


def factor_state(panda, twolink, k, rng):
    """State k of the factorization checks: 0-9 random Panda states,
    10-19 Panda states within 1e-5 rad of the elbow singularity
    (q4 = -0.467, other joints at home), which damp Lambda, and 20-29
    twolink states, damped on every step."""
    if k < 10:
        return compute_state(panda, HOME + rng.uniform(-0.6, 0.6, 7),
                             rng.uniform(-1.0, 1.0, 7))
    if k < 20:
        q = HOME.copy()
        q[3] = -0.467 + rng.uniform(-1e-5, 1e-5)
        return compute_state(panda, q, rng.uniform(-1.0, 1.0, 7))
    return compute_state(twolink, rng.uniform(-2.0, 2.0, 2),
                         rng.uniform(-1.0, 1.0, 2))


def rollout(model, ctrl, q0, steps, dt=1e-3, tau_ext_fn=None):
    """Closed-loop semi-implicit Euler using the controller under test."""
    q, qd = np.asarray(q0, float).copy(), np.zeros(model.n_joints)
    infos = []
    for k in range(steps):
        st = compute_state(model, q, qd)
        tau_ext = tau_ext_fn(k * dt, st) if tau_ext_fn else None
        u, info = step(st, ctrl, tau_ext)
        infos.append((st, info))
        w = u - st.C @ qd - st.g
        if tau_ext is not None:
            w = w + tau_ext
        qd = qd + dt * (st.M_inv @ w)
        q = q + dt * qd
    return infos


class TestNominalLaw:
    def test_gravity_compensation_at_equilibrium(self, panda):
        st = compute_state(panda, HOME, np.zeros(7))
        u = nominal_torque(st, impedance_at(st), task_space_inertia(st))
        np.testing.assert_allclose(u, st.g, atol=1e-9)

    def test_step_offset_pulls_with_stiffness_times_error(self, panda):
        # equilibrium 0.2 m above the tip: task force is 200 * 0.2 = 40 N up
        st = compute_state(panda, HOME, np.zeros(7))
        imp = impedance_at(st, dz=0.2)
        e = pose_error(st, imp)
        np.testing.assert_allclose(e, [0, 0, 0.2, 0, 0, 0], atol=1e-12)
        u = nominal_torque(st, imp, task_space_inertia(st))
        np.testing.assert_allclose(u - st.g, st.J.T @ np.array([0, 0, 40.0, 0, 0, 0]),
                                   atol=1e-9)

    def test_actuation_lies_in_task_range(self, panda, rng):
        for _ in range(10):
            q = HOME + rng.uniform(-0.4, 0.4, 7)
            qd = rng.uniform(-0.5, 0.5, 7)
            st = compute_state(panda, q, qd)
            imp = impedance_at(st, dz=0.1)
            u = nominal_torque(st, imp, task_space_inertia(st)) - st.g
            coef, *_ = np.linalg.lstsq(st.J.T, u, rcond=None)
            np.testing.assert_allclose(st.J.T @ coef, u, atol=1e-8)

    def test_damping_is_spd_and_critical_for_isotropic_case(self, panda):
        st = compute_state(panda, HOME, np.zeros(7))
        D = critical_damping(task_space_inertia(st),
                             np.diag([200.0] * 3 + [50.0] * 3))
        assert np.max(np.abs(D - D.T)) <= 1e-10
        assert np.min(np.linalg.eigvalsh(D)) > 0.0
        # scalar sanity: Lambda = 2 I, K = 8 I gives D = 2 sqrt(16) I
        root = np.sqrt(2.0)
        lam2 = TaskInertia(lam=2.0 * np.eye(2), damped=False,
                           half=root * np.eye(2), inv_half=np.eye(2) / root)
        D1 = critical_damping(lam2, 8.0 * np.eye(2))
        np.testing.assert_allclose(D1, 8.0 * np.eye(2), atol=1e-12)

    def test_one_factorization_matches_the_two_eigh_damping(
            self, panda, twolink, rng):
        # Lambda, its roots and the damping flag come from one SVD of
        # J L (L L^T = M^-1); D agrees with eigvalsh + inv + eigh of
        # Lambda on random, near-singular (damped) and twolink (always
        # damped) states
        K = np.diag([200.0] * 3 + [50.0] * 3)
        damped_seen = {7: 0, 2: 0}
        for k in range(30):
            st = factor_state(panda, twolink, k, rng)
            inertia = task_space_inertia(st)
            lam, damped, D_ref = two_eigh_damping(st, K)
            assert inertia.damped == damped
            damped_seen[st.n] += damped
            D = critical_damping(inertia, K)
            rel = np.max(np.abs(D - D_ref)) / np.max(np.abs(D_ref))
            assert rel <= 1e-10, f"state {k}: {rel:.2e}"
            np.testing.assert_allclose(
                inertia.lam, lam, rtol=0.0, atol=1e-9 * np.max(np.abs(lam)))
            np.testing.assert_allclose(inertia.half @ inertia.half,
                                       inertia.lam, rtol=0.0,
                                       atol=1e-9 * np.max(np.abs(lam)))
            np.testing.assert_allclose(inertia.half @ inertia.inv_half,
                                       np.eye(6), atol=1e-8)
        assert damped_seen[7] >= 1 and damped_seen[2] == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="stiffness"):
            ImpedanceParams(k_trans=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="quaternion"):
            ImpedanceParams(eq_quat=(1.0, 1.0, 0.0, 0.0))
        nan = float("nan")
        with pytest.raises(ValueError, match="k_trans"):
            ImpedanceParams(k_trans=(nan, 1.0, 1.0))
        with pytest.raises(ValueError, match="k_rot"):
            ImpedanceParams(k_rot=(1.0, float("inf"), 1.0))
        with pytest.raises(ValueError, match="eq_position"):
            ImpedanceParams(eq_position=(0.0, nan, 0.0))
        with pytest.raises(ValueError, match="quaternion"):
            ImpedanceParams(eq_quat=(nan, 0.0, 0.0, 0.0))


class TestProjections:
    def test_identities_at_random_configurations(self, panda, rng):
        for _ in range(100):
            q = HOME + rng.uniform(-0.6, 0.6, 7)
            st = compute_state(panda, q, rng.uniform(-1, 1, 7))
            P, N = projections(st)
            assert np.max(np.abs(P @ P - P)) <= 1e-8
            assert np.max(np.abs(st.J @ st.M_inv @ N)) <= 1e-8
            assert np.max(np.abs(P + N - np.eye(7))) <= 1e-12

    def test_wrench_deviation_blind_to_nullspace(self, panda, rng):
        st = compute_state(panda, HOME, np.zeros(7))
        inertia = task_space_inertia(st)
        lam = inertia.lam
        _, N = projections(st, lam)
        u_nom = nominal_torque(st, impedance_at(st), inertia)
        w = rng.normal(size=7)
        dW = wrench_deviation(st, u_nom + N @ w, u_nom, lam)
        assert np.max(np.abs(dW)) <= 1e-8
        dW2 = wrench_deviation(st, u_nom + st.J.T @ np.array([0, 0, 5.0, 0, 0, 0]),
                               u_nom, lam)
        assert np.max(np.abs(dW2)) > 1.0


class TestNullspace:
    def test_basis_spans_null_of_jacobian(self, panda):
        st = compute_state(panda, HOME, np.zeros(7))
        z = nullspace_basis(st)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(st.J @ z)) <= 1e-10

    def test_sign_continuity(self, panda):
        st = compute_state(panda, HOME, np.zeros(7))
        z = nullspace_basis(st)
        z_flipped = nullspace_basis(st, z_prev=-z)
        np.testing.assert_allclose(z_flipped, -z)

    def test_non_redundant_arm_rejected(self, twolink):
        st = compute_state(twolink, np.array([0.4, 0.8]), np.zeros(2))
        with pytest.raises(UnsupportedConfigurationError, match="nullspace"):
            nullspace_basis(st)


class TestTaskRows:
    def test_rows_keep_the_projector_norms(self, panda, twolink, rng):
        # W and V have full row rank and measure torques as P and N do;
        # z^T N = z^T is what makes alpha_dev = z^T (u - u_nom)
        for _ in range(50):
            st = compute_state(panda, HOME + rng.uniform(-0.6, 0.6, 7),
                               rng.uniform(-1, 1, 7))
            lam, damped, *_ = task_space_inertia(st)
            assert not damped
            z = nullspace_basis(st)
            W, V = task_rows(st, lam, z)
            P, N = projections(st, lam)
            assert W.shape == (6, 7) and V.shape == (1, 7)
            assert np.linalg.matrix_rank(W) == 6
            np.testing.assert_allclose(z @ N, z, atol=1e-10)
            for x in rng.normal(size=(5, 7)):
                assert np.linalg.norm(W @ x) == pytest.approx(
                    np.linalg.norm(P @ x), rel=1e-9, abs=1e-9)
                assert np.linalg.norm(V @ x) == pytest.approx(
                    np.linalg.norm(N @ x), rel=1e-9, abs=1e-9)

        for _ in range(50):
            q = np.array([rng.uniform(-3.0, 3.0),
                          rng.choice([-1, 1]) * rng.uniform(0.3, 2.8)])
            st = compute_state(twolink, q, rng.uniform(-1, 1, 2))
            lam = task_space_inertia(st).lam
            W, V = task_rows(st, lam, None)
            P, _ = projections(st, lam)
            assert W.shape == (2, 2) and V.shape == (0, 2)
            assert np.linalg.matrix_rank(W) == 2
            for x in rng.normal(size=(5, 2)):
                assert np.linalg.norm(W @ x) == pytest.approx(
                    np.linalg.norm(P @ x), rel=1e-9, abs=1e-9)

    def test_cached_svd_matches_a_fresh_one(self, panda, twolink, rng):
        # nullspace_basis and task_rows read the state's one SVD of J;
        # a fresh SVD gives the same z and W up to the signs of the
        # singular vectors
        states = [factor_state(panda, twolink, k, rng) for k in range(30)]
        for st in states:
            U, s, Vt = np.linalg.svd(st.J, full_matrices=False)
            lam = task_space_inertia(st).lam
            W_ref = (s[:, None] * U.T) @ (lam @ (st.J @ st.M_inv))
            z = None
            if st.n == 7:
                z = nullspace_basis(st)
                _, _, Vt_full = np.linalg.svd(st.J)
                assert abs(float(z @ Vt_full[-1])) == pytest.approx(
                    1.0, abs=1e-12)
            W, _ = task_rows(st, lam, z)
            assert W.shape == W_ref.shape
            for row, ref in zip(W, W_ref):
                sign = 1.0 if float(row @ ref) >= 0.0 else -1.0
                np.testing.assert_allclose(
                    sign * row, ref, rtol=0.0,
                    atol=1e-10 * np.max(np.abs(W_ref)))

    def test_step_hands_the_cascade_full_rank_rows(self, panda, monkeypatch):
        # an hqp period on the Panda freezes 7 independent equality rows
        seen = []
        real = control.run_cascade

        def capture(strict, levels, u_nom):
            seen.append(levels)
            return real(strict, levels, u_nom)

        monkeypatch.setattr(control, "run_cascade", capture)
        st = compute_state(panda, HOME, 0.05 * np.ones(7))
        for mode in ("hqp_performance", "hqp_safety"):
            step(st, ControllerState(mode=mode, cbf=CbfParams(),
                                            impedance=impedance_at(st, 0.1)))
        assert len(seen) == 2
        for levels in seen:
            rows = [lv.equality.A for lv in levels if lv.equality is not None]
            assert sum(A.shape[0] for A in rows) == 7
            assert all(np.linalg.matrix_rank(A) == A.shape[0] for A in rows)

    def test_step_hands_the_cascade_one_acceleration_task(self, panda,
                                                         monkeypatch):
        # default families: torque box 14 rows, velocity and position
        # merged into one acceleration task of 14 rows
        seen = []
        real = control.run_cascade

        def capture(strict, levels, u_nom):
            seen.append(strict)
            return real(strict, levels, u_nom)

        monkeypatch.setattr(control, "run_cascade", capture)
        st = compute_state(panda, HOME, 0.05 * np.ones(7))
        step(st, ControllerState(mode="single_qp", cbf=CbfParams(),
                                        impedance=impedance_at(st, 0.1)))
        [strict] = seen
        assert [t.label for t in strict] == ["torque", "acceleration"]
        assert sum(t.m for t in strict) == 28

    def test_strict_tasks_follow_the_named_family_order(self, panda):
        st = compute_state(panda, HOME, 0.05 * np.ones(7))
        ctrl = ControllerState(
            mode="single_qp",
            cbf=CbfParams(plane_normal=(0.0, 0.0, 1.0), plane_offset=-1.0),
            impedance=impedance_at(st),
            strict_families=("plane", "position", "torque", "velocity"))
        tasks = build_strict_tasks(st, ctrl, None)
        assert [t.label for t in tasks] == ["plane", "acceleration", "torque"]
        assert [t.m for t in tasks] == [1, 14, 14]


class TestStep:
    def make_ctrl(self, state, mode, k_max=0.5, dz=0.0, gamma=5.0):
        return ControllerState(
            mode=mode,
            cbf=CbfParams(k_max=k_max, gamma=gamma), dt=1e-3,
            impedance=impedance_at(state, dz=dz))

    def test_quiescent_step_passes_nominal_through(self, panda):
        st = compute_state(panda, HOME, np.zeros(7))
        for mode in ("single_qp", "hqp_performance", "hqp_safety"):
            ctrl = self.make_ctrl(st, mode)
            u, info = step(st, ctrl)
            np.testing.assert_allclose(u, info.u_nom, atol=1e-6)
            assert info.delta == pytest.approx(0.0, abs=1e-9)
            assert info.k_max_eff == pytest.approx(ctrl.cbf.k_max, abs=1e-9)
            assert not info.fault
            assert all(s == "optimal" for s in info.statuses)
            assert info.active_strict == ()

    def test_phase1_used_reports_a_projected_nominal_torque(self, panda):
        # at rest with the equilibrium raised by dz, u_nom breaks the
        # velocity rows for dz > 0: the first level projects it, and the
        # applied torque meets every strict row
        st = compute_state(panda, HOME, np.zeros(7))
        for dz, projected in ((0.0, False), (0.1, True), (0.5, True)):
            ctrl = self.make_ctrl(st, "hqp_safety", dz=dz)
            u, info = step(st, ctrl)
            strict = build_strict_tasks(st, ctrl, None)
            broken = max(float(np.max(t.b - t.A @ info.u_nom)) for t in strict)
            assert info.phase1_used == projected == (broken > FEAS_TOL)
            assert max(float(np.max(t.b - t.A @ u)) for t in strict) \
                <= FEAS_TOL
            assert not info.fault

    def test_delta_stays_zero_while_energy_row_slack(self, panda):
        # gentle motion far below the cap: the relaxed solve must agree
        # with one where the slack is pinned to zero
        st = compute_state(panda, HOME, 0.05 * np.ones(7))
        assert st.K < 0.5
        ctrl = self.make_ctrl(st, "hqp_performance")
        u, info = step(st, ctrl)
        assert info.delta == 0.0
        from cbf_hqp.hqp import run_cascade
        from cbf_hqp.control import _levels_for_mode
        from cbf_hqp.tasks import energy_cbf_row
        lam = task_space_inertia(st).lam
        energy, c = energy_cbf_row(st, ctrl.cbf, ctrl.dt)
        levels = _levels_for_mode("hqp_performance", info.u_nom, energy, c,
                                  st, lam, nullspace_basis(st))
        assert levels[1].slack.tolist() == [c]
        levels[1] = type(levels[1])(inequality=energy)  # slack pinned to 0
        res = run_cascade(build_strict_tasks(st, ctrl, None),
                          levels, info.u_nom)
        np.testing.assert_allclose(u, res.u_final, atol=1e-8)

    def test_performance_mode_preserves_task_wrench(self, panda):
        st0 = compute_state(panda, HOME, np.zeros(7))
        ctrl = self.make_ctrl(st0, "hqp_performance", k_max=0.05, dz=0.25)
        infos = rollout(panda, ctrl, HOME, steps=400)
        engaged = [i for _, i in infos if i.delta > 1e-9]
        assert engaged, "energy slack never engaged"
        for st, info in infos:
            assert not info.fault
            if info.active_strict:
                continue
            P, _ = projections(st)
            dev = np.max(np.abs(P @ (info.u_applied - info.u_nom)))
            assert dev <= 1e-6
            assert np.max(np.abs(info.dW)) <= 1e-6
        # energy may pass the plain cap by the slack amount; compare the
        # next state against the bound this step enforced (the held
        # torque adds an O(dt) remainder on top)
        for (_, info), (st_next, _) in zip(infos, infos[1:]):
            assert st_next.K <= ctrl.cbf.k_max + info.delta + 1e-2

    def test_single_qp_trades_wrench_for_energy(self, panda):
        st0 = compute_state(panda, HOME, np.zeros(7))
        ctrl = self.make_ctrl(st0, "single_qp", k_max=0.05, dz=0.25)
        infos = rollout(panda, ctrl, HOME, steps=400)
        peak = max(st.K for st, _ in infos)
        # hold-the-torque discretization leaves a small overshoot only
        assert peak <= ctrl.cbf.k_max + 5e-3
        assert peak > 0.5 * ctrl.cbf.k_max
        assert max(np.max(np.abs(i.dW)) for _, i in infos) > 1e-2
        assert all(i.delta == 0.0 for _, i in infos)

    def test_safety_mode_caps_energy_with_nonzero_deviation(self, panda):
        st0 = compute_state(panda, HOME, np.zeros(7))
        ctrl = self.make_ctrl(st0, "hqp_safety", k_max=0.05, dz=0.25)
        infos = rollout(panda, ctrl, HOME, steps=400)
        peak = max(st.K for st, _ in infos)
        # the cap holds up to the held-torque discretization remainder
        assert peak <= ctrl.cbf.k_max + 2e-2
        assert max(np.max(np.abs(i.dW)) for _, i in infos) > 1e-2

    def test_cascade_modes_on_an_arm_without_nullspace(self, twolink):
        # the two-link arm has no task nullspace: the nullspace level has
        # no rows and no variable left, yet every period solves
        st0 = compute_state(twolink, TWOLINK_HOME, np.zeros(2))
        pos = st0.ee_pos + np.array([0.0, 0.1, 0.0])
        for mode in ("hqp_performance", "hqp_safety"):
            ctrl = ControllerState(
                mode=mode, cbf=CbfParams(k_max=0.05, gamma=5.0), dt=1e-3,
                impedance=ImpedanceParams(eq_position=tuple(pos),
                                          eq_quat=tuple(st0.ee_quat)))
            infos = rollout(twolink, ctrl, TWOLINK_HOME, steps=200)
            for _, info in infos:
                assert not info.fault
                assert info.statuses == ("optimal",) * 3
                assert math.isnan(info.alpha_dev)
            if mode == "hqp_performance":
                assert max(i.delta for _, i in infos) > 1e-3

    def test_fault_emits_last_torque_and_flags(self, twolink):
        # runaway joint speed makes the hard energy row clash with the
        # actuation box: the controller must fault, not crash
        st = compute_state(twolink, np.array([0.3, 0.2]), np.array([6.0, -6.0]))
        ctrl = ControllerState(
            mode="single_qp",
            cbf=CbfParams(k_max=0.01, gamma=500.0), dt=1e-3,
            impedance=ImpedanceParams(eq_position=(0.5, 0.5, 0.0),
                                      eq_quat=(1.0, 0.0, 0.0, 0.0)),
            strict_families=("torque",))
        u, info = step(st, ctrl)
        assert info.fault
        assert "level" in info.fault_reason or "strict" in info.fault_reason
        np.testing.assert_allclose(u, info.u_nom)  # no prior torque yet
        assert math.isnan(info.alpha_dev)  # two-link arm has no nullspace

    def test_infeasible_slack_level_is_a_logged_fault(self, panda,
                                                      monkeypatch):
        # a solver that wrongly reports a slack level infeasible must end
        # as a controller fault, never as an uncaught error
        st = compute_state(panda, HOME, np.zeros(7))
        ctrl = self.make_ctrl(st, "hqp_safety")
        u_prev, _ = step(st, ctrl)

        real = hqp.solve_qp

        def infeasible(problem, anchor=None):
            return dataclasses.replace(real(problem, anchor=anchor),
                                       status="infeasible")

        monkeypatch.setattr(hqp, "solve_qp", infeasible)
        soft = Task(A=[[1.0]], b=[3.0], label="want")
        with pytest.raises(hqp.CascadeInfeasibleError, match="level 1"):
            hqp.run_cascade([], [hqp.LevelSpec(inequality=soft, slack=[1.0])],
                            np.zeros(1))
        u, info = step(st, ctrl)
        assert info.fault
        assert "level 1" in info.fault_reason
        np.testing.assert_array_equal(u, u_prev)

    def test_mode_validation(self, panda):
        st = compute_state(panda, HOME, np.zeros(7))
        with pytest.raises(ValueError, match="mode"):
            ControllerState(mode="both", cbf=CbfParams(),
                            impedance=impedance_at(st))
        with pytest.raises(ValueError, match="delta_prev"):
            ControllerState(mode="single_qp", cbf=CbfParams(),
                            impedance=impedance_at(st), delta_prev=-1.0)
        with pytest.raises(ValueError, match="strict family"):
            ControllerState(mode="single_qp", cbf=CbfParams(),
                            impedance=impedance_at(st),
                            strict_families=("gravity",))
        with pytest.raises(ValueError, match="'torque' is named twice"):
            ControllerState(mode="single_qp", cbf=CbfParams(),
                            impedance=impedance_at(st),
                            strict_families=("torque", "torque", "velocity"))
        # the plane family is refused up front when no plane is configured,
        # not at the first period's row build
        with pytest.raises(ValueError, match=r"cbf\.plane_normal"):
            ControllerState(mode="single_qp", cbf=CbfParams(),
                            impedance=impedance_at(st),
                            strict_families=("torque", "plane"))

    def test_period_defaults_to_one_millisecond(self, panda):
        st = compute_state(panda, HOME, np.zeros(7))
        ctrl = ControllerState(mode="single_qp", cbf=CbfParams(),
                               impedance=impedance_at(st))
        assert ctrl.dt == 1e-3

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
    def test_period_must_be_finite_and_positive(self, panda, dt):
        st = compute_state(panda, HOME, np.zeros(7))
        with pytest.raises(ValueError, match="dt must be a finite number > 0"):
            ControllerState(mode="single_qp", cbf=CbfParams(),
                            impedance=impedance_at(st), dt=dt)

    @pytest.mark.parametrize("mode", ["single_qp", "hqp_performance",
                                      "hqp_safety"])
    @pytest.mark.parametrize("delta_prev", [np.nan, np.inf])
    def test_non_finite_delta_prev_is_refused(self, panda, mode, delta_prev):
        # refused by the controller state, and by the energy row when it
        # is set on a state already built
        st = compute_state(panda, HOME, 0.05 * np.ones(7))
        with pytest.raises(ValueError, match="delta_prev"):
            ControllerState(mode=mode, cbf=CbfParams(),
                            impedance=impedance_at(st), delta_prev=delta_prev)
        ctrl = self.make_ctrl(st, mode)
        ctrl.delta_prev = delta_prev
        with pytest.raises(ValueError, match="delta_prev"):
            step(st, ctrl)

    @pytest.mark.parametrize("mode", ["single_qp", "hqp_performance",
                                      "hqp_safety"])
    @pytest.mark.parametrize("tau_ext", [
        np.full(7, np.nan), np.r_[np.inf, np.zeros(6)], np.zeros(3),
        np.zeros((7, 1))], ids=["nan", "plus_inf", "length_3", "column"])
    def test_bad_external_torque_is_refused_naming_it(self, panda, mode,
                                                      tau_ext):
        st = compute_state(panda, HOME, 0.05 * np.ones(7))
        ctrl = self.make_ctrl(st, mode)
        with pytest.raises(ValueError, match=r"tau_ext .* n = 7"):
            step(st, ctrl, tau_ext)
        # a finite (n,) list is taken as it is
        u, info = step(st, ctrl, [0.0] * 7)
        assert not info.fault and np.isfinite(u).all()


def test_step_lunge_needs_no_phase1(monkeypatch):
    """After the step at t = 1 s u_nom breaks the velocity and position
    rows and the hard energy row. Level 1 adds those rows one at a time
    from u_nom, its unconstrained minimizer; no period needs the
    least-infeasible search, which only names the rows of an empty
    strict set."""
    projected = []
    searches = []
    real_cascade, real_search = control.run_cascade, hqp._least_infeasible

    def cascade(*args, **kwargs):
        res = real_cascade(*args, **kwargs)
        projected.append(res.phase1_used)
        return res

    def search(*args, **kwargs):
        searches.append(len(projected))
        return real_search(*args, **kwargs)

    monkeypatch.setattr(control, "run_cascade", cascade)
    monkeypatch.setattr(hqp, "_least_infeasible", search)
    scenario = sim.load_scenario_file(sim.bundled_scenario_path("step"))
    result = sim.run_scenario(scenario, mode="single_qp", duration=1.1)
    assert not result.fault
    assert len(projected) == 1100
    assert any(projected)  # the lunge makes level 1 project u_nom
    assert searches == []
