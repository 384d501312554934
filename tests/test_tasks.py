"""Barrier-row checks.

Two layers: algebraic reconstruction (each row's residual A u - b must
equal the barrier-rate expression it encodes, with every ingredient
recomputed independently here), and short closed-loop simulations where
a QP filtered by one row family must keep the corresponding quantity
inside its safe set.
"""

import dataclasses

import numpy as np
import pytest
from conftest import random_panda_state
from hypothesis import given, settings
from hypothesis import strategies as hst
from oracles import cascade_violation

from cbf_hqp.dynamics import compute_state
from cbf_hqp.hqp import LevelSpec, S0EmptyError, run_cascade
from cbf_hqp.qpcore import QpProblem, solve_qp
from cbf_hqp.tasks import (
    CbfParams,
    Task,
    acceleration_rows,
    collision_plane_rows,
    energy_cbf_row,
    torque_limit_rows,
)

DT = 1e-3


def joint_accel(model, st, u, tau_ext=None):
    w = u - st.C @ st.qd - st.g
    if tau_ext is not None:
        w = w + tau_ext
    return st.M_inv @ w


class TestEnergyRow:
    def test_hand_values(self, twolink):
        st = compute_state(twolink, np.array([0.3, -0.5]), np.array([1.0, -1.0]))
        params = CbfParams(k_max=0.5, gamma=1.0, dt=DT)
        task = energy_cbf_row(st, params)
        np.testing.assert_allclose(task.A[0], -st.qd)
        assert task.slack[0] == pytest.approx(1001.0)
        b_expect = -1.0 * (0.5 - st.K) + st.qd @ (-st.g)
        assert task.b[0] == pytest.approx(b_expect, abs=1e-12)

    def test_residual_matches_barrier_rate(self, twolink, rng):
        """A u + c delta - b == hdot + gamma h for the relaxed barrier,
        with hdot assembled from the energy rate qd^T (u + tau_ext - g)."""
        params = CbfParams(k_max=0.4, gamma=3.0, dt=DT)
        for _ in range(50):
            q = rng.uniform(-1.5, 1.5, 2)
            qd = rng.uniform(-2, 2, 2)
            u = rng.uniform(-30, 30, 2)
            tau_ext = rng.uniform(-5, 5, 2)
            delta_prev = abs(rng.normal()) * 0.1
            delta = abs(rng.normal()) * 0.1
            st = compute_state(twolink, q, qd)
            task = energy_cbf_row(st, params, tau_ext=tau_ext,
                                  delta_prev=delta_prev)
            lhs = task.A[0] @ u + task.slack[0] * delta - task.b[0]

            k_dot = qd @ (u + tau_ext - st.g)
            h = params.k_max - st.K + delta
            h_dot = -k_dot + (delta - delta_prev) / DT
            assert lhs == pytest.approx(h_dot + params.gamma * h, abs=1e-10)

    def test_boundary_reduces_to_energy_decrease(self, twolink):
        # at K = k_max with no relaxation, the row is exactly Kdot <= 0
        q = np.array([0.2, 0.4])
        qd_dir = np.array([1.0, -0.5])
        st0 = compute_state(twolink, q, qd_dir)
        params = CbfParams(k_max=0.3, gamma=5.0, dt=DT)
        qd = qd_dir * np.sqrt(params.k_max / st0.K)
        st = compute_state(twolink, q, qd)
        assert st.K == pytest.approx(params.k_max, abs=1e-12)
        task = energy_cbf_row(st, params)
        for u in (np.array([5.0, 1.0]), np.array([-20.0, 3.0])):
            k_dot = qd @ (u - st.g)
            assert task.A[0] @ u - task.b[0] == pytest.approx(-k_dot, abs=1e-9)

    def test_state_K_cannot_go_stale(self, twolink):
        """The row reads K = 1/2 qd^T M qd, and the state refuses a
        replaced K."""
        st = compute_state(twolink, np.array([0.1, 0.2]), np.array([1.0, 0.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.K = st.K + 1.0
        params = CbfParams()
        K = 0.5 * float(st.qd @ st.M @ st.qd)
        assert energy_cbf_row(st, params).b[0] == pytest.approx(
            -params.gamma * (params.k_max - K) + st.qd @ (-st.g), abs=1e-12)

    def test_negative_delta_prev_rejected(self, twolink):
        st = compute_state(twolink, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="delta_prev"):
            energy_cbf_row(st, CbfParams(), delta_prev=-0.1)


class TestLimitRows:
    def test_torque_box_values(self, twolink):
        task = torque_limit_rows(twolink)
        assert task.m == 4
        u = np.array([49.0, -50.5])
        resid = task.A @ u - task.b
        # row order: lower bounds then upper bounds
        np.testing.assert_allclose(resid, [99.0, -0.5, 1.0, 100.5])
        # built once per model, and shared read-only
        assert torque_limit_rows(twolink) is task
        for arr in (task.A, task.b):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_velocity_rows_encode_first_order_rate(self, twolink, rng):
        params = CbfParams(gamma_velocity=7.0)
        for _ in range(25):
            st = compute_state(twolink, rng.uniform(-1, 1, 2), rng.uniform(-2, 2, 2))
            u = rng.uniform(-30, 30, 2)
            tau_ext = rng.uniform(-5, 5, 2)
            [task] = family_rows(st, params, ("velocity",), tau_ext)
            resid = task.A @ u - task.b
            qdd = joint_accel(twolink, st, u, tau_ext)
            g = params.gamma_velocity
            for i in range(2):
                h_up = twolink.v_max[i] - st.qd[i]
                h_lo = st.qd[i] + twolink.v_max[i]
                assert resid[i] == pytest.approx(-qdd[i] + g * h_up, abs=1e-8)
                assert resid[2 + i] == pytest.approx(qdd[i] + g * h_lo, abs=1e-8)

    def test_position_rows_encode_second_order_rate(self, twolink, rng):
        params = CbfParams(lambda1=8.0, lambda2=12.0)
        s, p = 20.0, 96.0
        for _ in range(25):
            st = compute_state(twolink, rng.uniform(-1, 1, 2), rng.uniform(-2, 2, 2))
            u = rng.uniform(-30, 30, 2)
            [task] = family_rows(st, params, ("position",))
            resid = task.A @ u - task.b
            qdd = joint_accel(twolink, st, u)
            for i in range(2):
                up = -qdd[i] - s * st.qd[i] + p * (twolink.q_max[i] - st.q[i])
                lo = qdd[i] + s * st.qd[i] + p * (st.q[i] - twolink.q_min[i])
                assert resid[i] == pytest.approx(up, abs=1e-8)
                assert resid[2 + i] == pytest.approx(lo, abs=1e-8)

    def test_plane_row_matches_numeric_rates(self, twolink, rng):
        """Integrate the open-loop dynamics briefly and compare the row
        residual against finite differences of h(t) = n.p(t) - offset."""
        params = CbfParams(lambda1=6.0, lambda2=9.0,
                           plane_normal=(0.0, 1.0, 0.0), plane_offset=-1.9)
        normal = np.array([0.0, 1.0, 0.0])
        for trial in range(5):
            q = rng.uniform(-1, 1, 2)
            qd = rng.uniform(-1, 1, 2)
            u = rng.uniform(-10, 10, 2)
            st = compute_state(twolink, q, qd)
            task = collision_plane_rows(st, params)
            resid = float((task.A @ u - task.b)[0])

            def h_of(qq):
                pos = compute_state(twolink, qq, np.zeros(2)).ee_pos
                return normal @ pos - params.plane_offset

            # second-order central differences along the true flow
            eps = 1e-4
            states = {}
            for sgn in (-1, 0, 1):
                qq, vv = q.copy(), qd.copy()
                nsub = 20
                hh = eps * sgn / nsub
                for _ in range(abs(nsub) if sgn else 0):
                    s2 = compute_state(twolink, qq, vv)
                    qdd = joint_accel(twolink, s2, u)
                    qq = qq + hh * vv + 0.5 * hh * hh * qdd
                    vv = vv + hh * qdd
                states[sgn] = h_of(qq)
            h0 = states[0]
            hdot = (states[1] - states[-1]) / (2 * eps)
            hddot = (states[1] - 2 * h0 + states[-1]) / eps**2
            expect = hddot + (params.lambda1 + params.lambda2) * hdot \
                + params.lambda1 * params.lambda2 * h0
            assert resid == pytest.approx(expect, abs=2e-3), f"trial {trial}"

    def test_missing_plane_rejected(self, twolink):
        st = compute_state(twolink, np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="plane"):
            collision_plane_rows(st, CbfParams())


class TestTaskContainer:
    def test_default_row_labels(self):
        t = Task(A=np.eye(2), b=np.zeros(2), label="lim")
        assert t.row_labels == ["lim[0]", "lim[1]"]

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Task(A=np.eye(2), b=np.zeros(3), label="x")

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError, match="slack"):
            Task(A=np.eye(2), b=np.zeros(2), label="x",
                 slack=[1.0, -1.0])

    @pytest.mark.parametrize("field, value, match", [
        ("A", [[1.0, np.nan], [0.0, 1.0]], "A holds"),
        ("A", [[1.0, 0.0], [np.inf, 1.0]], "A holds"),
        ("b", [np.nan, 0.0], "b holds"),
        ("b", [0.0, np.inf], "b holds"),
        ("slack", [1.0, np.inf], "slack"),
        ("slack", [np.nan, 1.0], "slack")])
    def test_non_finite_data_rejected(self, field, value, match):
        data = dict(A=np.eye(2), b=np.zeros(2), label="x")
        data[field] = value
        with pytest.raises(ValueError, match=match):
            Task(**data)

    def test_minus_inf_bound_binds_nothing(self):
        t = Task(A=np.eye(2), b=[-np.inf, 0.0], label="x")
        assert t.b[0] == -np.inf

    @pytest.mark.parametrize("slack", [None, [0.5, 0.0, 2.0]])
    @pytest.mark.parametrize("row_labels", [None, ["a", "b", "c"]])
    def test_trusted_equals_public_field_for_field(self, rng, slack,
                                                   row_labels):
        A, b = rng.normal(size=(3, 4)), rng.normal(size=3)
        slack = None if slack is None else np.array(slack)
        public = Task(A=A, b=b, label="t", slack=slack,
                      row_labels=list(row_labels or []))
        trusted = Task._trusted(A, b, "t", slack=slack,
                                row_labels=row_labels)
        assert_same_task(public, trusted)

    def test_package_rows_equal_their_public_rebuild(self, panda, rng):
        params = CbfParams(plane_normal=(0.0, 0.0, 1.0), plane_offset=-1.0)
        for _ in range(5):
            st = compute_state(panda, *random_panda_state(panda, rng))
            tau_ext = rng.uniform(-5.0, 5.0, 7)
            for task in (energy_cbf_row(st, params, tau_ext, 0.1),
                         acceleration_rows(st, params,
                                           ("velocity", "position"), tau_ext),
                         collision_plane_rows(st, params, tau_ext)):
                assert_same_task(task, Task(
                    A=task.A, b=task.b, label=task.label, slack=task.slack,
                    row_labels=list(task.row_labels)))


def assert_same_task(one, two):
    for name in ("A", "b", "slack"):
        x, y = getattr(one, name), getattr(two, name)
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (one.label, one.row_labels) == (two.label, two.row_labels)


FAMILY_SETS = [("velocity",), ("position",), ("velocity", "position")]


def drift_torque(st, tau_ext=None):
    w = -st.C @ st.qd - st.g
    return w if tau_ext is None else w + tau_ext


def family_rows(st, params, families, tau_ext=None):
    """One acceleration task per family, each from its own bounds."""
    return [acceleration_rows(st, params, (f,), tau_ext)
            for f in families]


def family_bounds(st, params, family):
    """(lo, hi) on qdd that the family's barrier puts, from the formulas
    in the tasks module docstring."""
    model = st.model
    if family == "velocity":
        g = params.gamma_velocity
        return -g * (st.qd + model.v_max), g * (model.v_max - st.qd)
    s, p = params.lambda1 + params.lambda2, params.lambda1 * params.lambda2
    return (-s * st.qd - p * (st.q - model.q_min),
            p * (model.q_max - st.q) - s * st.qd)


def bounds_of(task, st, tau_ext=None):
    """(lo, hi) read off acceleration rows b = [a - hi, lo - a], with
    a = M^-1 w the drift acceleration."""
    n = st.n
    a = st.M_inv @ drift_torque(st, tau_ext)
    return task.b[n:] + a, a - task.b[:n]


def stage0_outcome(tasks, witness):
    """Whether the strict tasks admit a torque, as a cascade whose one
    level tracks the witness decides it."""
    track = Task(A=np.eye(witness.shape[0]), b=witness,
                 label="track")
    levels = [LevelSpec(equality=track)]
    try:
        res = run_cascade(tasks, levels, witness)
    except S0EmptyError:
        return "empty"
    assert cascade_violation(tasks, levels, res.records, res.u_final) <= 1e-8
    return "nonempty"


class TestAccelerationTask:
    """The velocity and position families are one task: the rows of
    their intersected box, each labelled by the family that sets it."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(q_frac=hst.lists(hst.floats(0.0, 1.0), min_size=7, max_size=7),
           qd_frac=hst.lists(hst.floats(-2.0, 2.0), min_size=7, max_size=7),
           u_frac=hst.lists(hst.floats(-1.5, 1.5), min_size=7, max_size=7),
           ext_frac=hst.lists(hst.floats(-0.1, 0.1), min_size=7, max_size=7),
           families=hst.sampled_from(FAMILY_SETS
                                     + [("position", "velocity")]))
    def test_merged_rows_are_the_binding_family_rows(
            self, panda, q_frac, qd_frac, u_frac, ext_frac, families):
        q = panda.q_min + np.array(q_frac) * (panda.q_max - panda.q_min)
        st = compute_state(panda, q, np.array(qd_frac) * panda.v_max)
        params = CbfParams()
        tau_ext = np.array(ext_frac) * panda.tau_max
        u = np.array(u_frac) * panda.tau_max
        merged = acceleration_rows(st, params, families, tau_ext)
        single = family_rows(st, params, families, tau_ext)
        assert merged.m == 14
        resid = np.array([t.A @ u - t.b for t in single])
        np.testing.assert_array_equal(merged.A @ u - merged.b,
                                      resid.min(axis=0))
        # each label names the family whose row binds, the first on a tie
        first = np.argmax([t.b for t in single], axis=0)
        assert merged.row_labels == [single[k].row_labels[i]
                                     for i, k in enumerate(first)]
        torque = [torque_limit_rows(panda)]
        assert stage0_outcome(torque + [merged], u) == \
            stage0_outcome(torque + single, u)

    def test_tie_goes_to_the_family_named_first(self, panda):
        # at rest mid-range, both families bound qdd to [-1, 1] on every
        # joint: g v_max = 1 and l1 l2 (q_max - q) = l1 l2 (q - q_min) = 1
        model = dataclasses.replace(panda, v_max=np.full(7, 0.1),
                                    q_min=-np.ones(7), q_max=np.ones(7))
        params = CbfParams(gamma_velocity=10.0, lambda1=1.0, lambda2=1.0)
        st = compute_state(model, np.zeros(7), np.zeros(7))
        for families in (("velocity", "position"), ("position", "velocity")):
            for fam in families:
                np.testing.assert_array_equal(
                    family_bounds(st, params, fam),
                    (-np.ones(7), np.ones(7)))
            task = acceleration_rows(st, params, families)
            np.testing.assert_allclose(bounds_of(task, st),
                                       (-np.ones(7), np.ones(7)), atol=1e-9)
            prefix = families[0][:3]
            assert task.row_labels == \
                [f"{prefix}_max[{i}]" for i in range(7)] + \
                [f"{prefix}_min[{i}]" for i in range(7)]

    @pytest.mark.parametrize("families", FAMILY_SETS
                             + [("position", "velocity")])
    def test_labels_name_the_binding_family(self, panda, rng, families):
        """Each row's label is prefix_max[i] / prefix_min[i] of the first
        named family whose bound binds, as formatted per row."""
        params = CbfParams()
        mixed = 0
        for _ in range(20):
            # anywhere in the range, so that both families bind somewhere
            st = compute_state(panda, rng.uniform(panda.q_min, panda.q_max),
                               rng.uniform(-1.0, 1.0, 7) * panda.v_max)
            bounds = [family_bounds(st, params, f) for f in families]
            lo = np.max([lo for lo, _ in bounds], axis=0)
            hi = np.min([hi for _, hi in bounds], axis=0)
            first_hi = [next(f for f, (_, h) in zip(families, bounds)
                             if h[i] == hi[i]) for i in range(7)]
            first_lo = [next(f for f, (lo_f, _) in zip(families, bounds)
                             if lo_f[i] == lo[i]) for i in range(7)]
            expect = [f"{f[:3]}_max[{i}]" for i, f in enumerate(first_hi)] \
                + [f"{f[:3]}_min[{i}]" for i, f in enumerate(first_lo)]
            assert acceleration_rows(st, params, families).row_labels \
                == expect
            mixed += len({label[:3] for label in expect}) > 1
        assert mixed > 0 or len(families) == 1

    def test_families_named_in_either_order_give_the_same_box(self, panda,
                                                              rng):
        params = CbfParams()
        for _ in range(10):
            st = compute_state(panda, *random_panda_state(panda, rng))
            one = acceleration_rows(st, params, ("velocity", "position"))
            two = acceleration_rows(st, params, ("position", "velocity"))
            assert np.array_equal(one.A, two.A)
            assert np.array_equal(one.b, two.b)


class TestAccelerationWitness:
    def test_rows_bound_the_acceleration_to_the_box(self, panda, rng):
        params = CbfParams()
        for _ in range(10):
            st = compute_state(panda, *random_panda_state(panda, rng))
            tau_ext = rng.uniform(-5.0, 5.0, 7)
            u = rng.uniform(-50.0, 50.0, 7)
            acc = st.M_inv @ (u + drift_torque(st, tau_ext))
            shared = acceleration_rows(st, params, ("velocity", "position"),
                                       tau_ext)
            boxes = []
            for fam in ("velocity", "position"):
                lo, hi = family_bounds(st, params, fam)
                [task] = family_rows(st, params, (fam,), tau_ext)
                np.testing.assert_allclose(
                    task.A @ u - task.b,
                    np.concatenate([hi - acc, acc - lo]), atol=1e-8)
                np.testing.assert_allclose(bounds_of(task, st, tau_ext),
                                           (lo, hi), atol=1e-8)
                boxes.append((lo, hi))
            lo = np.maximum(boxes[0][0], boxes[1][0])
            hi = np.minimum(boxes[0][1], boxes[1][1])
            np.testing.assert_allclose(
                shared.A @ u - shared.b,
                np.concatenate([hi - acc, acc - lo]), atol=1e-8)
            np.testing.assert_allclose(bounds_of(shared, st, tau_ext),
                                       (lo, hi), atol=1e-8)


def filtered_rollout(model, q0, qd0, u_des_fn, rows_fn, steps, dt=DT):
    """Semi-implicit Euler under a QP that projects u_des onto the rows."""
    q, qd = np.asarray(q0, float).copy(), np.asarray(qd0, float).copy()
    box = torque_limit_rows(model)
    history = []
    for k in range(steps):
        st = compute_state(model, q, qd)
        extra = rows_fn(st)
        A = np.vstack([box.A, extra.A])
        b = np.concatenate([box.b, extra.b])
        u_des = u_des_fn(k * dt, st)
        prob = QpProblem(H=2 * np.eye(model.n_joints), f=-2 * u_des,
                         A_in=A, b_in=b)
        sol = solve_qp(prob, anchor=u_des)
        assert sol.status == "optimal", f"step {k}: {sol.status}"
        u = sol.z_star
        qdd = st.M_inv @ (u - st.C @ qd - st.g)
        qd = qd + dt * qdd
        q = q + dt * qd
        history.append(st)
    return history


class TestForwardInvariance:
    def test_velocity_limits_hold_under_aggressive_input(self, twolink):
        params = CbfParams(gamma_velocity=10.0)

        def u_des(t, st):
            return st.g + np.array([60.0 * np.sin(7 * t), 55.0 * np.cos(9 * t)])

        hist = filtered_rollout(
            twolink, [0.2, -0.3], [0.0, 0.0], u_des,
            lambda st: acceleration_rows(st, params, ("velocity",)),
            steps=1500)
        peak = max(np.max(np.abs(st.qd)) for st in hist)
        assert peak <= twolink.v_max[0] + 1e-3
        assert peak > 0.5 * twolink.v_max[0]  # the input actually pushed

    def test_position_limits_hold_under_aggressive_input(self, twolink):
        # gains sized so the barrier's braking demand (about l * qd * M)
        # stays inside the torque box on this heavy model
        params = CbfParams(lambda1=3.0, lambda2=3.0)

        def u_des(t, st):
            return st.g + np.array([8.0, -4.0 * np.cos(3 * t)])

        hist = filtered_rollout(
            twolink, [0.0, 0.0], [0.0, 0.0], u_des,
            lambda st: acceleration_rows(st, params, ("position",)),
            steps=3000)
        q_hi = max(np.max(st.q - twolink.q_max) for st in hist)
        q_lo = max(np.max(twolink.q_min - st.q) for st in hist)
        assert q_hi <= 1e-3 and q_lo <= 1e-3
        swing = max(np.max(np.abs(st.q)) for st in hist)
        assert swing > 0.5 * twolink.q_max[0]

    def test_energy_limit_holds_without_relaxation(self, twolink):
        """Holding u constant over a step leaves an O(dt) remainder above
        the cap, so the overshoot must shrink roughly linearly with dt."""

        def u_des(t, st):
            return st.g + np.array([15.0 * np.sin(4 * t), 12.0 * np.sin(5 * t + 1)])

        def overshoot_at(dt, steps):
            params = CbfParams(k_max=0.3, gamma=5.0, dt=dt)

            def rows(st):
                t = energy_cbf_row(st, params)
                return Task(A=t.A, b=t.b, label="energy")

            hist = filtered_rollout(twolink, [0.1, 0.1], [0.0, 0.0], u_des,
                                    rows, steps=steps, dt=dt)
            peak_k = max(st.K for st in hist)
            assert peak_k > 0.5 * params.k_max  # the cap actually engaged
            return peak_k - params.k_max

        coarse = overshoot_at(1e-3, 2000)
        assert coarse <= 2e-2, f"kinetic energy exceeded cap by {coarse}"
        fine = overshoot_at(2e-4, 10000)
        assert fine <= coarse / 2.5, (coarse, fine)

    def test_plane_clearance_holds(self, twolink):
        # modest gains: braking force on the barrier manifold scales with
        # lambda * speed and has to fit inside the torque box
        params = CbfParams(lambda1=4.0, lambda2=4.0,
                           plane_normal=(0.0, 1.0, 0.0), plane_offset=-1.2)
        normal = np.array([0.0, 1.0, 0.0])

        def u_des(t, st):
            # push the tip at the plane with 15 N; light joint damping keeps
            # the unconstrained motion bounded so the row only has to brake
            return st.g + st.J[:3].T @ (-15.0 * normal) - 2.0 * st.qd

        def rows(st):
            return collision_plane_rows(st, params)

        hist = filtered_rollout(twolink, [0.5, 0.3], [0.0, 0.0], u_des,
                                rows, steps=2000)
        worst = min(float(normal @ st.ee_pos) - params.plane_offset for st in hist)
        assert worst >= -1e-3
        assert worst <= 0.5  # it actually approached the plane


class TestParams:
    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            CbfParams(gamma=0.0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError, match="dt"):
            CbfParams(dt=0.0)

    @pytest.mark.parametrize("field, value", [
        ("gamma", float("nan")), ("k_max", float("inf")),
        ("lambda1", float("nan")), ("dt", float("inf")),
        ("plane_offset", float("nan")), ("d_min", float("inf")),
        ("plane_normal", (0.0, float("nan"), 1.0))])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CbfParams(**{field: value})

    def test_degenerate_plane_rejected(self):
        with pytest.raises(ValueError, match="plane_normal"):
            CbfParams(plane_normal=(0.0, 0.0, 0.0))
