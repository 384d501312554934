"""Simulator checks: integrator physics, scenario parsing, rollout
bookkeeping, and the CSV log format."""

import dataclasses
import math
from textwrap import dedent

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from oracles import audit_loop, rk4_step

from cbf_hqp import control, dynamics
from cbf_hqp.dynamics import compute_state
from cbf_hqp.sim import (
    EquilibriumSchedule,
    Scenario,
    ScenarioError,
    SimulationFault,
    WrenchSchedule,
    audit,
    bundled_scenario_path,
    csv_filename,
    integrate_step,
    load_scenario,
    load_scenario_file,
    run_scenario,
    write_csv,
)
from cbf_hqp.tasks import CbfParams


def twolink_potential(q):
    # COMs at link midpoints, unit masses and lengths, gravity -y
    return 9.81 * (1.5 * math.sin(q[0]) + 0.5 * math.sin(q[0] + q[1]))


HOLD_SCENARIO = dedent("""\
    name: hold
    model: panda
    initial_q: [0.0, -0.7853981633974483, 0.0, -2.3562, 0.0, 1.5708, 0.7853981633974483]
    duration: 0.3
    dt: 0.001
    mode: hqp_performance
    cbf: {k_max: 0.5, gamma: 5.0}
    """)

SINE_SCENARIO = dedent("""\
    name: wiggle
    model: panda
    initial_q: [0.0, -0.7853981633974483, 0.0, -2.3562, 0.0, 1.5708, 0.7853981633974483]
    duration: 0.15
    dt: 0.001
    mode: hqp_performance
    cbf: {k_max: 0.05, gamma: 5.0}
    wrench: {kind: sine, axis: 2, amplitude: 30.0, frequency: 2.0}
    """)


class TestIntegrator:
    def test_gravity_held_arm_stays_put(self, panda):
        q0 = np.array([0.0, -np.pi / 4, 0.0, -2.3562, 0.0, 1.5708, np.pi / 4])
        st = compute_state(panda, q0, np.zeros(7))
        for _ in range(200):
            st = integrate_step(st, st.g, dt=1e-3)
        np.testing.assert_allclose(st.q, q0, atol=1e-12)
        np.testing.assert_allclose(st.qd, np.zeros(7), atol=1e-12)

    def test_free_swing_energy_drift_shrinks_with_dt(self, twolink):
        """Semi-implicit Euler is first order, so the mechanical-energy
        drift of an unactuated swing must drop about linearly in dt."""

        def max_drift(dt, steps):
            st = compute_state(twolink, [0.3, -0.4], [0.0, 0.0])
            e0 = st.K + twolink_potential(st.q)
            worst = 0.0
            for _ in range(steps):
                st = integrate_step(st, np.zeros(2), dt=dt)
                worst = max(worst, abs(st.K + twolink_potential(st.q) - e0))
            return worst

        coarse = max_drift(1e-3, 2000)
        fine = max_drift(2.5e-4, 8000)
        assert coarse <= 0.35      # measured ~0.21 J on a 3.9 J swing
        assert fine <= coarse / 2.5

    def test_first_order_convergence_against_rk4(self, twolink):
        def terminal(stepper, dt, horizon=0.2):
            st = compute_state(twolink, [0.3, -0.4], [0.0, 0.0])
            for _ in range(int(round(horizon / dt))):
                st = stepper(st, np.zeros(2), dt=dt)
            return np.concatenate([st.q, st.qd])

        ref = terminal(rk4_step, 2.5e-5)
        e_coarse = np.max(np.abs(terminal(integrate_step, 2e-3) - ref))
        e_fine = np.max(np.abs(terminal(integrate_step, 1e-3) - ref))
        assert 1.7 <= e_coarse / e_fine <= 2.3

    def test_gravity_compensation_adds_no_energy(self, twolink):
        # u = g leaves K conserved up to integrator error
        st = compute_state(twolink, [0.3, -0.4], [0.8, -0.5])
        k0 = st.K
        worst = -np.inf
        for _ in range(2000):
            st = integrate_step(st, st.g, dt=1e-3)
            worst = max(worst, st.K - k0)
        assert worst <= 1e-3

    def test_non_finite_state_raises(self, twolink):
        st = compute_state(twolink, [0.3, -0.4], [0.0, 0.0])
        with pytest.raises(SimulationFault):
            integrate_step(st, np.array([np.inf, 0.0]), dt=1e-3)

    def test_wrench_enters_through_jacobian_transpose(self, panda):
        q0 = np.array([0.0, -np.pi / 4, 0.0, -2.3562, 0.0, 1.5708, np.pi / 4])
        st = compute_state(panda, q0, np.zeros(7))
        w = np.array([0.0, 0.0, 12.0, 0.0, 0.0, 0.0])
        direct = integrate_step(st, st.g, wrench=w, dt=1e-3)
        folded = integrate_step(st, st.g + st.J.T @ w, dt=1e-3)
        np.testing.assert_allclose(direct.qd, folded.qd, atol=1e-15)


class TestSchedules:
    def test_sine_wrench_values(self):
        ws = WrenchSchedule(kind="sine", axis=2, amplitude=25.0, frequency=0.6)
        assert ws.at(0.0)[2] == 0.0
        t_quarter = 0.25 / 0.6
        np.testing.assert_allclose(ws.at(t_quarter)[2], 25.0, atol=1e-9)
        assert np.count_nonzero(ws.at(t_quarter)) == 1

    def test_none_wrench_is_none(self):
        assert WrenchSchedule().at(3.7) is None

    def test_step_offset_switches_at_time(self):
        eq = EquilibriumSchedule(kind="step", offset=(0.0, 0.0, 0.2), at=1.0)
        assert np.all(eq.offset_at(0.999) == 0.0)
        np.testing.assert_allclose(eq.offset_at(1.0), [0.0, 0.0, 0.2])

    @pytest.mark.parametrize("kwargs", [
        dict(kind="boom"),
        dict(kind="sine", axis=7, amplitude=1.0, frequency=1.0),
        dict(kind="sine", axis=2, amplitude=1.0, frequency=0.0),
    ])
    def test_wrench_validation(self, kwargs):
        with pytest.raises(ScenarioError):
            WrenchSchedule(**kwargs)

    def test_equilibrium_validation(self):
        with pytest.raises(ScenarioError):
            EquilibriumSchedule(kind="jump")
        with pytest.raises(ScenarioError):
            EquilibriumSchedule(kind="step", at=-1.0)


class TestScenarioLoading:
    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="missing 'model'"):
            load_scenario("name: x\ninitial_q: [0, 0]\nduration: 1.0\n")

    def test_root_must_be_mapping(self):
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenario("- 1\n- 2\n")

    def test_invalid_yaml(self):
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario("{{{")

    @pytest.mark.parametrize("section",
                             ["cbf", "wrench", "equilibrium", "controller"])
    def test_unknown_cbf_parameter(self, section):
        text = {
            "cbf": HOLD_SCENARIO.replace("{k_max: 0.5, gamma: 5.0}",
                                         "{k_max: 0.5, bogus: 1.0}"),
            "wrench": SINE_SCENARIO.replace("frequency: 2.0}",
                                            "frequency: 2.0, phase: 0.3}"),
            "equilibrium": HOLD_SCENARIO
            + "equilibrium: {kind: hold, phase: 0.3}\n",
            "controller": HOLD_SCENARIO + "controller: {damping: 3.0}\n",
        }[section]
        with pytest.raises(ScenarioError, match=f"unknown {section} parameter"):
            load_scenario(text)

    @pytest.mark.parametrize("field, text", [
        ("controller.k_trans", HOLD_SCENARIO + "controller: {k_trans: 5}\n"),
        ("equilibrium.offset", HOLD_SCENARIO
         + "equilibrium: {kind: step, offset: 0.2, at: 1.0}\n"),
        ("equilibrium.offset", HOLD_SCENARIO
         + "equilibrium: {kind: step, offset: [0.0, 0.2], at: 1.0}\n"),
        ("cbf.plane_normal", HOLD_SCENARIO.replace(
            "{k_max: 0.5, gamma: 5.0}", "{k_max: 0.5, plane_normal: 1.0}")),
        ("cbf.lambda2", HOLD_SCENARIO.replace(
            "{k_max: 0.5, gamma: 5.0}", "{k_max: 0.5, lambda2: [1, 2]}")),
        ("wrench.amplitude", SINE_SCENARIO.replace(
            "amplitude: 30.0", "amplitude: [1, 2]")),
        ("equilibrium.at", HOLD_SCENARIO
         + "equilibrium: {kind: step, offset: [0.0, 0.0, 0.2], at: [1]}\n"),
        ("duration", HOLD_SCENARIO.replace("duration: 0.3", "duration: [1]")),
        ("strict_families", HOLD_SCENARIO + "strict_families: torque\n"),
        ("strict_families", HOLD_SCENARIO
         + "strict_families: [torque, torque, velocity]\n"),
        ("initial_q", HOLD_SCENARIO.replace("[0.0, -0.785", "[a, -0.785")),
        ("wrench.axis", SINE_SCENARIO.replace("axis: 2", "axis: 2.7")),
        ("wrench.axis", SINE_SCENARIO.replace("axis: 2", "axis: '3'")),
        ("wrench.axis", SINE_SCENARIO.replace("axis: 2", "axis: true")),
        ("duration", HOLD_SCENARIO.replace("duration: 0.3", "duration: '8'")),
        ("cbf.gamma", HOLD_SCENARIO.replace("gamma: 5.0", "gamma: true")),
        ("cbf.gamma", HOLD_SCENARIO.replace("gamma: 5.0", "gamma: .nan")),
        ("cbf.k_max", HOLD_SCENARIO.replace("k_max: 0.5", "k_max: .inf")),
        ("dt", HOLD_SCENARIO.replace("dt: 0.001", "dt: .nan")),
        ("duration", HOLD_SCENARIO.replace("duration: 0.3", "duration: .inf")),
        ("controller.k_trans", HOLD_SCENARIO
         + "controller: {k_trans: [.nan, 200.0, 200.0]}\n"),
        ("initial_q", HOLD_SCENARIO.replace("[0.0, -0.785", "[.nan, -0.785")),
        ("wrench.amplitude", SINE_SCENARIO.replace(
            "amplitude: 30.0", "amplitude: .nan")),
        ("initial_q", HOLD_SCENARIO.replace("[0.0, -0.785", "[true, -0.785")),
        ("initial_q", HOLD_SCENARIO.replace("[0.0, -0.785", '["0.0", -0.785')),
        ("controller.k_trans", HOLD_SCENARIO
         + 'controller: {k_trans: ["200", true, 200.0]}\n'),
        ("equilibrium.offset", HOLD_SCENARIO
         + 'equilibrium: {kind: step, offset: [false, "0", 0.2], at: 1.0}\n'),
    ], ids=["k_trans_scalar", "offset_scalar", "offset_short",
            "plane_normal_scalar", "lambda2_list", "amplitude_list",
            "at_list", "duration_list", "families_scalar", "families_repeated",
            "initial_q_text",
            "axis_fraction", "axis_text", "axis_bool", "duration_text",
            "gamma_bool", "gamma_nan", "k_max_inf", "dt_nan", "duration_inf",
            "k_trans_nan", "initial_q_nan", "amplitude_nan",
            "initial_q_bool", "initial_q_string_number", "k_trans_mixed",
            "offset_mixed"])
    def test_mistyped_field_named(self, field, text):
        with pytest.raises(ScenarioError, match=field):
            load_scenario(text)

    def test_plane_family_needs_a_plane(self):
        text = HOLD_SCENARIO + "strict_families: [torque, plane]\n"
        with pytest.raises(ScenarioError, match=r"cbf\.plane_normal"):
            load_scenario(text)
        sc = load_scenario(text.replace(
            "{k_max: 0.5, gamma: 5.0}",
            "{k_max: 0.5, gamma: 5.0, plane_normal: [0, 0, 1]}"))
        assert sc.strict_families == ("torque", "plane")

    def test_control_period_is_the_scenario_dt(self, monkeypatch):
        # the energy row's slack rate uses the one period the loop runs
        # at; the barrier parameters hold no period of their own
        with pytest.raises(ScenarioError, match="unknown cbf parameter 'dt'"):
            load_scenario(HOLD_SCENARIO.replace(
                "{k_max: 0.5, gamma: 5.0}", "{k_max: 0.5, dt: 0.05}"))
        sc = load_scenario(HOLD_SCENARIO.replace("dt: 0.001", "dt: 0.002"))
        assert sc.dt == 0.002
        assert "dt" not in {f.name for f in dataclasses.fields(sc.cbf)}
        periods = []
        real_step = control.step

        def recorded(state, ctrl, tau_ext=None):
            periods.append(ctrl.dt)
            return real_step(state, ctrl, tau_ext)

        monkeypatch.setattr(control, "step", recorded)
        res = run_scenario(sc, duration=0.01)
        assert periods == [0.002] * len(res.records) == [0.002] * 5

    def test_replaced_period_reaches_the_energy_row(self, monkeypatch):
        """run_scenario hands the controller the period of the scenario
        it is given, also one replaced after loading."""
        sc = dataclasses.replace(
            load_scenario_file(bundled_scenario_path("sine")), dt=0.002)
        calls = []
        energy_cbf_row = control.energy_cbf_row

        def recorded(state, params, dt, *args, **kwargs):
            calls.append((dt, energy_cbf_row(state, params, dt, *args,
                                             **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(control, "energy_cbf_row", recorded)
        res = run_scenario(sc, mode="hqp_safety", gamma=7.0, duration=0.01)
        assert len(res.records) == len(calls) == 5
        for dt, (_, c) in calls:
            assert dt == 0.002
            assert c == pytest.approx(7.0 + 500.0, rel=1e-15)

    @pytest.mark.parametrize("name", [
        "../../x", "a/b", r"a\b", "..", ".", "''", "[a, b]", "7"])
    def test_name_must_be_a_plain_file_name(self, name):
        with pytest.raises(ScenarioError, match="name must be"):
            load_scenario(HOLD_SCENARIO.replace("name: hold", f"name: {name}"))

    def test_bad_mode_rejected(self):
        with pytest.raises(ScenarioError, match="mode"):
            load_scenario(HOLD_SCENARIO.replace("hqp_performance", "warp"))

    def test_initial_q_length_checked_against_model(self):
        sc = load_scenario(HOLD_SCENARIO.replace(
            "[0.0, -0.7853981633974483, 0.0, -2.3562, 0.0, 1.5708, 0.7853981633974483]",
            "[0.0, 0.0]"))
        with pytest.raises(ScenarioError, match="initial_q"):
            run_scenario(sc)

    def test_bundled_experiments_load(self):
        step = load_scenario_file(bundled_scenario_path("step"))
        assert step.duration == 8.0
        assert step.mode == "hqp_performance"
        assert step.cbf.k_max == 0.5
        assert step.equilibrium.kind == "step"
        np.testing.assert_allclose(step.equilibrium.offset, [0.0, 0.0, 0.2])
        assert step.equilibrium.at == 1.0
        assert step.wrench.kind == "none"

        sine = load_scenario_file(bundled_scenario_path("sine"))
        assert sine.duration == 10.0
        assert sine.mode == "hqp_safety"
        assert sine.wrench.kind == "sine"
        assert sine.wrench.amplitude == 25.0
        assert sine.wrench.frequency == 0.6
        assert sine.equilibrium.kind == "hold"

        push = load_scenario_file(bundled_scenario_path("push"))
        assert push.duration == 10.0
        assert push.wrench.amplitude == 45.0
        assert push.wrench.frequency == 0.6


@pytest.mark.parametrize(
    "path", sorted(bundled_scenario_path("step").parent.glob("*.yaml")),
    ids=lambda path: path.stem)
def test_bundled_experiment_runs_clean_in_every_mode(path):
    scenario = load_scenario_file(path)
    for mode in ("single_qp", "hqp_performance", "hqp_safety"):
        result = run_scenario(scenario, mode=mode, duration=0.05)
        assert len(result.records) == 50, mode
        assert audit(result) == [], mode


@pytest.mark.parametrize("mode", ["single_qp", "hqp_safety"])
def test_push_experiment_engages_the_filter(mode):
    """Under the 45 N push the energy barrier acts: the filter changes
    the nominal torque on most periods, and K stays within k_max."""
    scenario = load_scenario_file(bundled_scenario_path("push"))
    result = run_scenario(scenario, mode=mode, duration=3.0)
    assert not result.fault and audit(result) == []
    changed = sum(float(np.max(np.abs(r.u_applied - r.u_nom))) > 1e-9
                  for r in result.records)
    assert changed >= 0.3 * len(result.records), changed
    assert max(r.K for r in result.records) <= scenario.cbf.k_max + 1e-6


def _bitwise_equal(a, b) -> bool:
    """a and b hold the same bits, NaN included."""
    if isinstance(a, (float, np.ndarray)):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


@pytest.fixture(scope="module")
def push_on_panda():
    return (load_scenario_file(bundled_scenario_path("push")),
            dynamics.load_bundled_model("panda"))


@settings(max_examples=14, deadline=None, derandomize=True, database=None)
@given(q_frac=hst.lists(hst.floats(0.1, 0.9), min_size=7, max_size=7),
       k_max=hst.floats(0.05, 1.0), gamma=hst.floats(1.0, 20.0),
       amplitude=hst.floats(0.0, 45.0),
       rerun=hst.sampled_from(("single_qp", "hqp_safety", "hqp_performance")))
def test_random_rollouts_are_clean_bounded_and_repeatable(
        push_on_panda, q_frac, k_max, gamma, amplitude, rerun):
    """Short `push` rollouts from random q0 (inner 80 % of each joint's
    range) under random k_max, gamma and push amplitude, in every mode:
    a clean finish or a logged fault, a clean audit, and the energy
    bound in the modes with a hard energy row. One drawn mode is rolled
    again, and the rerun must be bit-identical."""
    push, model = push_on_panda
    q0 = model.q_min + np.asarray(q_frac) * (model.q_max - model.q_min)
    scenario = dataclasses.replace(
        push, q0=q0,
        wrench=dataclasses.replace(push.wrench, amplitude=amplitude))

    def roll(mode):
        return run_scenario(scenario, model=model, mode=mode, gamma=gamma,
                            k_max=k_max, duration=0.3)

    for mode in ("single_qp", "hqp_safety", "hqp_performance"):
        res = roll(mode)
        if not res.fault:
            assert audit(res) == [], mode
        if mode != "hqp_performance":
            assert max(r.K for r in res.records) <= k_max + 1e-6, mode
        if mode != rerun:
            continue
        again = roll(mode)
        assert (res.fault, res.fault_reason, len(res.records)) \
            == (again.fault, again.fault_reason, len(again.records)), mode
        for ra, rb in zip(res.records, again.records):
            for name, va in vars(ra).items():
                if name != "solve_time_us":
                    assert _bitwise_equal(va, getattr(rb, name)), \
                        (mode, ra.t, name)


@pytest.fixture(scope="module")
def hold_result():
    return run_scenario(load_scenario(HOLD_SCENARIO))


class TestRollout:
    def test_quiescent_hold_stays_at_equilibrium(self, hold_result):
        """Starting at the impedance equilibrium with no wrench, the
        filter must pass the nominal torque through and nothing moves."""
        res = hold_result
        assert not res.fault
        q0 = res.records[0].q
        for r in res.records:
            assert abs(r.K) <= 1e-12
            assert r.delta == 0.0
            assert not r.active_strict
            assert np.max(np.abs(r.q - q0)) <= 1e-9
            assert np.max(np.abs(r.dW)) <= 1e-9
        assert audit(res) == []

    def test_record_count_matches_duration(self, hold_result):
        assert len(hold_result.records) == 300
        ts = [r.t for r in hold_result.records]
        np.testing.assert_allclose(np.diff(ts), 1e-3, atol=1e-12)

    def test_rollout_is_deterministic_except_timing(self):
        sc = load_scenario(SINE_SCENARIO)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            for name in ("q", "qd", "u_nom", "u_applied", "dW"):
                assert np.array_equal(getattr(ra, name), getattr(rb, name))
            for name in ("t", "K", "k_max_eff", "delta", "alpha_dev",
                         "eq_residual"):
                va, vb = getattr(ra, name), getattr(rb, name)
                assert va == vb or (math.isnan(va) and math.isnan(vb))
            assert ra.statuses == rb.statuses
            assert ra.active_strict == rb.active_strict

    def test_overrides_change_parameters_not_file(self):
        sc = load_scenario(HOLD_SCENARIO)
        res = run_scenario(sc, mode="single_qp", gamma=12.0, k_max=0.2,
                           duration=0.02)
        assert res.mode == "single_qp"
        assert res.gamma == 12.0
        assert res.k_max == 0.2
        assert len(res.records) == 20
        assert sc.cbf.gamma == 5.0  # the scenario object is untouched

    @pytest.mark.parametrize("duration", [0.0, -0.1, float("nan")])
    def test_duration_override_must_be_positive(self, duration):
        with pytest.raises(ScenarioError, match="duration"):
            run_scenario(load_scenario(HOLD_SCENARIO), duration=duration)

    @pytest.mark.parametrize("old, new", [
        ("dt: 0.001", "dt: 1.0e-320"), ("duration: 0.3", "duration: 1.0e+308")],
        ids=["tiny_dt", "huge_duration"])
    def test_step_count_must_be_finite(self, old, new):
        scenario = load_scenario(HOLD_SCENARIO.replace(old, new))
        with pytest.raises(ScenarioError, match=r"duration / dt, got .* dt "):
            run_scenario(scenario)

    def test_fault_keeps_partial_log(self):
        # torque demand far beyond the box: stage feasibility collapses
        sc = Scenario(
            name="overload", model_name="twolink", q0=np.array([0.4, 0.5]),
            k_trans=(200.0, 200.0, 200.0), k_rot=(50.0, 50.0, 50.0),
            cbf=CbfParams(k_max=1e-4, gamma=1e4),
            mode="single_qp",
            strict_families=("torque", "velocity", "position"),
            duration=1.0, dt=1e-3,
            wrench=WrenchSchedule(kind="sine", axis=1, amplitude=60.0,
                                  frequency=1.0),
            equilibrium=EquilibriumSchedule(kind="hold"))
        res = run_scenario(sc)
        assert res.fault
        assert 1 <= len(res.records) < 1000
        assert res.records[-1].statuses == ("fault",)
        problems = audit(res)
        assert problems and "fault" in problems[0]

    def test_rollout_never_builds_coriolis_matrix(self, monkeypatch):
        """The controller and the integrator read only the bias torque h;
        the Christoffel C is built when something reads state.C."""
        calls = []
        christoffel = dynamics._coriolis_from_partials

        def counting(*args):
            calls.append(args)
            return christoffel(*args)

        monkeypatch.setattr(dynamics, "_coriolis_from_partials", counting)
        sc = load_scenario_file(bundled_scenario_path("step"))
        res = run_scenario(sc, mode="single_qp", duration=0.2)
        assert not res.fault and len(res.records) == 200
        assert calls == []
        model = dynamics.load_bundled_model(sc.model_name)
        compute_state(model, res.records[-1].q, res.records[-1].qd).C
        assert len(calls) == 1


def corrupted(result, i, **changes):
    """result with record i's fields replaced by changes."""
    records = list(result.records)
    records[i] = dataclasses.replace(records[i], **changes)
    return dataclasses.replace(result, records=records)


class TestAudit:
    """One message per broken invariant: the first broken time stride,
    and the first record that breaks a record check, with the first
    check it breaks (finite, slack sign, slack bookkeeping, equality
    residual)."""

    def test_clean_rollout(self, hold_result):
        assert audit(hold_result) == []

    def test_controller_fault(self, hold_result):
        res = dataclasses.replace(hold_result, fault=True,
                                  fault_reason="level 1 clashed")
        assert audit(res) == ["controller fault: level 1 clashed"]

    def test_record_count(self, hold_result):
        res = dataclasses.replace(hold_result,
                                  records=hold_result.records[:-1])
        assert audit(res) == ["record count does not match duration/dt"]

    def test_time_stride(self, hold_result):
        res = corrupted(hold_result, 5, t=hold_result.records[5].t + 1e-9)
        assert audit(res) == ["time stride broken at record 5"]

    @pytest.mark.parametrize("field", ["q", "qd", "u_nom", "u_applied", "dW",
                                       "K", "k_max_eff", "delta",
                                       "solve_time_us"])
    def test_non_finite_value(self, hold_result, field):
        value = getattr(hold_result.records[7], field)
        if isinstance(value, np.ndarray):
            value = value.copy()
            value[-1] = np.nan
        else:
            value = np.inf
        res = corrupted(hold_result, 7, **{field: value})
        assert audit(res) == ["non-finite value at record 7"]

    def test_negative_slack(self, hold_result):
        res = corrupted(hold_result, 7, delta=-1e-3,
                        k_max_eff=hold_result.k_max - 1e-3)
        assert audit(res) == ["negative slack at record 7"]

    def test_slack_bookkeeping(self, hold_result):
        rec = hold_result.records[7]
        res = corrupted(hold_result, 7, k_max_eff=rec.k_max_eff + 1e-9)
        assert audit(res) == ["slack bookkeeping broken at record 7"]

    def test_equality_residual(self, hold_result):
        res = corrupted(hold_result, 7, eq_residual=2e-8)
        assert audit(res) == ["inherited equality residual 2e-08 at record 7"]
        # a nan residual (a faulted period) is not checked
        assert audit(corrupted(hold_result, 7, eq_residual=np.nan)) == []

    def test_first_record_then_first_check(self, hold_result):
        res = corrupted(hold_result, 9, K=np.nan)
        # record 4 breaks the slack sign and the bookkeeping: the sign
        # is checked first
        res = corrupted(res, 4, delta=-1e-3, eq_residual=1.0)
        res = corrupted(res, 2, t=res.records[2].t + 1e-9)
        assert audit(res) == ["time stride broken at record 2",
                              "negative slack at record 4"]
        res = corrupted(res, 3, eq_residual=1.0)
        assert audit(res)[1] == "inherited equality residual 1 at record 3"

    def test_agrees_with_the_record_loop(self, hold_result, rng):
        fields = {"t": 1e-9, "K": np.nan, "delta": -1e-3,
                  "k_max_eff": 1e-9, "eq_residual": 1e-7, "q": np.inf,
                  "dW": np.nan}
        for _ in range(100):
            res = hold_result
            if rng.random() < 0.2:
                res = dataclasses.replace(res, records=res.records[:-3])
            for _ in range(int(rng.integers(0, 4))):
                i = int(rng.integers(0, len(res.records)))
                name = str(rng.choice(list(fields)))
                value = getattr(res.records[i], name)
                if isinstance(value, np.ndarray):
                    value = value.copy()
                    value[int(rng.integers(0, value.shape[0]))] = fields[name]
                elif name in ("t", "k_max_eff"):
                    value = value + fields[name]
                else:
                    value = fields[name]
                res = corrupted(res, i, **{name: value})
            assert audit(res) == audit_loop(res)


class TestCsv:
    def test_filename_encodes_scenario_mode_gamma(self, hold_result):
        assert csv_filename(hold_result.scenario_name, hold_result.mode,
                            hold_result.gamma) \
            == "hold_hqp_performance_gamma5.csv"

    def test_schema_and_roundtrip(self, tmp_path, hold_result):
        path = write_csv(hold_result, tmp_path / "out.csv")
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        n = 7
        assert len(header) == 4 * n + 16
        assert header[0] == "t"
        assert header[1] == "q0"
        assert header[-3] == "damped"
        assert header[-2] == "statuses"
        assert len(lines) == 1 + len(hold_result.records)

        row = lines[10].split(",")
        rec = hold_result.records[9]  # header occupies the first line
        assert float(row[0]) == pytest.approx(rec.t, abs=1e-12)
        qcols = [float(v) for v in row[1:8]]
        np.testing.assert_allclose(qcols, rec.q, rtol=1e-8)
        k_col = header.index("K")
        assert float(row[k_col]) == pytest.approx(rec.K, rel=1e-8, abs=1e-300)
        assert "optimal" in row[header.index("statuses")]

    def test_empty_result_rejected(self, tmp_path, hold_result):
        import dataclasses
        empty = dataclasses.replace(hold_result, records=[])
        with pytest.raises(ValueError, match="no records"):
            write_csv(empty, tmp_path / "x.csv")
