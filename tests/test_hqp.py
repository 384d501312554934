"""Cascade checks: priority freezing, slack optimality, and agreement
with the brute-force QP oracle on randomized small hierarchies."""

import time

import numpy as np
import pytest
from oracles import (
    cascade_violation,
    general_level_optimum,
    level_objective,
    oracle_solve,
    random_levels,
    random_strict,
    replay_level_qp,
)

from cbf_hqp import hqp
from cbf_hqp.hqp import (
    CascadeInfeasibleError,
    LevelSpec,
    S0EmptyError,
    _interval_minimizer,
    _level_optimum,
    init_stage0,
    run_cascade,
    solve_level,
)
from cbf_hqp.qpcore import FEAS_TOL, REG, QpProblem, solve_qp
from cbf_hqp.tasks import Task


def box_task(n, bound):
    """|u_i| <= bound as 2n hard rows A u >= b."""
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.full(2 * n, -float(bound))
    return Task(A=A, b=b, label="box")


class TestHandCascades:
    def test_pinned_equality_beats_soft_inequality(self):
        # level 1 pins u = 2; level 2 wants u >= 3 but may only relax
        strict = box_task(1, 10.0)
        levels = [
            LevelSpec(equality=Task(A=[[1.0]], b=[2.0], label="pin")),
            LevelSpec(inequality=Task(A=[[1.0]], b=[3.0], label="want"),
                      slack=[1.0]),
        ]
        res = run_cascade([strict], levels, u_nom=np.zeros(1))
        assert cascade_violation([strict], levels, res.records,
                                 res.u_final) <= 1e-8
        assert res.u_final[0] == pytest.approx(2.0, abs=1e-8)
        assert res.records[1].delta == pytest.approx(1.0, abs=1e-8)

    def test_equality_level_pins_torque(self, rng):
        n = 4
        u_nom = rng.normal(size=n)
        strict = box_task(n, 100.0)
        levels = [LevelSpec(equality=Task(A=np.eye(n), b=u_nom,
                                          label="track"))]
        ledger = init_stage0([strict], witness=np.zeros(n))
        rows_before = ledger.A_eq.shape[0]
        u, delta, ledger = solve_level(ledger, levels[0], np.zeros(n))
        np.testing.assert_allclose(u, u_nom, atol=1e-8)
        assert delta == 0.0
        assert ledger.A_eq.shape[0] == rows_before + n
        # a later level cannot move the torque at all
        assert ledger.Z.shape == (n, 0)
        u2, _, _ = solve_level(ledger, LevelSpec(equality=Task(
            A=np.eye(n), b=u_nom + 1.0, label="other")), np.zeros(n))
        np.testing.assert_allclose(u2, u_nom, atol=1e-8)
        # with no variable left, a hard row only checks the pinned torque
        u3, _, _ = solve_level(ledger, LevelSpec(inequality=Task(
            A=np.eye(n), b=u_nom - 1.0, label="below")),
            np.zeros(n))
        np.testing.assert_allclose(u3, u_nom, atol=1e-8)
        with pytest.raises(CascadeInfeasibleError):
            solve_level(ledger, LevelSpec(inequality=Task(
                A=np.eye(n), b=u_nom + 1.0, label="above")),
                np.zeros(n))

    def test_inactive_inequality_needs_no_slack(self):
        # row 0 * u + c delta >= negative number holds at delta = 0
        strict = box_task(2, 50.0)
        ineq = Task(A=[[0.0, 0.0]], b=[-3.0], label="energy")
        res = run_cascade([strict], [LevelSpec(inequality=ineq,
                                               slack=[1001.0])],
                          u_nom=np.array([1.0, -2.0]))
        assert res.records[0].delta == 0.0
        np.testing.assert_allclose(res.u_final, [1.0, -2.0], atol=1e-8)


class TestStageZero:
    def test_contradictory_rows_named(self):
        # stage 0 installs the rows; the first level finds them empty
        lo = Task(A=[[1.0, 0.0]], b=[1.0], label="lo")
        hi = Task(A=[[-1.0, 0.0]], b=[0.0], label="hi")
        track = Task(A=np.eye(2), b=np.zeros(2), label="track")
        with pytest.raises(S0EmptyError) as exc:
            run_cascade([lo, hi], [LevelSpec(equality=track)], np.zeros(2))
        assert "lo[0]" in str(exc.value) and "hi[0]" in str(exc.value)
        assert exc.value.most_violated in ("lo[0]", "hi[0]")
        for _, magnitude in exc.value.violations:
            assert magnitude == pytest.approx(0.5, abs=1e-6)

    def test_first_level_clash_with_nonempty_strict_rows_is_its_own(self):
        # the strict rows admit u = 0; the level's hard row u >= 2 does not
        cap = Task(A=[[-1.0]], b=[-1.0], label="cap")
        push = Task(A=[[1.0]], b=[2.0], label="push")
        with pytest.raises(CascadeInfeasibleError, match="level 1"):
            run_cascade([cap], [LevelSpec(inequality=push)], np.array([5.0]))

    def test_box_alone_is_feasible(self):
        ledger = init_stage0([box_task(3, 20.0)], np.zeros(3))
        assert ledger.n_strict == 6
        assert ledger.in_violation(ledger.witness) <= 1e-8

    def test_witness_skips_feasibility_solve(self):
        t = box_task(2, 10.0)
        with_witness = init_stage0([t], witness=np.array([1.0, 1.0]))
        assert not with_witness.phase1_used
        without = init_stage0([t], witness=np.array([50.0, 0.0]))
        assert without.phase1_used
        # stage 0 keeps the witness; the first level projects it onto
        # the box: the nearest point
        np.testing.assert_array_equal(without.witness, [50.0, 0.0])
        track = Task(A=np.eye(2), b=np.array([50.0, 0.0]),
                     label="track")
        levels = [LevelSpec(equality=track)]
        res = run_cascade([t], levels, np.array([50.0, 0.0]))
        assert res.phase1_used
        assert cascade_violation([t], levels, res.records,
                                 res.u_final) <= 1e-8
        np.testing.assert_allclose(res.u_final, [10.0, 0.0], atol=1e-8)

    def test_stage0_runs_no_qp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hqp, "solve_qp", lambda *a, **k: (
            calls.append(a) or solve_qp(*a, **k)))
        ledger = init_stage0([box_task(2, 10.0)],
                             witness=np.array([50.0, 0.0]))
        assert ledger.phase1_used and calls == []

    def test_dimension_comes_from_the_witness(self):
        ledger = init_stage0([], np.zeros(3))
        assert ledger.n == 3 and ledger.Z.shape == (3, 3)

    @pytest.mark.parametrize("witness", [3.0, np.zeros((2, 2)), [np.nan, 0.0]],
                             ids=["scalar", "matrix", "nan"])
    def test_witness_must_be_a_finite_vector(self, witness):
        with pytest.raises(ValueError, match="^witness must be a finite"):
            run_cascade([], [], witness)

    def test_nominal_torque_of_the_wrong_length_is_named(self):
        track = Task(A=np.eye(3), b=np.zeros(3), label="track")
        with pytest.raises(ValueError,
                           match="'box' has 3 columns, the witness 2 entries"):
            run_cascade([box_task(3, 10.0)], [LevelSpec(equality=track)],
                        np.zeros(2))


class TestLevelValidation:
    def test_level_needs_a_task(self):
        with pytest.raises(ValueError, match="at least one task"):
            LevelSpec()

    def test_slack_needs_an_inequality_task(self):
        track = Task(A=np.eye(2), b=np.zeros(2), label="track")
        with pytest.raises(ValueError, match="inequality task"):
            LevelSpec(equality=track, slack=[1.0, 1.0])

    @pytest.mark.parametrize("slack", [[1.0], [1.0, 1.0, 1.0]])
    def test_slack_needs_one_coefficient_per_row(self, slack):
        soft = Task(A=np.eye(2), b=np.zeros(2), label="soft")
        with pytest.raises(ValueError, match="one coefficient per row"):
            LevelSpec(inequality=soft, slack=slack)

    @pytest.mark.parametrize("slack", [[1.0, -1.0], [1.0, np.inf],
                                       [np.nan, 1.0]],
                             ids=["negative", "inf", "nan"])
    def test_slack_coefficients_must_be_finite_and_nonnegative(self, slack):
        soft = Task(A=np.eye(2), b=np.zeros(2), label="soft")
        with pytest.raises(ValueError, match="finite, >= 0"):
            LevelSpec(inequality=soft, slack=slack)

    def test_all_zero_slack_is_refused(self):
        soft = Task(A=np.eye(2), b=np.zeros(2), label="soft")
        with pytest.raises(ValueError, match="not all zero"):
            LevelSpec(inequality=soft, slack=[0.0, 0.0])
        # a hard level has no slack at all; a zero coefficient beside a
        # positive one keeps its row hard inside a relaxed level
        assert LevelSpec(inequality=soft).slack is None
        np.testing.assert_array_equal(
            LevelSpec(inequality=soft, slack=[0.0, 2.0]).slack, [0.0, 2.0])

    def test_task_of_the_wrong_width_is_named(self):
        ledger = init_stage0([], witness=np.zeros(2))
        wide = Task(A=np.eye(3), b=np.zeros(3), label="wide")
        with pytest.raises(ValueError, match="'wide' has 3 columns, the "
                                             "ledger's torque 2 entries"):
            solve_level(ledger, LevelSpec(equality=wide), np.zeros(2))

    def test_hard_level_conflict_raises(self):
        # strict u <= 1 against a hard (slack-free) level row u >= 2
        strict = Task(A=[[-1.0]], b=[-1.0], label="cap")
        want = Task(A=[[1.0]], b=[2.0], label="push")
        ledger = init_stage0([strict], witness=np.zeros(1))
        with pytest.raises(CascadeInfeasibleError, match="level 1"):
            solve_level(ledger, LevelSpec(inequality=want), np.zeros(1))


class TestSlackOptimality:
    def test_delta_is_least_relaxation_over_box(self, rng):
        # with only a box, min over u of (b - A u)/c sits at a vertex
        for _ in range(20):
            n = int(rng.integers(1, 4))
            bound = rng.uniform(2.0, 6.0)
            a = rng.normal(size=(1, n))
            c = rng.uniform(0.5, 2.0)
            b = rng.normal() * 3.0
            expect = max(0.0, (b - float(np.sum(np.abs(a))) * bound) / c)
            res = run_cascade(
                [box_task(n, bound)],
                [LevelSpec(inequality=Task(A=a, b=[b], label="row"),
                           slack=[c])],
                u_nom=np.zeros(n))
            assert res.records[0].delta == pytest.approx(expect, abs=1e-6)

    def test_delta_matches_oracle_on_stacked_problem(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            strict, _ = random_strict(rng, n)
            ineq = Task(A=rng.normal(size=(1, n)),
                        b=[rng.normal() * 2.0], label="row")
            levels = [LevelSpec(inequality=ineq,
                                slack=[rng.uniform(0.5, 2.0)])]
            res = run_cascade([strict], levels, u_nom=np.zeros(n))
            prob = replay_level_qp(n, strict, res.records, levels, 0)
            z, _ = oracle_solve(prob)
            assert z is not None
            assert res.records[0].delta == pytest.approx(float(z[n]), abs=1e-6)


class TestCascadeProperties:
    def test_monotone_shrinkage_and_final_feasibility(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            strict, _ = random_strict(rng, n)
            levels = random_levels(rng, n)
            res = run_cascade([strict], levels, rng.normal(size=n))
            assert cascade_violation([strict], levels, res.records,
                                     res.u_final) <= 1e-8
            assert res.eq_residual <= 1e-8

    def test_lower_levels_cannot_degrade_higher_objectives(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            strict, _ = random_strict(rng, n)
            levels = random_levels(rng, n)
            u_nom = rng.normal(size=n)
            res = run_cascade([strict], levels, u_nom)
            for j, spec in enumerate(levels):
                # the final torque still achieves level j's recorded value
                rec = res.records[j]
                recorded = level_objective(spec, rec.u, rec.delta)
                achieved = level_objective(spec, res.u_final, rec.delta)
                assert achieved <= recorded + 1e-8
                # re-running with the lower levels deleted changes nothing
                part = run_cascade([strict], levels[:j + 1], u_nom).records[j]
                assert level_objective(spec, part.u, part.delta) \
                    == pytest.approx(recorded, rel=1e-9, abs=1e-8)

    def test_levels_match_oracle_on_stacked_problems(self, rng):
        checked = 0
        for _ in range(25):
            n = int(rng.integers(2, 4))
            strict, _ = random_strict(rng, n)
            levels = random_levels(rng, n)
            res = run_cascade([strict], levels, rng.normal(size=n))
            for k, spec in enumerate(levels):
                prob = replay_level_qp(n, strict, res.records, levels, k)
                if prob.A_in.shape[0] > 12:
                    continue
                z, _ = oracle_solve(prob)
                assert z is not None, "oracle found the level infeasible"
                delta_o = float(z[n]) if spec.inequality is not None else 0.0
                obj_o = level_objective(spec, z[:n], delta_o)
                scale = 1.0 + abs(obj_o)
                rec = res.records[k]
                assert abs(level_objective(spec, rec.u, rec.delta) - obj_o) \
                    <= 1e-6 * scale
                checked += 1
        assert checked >= 30

    def test_kernel_basis_tracks_frozen_equalities(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 5))
            strict, w = random_strict(rng, n)
            u_nom = rng.normal(size=n)
            ledger = init_stage0([strict], witness=w)
            for spec in random_levels(rng, n):
                _, _, ledger = solve_level(ledger, spec, u_nom)
                Z, A_eq = ledger.Z, ledger.A_eq
                assert np.linalg.norm(Z.T @ Z - np.eye(Z.shape[1])) <= 1e-12
                assert np.linalg.norm(A_eq @ Z) \
                    <= 1e-10 * (1.0 + np.linalg.norm(A_eq))
                rank = np.linalg.matrix_rank(A_eq) if A_eq.shape[0] else 0
                assert Z.shape == (n, n - rank)

    def test_tight_labels_match_per_row_reference(self, rng):
        def tight(rows, tol=1e-8):
            return tuple(lab for lab, lhs, rhs in rows
                         if abs(lhs - rhs) <= tol * (1.0 + abs(rhs)))

        strict_seen = 0
        for _ in range(30):
            n = int(rng.integers(2, 5))
            strict, w = random_strict(rng, n)
            u_nom = rng.normal(size=n) * 3.0
            ledger = init_stage0([strict], witness=w)
            for spec in random_levels(rng, n):
                _, _, ledger = solve_level(ledger, spec, u_nom)
            u = ledger.witness
            expected = tight([(lab, strict.A[i] @ u, strict.b[i])
                              for i, lab in enumerate(strict.row_labels)])
            assert ledger.strict_tight_rows(u) == expected
            strict_seen += len(expected)
        assert strict_seen > 0

    def test_single_level_reduces_to_plain_qp(self, rng):
        # one level, no strict rows, hard inequality: the cascade must
        # equal a direct projection QP onto those rows
        for _ in range(20):
            n = int(rng.integers(2, 5))
            u_nom = rng.normal(size=n) * 2.0
            A = rng.normal(size=(3, n))
            w = rng.normal(size=n) * 0.3
            b = A @ w - rng.uniform(0.1, 1.0, size=3)
            level = LevelSpec(
                equality=Task(A=np.eye(n), b=u_nom, label="track"),
                inequality=Task(A=A, b=b, label="hard"))
            res = run_cascade([], [level], u_nom)
            direct = solve_qp(QpProblem(H=np.eye(n), f=-u_nom, A_in=A, b_in=b),
                              anchor=u_nom)
            assert direct.status == "optimal"
            np.testing.assert_allclose(res.u_final, direct.z_star, atol=1e-8)

    def test_deterministic(self, rng):
        n = 4
        strict, _ = random_strict(rng, n)
        levels = random_levels(rng, n)
        u_nom = rng.normal(size=n)
        a = run_cascade([strict], levels, u_nom)
        b = run_cascade([strict], levels, u_nom)
        assert np.array_equal(a.u_final, b.u_final)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.u, rb.u)
            assert ra.delta == rb.delta
            assert ra.iterations == rb.iterations

    def test_random_cascades_never_fail(self, rng):
        # Degenerate vertices (rows tight together at the optimum, rows
        # nearly dependent on the active ones) must not end a cascade
        # as infeasible when its strict rows admit a torque.
        t0 = time.perf_counter()
        for k in range(2000):
            n = int(rng.integers(2, 7))
            strict, _ = random_strict(rng, n)
            levels = random_levels(rng, n)
            res = run_cascade([strict], levels, rng.normal(size=n))
            assert cascade_violation([strict], levels, res.records,
                                     res.u_final) <= 1e-8, f"cascade {k}"
        assert time.perf_counter() - t0 < 10.0

    def test_rows_the_witness_breaks_within_the_band_never_empty_a_level(
            self, rng):
        # A witness may break strict rows by up to FEAS_TOL (stage 0
        # keeps u_nom then, and levels leave rows within that band), and
        # such rows can clash at that scale (a lower and an upper bound a
        # few 1e-9 apart on the free direction). A level searches around
        # the witness, so it must still solve, and it leaves each of
        # those rows no more broken than the witness did.
        for k in range(300):
            n = int(rng.integers(2, 6))
            w = rng.normal(size=n)
            free = int(rng.integers(1, n + 1))
            A = rng.normal(size=(int(rng.integers(2, 9)), n))
            b = A @ w + rng.uniform(0.0, FEAS_TOL, size=A.shape[0])
            ledger = init_stage0(
                [Task(A=A, b=b, label="strict")], witness=w)
            assert not ledger.phase1_used
            if free < n:
                ledger = pin_level(ledger, rng.normal(size=(n - free, n)))
            E = rng.normal(size=(int(rng.integers(1, n + 1)), n))
            track = Task(A=E, b=rng.normal(size=E.shape[0]) * 3.0,
                         label="track")
            u, _, _ = solve_level(ledger, LevelSpec(equality=track),
                                  w + rng.normal(size=n))
            assert np.all(A @ u - b >= np.minimum(A @ w - b, 0.0)
                          - FEAS_TOL * (1.0 + np.abs(b))), f"level {k}"

    def test_feasible_nominal_passes_through_bit_for_bit(self, rng):
        # u_nom meets every strict row and every level row (slack, tight
        # or, for an equality task, exactly): it is the lexicographic
        # optimum, and the cascade returns it untouched after 0
        # iterations in every level.
        def met_rows(m, u):
            A = rng.normal(size=(m, u.shape[0]))
            gap = np.where(rng.random(m) < 0.3, 0.0,
                           rng.uniform(0.01, 1.0, size=m))
            return A, A @ u - gap

        for k in range(300):
            n = int(rng.integers(2, 7))
            u_nom = rng.normal(size=n) * 3.0
            A, b = met_rows(int(rng.integers(1, 6)), u_nom)
            strict = Task(A=A, b=b, label="strict")
            levels = []
            for _ in range(int(rng.integers(1, 4))):
                eq = ineq = slack = None
                pick = rng.integers(0, 3)
                if pick in (0, 2):
                    E = rng.normal(size=(int(rng.integers(1, n + 1)), n))
                    eq = Task(A=E, b=E @ u_nom, label="track")
                if pick in (1, 2):
                    C, d = met_rows(int(rng.integers(1, 3)), u_nom)
                    slack = (None if rng.random() < 0.5
                             else rng.uniform(0.5, 2.0, size=d.shape[0]))
                    ineq = Task(A=C, b=d, label="soft")
                levels.append(LevelSpec(equality=eq, inequality=ineq,
                                        slack=slack))
            res = run_cascade([strict], levels, u_nom)
            assert np.array_equal(res.u_final, u_nom), f"cascade {k}"
            assert not res.phase1_used
            assert [r.iterations for r in res.records] == [0] * len(levels)
            assert all(r.delta == 0.0 for r in res.records)


class TestLeanLevelBuilder:
    """`_level_optimum` skips the identity products before the first
    equality level, stacks the slack rows into one array and poses its
    QP unvalidated; none of that may move a bit of its answer."""

    def test_matches_the_general_builder_on_random_cascades(self, rng):
        seen = {"identity": 0, "kernel": 0, "hard": 0, "infeasible": 0}
        for _ in range(150):
            n = int(rng.integers(1, 6))
            strict, _ = random_strict(rng, n)
            levels = random_levels(rng, n)
            if rng.random() < 0.3:
                # a hard inequality level: no slack column at all
                ineq = Task(A=rng.normal(size=(2, n)), b=rng.normal(size=2),
                            label="hard")
                levels.insert(int(rng.integers(0, len(levels) + 1)),
                              LevelSpec(inequality=ineq))
            u_nom = rng.normal(size=n)
            ledger = init_stage0([strict], u_nom)
            for spec in levels:
                eq, ineq = spec.equality, spec.inequality
                C, d = ledger.A_in, ledger.b_in
                if ineq is not None:
                    C = np.concatenate([C, ineq.A])
                    d = np.concatenate([d, ineq.b])
                slack = spec.slack
                seen["identity" if ledger._basis() is None else "kernel"] += 1
                seen["hard"] += ineq is not None and slack is None
                outcomes = []
                for build in (_level_optimum, general_level_optimum):
                    try:
                        outcomes.append(build(ledger, eq, C, d, slack, u_nom))
                    except CascadeInfeasibleError as exc:
                        outcomes.append(str(exc))
                lean, general = outcomes
                if isinstance(lean, str) or isinstance(general, str):
                    assert lean == general
                    seen["infeasible"] += 1
                    break
                assert np.array_equal(lean[0], general[0])
                assert lean[1:] == general[1:]
                solve_level(ledger, spec, u_nom)
        assert min(seen.values()) > 0, seen

    def test_equality_target_must_be_finite(self):
        ledger = init_stage0([box_task(2, 5.0)], np.zeros(2))
        spec = LevelSpec(equality=Task(A=np.eye(2), b=[0.0, -np.inf],
                                       label="track"))
        with pytest.raises(ValueError, match="'track'.*finite"):
            solve_level(ledger, spec, np.zeros(2))


def counted(monkeypatch, name):
    """Wrap hqp.<name> so that each call is appended to the list returned."""
    calls = []
    real = getattr(hqp, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(hqp, name, wrapper)
    return calls


class TestPassThroughLevels:
    """An equality level met exactly at its witness, with the anchor at
    that witness and no inequality task, returns the witness without a
    QP and forms no kernel; the kernels it leaves are formed, in order,
    by the first later level that reads Z."""

    def test_safety_shaped_cascade_forms_no_kernel(self, rng, monkeypatch):
        kernels = counted(monkeypatch, "_kernel")
        solves = counted(monkeypatch, "solve_qp")
        n = 7
        for k in range(50):
            u_nom = rng.normal(size=n) * 3.0
            strict, _ = random_strict(rng, n)
            strict = Task(A=strict.A,
                          b=strict.A @ u_nom - rng.uniform(0.0, 1.0,
                                                           size=strict.b.shape[0]),
                          label="strict")
            e = rng.normal(size=(1, n))
            energy = Task(A=e, b=e @ u_nom - rng.uniform(0.0, 1.0),
                          label="energy")
            W, V = rng.normal(size=(6, n)), rng.normal(size=(1, n))
            levels = [LevelSpec(inequality=energy, slack=[1.0]),
                      LevelSpec(equality=Task(A=W, b=W @ u_nom,
                                              label="task_wrench")),
                      LevelSpec(equality=Task(A=V, b=V @ u_nom,
                                              label="nullspace"))]
            res = run_cascade([strict], levels, u_nom)
            assert np.array_equal(res.u_final, u_nom), f"cascade {k}"
            assert [r.iterations for r in res.records] == [0, 0, 0]
            assert (len(kernels), len(solves)) == (0, 1), f"cascade {k}"
            solves.clear()

    def test_later_level_reads_the_sequential_kernel(self, rng, monkeypatch):
        kernel = hqp._kernel
        kernels = counted(monkeypatch, "_kernel")
        for k in range(50):
            n = int(rng.integers(3, 7))
            u_nom = rng.normal(size=n)
            strict, _ = random_strict(rng, n)
            strict = Task(A=strict.A, b=strict.A @ u_nom - 0.5,
                          label="strict")
            A1 = rng.normal(size=(int(rng.integers(1, n - 1)), n))
            A2 = rng.normal(size=(1, n))
            ledger = init_stage0([strict], witness=u_nom)
            for A in (A1, A2):
                u, _, ledger = solve_level(ledger, LevelSpec(equality=Task(
                    A=A, b=A @ u_nom, label="pin")), u_nom)
                assert np.array_equal(u, u_nom)
            assert kernels == []
            C = rng.normal(size=(2, n))
            push = Task(A=C, b=C @ u_nom + 1.0, label="push")
            solve_level(ledger, LevelSpec(inequality=push, slack=[1.0, 1.0]),
                        u_nom)
            Z0 = np.eye(n)
            Z1 = Z0 @ kernel(A1 @ Z0)
            Z2 = Z1 @ kernel(A2 @ Z1)
            assert np.array_equal(ledger.Z, Z2), f"cascade {k}"
            assert len(kernels) == 2
            kernels.clear()


def pin_level(ledger, E):
    """The ledger after a level that pins E u = E w at its witness w:
    the level returns w itself and leaves Z = ker(E)."""
    w = ledger.witness.copy()
    u, _, ledger = solve_level(
        ledger, LevelSpec(equality=Task(A=E, b=E @ w, label="pin")),
        w)
    assert np.array_equal(u, w)
    return ledger


def one_variable_level(rng):
    """A ledger with one free direction z left (a pinning level 1), and
    a slack-free level 2 on it: an equality task, a hard inequality
    task, or both.

    The ledger's inequality rows are slack, tight or broken by at most
    FEAS_TOL at the witness, as an earlier level leaves them. The
    level's own rows are slack, tight or broken by up to 2 at the
    witness, so its interval may be empty.
    """
    n = int(rng.integers(2, 6))
    w = rng.normal(size=n)
    E = rng.normal(size=(n - 1, n))

    def rows(m, broken):
        A = rng.normal(size=(m, n))
        gap = rng.choice(3, size=m)  # 0 slack, 1 tight, 2 broken
        b = A @ w - np.where(gap == 0, rng.uniform(0.01, 1.0, size=m), 0.0)
        b += np.where(gap == 2, rng.uniform(0.0, broken, size=m), 0.0)
        return A, b

    A_s, b_s = rows(int(rng.integers(1, 8)), FEAS_TOL)
    ledger = pin_level(init_stage0(
        [Task(A=A_s, b=b_s, label="strict")], witness=w), E)
    assert ledger.Z.shape == (n, 1)
    pick = int(rng.integers(0, 3))
    eq = ineq = None
    if pick in (0, 2):
        r = int(rng.integers(1, 4))
        eq = Task(A=rng.normal(size=(r, n)),
                  b=rng.normal(size=r) * 3.0, label="track")
    if pick in (1, 2):
        A, b = rows(int(rng.integers(1, 4)), 2.0)
        ineq = Task(A=A, b=b, label="hard")
    return ledger, eq, ineq, w + rng.normal(size=n) * 3.0


class TestClosedFormLevel:
    """A level with one free direction and no slack is minimized in
    closed form; solve_qp on the same reduced problem is the oracle."""

    def test_matches_solve_qp_on_random_one_variable_levels(self, rng):
        clipped = empty = 0
        for _ in range(300):
            ledger, eq, ineq, u_nom = one_variable_level(rng)
            w, Z = ledger.witness, ledger.Z
            C, d = ledger.A_in, ledger.b_in
            if ineq is not None:
                C, d = np.vstack([C, ineq.A]), np.concatenate([d, ineq.b])
            H, f = np.zeros((1, 1)), np.zeros(1)
            if eq is not None:
                AZ = eq.A @ Z
                H, f = AZ.T @ AZ, -AZ.T @ (eq.b - eq.A @ w)
            a, b = (C @ Z)[:, 0], d - C @ w
            m = ledger.b_in.shape[0]
            b[:m] = np.minimum(b[:m], 0.0)  # ledger rows hold at w
            anchor = Z.T @ (u_nom - w)
            ref = solve_qp(QpProblem(H=H, f=f, A_in=C @ Z, b_in=b),
                           anchor=anchor)
            if ref.status == "infeasible":
                with pytest.raises(CascadeInfeasibleError, match="level 2"):
                    solve_level(ledger, LevelSpec(eq, ineq), u_nom)
                empty += 1
                continue
            assert ref.status == "optimal"

            u, delta, ledger = solve_level(ledger, LevelSpec(eq, ineq), u_nom)
            rec = ledger.records[-1]
            assert (rec.iterations, delta) == (0, 0.0)
            u_ref = w + Z @ ref.z_star
            assert np.max(np.abs(u - u_ref)) \
                <= 1e-9 * (1.0 + np.max(np.abs(u_ref)))
            y = float(Z[:, 0] @ (u - w))
            assert np.all(a * y - b >= -FEAS_TOL * (1.0 + np.abs(b)))
            y_unc = -(f[0] - 2.0 * REG * anchor[0]) / (H[0, 0] + 2.0 * REG)
            clipped += y != y_unc
        # Levels whose unconstrained minimizer breaks a row, and levels
        # whose rows leave no torque.
        assert clipped >= 100 and empty >= 20, (clipped, empty)

    def test_interval_minimizer_clips_or_reports_empty(self):
        # rows y >= 1 and -y >= -3, i.e. 1 <= y <= 3
        a, b = np.array([1.0, -1.0]), np.array([1.0, -3.0])
        assert _interval_minimizer(a, b, 2.0) == 2.0
        assert _interval_minimizer(a, b, -5.0) == 1.0
        assert _interval_minimizer(a, b, 7.0) == 3.0
        # broken by less than ADD_TOL (1 + |b|): y_unc stays as it is
        assert _interval_minimizer(a, b, 1.0 - 1e-10) == 1.0 - 1e-10
        # an empty interval, and a row that no y can meet
        assert _interval_minimizer(a, np.array([3.0, -1.0]), 2.0) is None
        assert _interval_minimizer(np.array([0.0]), np.array([1.0]),
                                   0.0) is None
        # a clash within FEAS_TOL (1 + |b|) does not empty the interval
        y = _interval_minimizer(a, np.array([1.0 + 5e-9, -1.0]), 0.0)
        assert y == pytest.approx(1.0, abs=1e-8)
