"""QP solver checks: hand-worked cases, KKT residuals, and agreement
with the exhaustive enumeration oracle on random instances."""

import numpy as np
import pytest
from oracles import oracle_solve, random_problem

from cbf_hqp.qpcore import FEAS_TOL, QpProblem, solve_qp


def kkt_residual(problem, sol):
    """Stationarity residual of the regularized problem at the solution."""
    r = problem.H @ sol.z_star + problem.f
    r -= problem.A_eq.T @ sol.lam_eq
    r -= problem.A_in.T @ sol.mu_in
    # The solver optimizes H + 2 reg I; fold the reg gradient back in so
    # the residual measures what it actually solved.
    r += 2e-9 * sol.z_star
    return np.max(np.abs(r), initial=0.0)


def assert_kkt(problem, sol, k):
    """Stationarity, multiplier signs and complementarity at sol."""
    scale = 1.0 + float(np.max(np.abs(problem.f), initial=0.0))
    assert kkt_residual(problem, sol) <= 1e-6 * scale, f"instance {k}"
    if sol.mu_in.size:
        assert np.min(sol.mu_in) >= -1e-8, f"instance {k}"
        gaps = sol.mu_in * (problem.A_in @ sol.z_star - problem.b_in)
        assert np.max(np.abs(gaps)) <= 1e-6 * scale, f"instance {k}"


class TestHandCases:
    def test_scalar_projection_onto_halfline(self):
        # min (z-3)^2 s.t. z >= 5  ->  z = 5, multiplier 4
        p = QpProblem(H=[[2.0]], f=[-6.0], A_in=[[1.0]], b_in=[5.0])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert abs(sol.z_star[0] - 5.0) < 1e-9
        assert abs(sol.mu_in[0] - 4.0) < 1e-6
        assert sol.active_set.tolist() == [0]

    def test_projection_onto_line(self):
        # min ||z - c||^2 s.t. a.z = b has the closed form
        # z = c + a (b - a.c) / ||a||^2
        c = np.array([1.0, -2.0, 0.5])
        a = np.array([1.0, 2.0, 2.0])
        b = 3.0
        p = QpProblem(H=2 * np.eye(3), f=-2 * c, A_eq=[a], b_eq=[b])
        sol = solve_qp(p)
        expect = c + a * (b - a @ c) / (a @ a)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z_star, expect, atol=1e-9)

    def test_unconstrained_newton_point(self):
        H = np.array([[4.0, 1.0], [1.0, 3.0]])
        f = np.array([1.0, -2.0])
        sol = solve_qp(QpProblem(H=H, f=f))
        np.testing.assert_allclose(sol.z_star, -np.linalg.solve(H, f), atol=1e-7)
        assert sol.status == "optimal"

    def test_box_corner(self):
        # min 1/2||z - [2,2]||^2 with z <= 1 per coordinate
        p = QpProblem(H=np.eye(2), f=[-2.0, -2.0],
                      A_in=-np.eye(2), b_in=[-1.0, -1.0])
        sol = solve_qp(p)
        np.testing.assert_allclose(sol.z_star, [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(sol.mu_in, [1.0, 1.0], atol=1e-6)

    def test_infeasible_pair_is_reported(self):
        p = QpProblem(H=[[2.0]], f=[0.0],
                      A_in=[[1.0], [-1.0]], b_in=[1.0, 0.0])
        sol = solve_qp(p)
        assert sol.status == "infeasible"
        assert np.isfinite(sol.z_star).all()

    def test_redundant_equality_rows(self):
        p = QpProblem(H=2 * np.eye(2), f=[0.0, 0.0],
                      A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[1.0, 1.0])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.z_star, [1.0, 0.0], atol=1e-8)

    def test_anchor_selects_among_flat_optima(self):
        # zero objective over z >= 1: every feasible point is optimal and
        # the anchor term should pick the anchor itself
        p = QpProblem(H=[[0.0]], f=[0.0], A_in=[[1.0]], b_in=[1.0])
        sol = solve_qp(p, anchor=np.array([5.0]))
        assert abs(sol.z_star[0] - 5.0) < 1e-6

    def test_warm_start_matches_cold(self):
        # there is no start to warm: the solve begins at the regularized
        # minimizer, and centering the Tikhonov term on the optimum
        # leaves the optimum where it is
        rng = np.random.default_rng(7)
        p = random_problem(rng, feasible=True)
        cold = solve_qp(p)
        warm = solve_qp(p, anchor=cold.z_star + 0.0)
        assert warm.status == "optimal"
        np.testing.assert_allclose(warm.z_star, cold.z_star, atol=1e-8)

    def test_feasible_unconstrained_minimizer_takes_no_iteration(self):
        # the regularized minimizer meets every row: it is returned as it
        # is, after 0 iterations and with no row active
        c = np.array([0.3, -0.2, 0.5])
        p = QpProblem(H=2 * np.eye(3), f=-2 * c,
                      A_in=np.vstack([np.eye(3), -np.eye(3)]),
                      b_in=-np.ones(6))
        sol = solve_qp(p)
        assert sol.status == "optimal" and sol.iterations == 0
        assert sol.working == [] and not sol.mu_in.any()
        np.testing.assert_allclose(sol.z_star, c, atol=1e-8)
        # an equality row always goes in: one step onto its face
        a = np.array([1.0, 2.0, 2.0])
        q = QpProblem(H=2 * np.eye(3), f=-2 * c, A_eq=[a], b_eq=[0.0])
        sol = solve_qp(q)
        assert sol.status == "optimal" and sol.iterations == 1
        np.testing.assert_allclose(sol.z_star, c - a * (a @ c) / (a @ a),
                                   atol=1e-8)

    def test_full_step_with_negative_multiplier_drops_the_row(self):
        # min 1/2 ||z - (0, 3)||^2 over z2 <= 1 (row 0) and
        # z1 / 4 - z2 / 2 >= 0 (row 1). Row 0 is the more violated at the
        # start and goes in first (iteration 1), landing on (0, 1) with
        # multiplier 2. The full step onto row 1 would drive that
        # multiplier negative, so the step stops at (1, 1), where it
        # reaches 0, and row 0 leaves (iteration 2); the full step onto
        # row 1 alone reaches the optimum (1.2, 0.6) (iteration 3).
        p = QpProblem(H=np.eye(2), f=[0.0, -3.0],
                      A_in=[[0.0, -1.0], [0.25, -0.5]], b_in=[-1.0, 0.0])
        sol = solve_qp(p)
        z_ref, _ = oracle_solve(p)
        assert sol.status == "optimal" and sol.iterations == 3
        np.testing.assert_allclose(sol.z_star, z_ref, atol=1e-8)
        np.testing.assert_allclose(sol.z_star, [1.2, 0.6], atol=1e-8)
        assert sol.working == [1]
        np.testing.assert_allclose(sol.mu_in, [0.0, 4.8], atol=1e-6)
        assert kkt_residual(p, sol) <= 1e-8

    def test_rank_deficient_working_set_confirms_its_point(self):
        # The second of two redundant rows depends on the first: its step
        # finds no direction and no multiplier to trade, and since the
        # point already meets it, it is skipped (2 iterations). A single
        # row of full rank ends in one.
        p = QpProblem(H=2 * np.eye(2), f=[0.0, 0.0],
                      A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[1.0, 1.0])
        sol = solve_qp(p)
        assert sol.status == "optimal" and sol.iterations == 2
        np.testing.assert_allclose(sol.z_star, [1.0, 0.0], atol=1e-8)
        assert kkt_residual(p, sol) <= 1e-8
        single = QpProblem(H=2 * np.eye(2), f=[0.0, 0.0],
                           A_eq=[[1.0, 0.0]], b_eq=[1.0])
        sol = solve_qp(single)
        assert sol.status == "optimal" and sol.iterations == 1
        np.testing.assert_allclose(sol.z_star, [1.0, 0.0], atol=1e-8)

    def test_pinned_row_within_the_band_is_met(self):
        # At z = 1 on z >= 1, the row z <= 1 - e depends on the active
        # row and no multiplier can trade against it. Broken by
        # e <= FEAS_TOL (1 + |b|) it is accepted as met; broken by more,
        # the rows are inconsistent.
        for e, status in ((5e-9, "optimal"), (5e-8, "infeasible")):
            p = QpProblem(H=np.eye(1), f=[0.0], A_in=[[1.0], [-1.0]],
                          b_in=[1.0, -1.0 + e])
            sol = solve_qp(p)
            assert sol.status == status and sol.iterations == 2
            assert sol.z_star[0] == pytest.approx(1.0, abs=1e-12)
        # broken by less than ADD_TOL (1 + |b|) at the minimizer, a row
        # is not added at all
        c = 1.0 + 1e-10
        p = QpProblem(H=np.eye(1), f=[-c], A_in=[[-1.0]], b_in=[-1.0])
        sol = solve_qp(p, anchor=np.array([c]))
        assert sol.status == "optimal" and sol.iterations == 0
        assert sol.z_star[0] == pytest.approx(c, abs=1e-15)

    def test_equality_only_inconsistent(self):
        p = QpProblem(H=2 * np.eye(2), f=[0.0, 0.0],
                      A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[0.0, 1.0])
        assert solve_qp(p).status == "infeasible"


class TestValidation:
    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            QpProblem(H=[[1.0, 0.5], [0.0, 1.0]], f=[0.0, 0.0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(H=np.eye(2), f=[0.0, 0.0], A_eq=[[1.0, 0.0]], b_eq=[1.0, 2.0])

    @pytest.mark.parametrize("name, value", [
        ("f", [np.nan, 0.0]), ("b_in", [np.nan]), ("b_in", [np.inf]),
        ("A_in", [[np.nan, 0.0]]), ("H", [[np.inf, 0.0], [0.0, 1.0]]),
        ("A_eq", [[1.0, -np.inf]]), ("b_eq", [np.nan])])
    def test_non_finite_data_rejected_naming_the_array(self, name, value):
        data = dict(H=np.eye(2), f=[0.0, 0.0], A_eq=[[1.0, 1.0]],
                    b_eq=[1.0], A_in=[[1.0, 0.0]], b_in=[0.0])
        data[name] = value
        with pytest.raises(ValueError, match=f"^{name} holds"):
            QpProblem(**data)

    @pytest.mark.parametrize("anchor", [
        [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0], [0.0, 0.0, -np.inf],
        [0.0, 0.0], [[0.0, 0.0, 0.0]]])
    def test_bad_anchor_rejected_naming_it(self, anchor):
        p = QpProblem(H=np.eye(3), f=np.zeros(3))
        with pytest.raises(ValueError, match="^anchor must be a finite"):
            solve_qp(p, anchor=anchor)

    def test_minus_inf_lower_bound_binds_nothing(self):
        # min (z-3)^2 s.t. z >= -inf, z >= 5  ->  z = 5
        p = QpProblem(H=[[2.0]], f=[-6.0], A_in=[[1.0], [1.0]],
                      b_in=[-np.inf, 5.0])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert abs(sol.z_star[0] - 5.0) < 1e-9
        assert sol.working == [1]

    def test_oracle_size_guard(self):
        p = QpProblem(H=np.eye(9), f=np.zeros(9))
        with pytest.raises(ValueError, match="oracle"):
            oracle_solve(p)


class TestAgainstOracle:
    def test_random_instances_agree(self):
        rng = np.random.default_rng(42)
        n_optimal = 0
        n_infeasible = 0
        for k in range(300):
            p = random_problem(rng, feasible=bool(k % 2))
            sol = solve_qp(p)
            z_ref, obj_ref = oracle_solve(p)
            if z_ref is None:
                assert sol.status == "infeasible", f"instance {k}"
                n_infeasible += 1
            else:
                assert sol.status == "optimal", f"instance {k}"
                scale = 1.0 + abs(obj_ref)
                assert abs(sol.objective_value - obj_ref) <= 1e-6 * scale, (
                    f"instance {k}: {sol.objective_value} vs {obj_ref}")
                assert p.max_violation(sol.z_star) <= 1e-8
                n_optimal += 1
        assert n_optimal > 50
        assert n_infeasible > 20

    def test_kkt_conditions_hold(self):
        rng = np.random.default_rng(99)
        for k in range(100):
            p = random_problem(rng, feasible=True)
            sol = solve_qp(p)
            assert sol.status == "optimal"
            assert_kkt(p, sol, k)

    def test_warm_started_instances_agree(self):
        # feasible instances, as solve_level poses them: the oracle's
        # optimum, and a KKT point with signed multipliers
        rng = np.random.default_rng(2024)
        for k in range(300):
            p = random_problem(rng, feasible=True)
            sol = solve_qp(p)
            assert sol.status == "optimal", f"instance {k}"
            z_ref, obj_ref = oracle_solve(p)
            scale = 1.0 + abs(obj_ref)
            assert abs(sol.objective_value - obj_ref) <= 1e-6 * scale, (
                f"instance {k}: {sol.objective_value} vs {obj_ref}")
            assert p.max_violation(sol.z_star) <= 1e-8
            assert_kkt(p, sol, k)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, feasible=True)
        a = solve_qp(p)
        b = solve_qp(p)
        assert np.array_equal(a.z_star, b.z_star)
        assert a.iterations == b.iterations
        assert np.array_equal(a.active_set, b.active_set)
