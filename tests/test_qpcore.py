"""QP solver checks: hand-worked cases, KKT residuals, and agreement
with the exhaustive enumeration oracle on random instances."""

import numpy as np
import pytest
from oracles import oracle_solve

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


def random_problem(rng, feasible=True, with_start=False):
    """A random QP; with_start (feasible only) also returns the feasible
    point the rows were built around, as a warm start."""
    n = int(rng.integers(1, 6))
    m_e = int(rng.integers(0, 3)) if n > 1 else 0
    m_i = int(rng.integers(0, 9))
    G = rng.normal(size=(n, n))
    if rng.random() < 0.3:
        # rank-deficient curvature; the anchor term resolves the flat part
        G = G[: max(1, n - 1)]
    H = G.T @ G
    # least-squares shape: f in range(H), so flatness means ties rather
    # than an unbounded objective
    f = -G.T @ rng.normal(size=G.shape[0])
    A_eq = rng.normal(size=(m_e, n)) if m_e else None
    A_in = rng.normal(size=(m_i, n)) if m_i else None
    if feasible:
        z0 = rng.normal(size=n)
        b_eq = A_eq @ z0 if m_e else None
        b_in = A_in @ z0 - np.abs(rng.normal(size=m_i)) if m_i else None
    else:
        b_eq = rng.normal(size=m_e) if m_e else None
        b_in = rng.normal(size=m_i) if m_i else None
    p = QpProblem(H=H, f=f, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in)
    return (p, z0) if with_start else p


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
        # phase 1 splits the violation between the two rows
        assert p.max_violation(sol.z_star) < 1.0

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
        rng = np.random.default_rng(7)
        p = random_problem(rng, feasible=True)
        cold = solve_qp(p)
        z0 = cold.z_star + 0.0
        warm = solve_qp(p, x0=z0)
        assert warm.status == "optimal"
        np.testing.assert_allclose(warm.z_star, cold.z_star, atol=1e-8)

    def test_phase1_use_is_reported(self):
        p = QpProblem(H=np.eye(1), f=[0.0], A_in=[[1.0]], b_in=[1.0])
        assert solve_qp(p).phase1_used
        assert solve_qp(p, x0=np.array([0.0])).phase1_used  # breaks the row
        warm = solve_qp(p, x0=np.array([2.0]))
        assert not warm.phase1_used and warm.status == "optimal"
        clash = QpProblem(H=np.eye(1), f=[0.0], A_in=[[1.0], [-1.0]],
                          b_in=[1.0, 0.0])
        assert solve_qp(clash).phase1_used

    def test_start_breaking_a_blocking_row_holds_it(self):
        # x0 = 0 breaks x >= 1e-9 by less than FEAS_TOL, and x <= 0 is
        # tight. No point meets both rows exactly, so the step toward
        # x = -5 stops at once and the broken row holds where x0 has it.
        p = QpProblem(H=np.eye(1), f=[5.0], A_in=[[1.0], [-1.0]],
                      b_in=[1e-9, 0.0])
        sol = solve_qp(p, x0=np.array([0.0]))
        assert sol.status == "optimal" and not sol.phase1_used
        assert sol.z_star[0] == 0.0
        assert list(sol.active_set) == [0, 1]

    def test_feasible_unconstrained_minimizer_takes_one_iteration(self):
        # the full Newton step from a feasible start lands on the
        # minimizer, and its (empty) multipliers end the solve there
        c = np.array([0.3, -0.2, 0.5])
        p = QpProblem(H=2 * np.eye(3), f=-2 * c,
                      A_in=np.vstack([np.eye(3), -np.eye(3)]),
                      b_in=-np.ones(6))
        sol = solve_qp(p, x0=np.zeros(3))
        assert sol.status == "optimal" and not sol.phase1_used
        assert sol.iterations == 1
        np.testing.assert_allclose(sol.z_star, c, atol=1e-8)
        # the same with a full-rank equality row: one step onto its face
        a = np.array([1.0, 2.0, 2.0])
        q = QpProblem(H=2 * np.eye(3), f=-2 * c, A_eq=[a], b_eq=[0.0])
        sol = solve_qp(q, x0=np.zeros(3))
        assert sol.status == "optimal" and sol.iterations == 1
        np.testing.assert_allclose(sol.z_star, c - a * (a @ c) / (a @ a),
                                   atol=1e-8)

    def test_full_step_with_negative_multiplier_drops_the_row(self):
        # From x0 the step toward c is blocked by z1 + z3 <= 1, then by
        # z3 <= 1. The full step along their common line lands on
        # (0, 1, 1), where z1 + z3 <= 1 has multiplier -0.1: it is
        # dropped there (iteration 3), and the full step on z3 = 1 alone
        # reaches the optimum (-0.1, 1, 1) (iteration 4), with no solve
        # spent confirming either point.
        c = np.array([-0.1, 1.0, 5.0])
        p = QpProblem(H=np.eye(3), f=-c,
                      A_in=[[-1.0, 0.0, -1.0], [0.0, 0.0, -1.0]],
                      b_in=[-1.0, -1.0])
        sol = solve_qp(p, x0=np.array([0.5, 0.0, 0.0]))
        z_ref, obj_ref = oracle_solve(p)
        assert sol.status == "optimal" and sol.iterations == 4
        np.testing.assert_allclose(sol.z_star, z_ref, atol=1e-8)
        np.testing.assert_allclose(sol.z_star, [-0.1, 1.0, 1.0], atol=1e-8)
        assert sol.work == [1]
        np.testing.assert_allclose(sol.mu_in, [0.0, 4.0], atol=1e-6)
        assert kkt_residual(p, sol) <= 1e-8

    def test_rank_deficient_working_set_confirms_its_point(self):
        # Redundant rows have rank 1 < 2: the full step onto them is not
        # taken as the face's minimizer, and a second iteration finds
        # the point stationary. A single row of full rank ends in one.
        x0 = np.array([1.0, 5.0])
        p = QpProblem(H=2 * np.eye(2), f=[0.0, 0.0],
                      A_eq=[[1.0, 0.0], [1.0, 0.0]], b_eq=[1.0, 1.0])
        sol = solve_qp(p, x0=x0)
        assert sol.status == "optimal" and sol.iterations == 2
        np.testing.assert_allclose(sol.z_star, [1.0, 0.0], atol=1e-8)
        assert kkt_residual(p, sol) <= 1e-8
        single = QpProblem(H=2 * np.eye(2), f=[0.0, 0.0],
                           A_eq=[[1.0, 0.0]], b_eq=[1.0])
        sol = solve_qp(single, x0=x0)
        assert sol.status == "optimal" and sol.iterations == 1
        np.testing.assert_allclose(sol.z_star, [1.0, 0.0], atol=1e-8)

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
        # a feasible x0, as solve_level passes one: no phase-1, the
        # oracle's optimum, and a KKT point with signed multipliers
        rng = np.random.default_rng(2024)
        for k in range(300):
            p, x0 = random_problem(rng, feasible=True, with_start=True)
            sol = solve_qp(p, x0=x0)
            assert sol.status == "optimal" and not sol.phase1_used, (
                f"instance {k}")
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
