"""QP solver checks: hand-worked cases, KKT residuals, and agreement
with the exhaustive enumeration oracle on random instances."""

import numpy as np
import pytest
from oracles import (
    active_rows,
    max_violation,
    multipliers,
    objective,
    oracle_solve,
    random_problem,
)

from cbf_hqp import qpcore
from cbf_hqp.qpcore import ADD_TOL, FEAS_TOL, REG, QpProblem, solve_qp


def kkt_residual(problem, sol):
    """Stationarity residual of the regularized problem at the solution."""
    lam_eq, mu_in = multipliers(problem, sol)
    r = problem.H @ sol.z_star + problem.f
    r -= problem.A_eq.T @ lam_eq
    r -= problem.A_in.T @ mu_in
    # The solver optimizes H + 2 reg I; fold the reg gradient back in so
    # the residual measures what it actually solved.
    r += 2e-9 * sol.z_star
    return np.max(np.abs(r), initial=0.0)


def assert_kkt(problem, sol, k):
    """Stationarity, multiplier signs and complementarity at sol."""
    scale = 1.0 + float(np.max(np.abs(problem.f), initial=0.0))
    assert kkt_residual(problem, sol) <= 1e-6 * scale, f"instance {k}"
    _, mu_in = multipliers(problem, sol)
    if mu_in.size:
        assert np.min(mu_in) >= -1e-8, f"instance {k}"
        gaps = mu_in * (problem.A_in @ sol.z_star - problem.b_in)
        assert np.max(np.abs(gaps)) <= 1e-6 * scale, f"instance {k}"


class TestHandCases:
    def test_scalar_projection_onto_halfline(self):
        # min (z-3)^2 s.t. z >= 5  ->  z = 5, multiplier 4
        p = QpProblem(H=[[2.0]], f=[-6.0], A_in=[[1.0]], b_in=[5.0])
        sol = solve_qp(p)
        assert sol.status == "optimal"
        assert abs(sol.z_star[0] - 5.0) < 1e-9
        assert abs(multipliers(p, sol)[1][0] - 4.0) < 1e-6
        assert active_rows(p, sol.z_star).tolist() == [0]

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
        np.testing.assert_allclose(multipliers(p, sol)[1], [1.0, 1.0],
                                   atol=1e-6)

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
        assert sol.working == [] and not multipliers(p, sol)[1].any()
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
        np.testing.assert_allclose(multipliers(p, sol)[1], [0.0, 4.8],
                                   atol=1e-6)
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


class TestZeroStartExit:
    """When g = f - 2 REG anchor is exactly zero, there are no equality
    rows and every row meets b <= ADD_TOL (1 + |b|), solve_qp returns
    z = 0 without running the dual method; the method itself would stop
    there at iterate 0."""

    @staticmethod
    def counted_core(monkeypatch):
        calls = []

        def core(G, g, A, b, m_e):
            calls.append(m_e)
            return real_core(G, g, A, b, m_e)

        real_core = qpcore._dual_core
        monkeypatch.setattr(qpcore, "_dual_core", core)
        return calls

    @staticmethod
    def zero_start_problem(rng, b_in, A_eq=None, b_eq=None):
        n = int(rng.integers(2, 7))
        G = rng.normal(size=(int(rng.integers(1, n + 1)), n))
        anchor = rng.normal(size=n)
        p = QpProblem(H=G.T @ G, f=2.0 * REG * anchor,
                      A_in=rng.normal(size=(b_in.shape[0], n)), b_in=b_in,
                      A_eq=None if A_eq is None else A_eq(n), b_eq=b_eq)
        return p, anchor

    @staticmethod
    def direct_core(p, anchor):
        G = p.H + 2.0 * REG * np.eye(p.n)
        return qpcore._dual_core(G, p.f - 2.0 * REG * anchor, p.A_in,
                                 p.b_in, 0)

    def test_matches_the_dual_method_field_for_field(self, rng, monkeypatch):
        calls = self.counted_core(monkeypatch)
        banded = 0
        for k in range(200):
            m = int(rng.integers(0, 8))
            # rows slack, tight, broken within the ADD_TOL band, or binding
            # nothing
            kind = rng.integers(0, 4, size=m)
            b = np.select([kind == 0, kind == 1, kind == 2],
                          [-rng.uniform(0.01, 1.0, size=m), 0.0,
                           rng.uniform(0.0, ADD_TOL, size=m)], -np.inf)
            banded += int((kind == 2).sum())
            p, anchor = self.zero_start_problem(rng, b)
            sol = solve_qp(p, anchor=anchor)
            assert calls == [], f"problem {k}"
            z, status, iters, work, u = self.direct_core(p, anchor)
            calls.clear()
            assert np.all(sol.z_star == z), f"problem {k}"
            assert (sol.status, sol.iterations, sol.working) \
                == (status, iters, work) == ("optimal", 0, [])
            assert np.array_equal(sol.multipliers, u)
        assert banded > 20

    def test_row_broken_past_the_band_goes_to_the_dual_method(
            self, rng, monkeypatch):
        calls = self.counted_core(monkeypatch)
        for k in range(50):
            b = np.full(int(rng.integers(1, 5)), -1.0)
            b[0] = ADD_TOL * (1.0 + 1e-6)  # > ADD_TOL (1 + |b|)
            p, anchor = self.zero_start_problem(rng, b)
            sol = solve_qp(p, anchor=anchor)
            assert calls == [0], f"problem {k}"
            assert sol.status == "optimal" and sol.iterations >= 1
            calls.clear()

    def test_equality_rows_go_to_the_dual_method(self, rng, monkeypatch):
        calls = self.counted_core(monkeypatch)
        for k in range(50):
            m_e = int(rng.integers(1, 3))
            p, anchor = self.zero_start_problem(
                rng, np.full(2, -1.0),
                A_eq=lambda n: rng.normal(size=(m_e, n)), b_eq=np.zeros(m_e))
            sol = solve_qp(p, anchor=anchor)
            assert calls == [m_e], f"problem {k}"
            assert sol.status == "optimal" and sol.iterations == m_e
            calls.clear()


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


class TestTrustedProblem:
    """QpProblem._trusted, the cascade's unvalidated entry, builds the
    same problem as the public constructor on valid input."""

    def test_equals_the_public_problem_field_for_field(self, rng):
        for _ in range(50):
            n, m = int(rng.integers(1, 6)), int(rng.integers(0, 9))
            G = rng.normal(size=(n, n))
            H, f = G.T @ G, rng.normal(size=n)
            A, b = rng.normal(size=(m, n)), rng.normal(size=m)
            public = QpProblem(H=H, f=f, A_in=A, b_in=b)
            trusted = QpProblem._trusted(H, f, A, b)
            for name in ("H", "f", "A_eq", "b_eq", "A_in", "b_in"):
                x, y = getattr(public, name), getattr(trusted, name)
                assert x.dtype == y.dtype and np.array_equal(x, y), name
            anchor = rng.normal(size=n)
            one, two = solve_qp(public, anchor), solve_qp(trusted, anchor)
            assert np.array_equal(one.z_star, two.z_star)
            assert (one.status, one.iterations, one.working) == \
                (two.status, two.iterations, two.working)


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
                obj = objective(p, sol.z_star)
                assert abs(obj - obj_ref) <= 1e-6 * scale, (
                    f"instance {k}: {obj} vs {obj_ref}")
                assert max_violation(p, sol.z_star) <= 1e-8
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
            obj = objective(p, sol.z_star)
            assert abs(obj - obj_ref) <= 1e-6 * scale, (
                f"instance {k}: {obj} vs {obj_ref}")
            assert max_violation(p, sol.z_star) <= 1e-8
            assert_kkt(p, sol, k)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, feasible=True)
        a = solve_qp(p)
        b = solve_qp(p)
        assert np.array_equal(a.z_star, b.z_star)
        assert a.iterations == b.iterations
        assert a.working == b.working
        assert np.array_equal(a.multipliers, b.multipliers)
