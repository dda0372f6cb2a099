"""The splitting iterations, trace recording, residual identity, Lyapunov values."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from drsplit import (
    DrsParams,
    FunctionClass,
    admm_run,
    drs_run,
    lyapunov_series,
    prox_affine_indicator,
    prox_l1,
    prox_quadratic,
    prox_zero,
    solve_reference,
    write_trace_csv,
)
from drsplit.cli import ProblemSpec, gen_basis_pursuit, gen_lasso
from drsplit.prox import ProxOperator


class TestDrsParams:
    def test_valid(self):
        p = DrsParams(alpha=0.5, lam=1.2, max_iters=10, stop_tol=1e-8)
        assert p.lam_at(0) == 1.2
        assert p.lam_at(9) == 1.2

    def test_schedule(self):
        p = DrsParams(alpha=1.0, lam=[0.5, 1.0, 1.5], max_iters=3)
        assert [p.lam_at(k) for k in range(3)] == [0.5, 1.0, 1.5]

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0),
        dict(alpha=-1.0),
        dict(alpha=1.0, lam=0.0),
        dict(alpha=1.0, lam=-0.3),
        dict(alpha=1.0, lam=[1.0, -1.0, 1.0], max_iters=3),
        dict(alpha=1.0, lam=[1.0], max_iters=3),
        dict(alpha=1.0, max_iters=0),
        dict(alpha=1.0, stop_tol=-1e-3),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DrsParams(**kwargs)


class TestDrsRun:
    def test_zero_problem_is_stationary(self):
        x0 = np.array([1.0, -2.0])
        tr = drs_run(prox_zero(), prox_zero(),
                     DrsParams(alpha=1.0, lam=1.0, max_iters=5), x0)
        assert tr.records[0].fp_residual == 0.0
        for r in tr.records:
            assert np.array_equal(r.x, x0)

    def test_quadratic_halving(self):
        # f = ||x||^2/2, g = 0, alpha = lam = 1: x_{k+1} = x_k / 2
        f = prox_quadratic(np.eye(1), np.zeros(1))
        tr = drs_run(f, prox_zero(), DrsParams(alpha=1.0, lam=1.0, max_iters=20),
                     np.array([1.0]))
        for r in tr.records:
            assert r.x[0] == pytest.approx(2.0 ** -r.k, abs=1e-15)
            assert r.y[0] == pytest.approx(r.x[0] / 2, abs=1e-15)
            assert r.z[0] == pytest.approx(0.0, abs=1e-15)

    def test_scalar_constrained_l1_fixed_point(self):
        # f = indicator {x = 1}, g = |.|: the fixed point has y* = z* = 1
        f = prox_affine_indicator(np.array([[1.0]]), np.array([1.0]))
        g = prox_l1(1.0)
        tr = drs_run(f, g, DrsParams(alpha=1.0, lam=1.0, max_iters=200,
                                     stop_tol=1e-14), np.array([0.0]))
        assert tr.status == "converged"
        last = tr.records[-1]
        assert last.y[0] == pytest.approx(1.0, abs=1e-12)
        assert last.z[0] == pytest.approx(1.0, abs=1e-12)

    def test_residual_identity(self):
        # z - y = -alpha (df(y) + dg(z)) with the subgradients implied by the
        # two prox steps; exact by construction, checked numerically
        rng = np.random.default_rng(4)
        f = prox_quadratic(rng.standard_normal((6, 4)), rng.standard_normal(6))
        g = prox_l1(0.3)
        alpha = 0.7
        tr = drs_run(f, g, DrsParams(alpha=alpha, lam=1.4, max_iters=100),
                     rng.standard_normal(4))
        for r in tr.records:
            sf = (r.x - r.y) / alpha
            sg = (2 * r.y - r.x - r.z) / alpha
            lhs = r.z - r.y
            rhs = -alpha * (sf + sg)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(lhs))
            assert r.subgrad_residual * alpha == pytest.approx(
                r.fp_residual, rel=1e-12, abs=1e-300)

    def test_running_min_residual_nonincreasing(self):
        rng = np.random.default_rng(9)
        f = prox_quadratic(rng.standard_normal((5, 5)), rng.standard_normal(5))
        g = prox_l1(0.2)
        for lam in (0.5, 1.0, 1.9):
            tr = drs_run(f, g, DrsParams(alpha=1.0, lam=lam, max_iters=300),
                         rng.standard_normal(5))
            running_min = np.minimum.accumulate(tr.fp_residuals())
            assert np.all(np.diff(running_min) <= 0.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((4, 4))
        b = rng.standard_normal(4)
        x0 = rng.standard_normal(4)
        shift = rng.standard_normal(4)
        g = prox_zero()
        p = DrsParams(alpha=0.8, lam=1.3, max_iters=50)
        tr = drs_run(prox_quadratic(A, b), g, p, x0)
        tr_shift = drs_run(prox_quadratic(A, b + A @ shift), g, p, x0 + shift)
        for r, rs in zip(tr.records, tr_shift.records):
            assert np.allclose(rs.x, r.x + shift, atol=1e-12)
            assert np.allclose(rs.y, r.y + shift, atol=1e-12)

    def test_dimension_mismatch(self):
        f = prox_affine_indicator(np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            drs_run(f, prox_zero(), DrsParams(alpha=1.0, max_iters=3),
                    np.zeros(3))

    def test_nonfinite_iterate_reported_with_iteration(self):
        class Exploding(ProxOperator):
            def __init__(self):
                self.function_class = FunctionClass(0.0, math.inf)

            def evaluate(self, v, alpha):
                with np.errstate(over="ignore"):
                    return v * 1e200

        with pytest.raises(RuntimeError, match="iteration"):
            drs_run(Exploding(), prox_zero(),
                    DrsParams(alpha=1.0, max_iters=10), np.array([1.0]))

    def test_objective_column(self):
        f = prox_quadratic(np.eye(1), np.zeros(1))
        tr = drs_run(f, prox_l1(1.0), DrsParams(alpha=1.0, max_iters=3),
                     np.array([2.0]))
        for r in tr.records:
            expected = 0.5 * r.z[0] ** 2 + abs(r.z[0])
            assert r.objective == pytest.approx(expected, abs=1e-14)


def _soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _numpy_drs(P, q, t, lams, x0, iters):
    """Independent DRS recursion for f with the affine prox y = P x + q and
    g = t ||.||_1: rows x_k, y_k, z_k for k < iters."""
    X, Y, Z = (np.empty((iters, len(x0))) for _ in range(3))
    x = x0.copy()
    for k in range(iters):
        y = P @ x + q
        z = _soft(2.0 * y - x, t)
        X[k], Y[k], Z[k] = x, y, z
        x = x + lams[k] * (z - y)
    return X, Y, Z


class TestTrajectoryMatchesNumpyRecursion:
    """drs_run agrees with a plain numpy DRS recursion at every iteration."""

    ITERS = 2000

    @pytest.mark.parametrize("kind,alpha,schedule", [
        ("basis_pursuit", 1.0, False),
        ("lasso", 0.7, False),
        ("lasso", 0.7, True),
    ])
    def test_every_iterate(self, kind, alpha, schedule):
        rng = np.random.default_rng(3)
        if kind == "basis_pursuit":
            f, g, data = gen_basis_pursuit(ProblemSpec(kind, 30, 100, seed=5))
            A, b, gamma = data["A"], data["b"], 1.0
            # explicit projector onto {Ax = b}
            AAt_inv_A = np.linalg.solve(A @ A.T, A)
            P = np.eye(A.shape[1]) - A.T @ AAt_inv_A
            q = A.T @ np.linalg.solve(A @ A.T, b)
        else:
            f, g, _ = gen_lasso(ProblemSpec(kind, 60, 40, gamma=0.1, seed=5))
            A, b, gamma = f.A, f.b, 0.1
            P = np.linalg.inv(np.eye(A.shape[1]) + alpha * A.T @ A)
            q = alpha * P @ (A.T @ b)
        lams = rng.uniform(0.3, 1.9, self.ITERS) if schedule else np.full(self.ITERS, 1.5)
        x0 = rng.standard_normal(A.shape[1])
        tr = drs_run(f, g, DrsParams(alpha=alpha, lam=list(lams) if schedule else 1.5,
                                     max_iters=self.ITERS), x0)
        X, Y, Z = _numpy_drs(P, q, alpha * gamma, lams, x0, self.ITERS)
        assert len(tr) == self.ITERS
        for mine, ref in ((tr.x, X), (tr.y, Y), (tr.z, Z)):
            assert np.abs(mine - ref).max() <= 1e-10
        np.testing.assert_allclose(tr.fp_residual, np.linalg.norm(tr.z - tr.y, axis=1),
                                   rtol=1e-12)


class TestTraceStorage:
    def test_objective_evaluated_once_on_the_stack(self):
        calls = []

        class Counting(ProxOperator):
            def __init__(self, inner):
                self.inner = inner
                self.function_class = inner.function_class

            def evaluate(self, v, alpha):
                return self.inner.evaluate(v, alpha)

            def objective(self, x):
                calls.append(np.shape(x))
                return self.inner.objective(x)

        f = Counting(prox_quadratic(np.eye(3), np.ones(3)))
        g = Counting(prox_l1(0.5))
        tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=50), np.array([3.0, -2.0, 0.1]))
        assert calls == [(50, 3), (50, 3)]
        assert tr.objective.shape == (50,)

    def test_columns_are_read_only(self):
        tr = drs_run(prox_quadratic(np.eye(2), np.ones(2)), prox_l1(0.5),
                     DrsParams(alpha=1.0, max_iters=4), np.array([3.0, -2.0]))
        with pytest.raises(ValueError):
            tr.records[1].x[0] = 5.0
        with pytest.raises(ValueError):
            tr.fp_residual[0] = 5.0
        assert tr.records[-1].k == 3
        assert [r.k for r in tr.records[1:3]] == [1, 2]

    @staticmethod
    def _slow_problem(n=100):
        # f = 0.5e-3 ||x - 1||^2, g = 0: x_{k+1} = prox_f(x_k) contracts by
        # 1/(1 + 1e-3) per step, so ||z - y|| <= 1e-12 takes ~23,000 steps
        s = math.sqrt(1e-3)
        return prox_quadratic(s * np.eye(n), s * np.ones(n)), prox_zero(), np.zeros(n)

    def test_early_stop_holds_only_the_rows_run(self):
        f, g, x0 = self._slow_problem()
        n = x0.size
        tracemalloc.start()
        try:
            tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=200_000, stop_tol=1e-12), x0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = len(tr)
        assert tr.status == "converged" and 20_000 <= k < 200_000
        assert tr.x.shape == tr.y.shape == tr.z.shape == (k, n)
        rows = 3 * k * n * 8
        assert rows <= held <= 1.05 * rows + (1 << 20)
        assert peak <= 3 * held

    def test_reference_solve_memory_is_o_n(self):
        f, g, x0 = self._slow_problem()
        params = DrsParams(alpha=1.0, max_iters=1)
        f.evaluate(x0, 1.0)  # the prox's per-alpha cache, made outside the count
        iters = len(drs_run(f, g, DrsParams(alpha=1.0, max_iters=200_000,
                                            stop_tol=1e-12), x0))
        assert iters >= 20_000
        tracemalloc.start()
        try:
            x_star, y_star, _ = solve_reference(f, g, params, x0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.allclose(y_star, 1.0, atol=1e-8)
        assert peak < 1 << 20


class TestAdmmRun:
    def test_zero_problem_is_stationary(self):
        tr = admm_run(prox_zero(), prox_zero(),
                      DrsParams(alpha=1.0, max_iters=3, stop_tol=0.0),
                      np.zeros(2))
        assert tr.records[0].fp_residual == 0.0

    def test_unrelaxed_matches_textbook_updates_by_hand(self):
        # min 0.5 (x - 1)^2 + |z| with x = z, alpha = 1, lam = 1, from z0=u0=0:
        #   k=0: x = prox_f(0) = 0.5, z = soft(0.5, 1) = 0, u = 0.5
        #   k=1: x = prox_f(-0.5) = 0.25, z = soft(0.75, 1) = 0, u = 0.75
        f = prox_quadratic(np.eye(1), np.ones(1))
        g = prox_l1(1.0)
        tr = admm_run(f, g, DrsParams(alpha=1.0, lam=1.0, max_iters=2),
                      np.zeros(1))
        r0, r1 = tr.records
        assert r0.x[0] == pytest.approx(0.5, abs=1e-15)
        assert r0.z[0] == pytest.approx(0.0, abs=1e-15)
        assert r1.y[0] == pytest.approx(0.5, abs=1e-15)   # u entering step 1
        assert r1.x[0] == pytest.approx(0.25, abs=1e-15)
        assert r1.z[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_drs_on_dual_of_quadratic_pair(self):
        # For f, g strongly convex quadratics the conjugates are explicit
        # quadratics, so the dual problem can be solved by the primal DRS
        # iteration directly.  With step 1/alpha on the duals (d1 = g*,
        # d2 = f*(-.)), DRS state w_k = (v_k + u_k)/alpha reproduces the ADMM
        # run exactly, and the DRS y-sequence equals the scaled duals
        # u_{k+1}/alpha.
        a1, c1, a2, c2 = 2.0, 1.0, 0.5, -3.0
        alpha, lam, iters = 0.7, 1.3, 15
        f = prox_quadratic(np.array([[math.sqrt(a1)]]),
                           np.array([math.sqrt(a1) * c1]))
        g = prox_quadratic(np.array([[math.sqrt(a2)]]),
                           np.array([math.sqrt(a2) * c2]))
        tra = admm_run(f, g, DrsParams(alpha=alpha, lam=lam, max_iters=iters),
                       np.zeros(1))
        u_seq = np.array([float(r.y[0]) for r in tra.records])

        class ScalarQuadratic(ProxOperator):
            """prox of q(v) = a v^2 / 2 + b v."""

            def __init__(self, a, b):
                self.a, self.b = a, b
                self.function_class = FunctionClass(a, a)

            def evaluate(self, v, al):
                return (v - al * self.b) / (1.0 + al * self.a)

        d1 = ScalarQuadratic(1.0 / a2, c2)    # g*(nu)
        d2 = ScalarQuadratic(1.0 / a1, -c1)   # f*(-nu)
        x1 = f.evaluate(np.zeros(1), alpha)
        w0 = lam * x1 / alpha                 # (v_0 + u_0)/alpha with z0=u0=0
        trd = drs_run(d1, d2, DrsParams(alpha=1.0 / alpha, lam=lam,
                                        max_iters=iters - 1), w0)
        dual_y = np.array([float(r.y[0]) for r in trd.records])
        assert np.abs(dual_y - u_seq[1:] / alpha).max() <= 1e-12

    def test_primal_residual_converges(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 8))
        x_truth = np.zeros(8)
        x_truth[:2] = 1.0
        f = prox_affine_indicator(A, A @ x_truth)
        g = prox_l1(1.0)
        tr = admm_run(f, g, DrsParams(alpha=1.0, lam=1.0, max_iters=2000,
                                      stop_tol=1e-10), np.zeros(8))
        assert tr.status == "converged"


class TestLyapunovSeries:
    def _trace(self):
        rng = np.random.default_rng(6)
        f = prox_quadratic(rng.standard_normal((5, 5)), rng.standard_normal(5))
        g = prox_l1(0.5)
        p = DrsParams(alpha=1.0, lam=1.0, max_iters=400)
        x0 = rng.standard_normal(5)
        tr = drs_run(f, g, p, x0)
        x_star, _, F_star = solve_reference(f, g, p, x0)
        return tr, x_star, F_star

    def test_zero_theta_reduces_to_distance(self):
        tr, x_star, _ = self._trace()
        V = lyapunov_series(tr, "case1", 0.0, x_star)
        dist = [np.sum((r.x - x_star) ** 2) for r in tr.records]
        assert np.allclose(V, dist, atol=0.0)

    def test_case1_running_sum(self):
        tr, x_star, _ = self._trace()
        theta = 0.7
        V = lyapunov_series(tr, "case1", theta, x_star)
        k = 5
        expected = np.sum((tr.records[k].x - x_star) ** 2) + theta * sum(
            tr.records[i].subgrad_residual ** 2 for i in range(k))
        assert V[k] == pytest.approx(expected, rel=1e-12)

    def test_case2_needs_f_star(self):
        tr, x_star, _ = self._trace()
        with pytest.raises(ValueError):
            lyapunov_series(tr, "case2", 1.0, x_star)

    def test_case2_running_sum(self):
        tr, x_star, F_star = self._trace()
        theta = 0.3
        V = lyapunov_series(tr, "case2", theta, x_star, F_star=F_star)
        k = 7
        expected = np.sum((tr.records[k].x - x_star) ** 2) + theta * sum(
            tr.records[i].objective - F_star for i in range(k))
        assert V[k] == pytest.approx(expected, rel=1e-10)

    def test_case3_is_distance(self):
        tr, x_star, _ = self._trace()
        V = lyapunov_series(tr, "case3", None, x_star)
        assert V[0] == pytest.approx(np.sum((tr.records[0].x - x_star) ** 2))

    def test_theta_schedule(self):
        tr, x_star, _ = self._trace()
        thetas = np.linspace(0.1, 1.0, len(tr))
        V = lyapunov_series(tr, "case1", thetas, x_star)
        expected = np.sum((tr.records[2].x - x_star) ** 2) + sum(
            thetas[i] * tr.records[i].subgrad_residual ** 2 for i in range(2))
        assert V[2] == pytest.approx(expected, rel=1e-12)


class TestSolveReference:
    def test_unconstrained_quadratic(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((4, 4)) + 2 * np.eye(4)
        b = rng.standard_normal(4)
        f = prox_quadratic(A, b)
        x_star, y_star, F_star = solve_reference(
            f, prox_zero(), DrsParams(alpha=1.0, max_iters=100000), np.zeros(4))
        grad = A.T @ (A @ y_star - b)
        assert np.linalg.norm(grad) <= 1e-7

    def test_scalar_l1_regularized_quadratic(self):
        # min 0.5 (x - 1)^2 + 0.1 |x| has minimizer 0.9
        f = prox_quadratic(np.eye(1), np.ones(1))
        g = prox_l1(0.1)
        x_star, y_star, F_star = solve_reference(
            f, g, DrsParams(alpha=1.0, max_iters=100000), np.zeros(1))
        assert y_star[0] == pytest.approx(0.9, abs=1e-9)
        assert F_star == pytest.approx(0.5 * 0.01 + 0.09, abs=1e-9)

    def test_terminal_residual(self):
        rng = np.random.default_rng(42)
        A = rng.standard_normal((3, 10))
        f = prox_affine_indicator(A, A @ rng.standard_normal(10))
        g = prox_l1(1.0)
        tr_params = DrsParams(alpha=1.0, max_iters=100000)
        x_star, y_star, _ = solve_reference(f, g, tr_params, np.zeros(10))
        # replaying one iteration from x* moves nowhere
        y = f.evaluate(x_star, 1.0)
        z = g.evaluate(2 * y - x_star, 1.0)
        assert np.linalg.norm(z - y) <= 1e-12


class TestTraceCsv:
    def test_format(self, tmp_path):
        f = prox_quadratic(np.eye(2), np.zeros(2))
        g = prox_l1(1.0)
        tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=5), np.ones(2))
        V = lyapunov_series(tr, "case1", 1.0, np.zeros(2))
        out = tmp_path / "trace.csv"
        write_trace_csv(tr, out, lyapunov=V)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "fp_residual", "subgrad_residual", "objective", "V"]
        assert len(rows) == 6
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert float(row[1]) == tr.records[i].fp_residual
            assert float(row[2]) == tr.records[i].subgrad_residual
            assert float(row[3]) == tr.records[i].objective
            assert float(row[4]) == V[i]

    def test_missing_objective_left_blank(self, tmp_path):
        class Opaque(ProxOperator):
            def __init__(self):
                self.function_class = FunctionClass(0.0, math.inf)

            def evaluate(self, v, alpha):
                return v.copy()

        tr = drs_run(Opaque(), prox_zero(), DrsParams(alpha=1.0, max_iters=2),
                     np.zeros(1))
        out = tmp_path / "trace.csv"
        write_trace_csv(tr, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][3] == ""
        assert rows[1][4] == ""

    def test_floats_roundtrip_exactly(self, tmp_path):
        rng = np.random.default_rng(13)
        f = prox_quadratic(rng.standard_normal((3, 3)), rng.standard_normal(3))
        tr = drs_run(f, prox_l1(0.2), DrsParams(alpha=0.9, max_iters=4),
                     rng.standard_normal(3))
        out = tmp_path / "trace.csv"
        write_trace_csv(tr, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        for i, row in enumerate(rows[1:]):
            assert float(row[1]) == tr.records[i].fp_residual
