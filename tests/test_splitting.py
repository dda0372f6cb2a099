"""The splitting iterations, trace recording, residual identity, Lyapunov values."""

import csv
import io
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from drsplit import (
    DrsParams,
    FunctionClass,
    Trace,
    admm_run,
    drs_run,
    lyapunov_series,
    prox_affine_indicator,
    prox_l1,
    prox_quadratic,
    prox_zero,
    solve_reference,
    tune,
    write_trace_csv,
)
from drsplit import splitting
from drsplit.cli import ProblemSpec, gen_basis_pursuit, gen_lasso
from drsplit.prox import ProxOperator
from drsplit.splitting import _drs_rows, _objective, _Rows


class Exploding(ProxOperator):
    """Scales its input by 1e200: the second prox evaluation overflows."""

    def __init__(self):
        self.function_class = FunctionClass(0.0, math.inf)

    def evaluate(self, v, alpha):
        with np.errstate(over="ignore"):
            return v * 1e200


class BoxClip(ProxOperator):
    """Projection onto the box [-1, 1]^n: finite for every input but NaN."""

    def __init__(self):
        self.function_class = FunctionClass(0.0, math.inf)

    def evaluate(self, v, alpha):
        return np.clip(v, -1.0, 1.0)


class Widening(ProxOperator):
    """Returns its input with one more entry: an output of another shape."""

    def __init__(self):
        self.function_class = FunctionClass(0.0, math.inf)

    def evaluate(self, v, alpha):
        return np.append(v, 0.0)


class Aliasing(ProxOperator):
    """Prox of f = 0 that returns its argument itself, not a copy."""

    def __init__(self):
        self.function_class = FunctionClass(0.0, math.inf)

    def evaluate(self, v, alpha):
        return v

    def objective(self, x):
        return np.zeros(np.shape(x)[:-1])[()]


class Stacks(ProxOperator):
    """Delegates to a prox operator and appends the shape of each stack
    handed to its objective to ``calls``."""

    def __init__(self, inner, calls):
        self.inner, self.calls = inner, calls
        self.function_class = inner.function_class

    def evaluate(self, v, alpha):
        return self.inner.evaluate(v, alpha)

    def objective(self, x):
        self.calls.append(np.shape(x))
        return self.inner.objective(x)


class TestDrsParams:
    def test_valid(self):
        p = DrsParams(alpha=0.5, lam=1.2, max_iters=10, stop_tol=1e-8)
        assert p.lam == 1.2
        assert (p.alpha, p.max_iters, p.stop_tol) == (0.5, 10, 1e-8)

    def test_schedule(self):
        p = DrsParams(alpha=1.0, lam=[0.5, 1.0, 1.5], max_iters=3)
        assert list(p.lam) == [0.5, 1.0, 1.5]

    def test_zero_dimensional_lambda_is_a_constant(self):
        assert DrsParams(alpha=1.0, lam=np.array(1.5), max_iters=3).lam == 1.5
        with pytest.raises(ValueError, match="must be > 0"):
            DrsParams(alpha=1.0, lam=np.array(-1.0))

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

    def test_max_iters_must_be_an_integer(self):
        assert DrsParams(alpha=1.0, max_iters=np.int64(10)).max_iters == 10
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            DrsParams(alpha=1.0, max_iters=10.0)

    def test_nan_stop_tol_refused(self):
        with pytest.raises(ValueError, match="^stop_tol must be >= 0, got nan$"):
            DrsParams(alpha=1.0, stop_tol=math.nan)

    def test_schedule_must_be_a_vector(self):
        with pytest.raises(ValueError,
                           match=r"^relaxation sequence must be 1-D, got shape \(5, 3\)$"):
            DrsParams(alpha=1.0, lam=np.ones((5, 3)), max_iters=5)


class TestDrsRun:
    def test_zero_problem_is_stationary(self):
        x0 = np.array([1.0, -2.0])
        tr = drs_run(prox_zero(), prox_zero(),
                     DrsParams(alpha=1.0, lam=1.0, max_iters=5), x0)
        assert tr.fp_residual[0] == 0.0
        for x in tr.x:
            assert np.array_equal(x, x0)

    def test_quadratic_halving(self):
        # f = ||x||^2/2, g = 0, alpha = lam = 1: x_{k+1} = x_k / 2
        f = prox_quadratic(np.eye(1), np.zeros(1))
        tr = drs_run(f, prox_zero(), DrsParams(alpha=1.0, lam=1.0, max_iters=20),
                     np.array([1.0]))
        for k, (x, y, z) in enumerate(zip(tr.x, tr.y, tr.z)):
            assert x[0] == pytest.approx(2.0 ** -k, abs=1e-15)
            assert y[0] == pytest.approx(x[0] / 2, abs=1e-15)
            assert z[0] == pytest.approx(0.0, abs=1e-15)

    def test_scalar_constrained_l1_fixed_point(self):
        # f = indicator {x = 1}, g = |.|: the fixed point has y* = z* = 1
        f = prox_affine_indicator(np.array([[1.0]]), np.array([1.0]))
        g = prox_l1(1.0)
        tr = drs_run(f, g, DrsParams(alpha=1.0, lam=1.0, max_iters=200,
                                     stop_tol=1e-14), np.array([0.0]))
        assert tr.status == "converged"
        assert tr.y[-1, 0] == pytest.approx(1.0, abs=1e-12)
        assert tr.z[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_residual_identity(self):
        # z - y = -alpha (df(y) + dg(z)) with the subgradients implied by the
        # two prox steps; exact by construction, checked numerically
        rng = np.random.default_rng(4)
        f = prox_quadratic(rng.standard_normal((6, 4)), rng.standard_normal(6))
        g = prox_l1(0.3)
        alpha = 0.7
        tr = drs_run(f, g, DrsParams(alpha=alpha, lam=1.4, max_iters=100),
                     rng.standard_normal(4))
        for x, y, z, fp in zip(tr.x, tr.y, tr.z, tr.fp_residual):
            sf = (x - y) / alpha
            sg = (2 * y - x - z) / alpha
            lhs = z - y
            rhs = -alpha * (sf + sg)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(lhs))
            assert fp / alpha * alpha == pytest.approx(fp, rel=1e-12, abs=1e-300)

    def test_running_min_residual_nonincreasing(self):
        rng = np.random.default_rng(9)
        f = prox_quadratic(rng.standard_normal((5, 5)), rng.standard_normal(5))
        g = prox_l1(0.2)
        for lam in (0.5, 1.0, 1.9):
            tr = drs_run(f, g, DrsParams(alpha=1.0, lam=lam, max_iters=300),
                         rng.standard_normal(5))
            running_min = np.minimum.accumulate(tr.fp_residual)
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
        for x, y, xs, ys in zip(tr.x, tr.y, tr_shift.x, tr_shift.y):
            assert np.allclose(xs, x + shift, atol=1e-12)
            assert np.allclose(ys, y + shift, atol=1e-12)

    def test_dimension_mismatch(self):
        f = prox_affine_indicator(np.array([[1.0, 0.0]]), np.array([1.0]))
        with pytest.raises(ValueError):
            drs_run(f, prox_zero(), DrsParams(alpha=1.0, max_iters=3),
                    np.zeros(3))

    @pytest.mark.parametrize("wide", ["f", "g"])
    def test_prox_output_of_another_shape_refused(self, wide):
        # the y check when f widens its output, the z check when g does
        f, g = (Widening(), prox_zero()) if wide == "f" else (prox_zero(), Widening())
        with pytest.raises(ValueError, match="^dimension mismatch between prox outputs and x0$"):
            drs_run(f, g, DrsParams(alpha=1.0, max_iters=3), np.zeros(3))

    def test_nonfinite_iterate_reported_with_iteration(self):
        with pytest.raises(RuntimeError, match="^non-finite y iterate at iteration 1$"):
            drs_run(Exploding(), prox_zero(),
                    DrsParams(alpha=1.0, max_iters=10), np.array([1.0]))

    @pytest.mark.parametrize("lam", [3.0, [3.0] * 2000])
    def test_x_overflow_with_finite_proxes(self, lam):
        # y = clip(x) and z = 2y - x stay finite while x_{k+1} = 3y - 2x
        # doubles in size each iteration until it overflows
        x, k = np.array([5.0, -0.5]), 0
        with np.errstate(over="ignore"):
            while np.isfinite(x).all():
                x, k = 3.0 * np.clip(x, -1.0, 1.0) - 2.0 * x, k + 1
        assert k == 1023
        with pytest.raises(RuntimeError, match=f"^non-finite x iterate at iteration {k - 1}$"):
            drs_run(BoxClip(), prox_zero(),
                    DrsParams(alpha=1.0, lam=lam, max_iters=2000), np.array([5.0, -0.5]))

    @pytest.mark.parametrize("f, g, x0, message", [
        (BoxClip(), BoxClip(), [math.inf, 0.0], "x"),  # y and z finite
        (BoxClip(), BoxClip(), [math.nan, 0.0], "y"),
        (BoxClip(), prox_zero(), [-math.inf, 0.0], "z"),
    ])
    def test_nonfinite_start(self, f, g, x0, message):
        with pytest.raises(RuntimeError,
                           match=f"^non-finite {message} iterate at iteration 0$"):
            drs_run(f, g, DrsParams(alpha=1.0, max_iters=10), np.array(x0))

    def test_objective_column(self):
        f = prox_quadratic(np.eye(1), np.zeros(1))
        tr = drs_run(f, prox_l1(1.0), DrsParams(alpha=1.0, max_iters=3),
                     np.array([2.0]))
        for objective, z in zip(tr.objective, tr.z):
            expected = 0.5 * z[0] ** 2 + abs(z[0])
            assert objective == pytest.approx(expected, abs=1e-14)
        # objectives() is a writable copy of the held column, not the column
        obj = tr.objectives()
        assert obj.flags.writeable and not np.shares_memory(obj, tr.objective)
        assert obj.tobytes() == tr.objective.tobytes()


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
        # a run shorter than a block: one call of each on its whole stack
        calls = []
        f = Stacks(prox_quadratic(np.eye(3), np.ones(3)), calls)
        g = Stacks(prox_l1(0.5), calls)
        tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=50), np.array([3.0, -2.0, 0.1]))
        assert calls == [(50, 3), (50, 3)]
        assert tr.objective.shape == (50,)
        # 1,300 rows: the blocks of rows 0-511 and 512-1023 as they fill,
        # then rows 1024-1299, each row in one window
        calls.clear()
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        tr = drs_run(Stacks(f, calls), Stacks(g, calls), DrsParams(alpha=1.0, max_iters=1300),
                     np.zeros(100))
        assert calls == [(512, 100)] * 4 + [(276, 100)] * 2
        assert tr.objective.shape == (1300,)

    def test_admm_objective_evaluated_once_on_the_stack(self):
        # f on ADMM's x rows and g on its z rows, in drs_run's windows
        calls = []
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        tr = admm_run(Stacks(f, calls), Stacks(g, calls), DrsParams(alpha=1.0, max_iters=1300),
                      np.zeros(100))
        assert calls == [(512, 100)] * 4 + [(276, 100)] * 2
        assert tr.objective.shape == (1300,)

    def test_columns_are_read_only(self):
        # a replayed trace maps every column, fp and the objective included,
        # from its held rows: the mapped columns refuse writes too
        f, g, fc = gen_lasso(ProblemSpec("lasso", 60, 40, rank=40, seed=7))
        replayed = drs_run(f, g, DrsParams(alpha=1.0, lam=tune(fc, 1.0).lam, max_iters=1000),
                           np.zeros(40))
        assert replayed._replay is not None
        for tr in (drs_run(prox_quadratic(np.eye(2), np.ones(2)), prox_l1(0.5),
                           DrsParams(alpha=1.0, max_iters=4), np.array([3.0, -2.0])), replayed):
            with pytest.raises(ValueError):
                tr.records[1].x[0] = 5.0
            with pytest.raises(ValueError):
                tr.x[-1, 0] = 5.0
            with pytest.raises(ValueError):
                tr.fp_residual[-1] = 5.0
            with pytest.raises(ValueError):
                tr.objective[-1] = 5.0
            with pytest.raises(ValueError):
                tr.z[0, 0] = 5.0
            assert tr.records[-1].k == len(tr) - 1
            assert [r.k for r in tr.records[1:3]] == [1, 2]

    @staticmethod
    def _slow_problem(n=100):
        # f = 0.5e-3 ||x - 1||^2, g = 0: x_{k+1} = prox_f(x_k) contracts by
        # 1/(1 + 1e-3) per step, so ||z - y|| <= 1e-12 takes ~23,000 steps
        s = math.sqrt(1e-3)
        return prox_quadratic(s * np.eye(n), s * np.ones(n)), prox_zero(), np.zeros(n)

    @pytest.mark.parametrize("max_iters", [24_000, 200_000])
    def test_early_stop_holds_only_the_rows_run(self, max_iters):
        # the x, fp and objective columns grow and are trimmed in place, and
        # z_k goes into a ring of 512 rows: the trace holds its x column,
        # and the peak is the columns at their last capacity, the ring, one
        # 512-row product of the quadratic objective and the cycle check's
        # dict of about 100 bytes per row, with no (k, n) z
        f, g, x0 = self._slow_problem()
        n = x0.size
        tracemalloc.start()
        try:
            tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=max_iters, stop_tol=1e-12), x0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = len(tr)
        assert tr.status == "converged" and 20_000 <= k < max_iters
        assert tr.x.shape == tr.y.shape == tr.z.shape == (k, n)
        x = tr.x.base.nbytes
        assert x <= held <= 1.05 * x + (1 << 20)
        cap = min(max_iters, 1024 << math.ceil(math.log2(k / 1024)))
        columns = (cap + 1) * n * 8 + 2 * cap * 8
        assert peak <= columns + 2 * 512 * n * 8 + 512 * n * 8 + 100 * k + (1 << 20)

    def test_full_run_writes_x_max_iters_into_a_row_it_keeps(self):
        # trimming that row off every stop_tol-0 run by realloc fragmented
        # the heap, so the trace's x is a view of all rows but the last
        tr = drs_run(prox_quadratic(np.eye(3), np.ones(3)), prox_l1(0.5),
                     DrsParams(alpha=1.0, max_iters=50), np.array([3.0, -2.0, 0.1]))
        assert tr.x.shape == (50, 3) and tr.x.base.shape == (51, 3)
        assert tr.x.base[50].tobytes() == tr.x_final.tobytes()
        assert tr.y.base is None and tr.z.base is None and tr.fp_residual.base is None

    @pytest.mark.parametrize("run", [drs_run, admm_run])
    @pytest.mark.parametrize("aliased", ["f", "g"])
    def test_prox_returning_its_argument_across_growth(self, run, aliased):
        # the run stops past 4,096 rows, so the columns grow three times while
        # a prox output may be the row view x_k itself or a work vector
        n = 20
        s = math.sqrt(3.7e-3)
        q = prox_quadratic(s * np.eye(n), s * np.ones(n))
        pairs = {"f": ((Aliasing(), q), (prox_zero(), q)),
                 "g": ((q, Aliasing()), (q, prox_zero()))}
        (f, g), (f_copy, g_copy) = pairs[aliased]
        params = DrsParams(alpha=1.0, max_iters=5000, stop_tol=1e-9)
        tr, ref = run(f, g, params, np.zeros(n)), run(f_copy, g_copy, params, np.zeros(n))
        assert tr.status == ref.status == "converged" and 4096 < len(tr) < 5000
        for name in ("x", "y", "z", "fp_residual", "objective", "x_final"):
            assert getattr(tr, name).tobytes() == getattr(ref, name).tobytes(), name

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


class Counting(ProxOperator):
    """Delegates to a prox operator and counts its evaluations."""

    def __init__(self, inner):
        self.inner = inner
        self.function_class = inner.function_class
        self.calls = 0

    def evaluate(self, v, alpha):
        self.calls += 1
        return self.inner.evaluate(v, alpha)

    def objective(self, x):
        return self.inner.objective(x)


def _plain_drs(f, g, params, x0):
    """The DRS loop with every iteration computed: columns x, y, z, fp and
    the objective, x_final and the status, in the library's arithmetic.  The
    objective is the window rule's on the rows a run computes: with a
    constant lambda whose x_k first repeats x_{k-p}, on rows 0 .. k, row
    i > k being that of row k + 1 - p + (i - k - 1) mod p."""
    a, n = params.alpha, params.max_iters
    lams = [float(params.lam)] * n if np.ndim(params.lam) == 0 else list(params.lam)
    x = np.array(x0, dtype=float)
    X, Y, Z, FP = [], [], [], []
    status = "iteration-limit"
    for k in range(n):
        y = f.evaluate(x, a)
        z = g.evaluate(2.0 * y - x, a)
        d = z - y
        fp = math.sqrt(d @ d)
        X.append(x), Y.append(y), Z.append(z), FP.append(fp)
        if fp <= params.stop_tol:
            status = "converged"
            break
        x = x + lams[k] * d
    X, Z = np.array(X), np.array(Z)
    cycle = _repeat(X) if np.ndim(params.lam) == 0 else None
    k, p = cycle if cycle else (len(X) - 1, 1)
    held = _objective_windows(f, g, Z[:k + 1], Z[:k + 1])
    rows = [i if i <= k else k + 1 - p + (i - k - 1) % p for i in range(len(X))]
    return dict(x=X, y=np.array(Y), z=Z, fp_residual=np.array(FP),
                objective=held[rows], x_final=x), status


def _plain_admm(f_prox, g_prox, params, u0):
    """The relaxed ADMM loop with every iteration computed, as admm_run ran
    it before it became a change of variables on drs_run: columns x, y = u,
    z, fp and the objective, x_final and the status."""
    a = params.alpha
    tol = params.stop_tol
    n = params.max_iters
    lams = [float(params.lam)] * n if np.ndim(params.lam) == 0 else list(params.lam)[:n]
    u = np.array(u0, dtype=float)
    z = np.zeros_like(u)
    X, Y, Z, FP = [], [], [], []
    status = "iteration-limit"
    with np.errstate(over="ignore", invalid="ignore"):
        for k, lam in enumerate(lams):
            xn = f_prox.evaluate(z - u, a)
            v = lam * xn + (1.0 - lam) * z
            zn = g_prox.evaluate(v + u, a)
            d = xn - zn
            fp = math.sqrt(d @ d)
            dz = zn - z
            dual = math.sqrt(dz @ dz) / a
            un = u + v - zn
            if not math.isfinite(fp):
                for name, w in (("x", xn), ("z", zn)):
                    if not np.isfinite(w).all():
                        raise RuntimeError(f"non-finite {name} iterate at iteration {k}")
            if not math.isfinite(un @ un) and not np.isfinite(un).all():
                raise RuntimeError(f"non-finite u iterate at iteration {k}")
            X.append(xn), Y.append(u), Z.append(zn), FP.append(fp)
            if fp <= tol and dual <= tol:
                status = "converged"
                break
            z, u = zn, un
    X, Z = np.array(X), np.array(Z)
    return dict(x=X, y=np.array(Y), z=Z, fp_residual=np.array(FP),
                objective=f_prox.objective(X) + g_prox.objective(Z), x_final=zn), status


def _assert_admm_parity(tr, ref, status):
    """Same length, status and terminal row as the plain ADMM loop; every
    column, x_final included, within 1e-12 of the loop's largest entry."""
    assert (tr.status, len(tr)) == (status, len(ref["x"]))
    mine = {name: getattr(tr, name) for name in ref}  # each recomputed column read once
    for name, col in ref.items():
        assert np.abs(mine[name] - col).max() <= 1e-12 * np.abs(col).max(), name
    assert tr.x_final.tobytes() == mine["z"][-1].tobytes()


def _assert_plain(tr, f, g, params, x0):
    """Bitwise the plain loop: status, length, every column (y and z
    recomputed whole, the objective by the window rule), x_final, and every
    record's fields, its residual fp / alpha.  Returns the plain loop's
    columns."""
    ref, status = _plain_drs(f, g, params, x0)
    assert (tr.status, len(tr)) == (status, len(ref["x"]))
    for name, col in ref.items():
        assert getattr(tr, name).tobytes() == col.tobytes(), name
    subgrad = ref["fp_residual"] / params.alpha
    for r in tr.records:
        assert r.x.tobytes() == ref["x"][r.k].tobytes(), r.k
        assert (r.fp_residual, r.subgrad_residual, r.objective) == \
            (ref["fp_residual"][r.k], subgrad[r.k], ref["objective"][r.k])
    return ref


def _repeat(X):
    """(k, p) for the first k whose row X[k] equals an earlier row X[k - p]
    byte for byte, or None."""
    seen = {}
    for k, row in enumerate(X):
        j = seen.setdefault(row.tobytes(), k)
        if j != k:
            return k, k - j
    return None


def _first_repeat(X):
    """``_repeat(X)``, which must exist."""
    cycle = _repeat(X)
    if cycle is None:
        raise AssertionError(f"none of the {len(X)} rows repeats an earlier one")
    return cycle


def _plain_cycle(f, g, params, x0):
    """(k, p) of the plain DRS loop's first repeat, before max_iters: a run
    computes rows 0 .. k and repeats with period p."""
    return _first_repeat(_plain_drs(f, g, params, x0)[0]["x"])


class TestCycleReplay:
    """A run with constant lambda that reaches rounding level and repeats an
    earlier iterate exactly is replayed, not iterated: the trace is bitwise
    that of the full loop, at a fraction of the prox evaluations."""

    ITERS = 10_000

    @staticmethod
    def _lasso(rank):
        f, g, fc = gen_lasso(ProblemSpec("lasso", 60, 40, rank=rank, seed=7))
        return Counting(f), Counting(g), tune(fc, 1.0).lam

    @pytest.mark.parametrize("rank", [40, 20])  # Cases 3 and 2
    def test_cycling_run_matches_the_full_loop(self, rank):
        f, g, lam = self._lasso(rank)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=self.ITERS)
        tr = drs_run(f, g, params, np.zeros(40))
        # x_k of the first repeat is evaluated like any other: calls are
        # iterations 0 .. k (k = 78 and 570 on OpenBLAS's SkylakeX kernel)
        calls = f.calls, g.calls
        ref = _assert_plain(tr, f.inner, g.inner, params, np.zeros(40))
        k, p = _first_repeat(ref["x"])
        assert calls == (k + 1, k + 1) and _first_repeat(tr.x) == (k, p)

    def test_long_period_found_at_its_first_repeat(self):
        # on OpenBLAS's SkylakeX kernel, period 4,932 from iteration 711:
        # Brent's power-of-two marks would find it at 8,192 + 4,932, after
        # max_iters
        f, g, fc = gen_lasso(ProblemSpec("lasso", 60, 40, rank=20, seed=1825957107))
        f, g = Counting(f), Counting(g)
        params = DrsParams(alpha=1.0, lam=tune(fc, 1.0).lam, max_iters=self.ITERS)
        tr = drs_run(f, g, params, np.zeros(40))
        calls = f.calls, g.calls
        ref = _assert_plain(tr, f.inner, g.inner, params, np.zeros(40))
        k, p = _first_repeat(ref["x"])
        assert calls == (k + 1, k + 1) and _first_repeat(tr.x) == (k, p)
        assert tr.x[k - p].tobytes() == tr.x[k].tobytes()

    def test_tolerance_below_rounding_grows_to_the_cap(self):
        f, g, lam = self._lasso(40)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=self.ITERS, stop_tol=1e-17)
        tr = drs_run(f, g, params, np.zeros(40))
        assert tr.status == "iteration-limit" and len(tr) == self.ITERS
        assert f.calls < self.ITERS
        _assert_plain(tr, f.inner, g.inner, params, np.zeros(40))

    def test_schedule_is_iterated_in_full(self):
        f, g, lam = self._lasso(40)
        params = DrsParams(alpha=1.0, lam=[lam] * 2000, max_iters=2000)
        tr = drs_run(f, g, params, np.zeros(40))
        assert f.calls == g.calls == 2000
        _assert_plain(tr, f.inner, g.inner, params, np.zeros(40))

    def test_stop_test_met_on_the_first_replayed_row_ends_the_run_there(self):
        # the loop computes and tests rows 0 .. k, row k the first repeat,
        # and stops there; nothing is tested after the loop
        f, g, lam = self._lasso(40)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=self.ITERS)
        ref, _ = _plain_drs(f.inner, g.inner, params, np.zeros(40))
        last, p = _first_repeat(ref["x"])
        tested = []

        class Rows(_Rows):
            def store(self, k, y, z, fp):
                super().store(k, y, z, fp)
                tested.append(k)
                return k == last

        X, FP, _, status, x_final, replay = _drs_rows(
            f, g, params, np.zeros(40), Rows(params, 40, (f.inner, g.inner)))
        assert status == "converged" and replay is None and tested == list(range(last + 1))
        assert f.calls == g.calls == last + 1 and _first_repeat(X) == (last, p)
        for name, col in zip(("x", "fp_residual"), (X, FP)):
            assert col.tobytes() == ref[name][:last + 1].tobytes(), name
        assert x_final.tobytes() == X[last].tobytes()

    @pytest.mark.parametrize("run", [drs_run, admm_run])
    @pytest.mark.parametrize("max_iters", [10_000, 100_000, 1_000_000])
    def test_replayed_run_holds_its_computed_rows(self, run, max_iters):
        # the DRS loop computes rows 0 .. k, the last its first repeat (on
        # OpenBLAS's SkylakeX kernel k is 78, and 75 for ADMM's loop on
        # (g, f)): the trace holds those rows of the state, fp and the
        # objective, and one more state row behind the view.  The run's peak
        # is its first 1,024 rows and its objective ring (two for ADMM), with
        # one window's temporaries: nothing grows with max_iters.  Reading a
        # mapped scalar column makes the column and one int64 index of its
        # length, and the trace CSV the three float columns it writes (fp,
        # fp / alpha and the objective) and the last one's index
        f, g, lam = self._lasso(40)
        f, g, x0 = f.inner, g.inner, np.zeros(40)
        f.evaluate(x0, 1.0)  # the prox's per-alpha factor, made outside the count
        tracemalloc.start()
        try:
            tr = run(f, g, DrsParams(alpha=1.0, lam=lam, max_iters=max_iters), x0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = len(tr._t)
        assert len(tr) == max_iters and tr._replay[0] == k
        assert len(tr.fp_residual) == len(tr.objective) == max_iters
        if max_iters <= 100_000:  # a mapped x of 10^6 rows would take 320 MB
            assert len(tr.x) == max_iters
        assert held <= (k + 1) * 40 * 8 + 2 * (k + 1) * 8 + (1 << 14)
        ring = (1 if run is drs_run else 2) * 512 * 40 * 8
        assert peak <= 1025 * 40 * 8 + 2 * 1024 * 8 + 2 * ring + (1 << 16)
        column = max_iters * 8
        reads = {"fp_residual": lambda: tr.fp_residual, "objective": lambda: tr.objective,
                 "objectives": tr.objectives,
                 "write_trace_csv": lambda: write_trace_csv(tr, os.devnull)}
        for name, read in reads.items():
            tracemalloc.start()
            try:
                read()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            bound = 4 * column + (2 << 20) if name == "write_trace_csv" else 2 * column + (1 << 20)
            assert peak <= bound, name
        obj = tr.objectives()
        assert obj.flags.writeable and obj.tobytes() == tr.objective.tobytes()

    def test_reading_a_replayed_trace_costs_its_computed_rows(self):
        # y and z are recomputed on the k + 1 rows the loop computed and
        # mapped; the records and the Lyapunov distances read the held rows
        # of x and make no (k, n) array, which would take 3.2 MB: the
        # distances hold their output and a few row-index vectors of its
        # length
        f, g, lam = self._lasso(40)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=self.ITERS)
        k, _ = _plain_cycle(f.inner, g.inner, params, np.zeros(40))
        tr = drs_run(f, g, params, np.zeros(40))
        for name, calls in (("y", (k + 1, 0)), ("z", (k + 1, k + 1))):
            ran = f.calls, g.calls
            assert getattr(tr, name).shape == (self.ITERS, 40)
            assert (f.calls - ran[0], g.calls - ran[1]) == calls, name
        ran = f.calls, g.calls
        x_star = np.ones(40)
        tracemalloc.start()
        try:
            for r in tr.records:
                assert r.x.shape == (40,)
            _, walk = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            V = lyapunov_series(tr, "case3", None, x_star)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walk < 1 << 16
        assert peak < 5 * V.nbytes
        assert (f.calls, g.calls) == ran
        assert V.tobytes() == np.sum((tr.x - x_star) ** 2, axis=1).tobytes()

    def test_reference_solve_fails_once_the_iterates_cycle(self):
        # b and gamma scaled by 2^20 scale every iterate of the Case-3 run by
        # exactly 2^20, so it cycles as that run does, with ||z - y|| at
        # 2^20 times a rounding floor near 1e-16: above 1e-12 throughout
        f, g, lam = self._lasso(40)
        s = 2.0 ** 20
        scaled = Counting(prox_quadratic(f.inner.A, s * f.inner.b))
        with pytest.raises(RuntimeError, match=r"^reference solve did not reach "
                           r"\|\|z - y\|\| <= 1e-12: the iterates repeat with period \d+ "
                           r"from iteration \d+"):
            solve_reference(scaled, prox_l1(s * g.inner.gamma),
                            DrsParams(alpha=1.0, lam=lam), np.zeros(40))
        assert scaled.calls < self.ITERS


class TestIterateWrittenOnce:
    """x_{k+1} is written straight into its row, 2y - x and z - y into two
    reused vectors, and lam * d is skipped at lam = 1: every column, x_final
    and the status stay bitwise those of the plain loop."""

    @pytest.mark.parametrize("lam", [1.0, 1.5])
    def test_full_run(self, lam):
        # basis pursuit does not cycle within these iterations
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        params = DrsParams(alpha=1.0, lam=lam, max_iters=3000)
        _assert_plain(drs_run(f, g, params, np.zeros(100)), f, g, params, np.zeros(100))

    @pytest.mark.parametrize("lam", [1.0, 1.5])
    @pytest.mark.parametrize("stop", [1023, 1024, 1025, 3000])
    def test_early_stop_around_the_row_capacity(self, lam, stop):
        # rows start at 1,024 and double, so the run stops on either side of
        # the first growth, or after growing past 2,048 rows
        f, g, x0 = TestTraceStorage._slow_problem(n=20)
        fp = _plain_drs(f, g, DrsParams(alpha=1.0, lam=lam, max_iters=stop + 1),
                        x0)[0]["fp_residual"]
        assert np.all(np.diff(fp) < 0)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=10_000, stop_tol=fp[stop])
        tr = drs_run(f, g, params, x0)
        assert tr.status == "converged" and len(tr) == stop + 1
        _assert_plain(tr, f, g, params, x0)

    @pytest.mark.parametrize("how", ["limit", "stop", "cycle"])
    def test_x_final_is_a_writable_copy(self, how):
        f, g, fc = gen_lasso(ProblemSpec("lasso", 60, 40, rank=40, seed=7))
        lam = tune(fc, 1.0).lam
        params = {"limit": DrsParams(alpha=1.0, lam=lam, max_iters=20),
                  "stop": DrsParams(alpha=1.0, lam=lam, max_iters=10_000, stop_tol=1e-6),
                  "cycle": DrsParams(alpha=1.0, lam=lam, max_iters=10_000)}[how]
        tr = drs_run(f, g, params, np.zeros(40))
        assert tr.status == ("converged" if how == "stop" else "iteration-limit")
        assert tr.x_final.flags.writeable
        assert not np.shares_memory(tr.x_final, tr.x)
        _assert_plain(tr, f, g, params, np.zeros(40))

    def test_zero_dimensional_lambda(self):
        f, g, fc = gen_lasso(ProblemSpec("lasso", 60, 40, rank=40, seed=7))
        f, g = Counting(f), Counting(g)
        x0 = np.zeros(40)
        tr = drs_run(f, g, DrsParams(alpha=1.0, lam=np.array(1.5), max_iters=10_000), x0)
        assert f.calls < 10_000  # a constant: the cycle is replayed
        _assert_plain(tr, f.inner, g.inner, DrsParams(alpha=1.0, lam=1.5, max_iters=10_000), x0)
        mine = solve_reference(f.inner, g.inner, DrsParams(alpha=1.0, lam=np.array(1.5)), x0)
        theirs = solve_reference(f.inner, g.inner, DrsParams(alpha=1.0, lam=1.5), x0)
        assert mine[0].tobytes() == theirs[0].tobytes() and mine[2] == theirs[2]

    def test_memory_above_the_trace_is_one_matrix_product(self):
        # Case 1 of the benchmark's size: 10^4 rows of n = 100.  The trace
        # holds its x column and the scalar columns; above them the run
        # holds the 512-row z ring, one window's objective temporaries (the
        # soft threshold's 512 x 100 |z|, above the affine product's
        # 512 x 30) and the cycle check's dict of about 100 bytes per row:
        # nothing of the trace's length times n
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        params = DrsParams(alpha=1.0, max_iters=10_000)
        x0 = np.zeros(100)
        tracemalloc.start()
        try:
            tr = drs_run(f, g, params, x0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        x = tr.x.base.nbytes
        assert x <= held <= x + (1 << 19)
        assert peak <= x + 2 * 512 * 100 * 8 + 512 * 100 * 8 + 100 * 10_000 + (1 << 19)

    def test_walking_the_records_makes_no_column(self):
        # a record reads the held x row and scalar columns: a walk over 10^4
        # rows of n = 100 makes no prox call and holds no (k, n) array,
        # which would take 8 MB
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        f, g = Counting(f), Counting(g)
        tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=10_000), np.zeros(100))
        ran = f.calls, g.calls
        tracemalloc.start()
        try:
            for r in tr.records:
                assert r.x.shape == (100,)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tr.records) == 10_000
        assert peak < 1 << 16
        assert (f.calls, g.calls) == ran

    def test_reading_y_takes_the_prox_of_f_alone(self):
        # a read of y makes one prox of f per row, a read of z one of each
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        f, g = Counting(f), Counting(g)
        tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=500), np.zeros(100))
        for name, calls in (("y", (500, 0)), ("z", (500, 500))):
            ran = f.calls, g.calls
            assert getattr(tr, name).shape == (500, 100)
            assert (f.calls - ran[0], g.calls - ran[1]) == calls, name


def _objective_windows(f, g, at_f, at_g):
    """The window rule on the rows of f's and g's points: F on each aligned
    block of 512 rows, the last one the rows after the last full block."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [_objective(f, g, at_f[lo:lo + 512], at_g[lo:lo + 512])
                 for lo in range(0, len(at_f), 512)]
    return np.concatenate(parts)


def _assert_objective_per_window(tr, f, g, at=("z", "z")):
    """The objective column of a run without replay bitwise the window rule
    on the recomputed columns ``at`` (z for both functions in a drs_run,
    f(x) + g(z) in an admm_run)."""
    assert tr._replay is None
    cols = dict(zip(at, tr._column(*at)))
    expected = _objective_windows(f, g, cols[at[0]], cols[at[1]])
    assert tr.objective.tobytes() == expected.tobytes()


class TestBlockedObjective:
    """drs_run evaluates the objective during the loop, each aligned block
    of 512 rows once it is full and the rows after the last full block in
    one window, at run lengths around the block edges.  Every value is
    bitwise F on its window, the one rule, which holds on every
    BLAS kernel: a row's bits may depend on the rows around it in a matrix
    product, gemm or numpy's matrix-vector path (a one-row A) alike."""

    LENGTHS = [1, 511, 512, 513, 1023, 1024, 1025, 1537, 10_000]

    @pytest.mark.parametrize("k", LENGTHS)
    def test_affine_indicator(self, k):
        # basis pursuit: f is the affine indicator, and the run never cycles
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        f, g = Counting(f), Counting(g)
        tr = drs_run(f, g, DrsParams(alpha=1.0, max_iters=k), np.zeros(100))
        assert len(tr) == f.calls == k
        _assert_objective_per_window(tr, f.inner, g.inner)

    @pytest.mark.parametrize("k", LENGTHS)
    def test_quadratic_with_a_one_row_matrix(self, k):
        # p = 1 takes numpy's matrix-vector path.  On OpenBLAS 0.3.31's
        # SkylakeX kernel (not its Haswell one) row 1021 of the 1,023-row
        # run differs in the last bit from one evaluation on the whole
        # column; the values are the window rule's.  A lambda sequence is
        # never replayed, so every row is computed
        rng = np.random.default_rng(2)
        f = Counting(prox_quadratic(rng.standard_normal((1, 100)), rng.standard_normal(1)))
        g = Counting(prox_l1(1e-3))
        lam = np.linspace(1.0, 1.9, k)
        tr = drs_run(f, g, DrsParams(alpha=1.0, lam=lam, max_iters=k), rng.standard_normal(100))
        assert len(tr) == f.calls == k
        _assert_objective_per_window(tr, f.inner, g.inner)

    def test_lambda_sequence(self):
        # the Case-2 LASSO (a 60-row A, so gemm) under a varying lambda
        f, g, _ = TestCycleReplay._lasso(20)
        params = DrsParams(alpha=1.0, lam=np.linspace(0.5, 1.5, 1537), max_iters=1537)
        tr = drs_run(f, g, params, np.zeros(40))
        assert len(tr) == f.calls == 1537
        _assert_plain(tr, f.inner, g.inner, params, np.zeros(40))

    @pytest.mark.parametrize("stop", [1300, 2000])
    def test_early_stop_mid_block_after_the_rows_grow(self, stop):
        # rows start at 1,024 and double once; the run stops inside the
        # block of rows 1024-1535 or 1536-2047
        f, g, x0 = TestTraceStorage._slow_problem(n=20)
        fp = _plain_drs(f, g, DrsParams(alpha=1.0, max_iters=stop + 1), x0)[0]["fp_residual"]
        assert np.all(np.diff(fp) < 0)
        params = DrsParams(alpha=1.0, max_iters=10_000, stop_tol=fp[stop])
        tr = drs_run(f, g, params, x0)
        assert tr.status == "converged" and len(tr) == stop + 1
        _assert_plain(tr, f, g, params, x0)

    def test_cycle_across_a_block_edge(self):
        # the Case-2 LASSO repeats x_502 at iteration 570 on OpenBLAS's
        # SkylakeX kernel: the cycle spans the edge at row 512, and its
        # replay maps the held objective rows across every later edge
        f, g, lam = TestCycleReplay._lasso(20)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=3000)
        k, p = _plain_cycle(f.inner, g.inner, params, np.zeros(40))
        tr = drs_run(f, g, params, np.zeros(40))
        assert f.calls == k + 1 and tr.x[k - p].tobytes() == tr.x[k].tobytes()
        _assert_plain(tr, f.inner, g.inner, params, np.zeros(40))

    def test_no_objective_stops_the_windows(self):
        # the first window gives no value: the trace has no objective, and
        # no later window is evaluated
        calls = []

        class Opaque(Counting):
            def objective(self, x):
                calls.append(np.shape(x))
                return None

        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        tr = drs_run(f, Opaque(g), DrsParams(alpha=1.0, max_iters=1300), np.zeros(100))
        assert tr.objective is None and calls == [(512, 100)]


class TestAdmmRun:
    def test_zero_problem_is_stationary(self):
        tr = admm_run(prox_zero(), prox_zero(),
                      DrsParams(alpha=1.0, max_iters=3, stop_tol=0.0),
                      np.zeros(2))
        assert tr.fp_residual[0] == 0.0

    def test_unrelaxed_matches_textbook_updates_by_hand(self):
        # min 0.5 (x - 1)^2 + |z| with x = z, alpha = 1, lam = 1, from z0=u0=0:
        #   k=0: x = prox_f(0) = 0.5, z = soft(0.5, 1) = 0, u = 0.5
        #   k=1: x = prox_f(-0.5) = 0.25, z = soft(0.75, 1) = 0, u = 0.75
        f = prox_quadratic(np.eye(1), np.ones(1))
        g = prox_l1(1.0)
        tr = admm_run(f, g, DrsParams(alpha=1.0, lam=1.0, max_iters=2),
                      np.zeros(1))
        (x0, x1), (_, u1), (z0, z1) = tr.x, tr.y, tr.z
        assert x0[0] == pytest.approx(0.5, abs=1e-15)
        assert z0[0] == pytest.approx(0.0, abs=1e-15)
        assert u1[0] == pytest.approx(0.5, abs=1e-15)   # u entering step 1
        assert x1[0] == pytest.approx(0.25, abs=1e-15)
        assert z1[0] == pytest.approx(0.0, abs=1e-15)

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
        u_seq = tra.y[:, 0]

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
        dual_y = trd.y[:, 0]
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

    def test_nonfinite_iterate_reported_with_iteration(self):
        # x+ = -1e200 at k = 0; at k = 1 the prox overflows to -inf
        with pytest.raises(RuntimeError, match="non-finite x iterate at iteration 1"):
            admm_run(Exploding(), prox_zero(), DrsParams(alpha=1.0, max_iters=10),
                     np.array([1.0]))

    def test_stops_only_when_the_dual_residual_is_small_too(self):
        # min 0.5 (x - 1)^2 + 0: the first step has x+ = z+ = 0.5, a zero
        # primal residual, but z moved by 0.5; the minimizer is 1
        tr = admm_run(prox_quadratic(np.eye(1), np.ones(1)), prox_zero(),
                      DrsParams(alpha=1.0, lam=1.0, max_iters=200, stop_tol=1e-10),
                      np.zeros(1))
        assert tr.status == "converged"
        assert len(tr) > 1
        assert tr.x_final[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(tr.z[-1, 0] - tr.z[-2, 0]) <= 1e-10

    ITERS = 1000
    SCHEDULE = np.random.default_rng(0).uniform(0.5, 1.8, ITERS).tolist()

    @staticmethod
    def _problems():
        # LASSO at rank 20 (Case 2) and full rank (Case 3), and basis pursuit
        yield gen_lasso(ProblemSpec("lasso", 60, 40, rank=20, seed=7))[:2] + (40,)
        yield gen_lasso(ProblemSpec("lasso", 60, 40, rank=40, seed=7))[:2] + (40,)
        yield gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))[:2] + (100,)

    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.5, 1.7, "schedule"])
    def test_matches_the_plain_loop(self, lam):
        lam = self.SCHEDULE if lam == "schedule" else lam
        statuses = set()
        for f, g, n in self._problems():
            for alpha in (0.3, 1.0, 3.0):
                for tol in (0.0, 1e-8, 1e-12):
                    params = DrsParams(alpha=alpha, lam=lam, max_iters=self.ITERS, stop_tol=tol)
                    ref, status = _plain_admm(f, g, params, np.zeros(n))
                    _assert_admm_parity(admm_run(f, g, params, np.zeros(n)), ref, status)
                    statuses.add(status)
        assert statuses == {"converged", "iteration-limit"}

    @staticmethod
    def _rows_meeting_the_rule(tr, tol, alpha):
        """The rows whose stored primal residual and whose dual residual from
        the stored z column (z = 0 before row 0) are both <= tol."""
        z = tr.z
        d = np.vstack((z[:1], z[1:] - z[:-1]))
        dual = np.array([math.sqrt(np.dot(r, r)) for r in d]) / alpha
        return np.flatnonzero((tr.fp_residual <= tol) & (dual <= tol)).tolist()

    @pytest.mark.parametrize("lam", [0.6, 1.0, 1.5, 1.7, "schedule"])
    def test_converged_trace_ends_at_the_first_row_meeting_the_rule(self, lam):
        # down to rounding level, where the stored residuals decide: the
        # full-rank LASSO at alpha = 0.3, lam = 0.6 and 1e-14 has a dual
        # residual of 1.0285e-14 at row 543 and stops at row 544 (9.10e-15)
        lam = self.SCHEDULE if lam == "schedule" else lam
        statuses = set()
        for f, g, n in self._problems():
            for alpha in (0.03, 0.3, 1.0, 3.0):
                for tol in (1e-8, 1e-12, 1e-14, 1e-15):
                    params = DrsParams(alpha=alpha, lam=lam, max_iters=self.ITERS, stop_tol=tol)
                    tr = admm_run(f, g, params, np.zeros(n))
                    met = self._rows_meeting_the_rule(tr, tol, alpha)
                    assert met == ([len(tr) - 1] if tr.status == "converged" else []), \
                        (n, alpha, tol)
                    statuses.add(tr.status)
        assert statuses == {"converged", "iteration-limit"}

    def test_overflowing_objective_is_inf_without_a_warning(self):
        # f(x) = 0.5 ||x - 1e200||^2 overflows on every row; the objective is
        # evaluated inside the run's errstate
        f = prox_quadratic(np.eye(2), np.array([1e200, 1e200]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = admm_run(f, prox_zero(), DrsParams(alpha=1.0, lam=1.0, max_iters=5), np.zeros(2))
        assert len(tr) == 5 and tr.objective.tolist() == [math.inf] * 5

    def test_cycle_is_replayed(self):
        # the DRS form of a constant-lambda run cycles at rounding level, as
        # TestCycleReplay's Case-3 run does, and is replayed from there
        f, g, fc = gen_lasso(ProblemSpec("lasso", 60, 40, rank=40, seed=7))
        f, g = Counting(f), Counting(g)
        params = DrsParams(alpha=1.0, lam=tune(fc, 1.0).lam, max_iters=10_000)
        tr = admm_run(f, g, params, np.zeros(40))
        assert f.calls < 10_000 and g.calls < 10_000
        ref, status = _plain_admm(f.inner, g.inner, params, np.zeros(40))
        _assert_admm_parity(tr, ref, status)

    def test_cycling_run_stores_its_primal_residual_at_every_row(self):
        # the seed-0 Case-3 LASSO of the benchmark's certified_run pool: the
        # DRS form, from t_0 = lam x_0 + u_0, x_0 = prox_{af}(-u_0), computes
        # rows 0 .. k, row k its first repeat with period p (85 and 2 on
        # OpenBLAS's SkylakeX kernel), and maps the rest; every row's
        # residual is the one its stop test computed, mapped rows included.
        # x_final, z at the last row, a mapped one, is one more prox of g at
        # the last state
        f, g, _ = gen_lasso(ProblemSpec("lasso", 60, 40, rank=40, seed=1495516104))
        params, u0 = DrsParams(alpha=1.0, lam=2.0, max_iters=10_000), np.zeros(40)
        k, p = _plain_cycle(g, f, params, 2.0 * f.evaluate(-u0, 1.0) + u0)
        f, g = Counting(f), Counting(g)
        tr = admm_run(f, g, params, u0)
        assert len(tr) == 10_000 and (g.calls, f.calls) == (k + 2, k + 2)
        z = tr.z
        assert z[k:].tobytes() == z[k - p:-p].tobytes()
        assert tr.x_final.tobytes() == z[-1].tobytes()
        primal = [math.sqrt(np.dot(d, d)) for d in tr.x - z]
        assert tr.fp_residual.tobytes() == np.array(primal).tobytes()

    @pytest.mark.parametrize("case", ["lasso", "lasso, schedule", "basis pursuit"])
    def test_stop_costs_one_prox_of_g_per_row_and_one_more_of_f(self, case):
        # DRS on (g, f) tests the ADMM rule on each row as it computes it and
        # stops at the first row that meets it: one prox of g per row, and
        # one prox of f per row plus x_0's
        lasso = gen_lasso(ProblemSpec("lasso", 60, 40, rank=40, seed=7))[:2] + (40,)
        f, g, n, alpha, lam = {
            "lasso": lasso + (0.3, 1.5),
            "lasso, schedule": lasso + (1.0, [1.2, 1.7] * 500),
            "basis pursuit": gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))[:2]
            + (100, 1.0, 1.5),
        }[case]
        params = DrsParams(alpha=alpha, lam=lam, max_iters=1000, stop_tol=1e-8)
        ref, status = _plain_admm(f, g, params, np.zeros(n))
        f, g = Counting(f), Counting(g)
        tr = admm_run(f, g, params, np.zeros(n))
        ran = g.calls, f.calls  # before a column is read, which recomputes it
        assert status == "converged" and len(tr) < 1000
        assert ran == (len(tr), len(tr) + 1)
        _assert_admm_parity(tr, ref, status)

    def test_nonfinite_z_reported_with_admm_iteration(self):
        # x = -1, z = -0.9e200 at k = 0; at k = 1 the prox of g overflows
        for run in (_plain_admm, admm_run):
            with pytest.raises(RuntimeError, match="^non-finite z iterate at iteration 1$"):
                run(prox_zero(), Exploding(), DrsParams(alpha=1.0, lam=1.9, max_iters=10),
                    np.array([1.0]))

    def test_nonfinite_first_x_reported_at_iteration_0(self):
        # x = prox_f(-u0) = -1e400 overflows before the first DRS step
        for run in (_plain_admm, admm_run):
            with pytest.raises(RuntimeError, match="^non-finite x iterate at iteration 0$"):
                run(Exploding(), prox_zero(), DrsParams(alpha=1.0, max_iters=10),
                    np.array([1e200]))

    def test_overflowing_start_reported_without_a_warning(self):
        # x_0 = prox_f(-u0) = 1e308 is finite, but t_0 = 1.9 x_0 + u0 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (_plain_admm, admm_run):
                with pytest.raises(RuntimeError, match="^non-finite z iterate at iteration 0$"):
                    run(Exploding(), prox_zero(), DrsParams(alpha=1.0, lam=1.9, max_iters=5),
                        np.array([-1e108]))

    @pytest.mark.parametrize("k", TestBlockedObjective.LENGTHS)
    def test_objective_follows_the_window_rule(self, k):
        # f(x) + g(z) on each window of the x and z rings, at run lengths
        # around the block edges: basis pursuit (a gemm) at lam = 1.5, and
        # numpy's matrix-vector path (a one-row A) under a lambda sequence
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        tr = admm_run(f, g, DrsParams(alpha=1.0, lam=1.5, max_iters=k), np.zeros(100))
        assert len(tr) == k
        _assert_objective_per_window(tr, f, g, ("x", "z"))
        rng = np.random.default_rng(2)
        f = prox_quadratic(rng.standard_normal((1, 100)), rng.standard_normal(1))
        g = prox_l1(1e-3)
        lam = np.linspace(1.0, 1.9, k)
        tr = admm_run(f, g, DrsParams(alpha=1.0, lam=lam, max_iters=k), rng.standard_normal(100))
        assert len(tr) == k
        _assert_objective_per_window(tr, f, g, ("x", "z"))

    @pytest.mark.parametrize("stop", [511, 512, 513, 1024])
    def test_objective_of_an_early_stop_follows_the_window_rule(self, stop):
        # the slow quadratic of TestTraceStorage, stopped at row ``stop`` by
        # the larger of its primal and dual residuals there, taken from a
        # run without a stop test in the library's arithmetic
        f, g, u0 = TestTraceStorage._slow_problem()
        full = admm_run(f, g, DrsParams(alpha=1.0, max_iters=stop + 1), u0)
        z = np.vstack((np.zeros((1, 100)), full.z))
        dual = [math.sqrt(np.dot(d, d)) for d in z[1:] - z[:-1]]
        rule = np.maximum(full.fp_residual, dual)
        assert np.all(np.diff(rule) < 0)
        at_f, at_g = [], []
        tr = admm_run(Stacks(f, at_f), Stacks(g, at_g),
                      DrsParams(alpha=1.0, max_iters=10_000, stop_tol=rule[stop]), u0)
        assert tr.status == "converged" and len(tr) == stop + 1
        # each computed row is handed to each objective once
        assert sum(r for r, _ in at_f) == sum(r for r, _ in at_g) == len(tr._t) == stop + 1
        _assert_objective_per_window(tr, f, g, ("x", "z"))

    def test_memory_above_the_trace_is_the_buffers_and_one_block(self):
        # basis pursuit, 10^4 rows of n = 100: the trace holds the DRS state
        # column t (with its row for t_{10^4}) and the scalar columns; above
        # them the run holds ADMM's x and z rings of 512 rows each, one
        # window's objective temporaries (the soft threshold's 512 x 100 |z|)
        # and the cycle check's dict of about 100 bytes per row: no x, u or
        # z column
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        params = DrsParams(alpha=1.0, max_iters=10_000)
        u0 = np.zeros(100)
        tracemalloc.start()
        try:
            tr = admm_run(f, g, params, u0)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tr) == 10_000 and tr.status == "iteration-limit"
        t = 10_001 * 100 * 8
        assert t <= held <= 1.05 * t + (1 << 20)
        assert peak - held <= 2 * (2 * 512 * 100 * 8) + 512 * 100 * 8 + 100 * 10_000 + (1 << 19)

    def test_early_stop_past_4096_rows_holds_only_the_state(self):
        # the slow quadratic of TestTraceStorage: ADMM stops after 4,096 rows,
        # so the rows grow three times; the trace holds the state column, and
        # the peak is the columns at their last capacity, the two rings, one
        # 512-row product of the quadratic objective and the cycle dict
        n = 100
        s = math.sqrt(3.7e-3)
        f, g = prox_quadratic(s * np.eye(n), s * np.ones(n)), prox_zero()
        params = DrsParams(alpha=1.0, max_iters=10_000, stop_tol=1e-9)
        tracemalloc.start()
        try:
            tr = admm_run(f, g, params, np.zeros(n))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        k = len(tr)
        assert tr.status == "converged" and 4096 < k < 10_000
        t = (k + 1) * n * 8
        assert t <= held <= 1.05 * t + (1 << 20)
        cap = 1024 << math.ceil(math.log2(k / 1024))
        columns = (cap + 1) * n * 8 + 2 * cap * 8
        assert peak <= columns + 2 * (2 * 512 * n * 8) + 512 * n * 8 + 100 * k + (1 << 20)

    def test_reading_a_column_recomputes_it_from_the_state(self):
        # the DRS loop is on (g, f): a read of x makes len - 1 proxes of each
        # (row 0 is x_0), of u = y len - 1 of g alone (row 0 is u_0), and of
        # z len of g alone
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        f, g = Counting(f), Counting(g)
        tr = admm_run(f, g, DrsParams(alpha=1.0, max_iters=500), np.zeros(100))
        for name, calls in (("x", (499, 499)), ("y", (0, 499)), ("z", (0, 500))):
            ran = f.calls, g.calls
            assert getattr(tr, name).shape == (500, 100)
            assert (f.calls - ran[0], g.calls - ran[1]) == calls, name

    def test_reading_x_u_and_z_together_computes_each_row_once(self):
        # one pass makes each DRS y (the prox of g) once, and each DRS z
        # (the prox of f) once for x's rows 1 .. len - 1
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        f, g = Counting(f), Counting(g)
        tr = admm_run(f, g, DrsParams(alpha=1.0, max_iters=1000), np.zeros(100))
        ran = f.calls, g.calls
        together = tr._column("x", "y", "z")
        assert (f.calls - ran[0], g.calls - ran[1]) == (999, 1000)
        for name, col in zip("xyz", together):
            assert col.tobytes() == getattr(tr, name).tobytes(), name
            assert not col.flags.writeable

    def test_lyapunov_series_reads_x_once(self):
        # the size check reads the held state, and the distances one
        # recomputed x: len - 1 proxes of each
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        f, g = Counting(f), Counting(g)
        tr = admm_run(f, g, DrsParams(alpha=1.0, max_iters=500), np.zeros(100))
        ran = f.calls, g.calls
        V = lyapunov_series(tr, "case3", None, np.ones(100))
        assert (f.calls - ran[0], g.calls - ran[1]) == (499, 499)
        assert V.tobytes() == np.sum((tr.x - 1.0) ** 2, axis=1).tobytes()

    def test_walking_the_records_recomputes_x_once(self):
        # making the view and taking its length read no column; the first
        # row read recomputes x, and no later one does
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        f, g = Counting(f), Counting(g)
        tr = admm_run(f, g, DrsParams(alpha=1.0, max_iters=500), np.zeros(100))
        x = tr.x
        ran = f.calls, g.calls
        records = tr.records
        assert len(records) == 500 and (f.calls, g.calls) == ran
        for r in records:
            assert r.x.tobytes() == x[r.k].tobytes()
        assert (f.calls - ran[0], g.calls - ran[1]) == (499, 499)


class TestFloatingPointState:
    """Each run sets numpy's floating-point error handling once, for the
    whole loop, and leaves it as it found it, also when it raises."""

    RUNS = {"drs_run": drs_run, "admm_run": admm_run, "solve_reference": solve_reference}

    @pytest.mark.parametrize("name", RUNS)
    def test_errstate_entered_once_per_run(self, name, monkeypatch):
        f, g = prox_quadratic(np.eye(3), np.ones(3)), prox_l1(0.5)
        f.evaluate(np.zeros(3), 1.0)  # the prox's per-alpha cache
        entered = []
        errstate = np.errstate

        def counting(**kwargs):
            entered.append(kwargs)
            return errstate(**kwargs)

        monkeypatch.setattr(np, "errstate", counting)
        self.RUNS[name](f, g, DrsParams(alpha=1.0, max_iters=200), np.array([3.0, -2.0, 0.1]))
        assert len(entered) == 1

    @pytest.mark.parametrize("name", RUNS)
    def test_huge_start_warns_nothing(self, name):
        # ||x0||^2 overflows: the running bound starts at inf, inside errstate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.RUNS[name](prox_zero(), prox_l1(1.0), DrsParams(alpha=1.0, max_iters=5),
                                  np.array([1e200]))
        if name == "solve_reference":
            assert out[0].tolist() == [1e200] and out[2] == 1e200
        else:
            assert out.status == "converged"

    @pytest.mark.parametrize("name", RUNS)
    def test_settings_restored(self, name):
        before = np.geterr()
        self.RUNS[name](prox_quadratic(np.eye(2), np.ones(2)), prox_l1(0.5),
                        DrsParams(alpha=1.0, max_iters=20), np.array([3.0, -2.0]))
        assert np.geterr() == before
        with pytest.raises(RuntimeError, match="non-finite"):
            self.RUNS[name](Exploding(), prox_zero(), DrsParams(alpha=1.0, max_iters=10),
                            np.array([1.0]))
        assert np.geterr() == before


class TestStartIsAVector:
    """Each run refuses a start that is not 1-D, naming it and its shape."""

    RUNS = {"drs_run": ("x0", drs_run), "admm_run": ("u0", admm_run),
            "solve_reference": ("x0", solve_reference)}

    @pytest.mark.parametrize("name", RUNS)
    @pytest.mark.parametrize("shape", [(), (2, 2), (3, 1), (1, 3)])
    def test_non_vector_start_refused(self, name, shape):
        arg, run = self.RUNS[name]
        message = re.escape(f"{arg} must be a 1-D vector, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(prox_zero(), prox_l1(1.0), DrsParams(alpha=1.0, max_iters=5), np.ones(shape))

    @pytest.mark.parametrize("name", RUNS)
    def test_list_start_accepted(self, name):
        out = self.RUNS[name][1](prox_zero(), prox_l1(1.0), DrsParams(alpha=1.0, max_iters=50),
                                 [3.0, -0.5])
        x = out[0] if name == "solve_reference" else out.x_final
        assert x.shape == (2,)


class TestLyapunovSeries:
    ALPHA = 1.0

    def _trace(self):
        rng = np.random.default_rng(6)
        f = prox_quadratic(rng.standard_normal((5, 5)), rng.standard_normal(5))
        g = prox_l1(0.5)
        p = DrsParams(alpha=self.ALPHA, lam=1.0, max_iters=400)
        x0 = rng.standard_normal(5)
        tr = drs_run(f, g, p, x0)
        x_star, _, F_star = solve_reference(f, g, p, x0)
        return tr, x_star, F_star

    def test_zero_theta_reduces_to_distance(self):
        tr, x_star, _ = self._trace()
        V = lyapunov_series(tr, "case1", 0.0, x_star)
        dist = [np.sum((x - x_star) ** 2) for x in tr.x]
        assert np.allclose(V, dist, atol=0.0)

    def test_case1_running_sum(self):
        tr, x_star, _ = self._trace()
        theta = 0.7
        V = lyapunov_series(tr, "case1", theta, x_star)
        k = 5
        expected = np.sum((tr.x[k] - x_star) ** 2) + theta * sum(
            (tr.fp_residual[i] / self.ALPHA) ** 2 for i in range(k))
        assert V[k] == pytest.approx(expected, rel=1e-12)

    def test_case2_needs_f_star(self):
        tr, x_star, _ = self._trace()
        with pytest.raises(ValueError):
            lyapunov_series(tr, "case2", 1.0, x_star)

    def test_case2_needs_an_objective_column(self):
        # the box projection has no objective: the trace has no objective
        # column, objectives() is NaN throughout and Case 2 is refused
        tr = drs_run(prox_quadratic(np.eye(2), np.ones(2)), BoxClip(),
                     DrsParams(alpha=1.0, max_iters=5), np.zeros(2))
        assert tr.objective is None
        assert tr.objectives().shape == (5,) and np.isnan(tr.objectives()).all()
        with pytest.raises(ValueError, match="^the trace has no objective column: "
                                             "f or g is not evaluable$"):
            lyapunov_series(tr, "case2", 1.0, np.zeros(2), F_star=0.0)

    def test_case2_running_sum(self):
        tr, x_star, F_star = self._trace()
        theta = 0.3
        V = lyapunov_series(tr, "case2", theta, x_star, F_star=F_star)
        k = 7
        expected = np.sum((tr.x[k] - x_star) ** 2) + theta * sum(
            tr.objective[i] - F_star for i in range(k))
        assert V[k] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("case", ["case1", "case3"])
    def test_distance_bitwise_equal_to_the_squared_difference(self, case):
        tr, x_star, _ = self._trace()
        V = lyapunov_series(tr, case, 0.0, x_star)
        assert V.tobytes() == np.sum((tr.x - x_star) ** 2, axis=1).tobytes()

    def test_case3_is_distance(self):
        tr, x_star, _ = self._trace()
        V = lyapunov_series(tr, "case3", None, x_star)
        assert V[0] == pytest.approx(np.sum((tr.x[0] - x_star) ** 2))

    @pytest.mark.parametrize("iters", [511, 512, 513, 1025])
    @pytest.mark.parametrize("case", ["case1", "case2", "case3"])
    def test_blocks_bitwise_equal_to_the_whole_trace(self, iters, case):
        rng = np.random.default_rng(iters)
        f = prox_quadratic(rng.standard_normal((5, 5)), rng.standard_normal(5))
        params = DrsParams(alpha=1.0, lam=1.3, max_iters=iters)
        tr = drs_run(f, prox_l1(0.5), params, rng.standard_normal(5))
        x_star, F_star = rng.standard_normal(5), -1.0
        theta = np.linspace(0.1, 1.0, iters)
        V = lyapunov_series(tr, case, theta, x_star, F_star=F_star)
        expected = np.sum(np.square(tr.x - x_star), axis=1)
        if case != "case3":
            # a run that reaches ||z - y|| = 0 exactly stops early (row 50 of
            # the 512-row run on OpenBLAS's Haswell kernel): the library
            # reads as many theta entries as the trace has rows
            incr = theta[:len(tr)] * ((tr.fp_residual / params.alpha) ** 2 if case == "case1"
                                      else tr.objective - F_star)
            expected = expected + np.concatenate(([0.0], np.cumsum(incr)[:-1]))
        assert V.tobytes() == expected.tobytes()

    def test_memory_is_the_output_and_one_block(self):
        rng = np.random.default_rng(2)
        n, m = 10_000, 100
        X = rng.standard_normal((n, m))
        fp = rng.uniform(0.0, 1.0, n)
        tr = Trace(X, fp, fp, _ops=(None, None, 1.0))  # (f, g, alpha): alpha alone is read
        for case, theta in (("case1", 0.5), ("case2", 0.5), ("case3", None)):
            tracemalloc.start()
            try:
                V = lyapunov_series(tr, case, theta, np.zeros(m), F_star=0.0)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held >= V.nbytes
            assert peak - V.nbytes < 1 << 20, case

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_short_theta_names_both_lengths(self, case):
        tr, x_star, F_star = self._trace()
        with pytest.raises(ValueError, match=f"^theta has 399 entries for a trace of {len(tr)} iterations$"):
            lyapunov_series(tr, case, np.ones(399), x_star, F_star=F_star)

    @pytest.mark.parametrize("case", ["case1", "case2", "case3"])
    def test_x_star_of_another_size_names_both(self, case):
        tr, x_star, F_star = self._trace()
        with pytest.raises(ValueError, match="^x_star has 4 entries but the iterates have 5$"):
            lyapunov_series(tr, case, 1.0, x_star[:4], F_star=F_star)

    def test_theta_schedule(self):
        tr, x_star, _ = self._trace()
        thetas = np.linspace(0.1, 1.0, len(tr))
        V = lyapunov_series(tr, "case1", thetas, x_star)
        expected = np.sum((tr.x[2] - x_star) ** 2) + sum(
            thetas[i] * (tr.fp_residual[i] / self.ALPHA) ** 2 for i in range(2))
        assert V[2] == pytest.approx(expected, rel=1e-12)


class TestSolveReference:
    def test_iteration_cap_reached_names_the_cap(self, monkeypatch):
        # the slow quadratic needs about 23,000 iterations and does not cycle
        monkeypatch.setattr(splitting, "_REFERENCE_ITERS", 50)
        f, g, x0 = TestTraceStorage._slow_problem(n=3)
        with pytest.raises(RuntimeError, match=r"^reference solve did not reach "
                           r"\|\|z - y\|\| <= 1e-12 in 50 iterations; increase the "
                           r"iteration cap$"):
            solve_reference(f, g, DrsParams(alpha=1.0, max_iters=1), x0)

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
        params = DrsParams(alpha=1.0, max_iters=5)
        tr = drs_run(f, g, params, np.ones(2))
        V = lyapunov_series(tr, "case1", 1.0, np.zeros(2))
        out = tmp_path / "trace.csv"
        write_trace_csv(tr, out, lyapunov=V)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "fp_residual", "subgrad_residual", "objective", "V"]
        assert len(rows) == 6
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert float(row[1]) == tr.fp_residual[i]
            assert float(row[2]) == tr.fp_residual[i] / params.alpha
            assert float(row[3]) == tr.objective[i]
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

    @pytest.mark.parametrize("evaluable", [True, False])
    @pytest.mark.parametrize("with_v", [True, False])
    def test_bytes_match_the_csv_module(self, tmp_path, evaluable, with_v):
        class Opaque(ProxOperator):
            def __init__(self):
                self.function_class = FunctionClass(0.0, math.inf)

            def evaluate(self, v, alpha):
                return 0.5 * v

        rng = np.random.default_rng(21)
        f = prox_quadratic(rng.standard_normal((3, 3)), rng.standard_normal(3))
        # the quadratic run keeps more rows than the writer formats in one block
        params = DrsParams(alpha=0.9, max_iters=5000)
        tr = drs_run(f if evaluable else Opaque(), prox_l1(0.2), params, rng.standard_normal(3))
        assert (tr.objective is None) is not evaluable
        V = None
        if with_v:
            V = np.geomspace(1e-300, 1e300, len(tr)) * (-1.0) ** np.arange(len(tr))
            V[[1, 2, 3]] = np.nan, np.inf, -0.0
            # zeros of both signs, a NaN of another bit pattern, and repeats,
            # which share one repr per bit pattern
            V[[4, 5, 6, 7, 8, 9]] = 0.0, -0.0, -np.nan, 0.0, V[0], V[0]
        out = tmp_path / "trace.csv"
        write_trace_csv(tr, out, lyapunov=V)

        def cell(column, k):
            return "" if column is None else repr(float(column[k]))

        expected = io.StringIO(newline="")
        w = csv.writer(expected)
        w.writerow(["k", "fp_residual", "subgrad_residual", "objective", "V"])
        for k in range(len(tr)):
            w.writerow([k, cell(tr.fp_residual, k), cell(tr.fp_residual / params.alpha, k),
                        cell(tr.objective, k), cell(V, k)])
        assert out.read_bytes() == expected.getvalue().encode()

    def test_short_lyapunov_names_both_lengths(self, tmp_path):
        tr = drs_run(prox_quadratic(np.eye(2), np.zeros(2)), prox_l1(1.0),
                     DrsParams(alpha=1.0, max_iters=5), np.ones(2))
        with pytest.raises(ValueError, match="^lyapunov has 4 values for a trace of 5 iterations$"):
            write_trace_csv(tr, tmp_path / "trace.csv", lyapunov=np.zeros(4))

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
            assert float(row[1]) == tr.fp_residual[i]


class TestDerivedResidual:
    """The residual ||df(y) + dg(z)|| is not held: the CSV, the Case-1
    Lyapunov values and the records derive it from the trace's alpha, bit for
    bit fp_residual / alpha.  At alpha = 1 that is fp itself, so alpha != 1."""

    ALPHAS = [0.3, 3.0]

    @staticmethod
    def _trace(run, alpha):
        f, g, _ = gen_lasso(ProblemSpec("lasso", 60, 40, rank=20, seed=7))
        return run(f, g, DrsParams(alpha=alpha, lam=1.5, max_iters=300), np.zeros(40))

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("run", [drs_run, admm_run])
    def test_csv_column(self, tmp_path, run, alpha):
        tr = self._trace(run, alpha)
        write_trace_csv(tr, tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", newline="") as fh:
            column = [float(row[2]) for row in list(csv.reader(fh))[1:]]
        assert np.array(column).tobytes() == (tr.fp_residual / alpha).tobytes()

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("schedule", [False, True])
    def test_lyapunov_case1(self, alpha, schedule):
        tr = self._trace(drs_run, alpha)
        theta = np.linspace(0.1, 1.0, len(tr)) if schedule else 0.7
        x_star = np.ones(40)
        V = lyapunov_series(tr, "case1", theta, x_star)
        incr = theta * (tr.fp_residual / alpha) ** 2
        expected = np.sum(np.square(tr.x - x_star), axis=1) + np.concatenate(
            ([0.0], np.cumsum(incr)[:-1]))
        assert V.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("run", [drs_run, admm_run])
    def test_records(self, run, alpha):
        tr = self._trace(run, alpha)
        derived = [r.subgrad_residual for r in tr.records]
        assert np.array(derived).tobytes() == (tr.fp_residual / alpha).tobytes()
