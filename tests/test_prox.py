"""Closed-form proximal operators and subgradient recovery."""

import math

import numpy as np
import pytest

from drsplit import (
    prox_affine_indicator,
    prox_l1,
    prox_quadratic,
    prox_zero,
    recover_subgradient,
)


class TestSoftThreshold:
    def test_above_threshold(self):
        assert np.array_equal(prox_l1(1.0).evaluate(np.array([2.0]), 1.0), [1.0])

    def test_dead_zone(self):
        assert np.array_equal(prox_l1(1.0).evaluate(np.array([0.5]), 1.0), [0.0])

    def test_threshold_scales_with_alpha(self):
        out = prox_l1(0.5).evaluate(np.array([-3.0, 0.2]), 2.0)
        assert np.array_equal(out, [-2.0, 0.0])

    def test_objective(self):
        assert prox_l1(0.1).objective(np.array([1.0, -2.0])) == pytest.approx(0.3)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            prox_l1(0.0)


class TestAffineProjection:
    def test_coordinate_hyperplane(self):
        op = prox_affine_indicator(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert np.allclose(op.evaluate(np.zeros(2), 1.0), [1.0, 0.0], atol=1e-14)

    def test_square_system_returns_b(self):
        b = np.array([2.0, -1.0, 0.5])
        op = prox_affine_indicator(np.eye(3), b)
        assert np.allclose(op.evaluate(np.array([9.0, 9.0, 9.0]), 3.0), b, atol=1e-12)

    def test_symmetric_projection(self):
        op = prox_affine_indicator(np.array([[1.0, 1.0]]), np.array([2.0]))
        assert np.allclose(op.evaluate(np.zeros(2), 1.0), [1.0, 1.0], atol=1e-14)

    def test_alpha_independent(self):
        rng = np.random.default_rng(5)
        op = prox_affine_indicator(rng.standard_normal((3, 7)), rng.standard_normal(3))
        v = rng.standard_normal(7)
        assert np.array_equal(op.evaluate(v, 0.1), op.evaluate(v, 10.0))

    def test_rank_deficient_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValueError):
            prox_affine_indicator(A, np.array([1.0, 2.0]))

    def test_objective_is_indicator(self):
        op = prox_affine_indicator(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert op.objective(np.array([1.0, 5.0])) == 0.0
        assert op.objective(np.array([2.0, 0.0])) == math.inf

    def test_ill_conditioned_projection_is_feasible(self):
        # cond(A A^T) = 1e8: singular values of A from 1 down to 1e-4
        rng = np.random.default_rng(12)
        p, n = 20, 50
        U, _ = np.linalg.qr(rng.standard_normal((p, p)))
        V, _ = np.linalg.qr(rng.standard_normal((n, p)))
        A = (U * np.logspace(0, -4, p)) @ V.T
        assert np.linalg.cond(A @ A.T) == pytest.approx(1e8, rel=1e-3)
        b = rng.standard_normal(p)
        op = prox_affine_indicator(A, b)
        for _ in range(20):
            y = op.evaluate(10.0 * rng.standard_normal(n), 1.0)
            assert np.linalg.norm(A @ y - b) <= op._feas_tol

    def test_more_rows_than_columns_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            prox_affine_indicator(rng.standard_normal((4, 3)), rng.standard_normal(4))


class TestQuadraticProx:
    def test_shrinkage(self):
        op = prox_quadratic(np.eye(1), np.zeros(1))
        assert np.allclose(op.evaluate(np.array([4.0]), 1.0), [2.0], atol=1e-14)

    def test_shift_toward_b(self):
        op = prox_quadratic(np.eye(1), np.array([3.0]))
        assert np.allclose(op.evaluate(np.array([0.0]), 2.0), [2.0], atol=1e-14)

    def test_scaled_row(self):
        op = prox_quadratic(np.array([[2.0]]), np.array([1.0]))
        assert np.allclose(op.evaluate(np.array([0.0]), 1.0), [0.4], atol=1e-14)

    def test_objective(self):
        op = prox_quadratic(np.array([[1.0, 0.0]]), np.array([2.0]))
        assert op.objective(np.array([0.0, 7.0])) == pytest.approx(2.0)

    def test_factorization_cached_per_alpha(self):
        rng = np.random.default_rng(1)
        op = prox_quadratic(rng.standard_normal((5, 4)), rng.standard_normal(5))
        for _ in range(10):
            op.evaluate(rng.standard_normal(4), 0.5)
        assert len(op._cho_cache) == 1
        op.evaluate(rng.standard_normal(4), 1.5)
        assert len(op._cho_cache) == 2

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        op = prox_quadratic(rng.standard_normal((4, 4)), rng.standard_normal(4))
        v = rng.standard_normal(4)
        assert np.array_equal(op.evaluate(v, 0.7), op.evaluate(v, 0.7))


class TestZeroProx:
    def test_identity(self):
        op = prox_zero()
        assert np.array_equal(op.evaluate(np.array([1.0, 2.0]), 5.0), [1.0, 2.0])
        assert np.array_equal(op.evaluate(np.array([0.0]), 1.0), [0.0])
        assert op.objective(np.array([3.0])) == 0.0


class TestStackedObjective:
    """objective over a (k, n) stack equals the objective at each row."""

    @pytest.mark.parametrize("make_op", [
        lambda rng: prox_l1(0.7),
        lambda rng: prox_quadratic(rng.standard_normal((5, 6)), rng.standard_normal(5)),
        lambda rng: prox_affine_indicator(rng.standard_normal((2, 6)),
                                          rng.standard_normal(2)),
        lambda rng: prox_zero(),
    ])
    def test_rows_match_points(self, make_op):
        rng = np.random.default_rng(14)
        op = make_op(rng)
        Z = rng.standard_normal((9, 6))
        Z[::2] = [op.evaluate(z, 1.0) for z in Z[::2]]  # feasible rows for the indicator
        stacked = op.objective(Z)
        points = np.array([op.objective(z) for z in Z])
        assert stacked.shape == (9,)
        np.testing.assert_allclose(stacked, points, rtol=1e-12, atol=0.0)
        if op.objective(Z[1]) == math.inf:
            assert set(stacked.tolist()) == {0.0, math.inf}


class TestProxOptimality:
    """y = prox(v) minimizes f(u) + ||v - u||^2 / (2 alpha)."""

    @pytest.mark.parametrize("make_op,dim", [
        (lambda rng: prox_l1(0.7), 6),
        (lambda rng: prox_quadratic(rng.standard_normal((5, 6)),
                                    rng.standard_normal(5)), 6),
        (lambda rng: prox_affine_indicator(rng.standard_normal((2, 6)),
                                           rng.standard_normal(2)), 6),
    ])
    def test_no_perturbation_improves(self, make_op, dim):
        rng = np.random.default_rng(8)
        op = make_op(rng)
        alpha = 0.9
        v = rng.standard_normal(dim)
        y = op.evaluate(v, alpha)
        best = op.objective(y) + np.sum((v - y) ** 2) / (2 * alpha)
        for _ in range(1000):
            u = y + 0.3 * rng.standard_normal(dim)
            val = op.objective(u) + np.sum((v - u) ** 2) / (2 * alpha)
            assert val >= best - 1e-10


class TestRecoverSubgradient:
    def test_l1_example(self):
        op = prox_l1(1.0)
        v = np.array([2.0])
        y = op.evaluate(v, 1.0)
        assert np.allclose(recover_subgradient(op, v, y, 1.0), [1.0], atol=1e-14)

    def test_zero_prox(self):
        op = prox_zero()
        v = np.array([3.0, -1.0])
        y = op.evaluate(v, 2.0)
        assert np.array_equal(recover_subgradient(op, v, y, 2.0), [0.0, 0.0])

    def test_quadratic_gradient(self):
        op = prox_quadratic(np.eye(1), np.zeros(1))
        v = np.array([4.0])
        y = op.evaluate(v, 1.0)
        assert np.allclose(recover_subgradient(op, v, y, 1.0), [2.0], atol=1e-14)

    @pytest.mark.parametrize("make_op,dim", [
        (lambda rng: prox_l1(0.4), 5),
        (lambda rng: prox_quadratic(rng.standard_normal((6, 5)),
                                    rng.standard_normal(6)), 5),
    ])
    def test_subgradient_inequality(self, make_op, dim):
        # f(u) >= f(y) + <s, u - y> for the recovered subgradient s
        rng = np.random.default_rng(21)
        op = make_op(rng)
        alpha = 1.3
        v = rng.standard_normal(dim)
        y = op.evaluate(v, alpha)
        s = recover_subgradient(op, v, y, alpha)
        fy = op.objective(y)
        for _ in range(1000):
            u = rng.standard_normal(dim) * 2.0
            assert op.objective(u) >= fy + s @ (u - y) - 1e-10


class TestFirmNonexpansiveness:
    @pytest.mark.parametrize("make_op,dim", [
        (lambda rng: prox_l1(1.0), 4),
        (lambda rng: prox_quadratic(rng.standard_normal((4, 4)),
                                    rng.standard_normal(4)), 4),
        (lambda rng: prox_affine_indicator(rng.standard_normal((2, 4)),
                                           rng.standard_normal(2)), 4),
        (lambda rng: prox_zero(), 4),
    ])
    def test_sampled(self, make_op, dim):
        rng = np.random.default_rng(33)
        op = make_op(rng)
        for alpha in (0.2, 1.0, 5.0):
            for _ in range(50):
                v, w = rng.standard_normal((2, dim))
                dp = op.evaluate(v, alpha) - op.evaluate(w, alpha)
                assert dp @ dp <= (v - w) @ dp + 1e-10
