"""Closed-form proximal operators and the subgradients they imply."""

import math
import tracemalloc

import numpy as np
import pytest

from drsplit import (
    prox_affine_indicator,
    prox_l1,
    prox_quadratic,
    prox_zero,
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

    @pytest.mark.parametrize("gamma, alpha", [(1.0, 1.0), (0.3, 0.7), (2.5e-310, 1.0)])
    def test_bitwise_equal_to_sign_times_shrunk_magnitude(self, gamma, alpha):
        # copysign(shrunk, v) would give -0.0 at v = -0.0, where sign(v) is +0.0
        t = alpha * gamma
        edges = [0.0, t, np.nextafter(t, 0.0), np.nextafter(t, math.inf), 1.0 + t,
                 math.inf, 5e-324, 2.2e-308, np.nextafter(2.2e-308, 0.0)]
        v = np.concatenate((edges, np.negative(edges),
                            np.random.default_rng(11).standard_normal(10_000) * 3 * t))
        expected = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert prox_l1(gamma).evaluate(v, alpha).tobytes() == expected.tobytes()


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
        v = rng.standard_normal(4)
        first = op.evaluate(v, 0.5)
        cached = op._inverse_cache
        for _ in range(10):
            op.evaluate(rng.standard_normal(4), 0.5)
        assert op._inverse_cache is cached
        op.evaluate(rng.standard_normal(4), 1.5)
        assert op._inverse_cache[0] == 1.5  # the second alpha replaces the first
        assert op.evaluate(v, 0.5).tobytes() == first.tobytes()
        assert op._inverse_cache[0] == 0.5

    def test_many_alphas_hold_one_factor(self):
        # one 300 x 300 factor is 0.69 MiB; a factor per alpha held 40 of them
        n = 300
        rng = np.random.default_rng(3)
        op = prox_quadratic(rng.standard_normal((n, n)), rng.standard_normal(n))
        v = rng.standard_normal(n)
        tracemalloc.start()
        try:
            for alpha in np.linspace(0.1, 4.0, 40):
                op.evaluate(v, alpha)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        factor = n * (n + 1) * 8
        assert factor <= held < 2 * factor

    def test_first_evaluate_holds_one_factor(self):
        # A^T A and A^T b are formed for the factor and not kept: the
        # operator holds A, b (made outside the count) and the one factor
        n = 600
        rng = np.random.default_rng(4)
        A, b = rng.standard_normal((60, n)), rng.standard_normal(60)
        tracemalloc.start()
        try:
            op = prox_quadratic(A, b)
            op.evaluate(np.zeros(n), 1.0)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= n * n * 8 + (1 << 20)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        op = prox_quadratic(rng.standard_normal((4, 4)), rng.standard_normal(4))
        v = rng.standard_normal(4)
        assert np.array_equal(op.evaluate(v, 0.7), op.evaluate(v, 0.7))


@pytest.mark.parametrize("make_op", [prox_affine_indicator, prox_quadratic])
@pytest.mark.parametrize("A, b", [
    (np.ones(3), np.ones(1)),
    (np.ones((2, 3)), np.ones(3)),
    (np.ones((2, 3)), np.ones((2, 1))),
])
def test_system_of_another_shape_refused(make_op, A, b):
    with pytest.raises(ValueError, match="^A must be p x n and b length p$"):
        make_op(A, b)


@pytest.mark.parametrize("make_op", [prox_affine_indicator, prox_quadratic])
@pytest.mark.parametrize("name, where, value", [
    ("A", (1, 2), math.nan),
    ("A", (0, 3), math.inf),
    ("b", 1, math.nan),
])
def test_non_finite_system_refused_by_name(make_op, name, where, value):
    # without the check, NaN or inf in A read as a rank-deficient A or
    # overflowed in A^T A, and NaN in b built an operator whose first
    # iterate was non-finite
    rng = np.random.default_rng(5)
    system = {"A": rng.standard_normal((3, 6)), "b": rng.standard_normal(3)}
    system[name][where] = value
    with pytest.raises(ValueError, match=f"^{name} has a non-finite entry \\(NaN or inf\\)$"):
        make_op(system["A"], system["b"])


class TestMatrixProductForm:
    """evaluate is bitwise the prox written with ``@`` on the cached factors."""

    @pytest.mark.parametrize("n", [4, 40, 100])
    def test_affine_projection(self, n):
        rng = np.random.default_rng(n)
        p = n // 3 + 1
        op = prox_affine_indicator(rng.standard_normal((p, n)), rng.standard_normal(p))
        for v in rng.standard_normal((50, n)) * 10.0 ** rng.integers(-5, 6, (50, 1)):
            expected = v - op._Q @ (v @ op._Q - op._c)
            assert op.evaluate(v, 1.0).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [4, 40, 100])
    def test_quadratic(self, n):
        rng = np.random.default_rng(n)
        op = prox_quadratic(rng.standard_normal((n + 20, n)), rng.standard_normal(n + 20))
        for alpha in (0.3, 1.0):
            inverse, offset = op._factor(alpha)
            for v in rng.standard_normal((50, n)) * 10.0 ** rng.integers(-5, 6, (50, 1)):
                assert op.evaluate(v, alpha).tobytes() == (inverse @ v + offset).tobytes()


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


class TestStackedObjectiveInPlace:
    """objective over a stack is bitwise the whole-stack expression with its
    temporaries, at row counts on both sides of splitting's 512-row
    objective window."""

    ROWS = [1, 511, 512, 513, 10_000]

    @pytest.mark.parametrize("rows", ROWS)
    def test_soft_threshold(self, rows):
        rng = np.random.default_rng(rows)
        op = prox_l1(0.7)
        Z = rng.standard_normal((rows, 40)) * 10.0 ** rng.integers(-5, 6, (rows, 1))
        Z[0, :3] = -0.0, np.inf, 5e-324
        expected = op.gamma * np.sum(np.abs(Z), axis=-1)
        assert op.objective(Z).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", ROWS)
    def test_quadratic(self, rows):
        rng = np.random.default_rng(rows)
        op = prox_quadratic(rng.standard_normal((60, 40)), rng.standard_normal(60))
        Z = rng.standard_normal((rows, 40)) * 10.0 ** rng.integers(-5, 6, (rows, 1))
        r = Z @ op.A.T - op.b
        assert op.objective(Z).tobytes() == (0.5 * np.sum(r * r, axis=-1)).tobytes()

    @pytest.mark.parametrize("rows", ROWS)
    def test_affine_indicator(self, rows):
        # feasible points moved off the set by distances around the
        # feasibility tolerance, so the 0/inf outcome rests on the last bits
        rng = np.random.default_rng(rows)
        op = prox_affine_indicator(rng.standard_normal((30, 100)), rng.standard_normal(30))
        Z = np.array([op.evaluate(v, 1.0) for v in rng.standard_normal((rows, 100))])
        Z += rng.standard_normal(Z.shape) * op._feas_tol * rng.uniform(0.0, 0.05, (rows, 1))
        r = np.linalg.norm(Z @ op.A.T - op.b, axis=-1)
        expected = np.where(r <= op._feas_tol, 0.0, math.inf)
        assert op.objective(Z).tobytes() == expected.tobytes()
        if rows > 1:
            assert set(expected.tolist()) == {0.0, math.inf}


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


def recover_subgradient(v, y, alpha):
    """The subgradient of f at y = prox_{alpha f}(v) that the prox implies."""
    return (v - y) / alpha


class TestRecoverSubgradient:
    def test_l1_example(self):
        op = prox_l1(1.0)
        v = np.array([2.0])
        y = op.evaluate(v, 1.0)
        assert np.allclose(recover_subgradient(v, y, 1.0), [1.0], atol=1e-14)

    def test_zero_prox(self):
        op = prox_zero()
        v = np.array([3.0, -1.0])
        y = op.evaluate(v, 2.0)
        assert np.array_equal(recover_subgradient(v, y, 2.0), [0.0, 0.0])

    def test_quadratic_gradient(self):
        op = prox_quadratic(np.eye(1), np.zeros(1))
        v = np.array([4.0])
        y = op.evaluate(v, 1.0)
        assert np.allclose(recover_subgradient(v, y, 1.0), [2.0], atol=1e-14)

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
        s = recover_subgradient(v, y, alpha)
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
