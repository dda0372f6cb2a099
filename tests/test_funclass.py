"""Function classes and their quadratic-constraint factor matrices."""

import math
import re

import numpy as np
import pytest

from drsplit import (
    CertCase,
    Certificate,
    DrsParams,
    FunctionClass,
    analytic_params_case1,
    analytic_params_case2,
    build_W0,
    build_W1,
    estimate_class_quadratic,
    optimize_rate,
    prox_l1,
    prox_qc_matrix,
    prox_quadratic,
    qc_matrix,
    suggest_lambda_case2,
    sweep_heatmap,
    tune,
)
from drsplit.cli import ProblemSpec, _parse_alpha_grid
from drsplit.funclass import _positive

F0INF = FunctionClass(0.0, math.inf)

# every parameter that must be finite and positive, at each entry point that
# takes it: (the name its error gives, a call with the value v in its place)
POSITIVE_ENTRIES = [
    ("alpha", lambda v: prox_qc_matrix(FunctionClass(1.0, 2.0), v)),
    ("alpha", lambda v: DrsParams(alpha=v)),
    ("lambda", lambda v: DrsParams(alpha=1.0, lam=v)),
    ("every lambda of the sequence",
     lambda v: DrsParams(alpha=1.0, lam=[1.0, v, 1.0], max_iters=3)),
    ("alpha", lambda v: build_W0(v, 1.0, 1.0)),
    ("L_f", lambda v: build_W1(1.0, 1.0, 1.0, v)),
    ("alpha", lambda v: Certificate(CertCase.CASE1, F0INF, v, 1.0, 2.0, 2.0, theta=1.0)),
    ("lambda", lambda v: Certificate(CertCase.CASE1, F0INF, 1.0, v, 2.0, 2.0, theta=1.0)),
    ("theta", lambda v: Certificate(CertCase.CASE1, F0INF, 1.0, 1.0, 2.0, 2.0, theta=v)),
    ("lambda", lambda v: Certificate(CertCase.CASE3, FunctionClass(1.0, 10.0), 1.0, v,
                                     1.0, 1.0, rho_sq=0.5)),
    ("alpha", lambda v: analytic_params_case1(v, 1.0)),
    ("alpha", lambda v: analytic_params_case2(v, 1.0, 1.0)),
    ("L_f", lambda v: analytic_params_case2(1.0, 1.0, v)),
    ("alpha", lambda v: suggest_lambda_case2(v, 1.0)),
    ("L_f", lambda v: suggest_lambda_case2(1.0, v)),
    ("lambda", lambda v: optimize_rate(1.0, FunctionClass(1.0, 10.0), lam_fixed=v)),
    ("lambda", lambda v: tune(FunctionClass(1.0, 10.0), 1.0, lam=v)),
    ("gamma", lambda v: prox_l1(v)),
    ("gamma", lambda v: ProblemSpec("lasso", 6, 4, gamma=v)),
    ("--alpha-grid lo", lambda v: _parse_alpha_grid(f"{v}:10:3")),
    ("--alpha-grid hi", lambda v: _parse_alpha_grid(f"0.01:{v}:3")),
    ("m_base", lambda v: sweep_heatmap([1.0], [2.0], m_base=v)),
]


class TestPositiveFinite:
    """One rule, 0 < value < inf, for every step size, relaxation, weight and scale."""

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name,call", POSITIVE_ENTRIES)
    def test_every_entry_point_refuses_and_names_the_parameter(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be > 0 and finite, got "):
            call(value)

    @pytest.mark.parametrize("value", [1e-300, 0.5, 7, np.float64(2.0), np.array(1.5), 1e300])
    def test_returns_a_valid_value_unchanged(self, value):
        assert _positive("x", value) is value

    @pytest.mark.parametrize("value", [None, -0.0, -math.inf])
    def test_refuses_none_and_signed_edges(self, value):
        with pytest.raises(ValueError, match=f"^x must be > 0 and finite, got {value}$"):
            _positive("x", value)


class TestFunctionClass:
    def test_valid_ranges(self):
        FunctionClass(0.0, 1.0)
        FunctionClass(1.0, 1.0)
        FunctionClass(0.0, math.inf)
        FunctionClass(2.5, math.inf)

    @pytest.mark.parametrize("m,L", [(-1.0, 1.0), (2.0, 1.0), (0.0, 0.0),
                                     (0.0, -3.0), (math.inf, math.inf)])
    def test_invalid_ranges(self, m, L):
        with pytest.raises(ValueError):
            FunctionClass(m, L)

    def test_infinite_smoothness_is_first_class(self):
        fc = FunctionClass(1.0, math.inf)
        assert not fc.smooth
        assert fc.strongly_convex

    def test_kappa(self):
        assert FunctionClass(1.0, 10.0).kappa == 10.0
        with pytest.raises(ValueError):
            FunctionClass(0.0, 10.0).kappa
        with pytest.raises(ValueError):
            FunctionClass(1.0, math.inf).kappa

    def test_immutable(self):
        fc = FunctionClass(1.0, 2.0)
        with pytest.raises(Exception):
            fc.m = 0.5


class TestQcMatrix:
    def test_nonsmooth_nonstrongly_convex(self):
        assert np.array_equal(qc_matrix(FunctionClass(0.0, math.inf)),
                              [[0.0, 0.5], [0.5, 0.0]])

    def test_unit_quadratic(self):
        assert np.allclose(qc_matrix(FunctionClass(1.0, 1.0)),
                           [[-0.5, 0.5], [0.5, -0.5]], atol=1e-15)

    def test_strongly_convex_nonsmooth(self):
        assert np.array_equal(qc_matrix(FunctionClass(1.0, math.inf)),
                              [[-1.0, 0.5], [0.5, 0.0]])

    def test_continuity_in_smoothness_limit(self):
        # entrywise gap at L = 1e9 is max(m^2, 1)/(m + L): at most 1e-8 for
        # m <= 3, and m^2/L in general
        for m in (0.0, 1.0, 3.0):
            diff = qc_matrix(FunctionClass(m, 1e9)) - qc_matrix(FunctionClass(m, math.inf))
            assert np.abs(diff).max() <= 1e-8
        for m in (37.5, 1e3):
            diff = qc_matrix(FunctionClass(m, 1e9)) - qc_matrix(FunctionClass(m, math.inf))
            assert np.abs(diff).max() <= (m * m + 1.0) / 1e9

    def test_gradient_pairs_satisfy_constraint(self):
        # f(x) = c x^2 / 2 with m <= c <= L has gradient pairs obeying the
        # constraint of its class
        rng = np.random.default_rng(3)
        for m, L in [(0.0, 1.0), (1.0, 4.0), (0.5, math.inf), (0.0, math.inf)]:
            Q = qc_matrix(FunctionClass(m, L))
            c = min(L, m + 1.5) if math.isinf(L) else 0.5 * (m + L)
            for _ in range(50):
                x, y = rng.standard_normal(2)
                if x == y:
                    continue
                v = np.array([x - y, c * x - c * y])
                assert v @ Q @ v >= -1e-12


class TestProxQcMatrix:
    def test_firm_nonexpansiveness_factor(self):
        assert np.allclose(prox_qc_matrix(FunctionClass(0.0, math.inf), 1.0),
                           [[0.0, 0.5], [0.5, -1.0]], atol=1e-15)

    def test_alpha_two(self):
        assert np.allclose(prox_qc_matrix(FunctionClass(0.0, math.inf), 2.0),
                           [[0.0, 1.0], [1.0, -2.0]], atol=1e-15)

    def test_soft_threshold_pair_by_hand(self):
        # prox of |.| at +-3 with alpha=1 gives +-2; quadratic form is 8
        Q = prox_qc_matrix(FunctionClass(0.0, math.inf), 1.0)
        v = np.array([3.0 - (-3.0), 2.0 - (-2.0)])
        assert v @ Q @ v == pytest.approx(8.0, abs=1e-12)

    def test_requires_positive_alpha(self):
        with pytest.raises(ValueError):
            prox_qc_matrix(FunctionClass(0.0, math.inf), 0.0)

    def test_symmetric(self):
        for fc in (FunctionClass(0.0, math.inf), FunctionClass(1.0, 10.0)):
            for a in (0.1, 1.0, 7.3):
                M = prox_qc_matrix(fc, a)
                assert np.array_equal(M, M.T)

    @pytest.mark.parametrize("op,fc,alpha", [
        (prox_l1(1.0), FunctionClass(0.0, math.inf), 1.0),
        (prox_l1(0.3), FunctionClass(0.0, math.inf), 2.5),
    ])
    def test_prox_pairs_satisfy_constraint(self, op, fc, alpha):
        rng = np.random.default_rng(11)
        Q = prox_qc_matrix(fc, alpha)
        for _ in range(100):
            v, w = rng.standard_normal((2, 5))
            pv = op.evaluate(v, alpha)
            pw = op.evaluate(w, alpha)
            d_in, d_out = v - w, pv - pw
            form = (d_in @ d_in) * Q[0, 0] + 2 * (d_in @ d_out) * Q[0, 1] \
                + (d_out @ d_out) * Q[1, 1]
            assert form >= -1e-12

    def test_quadratic_prox_pairs_satisfy_class_constraint(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((6, 4))
        op = prox_quadratic(A, rng.standard_normal(6))
        fc = op.function_class
        alpha = 0.7
        Q = prox_qc_matrix(fc, alpha)
        for _ in range(100):
            v, w = rng.standard_normal((2, 4))
            d_in = v - w
            d_out = op.evaluate(v, alpha) - op.evaluate(w, alpha)
            form = (d_in @ d_in) * Q[0, 0] + 2 * (d_in @ d_out) * Q[0, 1] \
                + (d_out @ d_out) * Q[1, 1]
            assert form >= -1e-12


class TestEstimateClassQuadratic:
    def test_identity(self):
        fc = estimate_class_quadratic(np.eye(3))
        assert fc.m == pytest.approx(1.0, abs=1e-12)
        assert fc.L == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        fc = estimate_class_quadratic(np.diag([1.0, 2.0]))
        assert fc.m == pytest.approx(1.0, abs=1e-12)
        assert fc.L == pytest.approx(4.0, abs=1e-12)

    def test_rank_deficient(self):
        fc = estimate_class_quadratic(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert fc.m == 0.0
        assert fc.L == pytest.approx(1.0, abs=1e-12)

    def test_rectangular(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 3))
        fc = estimate_class_quadratic(A)
        ref = np.linalg.eigvalsh(A.T @ A)
        assert fc.L == pytest.approx(ref[-1], rel=1e-10)
        assert fc.m == pytest.approx(ref[0], rel=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="^A\\^T A has no positive eigenvalue; "
                                             "A is the zero matrix$"):
            estimate_class_quadratic(np.zeros((2, 3)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_class_quadratic(np.zeros((0, 0)))
