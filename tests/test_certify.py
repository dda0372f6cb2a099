"""Certificate factors, feasibility checks, analytic parameters, rate bounds."""

import csv
import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from drsplit import (
    CertCase,
    Certificate,
    DrsParams,
    FunctionClass,
    analytic_params_case1,
    analytic_params_case2,
    build_Q1,
    build_Q2,
    build_Qk,
    build_W0,
    build_W1,
    drs_run,
    lyapunov_series,
    make_certificate,
    prox_l1,
    prox_quadratic,
    prox_qc_matrix,
    rate_bound,
    solve_reference,
    suggest_lambda_case2,
)
from drsplit import sdplite
from drsplit.certify import detect_case, psd_tol, tune, write_certificates_csv
from drsplit.cli import ProblemSpec, gen_lasso

F0INF = FunctionClass(0.0, math.inf)


class TestDetectCase:
    def test_cases(self):
        assert detect_case(F0INF) is CertCase.CASE1
        assert detect_case(FunctionClass(1.0, math.inf)) is CertCase.CASE1
        assert detect_case(FunctionClass(0.0, 5.0)) is CertCase.CASE2
        assert detect_case(FunctionClass(0.5, 5.0)) is CertCase.CASE3


class TestBuilders:
    def test_case1_factor_entries(self):
        assert np.array_equal(build_W0(1.0, 1.0, 1.0),
                              [[0, -1, 1], [-1, 2, -2], [1, -2, 2]])

    def test_case1_factor_degenerate(self):
        assert np.array_equal(build_W0(1.0, 0.0, 0.0), np.zeros((3, 3)))

    def test_case2_factor_entries(self):
        # theta = 0 leaves only the relaxation terms
        assert np.array_equal(build_W1(1.0, 1.0, 0.0, 1.0),
                              [[0, -1, 1], [-1, 1, -1], [1, -1, 1]])

    def test_case2_factor_affine_in_theta(self):
        a, lam, L = 0.7, 1.3, 4.0
        d1 = build_W1(a, lam, 2.0, L) - build_W1(a, lam, 0.0, L)
        d2 = build_W1(a, lam, 1.0, L) - build_W1(a, lam, 0.0, L)
        assert np.allclose(d1, 2.0 * d2, atol=1e-14)

    def test_case3_factor_entries(self):
        assert np.array_equal(build_Qk(0.0, 1.0), np.zeros((3, 3)))
        assert np.allclose(build_Qk(1.0, 0.25),
                           [[0.75, -1, 1], [-1, 1, -1], [1, -1, 1]], atol=1e-15)

    def test_q1_embeds_prox_constraint_top_left(self):
        Q1 = build_Q1(1.0, F0INF)
        assert np.array_equal(Q1[:2, :2], prox_qc_matrix(F0INF, 1.0))
        assert np.all(Q1[2, :] == 0) and np.all(Q1[:, 2] == 0)

    def test_q2_congruence_embedding(self):
        a = 0.9
        C = np.array([[-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        expected = C.T @ prox_qc_matrix(F0INF, a) @ C
        assert np.allclose(build_Q2(a), (expected + expected.T) / 2, atol=1e-15)

    def test_scale_covariance(self):
        # Q_p(m/c, L/c, c*alpha) = c * Q_p(m, L, alpha)
        for c in (0.5, 2.0, 10.0):
            for m, L in [(1.0, 10.0), (0.0, 4.0)]:
                lhs = prox_qc_matrix(FunctionClass(m / c, L / c), c * 1.3)
                rhs = c * prox_qc_matrix(FunctionClass(m, L), 1.3)
                assert np.allclose(lhs, rhs, rtol=1e-13)


def _literal_W0(alpha: float, lam: float, theta: float) -> np.ndarray:
    """build_W0 with its decrement and residual term written out entrywise."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    w = lam ** 2 + theta / alpha ** 2
    return np.array([
        [0.0, -lam, lam],
        [-lam, w, -w],
        [lam, -w, w],
    ])


def _literal_W1(alpha: float, lam: float, theta: float, L_f: float) -> np.ndarray:
    """build_W1 with its decrement and gap term written out entrywise."""
    if not (0 < L_f < math.inf):
        raise ValueError("Case 2 requires 0 < L_f < inf")
    l2 = lam ** 2
    c = theta / 2.0 * (1.0 / alpha - L_f) - l2
    return np.array([
        [0.0, -lam, lam],
        [-lam, theta * L_f / 2.0 + l2, c],
        [lam, c, theta * (L_f / 2.0 - 1.0 / alpha) + l2],
    ])


def _literal_Q2(alpha: float) -> np.ndarray:
    """build_Q2 with the congruence product symmetrized by averaging."""
    C = np.array([[-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    M = C.T @ prox_qc_matrix(FunctionClass(0.0, math.inf), alpha) @ C
    return (M + M.T) / 2


def _builder_tuples():
    """(alpha, lam, theta, L) on a grid with zeros and extreme magnitudes,
    then 20,000 seeded log-uniform draws over the same ranges."""
    yield from itertools.product(
        (1e-6, 0.3, 1.0, 7.0, 1e6),
        (0.0, 1e-300, 1e-12, 0.3, 1.0, 1.9, 2.0, 3.0, 1e6, 1e150),
        (0.0, 1e-300, 1e-12, 0.3, 1.0, 1.9, 2.0, 3.0, 1e6, 1e150),
        (1e-10, 0.5, 4.0, 1e8))
    lo, hi = np.log10([1e-6, 1e-300, 1e-300, 1e-10]), np.log10([1e6, 1e150, 1e150, 1e8])
    rng = np.random.default_rng(15)
    yield from (10.0 ** rng.uniform(lo, hi, size=(20_000, 4))).tolist()


class TestBuildersBitwise:
    """build_W0 and build_W1 are build_Qk(lam, 1) plus their theta-term, and
    build_Q2 is the bare congruence product, with the bits of the entrywise
    literals: each entry is the same sum in the other order, or its negation,
    and C^T P C is exactly symmetric, as each column of C has one nonzero."""

    def test_factors_bitwise_equal_to_literals(self):
        n = 0
        for alpha, lam, theta, L in _builder_tuples():
            assert build_W0(alpha, lam, theta).tobytes() == _literal_W0(alpha, lam, theta).tobytes()
            assert (build_W1(alpha, lam, theta, L).tobytes()
                    == _literal_W1(alpha, lam, theta, L).tobytes())
            assert build_Q2(alpha).tobytes() == _literal_Q2(alpha).tobytes()
            n += 1
        assert n == 2_000 + 20_000


@pytest.fixture(scope="module")
def case1_run():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((3, 10))
    from drsplit import prox_affine_indicator
    f = prox_affine_indicator(A, A @ rng.standard_normal(10))
    g = prox_l1(1.0)
    params = DrsParams(alpha=1.0, lam=1.0, max_iters=100)
    x0 = rng.standard_normal(10)
    tr = drs_run(f, g, params, x0)
    x_star, y_star, F_star = solve_reference(f, g, params, x0)
    y = f.evaluate(x_star, 1.0)
    z = g.evaluate(2 * y - x_star, 1.0)
    return tr, x_star, y, z


def _kron_form(M, blocks):
    """e^T (M (x) I_d) e for e stacked from the d-vectors ``blocks``: the
    sum over i, j of M[i, j] <blocks[i], blocks[j]>, without the Kronecker
    expansion."""
    B = np.asarray(blocks, dtype=float)
    return float(np.sum(np.asarray(M) * (B @ B.T)))


class TestTraceReplay:
    """Quadratic-form bridges between the factors and real solver trajectories."""

    @staticmethod
    def _error_blocks(tr, x_star, y_star, z_star):
        """[x_k - x*, y_k - y*, z_k - z*] for every row k, with the trace's y
        and z columns read once."""
        return list(zip(tr.x - x_star, tr.y - y_star, tr.z - z_star))

    def test_constraint_forms_nonnegative_along_trace(self, case1_run):
        tr, xs, ys, zs = case1_run
        Q1 = build_Q1(1.0, F0INF)
        Q2 = build_Q2(1.0)
        for e in self._error_blocks(tr, xs, ys, zs)[:50]:
            assert _kron_form(Q1, e) >= -1e-10
            assert _kron_form(Q2, e) >= -1e-10

    def test_case1_decrement_matches_factor_form(self, case1_run):
        tr, xs, ys, zs = case1_run
        sigma, theta = analytic_params_case1(1.0, 1.0)
        W0 = build_W0(1.0, 1.0, theta)
        V = lyapunov_series(tr, "case1", theta, xs)
        blocks = self._error_blocks(tr, xs, ys, zs)
        for k in range(30):
            e = blocks[k]
            form = _kron_form(W0, e)
            decr = V[k + 1] - V[k]
            assert decr == pytest.approx(form, rel=1e-9, abs=1e-9)

    def test_case2_decrement_bounded_by_factor_form(self):
        f, g, fc = gen_lasso(ProblemSpec("lasso", 30, 20, rank=10, gamma=0.1,
                                         seed=3))
        lam = suggest_lambda_case2(1.0, fc.L)
        sigma, theta = analytic_params_case2(1.0, lam, fc.L)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=80)
        x0 = np.zeros(20)
        tr = drs_run(f, g, params, x0)
        x_star, y_star, F_star = solve_reference(f, g, params, x0)
        y = f.evaluate(x_star, 1.0)
        z = g.evaluate(2 * y - x_star, 1.0)
        W1 = build_W1(1.0, lam, theta, fc.L)
        V = lyapunov_series(tr, "case2", theta, x_star, F_star=F_star)
        blocks = self._error_blocks(tr, x_star, y, z)
        for k in range(60):
            e = blocks[k]
            form = _kron_form(W1, e)
            assert V[k + 1] - V[k] <= form + 1e-9

    def test_case3_decrement_matches_factor_form(self):
        f, g, fc = gen_lasso(ProblemSpec("lasso", 30, 20, rank=20, gamma=0.1,
                                         seed=3))
        lam, rho_sq = 1.5, 0.8
        params = DrsParams(alpha=1.0, lam=lam, max_iters=60)
        x0 = np.zeros(20)
        tr = drs_run(f, g, params, x0)
        x_star, _, _ = solve_reference(f, g, params, x0)
        y = f.evaluate(x_star, 1.0)
        z = g.evaluate(2 * y - x_star, 1.0)
        Qk = build_Qk(lam, rho_sq)
        V = lyapunov_series(tr, "case3", None, x_star)
        blocks = self._error_blocks(tr, x_star, y, z)
        for k in range(40):
            e = blocks[k]
            form = _kron_form(Qk, e)
            assert V[k + 1] - rho_sq * V[k] == pytest.approx(
                form, rel=1e-9, abs=1e-9)


class TestCheckCertificate:
    def test_case1_analytic_parameters_give_zero_matrix(self):
        sigma, theta = analytic_params_case1(1.0, 1.0)
        cert = make_certificate(CertCase.CASE1, F0INF, 1.0, 1.0,
                                sigma1=sigma, sigma2=sigma, theta=theta)
        assert cert.feasible
        assert np.abs(cert.witness).max() <= 1e-12

    def test_case3_trivial_infeasible(self):
        cert = make_certificate(CertCase.CASE3, FunctionClass(1.0, 10.0),
                                1.0, 1.0, sigma1=0.0, sigma2=0.0, rho_sq=0.5)
        assert not cert.feasible
        assert cert.max_eig > 0.4  # the (0,0) entry alone is 1 - rho^2 = 0.5

    def test_feasibility_monotone_in_rho_sq(self):
        rng = np.random.default_rng(77)
        from drsplit import optimize_rate
        for _ in range(5):
            m = rng.uniform(0.2, 1.0)
            L = m * rng.uniform(2.0, 50.0)
            alpha = rng.uniform(0.1, 2.0)
            base = optimize_rate(alpha, FunctionClass(m, L))
            for bump in (0.01, 0.05, 0.2):
                rho_sq = min(base.rho_sq + bump, 1.0 - 1e-9)
                cert = make_certificate(
                    CertCase.CASE3, base.fc, alpha, base.lam,
                    sigma1=base.sigma1, sigma2=base.sigma2, rho_sq=rho_sq)
                assert cert.feasible

    def test_assemble_uses_nonsmooth_constraint_for_case1(self):
        sigma, theta = analytic_params_case1(0.7, 1.2)
        cert = Certificate(case=CertCase.CASE1, fc=F0INF, alpha=0.7, lam=1.2,
                           sigma1=sigma, sigma2=sigma, theta=theta)
        assert np.abs(cert.witness).max() <= 1e-12

    def test_psd_tol_relative(self):
        assert psd_tol(np.zeros((3, 3))) == pytest.approx(1e-12)
        assert psd_tol(100.0 * np.eye(3)) == pytest.approx(1.01e-10)
        assert psd_tol(-100.0 * np.eye(3)) == pytest.approx(1.01e-10)

    def test_tolerance_rejects_a_lowered_rate_and_accepts_singular_witnesses(self):
        # The optimal Case-3 witness at alpha = 0.0015 for F(0.024, 0.0266)
        # (rho^2 = 0.99985602) with rho^2 lowered by 6.5e-4: the multipliers
        # near 5e4 make max|W| about 1e6, and the factor has a positive
        # eigenvalue of 2.8e-4, which a tolerance of 1e-9 (1 + max|W|) took
        cert = make_certificate(CertCase.CASE3, FunctionClass(0.024, 0.0266), 0.0015,
                                1.999939127177544, sigma1=51946.50012643451,
                                sigma2=2666.5855145999826,
                                rho_sq=0.9998560187297217 - 6.5e-4)
        assert cert.max_eig > 2e-4
        assert not cert.feasible
        # exactly singular witnesses pass on rounding: the Case-1 factor is
        # identically zero, and the Case-2 factor is singular with terms up
        # to 7.6 that cancel to max|W| = 0.038 at alpha = 1, lambda = 1.9,
        # L = 100, where max_eig is 4.9e-14; at alpha L >= 3e4 this
        # needs theta without cancellation in 1 - r
        for alpha in np.logspace(-6, 3, 19):
            for lam in (0.05, 0.5, 1.0, 1.5, 1.9, 1.999):
                sigma, theta = analytic_params_case1(alpha, lam)
                assert make_certificate(CertCase.CASE1, F0INF, alpha, lam, sigma1=sigma,
                                        sigma2=sigma, theta=theta).feasible
                for L in (1e-3, 1.0, 100.0, 1e4):
                    sigma, theta = analytic_params_case2(alpha, lam, L)
                    cert = make_certificate(CertCase.CASE2, FunctionClass(0.0, L), alpha,
                                            lam, sigma1=sigma, sigma2=sigma, theta=theta)
                    assert cert.feasible, (alpha, lam, L, cert.max_eig)


class TestCertificateValidation:
    def test_case12_require_positive_theta(self):
        with pytest.raises(ValueError):
            Certificate(case=CertCase.CASE1, fc=F0INF, alpha=1.0, lam=1.0,
                        sigma1=1.0, sigma2=1.0, theta=0.0)

    def test_case2_requires_a_smooth_class(self):
        with pytest.raises(ValueError, match="^Case 2 requires a finite smoothness constant$"):
            Certificate(case=CertCase.CASE2, fc=F0INF, alpha=1.0, lam=1.0,
                        sigma1=1.0, sigma2=1.0, theta=1.0)

    def test_case3_requires_rate_in_unit_interval(self):
        fc = FunctionClass(1.0, 2.0)
        for bad in (None, 0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                Certificate(case=CertCase.CASE3, fc=fc, alpha=1.0, lam=1.0,
                            sigma1=1.0, sigma2=1.0, rho_sq=bad)

    def test_case3_requires_strong_convexity_and_smoothness(self):
        with pytest.raises(ValueError):
            Certificate(case=CertCase.CASE3, fc=F0INF, alpha=1.0, lam=1.0,
                        sigma1=1.0, sigma2=1.0, rho_sq=0.5)

    def test_negative_multipliers_rejected(self):
        with pytest.raises(ValueError):
            Certificate(case=CertCase.CASE1, fc=F0INF, alpha=1.0, lam=1.0,
                        sigma1=-1.0, sigma2=1.0, theta=1.0)


class TestCertificateIsChecked:
    @staticmethod
    def tuples():
        """(case, fc, alpha, lam, sigma1, sigma2, theta, rho_sq), feasible or not."""
        s1, t1 = analytic_params_case1(0.7, 1.2)
        s2, t2 = analytic_params_case2(0.5, 1.0, 4.0)
        return [
            ((CertCase.CASE1, F0INF, 0.7, 1.2, s1, s1, t1, None), True),
            ((CertCase.CASE1, F0INF, 1.0, 1.0, 1.0, 1.0, 5.0, None), False),
            ((CertCase.CASE2, FunctionClass(0.0, 4.0), 0.5, 1.0, s2, s2, t2, None), True),
            ((CertCase.CASE3, FunctionClass(1.0, 10.0), 1.0, 1.0, 0.0, 0.0, None, 0.5),
             False),
        ]

    def test_constructor_checks_like_make_certificate(self):
        for args, feasible in self.tuples():
            cert, ref = Certificate(*args), make_certificate(*args)
            assert np.array_equal(cert.witness, ref.witness)
            assert (cert.max_eig, cert.feasible) == (ref.max_eig, ref.feasible)
            assert cert.feasible is feasible, args

    def test_fields_cannot_be_assigned(self):
        cert = tune(FunctionClass(1.0, 10.0), 1.0)
        rho_sq = cert.rho_sq
        for f in dataclasses.fields(cert):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cert, f.name, 1e-6)
        assert cert.rho_sq == rho_sq and cert.feasible

    def test_witness_is_read_only(self):
        cert = tune(F0INF, 1.0)
        with pytest.raises(ValueError):
            cert.witness[0, 0] = 1.0

    def test_equal_tuples_compare_and_hash_equal(self):
        a, b = tune(FunctionClass(1.0, 10.0), 1.0), tune(FunctionClass(1.0, 10.0), 1.0)
        assert a == b and hash(a) == hash(b)
        assert a != tune(FunctionClass(1.0, 20.0), 1.0)


class TestAnalyticParamsCase1:
    def test_reference_values(self):
        assert analytic_params_case1(1.0, 1.0) == (2.0, 1.0)
        sigma, theta = analytic_params_case1(2.0, 1.0)
        assert sigma == pytest.approx(1.0)
        assert theta == pytest.approx(4.0)

    def test_random_draws_give_zero_matrix(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.uniform(0.01, 10.0)
            lam = rng.uniform(0.01, 1.99)
            sigma, theta = analytic_params_case1(a, lam)
            W = build_W0(a, lam, theta) + sigma * (build_Q1(a, F0INF) + build_Q2(a))
            assert np.abs(W).max() <= 1e-12

    @pytest.mark.parametrize("lam", [0.0, 2.0, -0.5, 3.0])
    def test_relaxation_out_of_range(self, lam):
        with pytest.raises(ValueError):
            analytic_params_case1(1.0, lam)

    @pytest.mark.parametrize("alpha,weight", [(1e155, "inf"), (1e300, "inf"),
                                              (1e-162, "0.0"), (1e-300, "0.0")])
    def test_weight_outside_the_floats_names_alpha(self, alpha, weight):
        # alpha^2 overflows (Python's float ** raises) or underflows to 0
        message = (f"alpha = {alpha!r} puts the Case-1 weight alpha^2 lambda (2 - lambda) "
                   f"at {weight}, outside the positive floats")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: analytic_params_case1(alpha, 1.0), lambda: tune(F0INF, alpha)):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call()

    @pytest.mark.parametrize("alpha,weight", [(1e154, 1e308), (1e-160, 1e-320)])
    def test_weight_at_the_ends_of_the_floats_kept(self, alpha, weight):
        assert analytic_params_case1(alpha, 1.0) == (2.0 / alpha, weight)
        cert = tune(F0INF, alpha)
        assert (cert.sigma1, cert.sigma2, cert.theta) == (2.0 / alpha, 2.0 / alpha, weight)
        assert cert.feasible and cert.max_eig == 0.0 and not cert.witness.any()


class TestAnalyticParamsCase2:
    def test_reference_values(self):
        sigma, theta = analytic_params_case2(1.0, 1.0, 1.0)
        assert sigma == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-6)
        assert theta == pytest.approx(2.0 * (2.0 - math.sqrt(2.0)), abs=1e-6)

    def test_weight_limit_for_vanishing_smoothness(self):
        # as L -> 0 the weight approaches 2 lam alpha
        lam, a = 1.3, 0.8
        prev = 0.0
        for L in (1.0, 0.1, 0.01, 1e-4, 1e-160):
            _, theta = analytic_params_case2(a, lam, L)
            assert theta > prev
            prev = theta
        assert prev == pytest.approx(2.0 * lam * a, rel=1e-3)
        # t = (2 - lambda) / (alpha L) far above 1e154 must not overflow in s
        cert = tune(FunctionClass(0.0, 1e-300), 1.0)
        assert cert.case is CertCase.CASE2 and cert.feasible and cert.theta > 0

    def test_feasible_on_grid(self):
        # alpha * L down to 1e-6 exercises the cancellation-free closed form
        for a in (0.1, 1.0, 10.0, 1e-5, 1e-6):
            for lam in (0.5, 1.0, 1.5, 1.9):
                for L in (1.0, 10.0, 100.0):
                    sigma, theta = analytic_params_case2(a, lam, L)
                    assert theta > 0
                    cert = make_certificate(
                        CertCase.CASE2, FunctionClass(0.0, L), a, lam,
                        sigma1=sigma, sigma2=sigma, theta=theta)
                    assert cert.feasible

    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_relaxation_out_of_range(self, lam):
        with pytest.raises(ValueError):
            analytic_params_case2(1.0, lam, 1.0)

    def test_shared_multiplier_is_optimal(self):
        # For each (sigma1, sigma2) on a log grid around the shared closed-form
        # sigma, the largest theta at which W1(theta) + sigma1 Q1 + sigma2 Q2
        # passes the eigen check of Certificate: its largest eigenvalue
        # is convex in theta, so a golden-section search finds its minimum
        # and a bisection the upper end of the feasible interval above it.
        ratios = 10.0 ** np.linspace(-2.0, 2.0, 17)
        shared = 8 * 17 + 8  # index of the pair (sigma, sigma)
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        for alpha, L, lam in [(1.0, 1e-3, 1.9), (0.1, 1.0, 0.5), (1.0, 1.0, 1.25),
                              (2.0, 2.0, 1.0676), (1.0, 100.0, 1.0), (10.0, 1e3, 1.5)]:
            sigma, theta = analytic_params_case2(alpha, lam, L)
            s1, s2 = (sigma * r.reshape(-1, 1, 1) for r in np.meshgrid(ratios, ratios))
            Q1, Q2 = build_Q1(alpha, FunctionClass(0.0, L)), build_Q2(alpha)
            W0 = build_W1(alpha, lam, 0.0, L)
            D = build_W1(alpha, lam, 1.0, L) - W0
            S, scale = s1 * Q1 + s2 * Q2, s1 * np.abs(Q1) + s2 * np.abs(Q2)

            def excess(th):  # largest eigenvalue minus the psd_tol of the terms
                W = W0 + th.reshape(-1, 1, 1) * D
                tol = 1e-12 * (1.0 + (np.abs(W) + scale).max(axis=(1, 2)))
                return np.linalg.eigvalsh(W + S)[:, -1] - tol

            cap = np.full(ratios.size ** 2, 4.0 * theta)
            lo, hi = np.zeros_like(cap), cap
            for _ in range(80):
                m1, m2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
                left = excess(m1) < excess(m2)
                lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
            lo = (lo + hi) / 2.0
            feasible = excess(lo) <= 0
            hi = cap
            for _ in range(80):
                mid = (lo + hi) / 2.0
                ok = excess(mid) <= 0
                lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            assert feasible[shared] and lo[shared] >= theta * (1.0 - 1e-9)
            assert lo[feasible].max() <= theta * (1.0 + 1e-9), (alpha, L, lam)


class TestSuggestLambdaCase2:
    PRODUCTS = (1e-6, 1e-3, 1.6e-2, 6.3e-2, 0.25, 1.0, 4.0, 1e2, 1e4, 1e6)

    def test_unit_product(self):
        # at alpha L = 1 the stationarity cubic is t^2 (4 t - 3) = 0
        assert abs(suggest_lambda_case2(1.0, 1.0) - 1.25) <= 1e-12

    def test_always_in_open_interval(self):
        # the maximizer, about 2 - sqrt(alpha L) for small alpha L, falls to 1
        # as alpha L grows; below alpha L of about 1e-10 it is capped at 2 - 1e-5
        for s in self.PRODUCTS + (1e-40, 1e-12, 0.5, 10.0, 1e12):
            for alpha, L in ((1.0, s), (s, 1.0)):
                assert 1.0 < suggest_lambda_case2(alpha, L) < 2.0

    def test_maximizes_weight_on_fine_grid(self):
        grid = np.arange(1, 200_000) * 1e-5  # (0, 2) in steps of 1e-5
        for s in self.PRODUCTS:
            for alpha, L in ((1.0, s), (s, 1.0)):
                # analytic_params_case2's weight, vectorized over lambda
                t = (2.0 - grid) / s
                weights = 2.0 * grid * alpha * (2.0 * t / (1.0 + t + np.sqrt(t * t + 1.0)))
                for k in (0, 99_999, 199_998):
                    assert weights[k] == pytest.approx(
                        analytic_params_case2(alpha, grid[k], L)[1], rel=1e-14)
                lam = suggest_lambda_case2(alpha, L)
                _, theta = analytic_params_case2(alpha, lam, L)
                assert theta >= weights.max() * (1.0 - 1e-12), (alpha, L, lam)


class TestTune:
    def test_case2_check_resolves_as_smoothness_vanishes(self):
        # alpha = 1, L = 1e-1 ... 1e-300: each certificate is checked with a
        # tolerance (psd_tol of its terms) of at most 1e-6, and for
        # L >= 1e-10 theta is the weight at the exact maximizer, the root in
        # (0, c) of the stationarity cubic of suggest_lambda_case2
        for e in range(1, 301):
            L = 10.0 ** -e
            fc = FunctionClass(0.0, L)
            cert = tune(fc, 1.0)
            terms = (np.abs(build_W1(1.0, cert.lam, cert.theta, L))
                     + cert.sigma1 * np.abs(build_Q1(1.0, fc))
                     + cert.sigma2 * np.abs(build_Q2(1.0)))
            assert cert.feasible and psd_tol(terms) <= 1e-6, (L, psd_tol(terms))
            if L >= 1e-10:
                c = 2.0 / L
                roots = np.roots([4.0, 1.0 - 2.0 * c, 4.0 - 2.0 * c, c * (c - 2.0)])
                best = max(analytic_params_case2(1.0, 2.0 - L * t, L)[1]
                           for t in roots.real[(abs(roots.imag) <= 1e-9 * abs(roots))
                                               & (roots.real > 0) & (roots.real < c)])
                assert cert.theta == pytest.approx(best, rel=1e-9), L

    def test_case1_unit_relaxation(self):
        cert = tune(F0INF, 0.7)
        assert cert.case is CertCase.CASE1 and cert.feasible
        assert cert.lam == 1.0
        assert (cert.sigma1, cert.theta) == analytic_params_case1(0.7, 1.0)

    def test_case2_best_weight(self):
        fc = FunctionClass(0.0, 4.0)
        cert = tune(fc, 0.5)
        assert cert.case is CertCase.CASE2 and cert.feasible
        assert cert.lam == suggest_lambda_case2(0.5, 4.0)
        assert cert.theta == analytic_params_case2(0.5, cert.lam, 4.0)[1]

    def test_case3_is_the_rate_optimizer(self):
        fc = FunctionClass(1.0, 10.0)
        for lam in (None, 1.5):
            cert, ref = tune(fc, 0.3, lam), sdplite.optimize_rate(0.3, fc, lam_fixed=lam)
            assert cert.feasible
            assert (cert.rho_sq, cert.lam, cert.sigma1, cert.sigma2) == (
                ref.rho_sq, ref.lam, ref.sigma1, ref.sigma2)

    def test_pinned_relaxation(self):
        assert tune(F0INF, 1.0, 1.5).lam == 1.5
        assert tune(FunctionClass(0.0, 2.0), 1.0, 0.5).lam == 0.5
        with pytest.raises(ValueError):
            tune(F0INF, 1.0, 2.0)

    def test_rate_optimizer_looked_up_at_call_time(self, monkeypatch):
        def fail(alpha, fc, lam_fixed=None):
            raise RuntimeError("patched")

        monkeypatch.setattr(sdplite, "optimize_rate", fail)
        with pytest.raises(RuntimeError, match="patched"):
            tune(FunctionClass(1.0, 10.0), 1.0)


class TestRateBound:
    def test_case1_unit_parameters(self):
        sigma, theta = analytic_params_case1(1.0, 1.0)
        cert = make_certificate(CertCase.CASE1, F0INF, 1.0, 1.0,
                                sigma1=sigma, sigma2=sigma, theta=theta)
        # theta = 1, so the bound on the min squared subgradient residual is
        # dist^2 / k; multiplied by alpha^2 = 1 it also bounds the
        # fixed-point residual
        assert rate_bound(cert, 10, 5.0) == pytest.approx(0.5)

    def test_case1_alpha_scaling(self):
        sigma, theta = analytic_params_case1(2.0, 1.0)
        cert = make_certificate(CertCase.CASE1, F0INF, 2.0, 1.0,
                                sigma1=sigma, sigma2=sigma, theta=theta)
        assert rate_bound(cert, 3, 12.0) == pytest.approx(12.0 / (4.0 * 3))

    def test_k_below_one_refused(self):
        sigma, theta = analytic_params_case1(1.0, 1.0)
        cert = make_certificate(CertCase.CASE1, F0INF, 1.0, 1.0,
                                sigma1=sigma, sigma2=sigma, theta=theta)
        for k in (0, -1):
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                rate_bound(cert, k, 1.0)

    def test_case3_geometric(self):
        from drsplit import optimize_rate
        cert = optimize_rate(1.0, FunctionClass(1.0, 10.0))
        assert rate_bound(cert, 4, 2.0) == pytest.approx(cert.rho_sq ** 4 * 2.0)

    def test_sequence_sums_weights(self):
        sigma, theta = analytic_params_case1(1.0, 1.0)
        cert = make_certificate(CertCase.CASE1, F0INF, 1.0, 1.0,
                                sigma1=sigma, sigma2=sigma, theta=theta)
        assert rate_bound([cert] * 5, 5, 1.0) == pytest.approx(1.0 / (5 * theta))
        with pytest.raises(ValueError):
            rate_bound([cert] * 3, 5, 1.0)

    def test_infeasible_rejected(self):
        cert = make_certificate(CertCase.CASE3, FunctionClass(1.0, 10.0),
                                1.0, 1.0, sigma1=0.0, sigma2=0.0, rho_sq=0.5)
        assert not cert.feasible
        with pytest.raises(ValueError):
            rate_bound(cert, 2, 1.0)

    def test_case3_sequence_multiplies_its_rates(self):
        from drsplit import optimize_rate
        fc = FunctionClass(1.0, 10.0)
        a, b = optimize_rate(1.0, fc), optimize_rate(1.0, fc, lam_fixed=1.0)
        assert a.rho_sq < b.rho_sq
        assert rate_bound([b, a, a], 2, 3.0) == b.rho_sq * a.rho_sq * 3.0
        assert rate_bound([a, b], 2, 3.0) == a.rho_sq * b.rho_sq * 3.0
        assert rate_bound([a, b, b], 3, 1.0) == a.rho_sq * b.rho_sq * b.rho_sq

    def test_constant_schedule_is_rho_to_the_k(self):
        from drsplit import optimize_rate
        cert = optimize_rate(1.0, FunctionClass(1.0, 10.0))
        assert rate_bound(cert, 7, 2.0) == cert.rho_sq ** 7 * 2.0
        assert rate_bound([cert] * 7, 7, 2.0) == cert.rho_sq ** 7 * 2.0
        sigma, theta = analytic_params_case1(1.0, 1.5)
        c1 = make_certificate(CertCase.CASE1, F0INF, 1.0, 1.5,
                              sigma1=sigma, sigma2=sigma, theta=theta)
        assert rate_bound(c1, 3, 2.0) == 2.0 / (theta + theta + theta)

    def test_steps_of_different_alphas_refused(self):
        # x* depends on alpha, so these steps are not one run; the first
        # step's rate alone gave 0.084 here, below what they certify
        from drsplit import optimize_rate
        a = optimize_rate(1.0, FunctionClass(1.0, 10.0))
        b = optimize_rate(0.3, FunctionClass(1.0, 10.0))
        with pytest.raises(ValueError, match="one regime and one alpha"):
            rate_bound([b, a], 2, 1.0)
        c1, c2 = tune(F0INF, 1.0), tune(F0INF, 2.0)
        with pytest.raises(ValueError, match="one regime and one alpha"):
            rate_bound([c1, c2], 2, 1.0)
        assert rate_bound([c1, c2], 1, 1.0) == 1.0 / c1.theta

    def test_mixed_regimes_refused(self):
        from drsplit import optimize_rate
        a = optimize_rate(1.0, FunctionClass(1.0, 10.0))
        c1 = tune(F0INF, 1.0)
        for seq in ([a, c1], [c1, a]):
            with pytest.raises(ValueError, match="one regime and one alpha"):
                rate_bound(seq, 2, 1.0)


class TestKronQuadraticForm:
    def test_matches_explicit_kronecker_expansion(self):
        rng = np.random.default_rng(55)
        M = rng.standard_normal((3, 3))
        M = (M + M.T) / 2
        blocks = rng.standard_normal((3, 5))
        e = blocks.reshape(-1)
        full = np.kron(M, np.eye(5))
        assert _kron_form(M, blocks) == pytest.approx(
            e @ full @ e, rel=1e-12)


class TestCertificatesCsv:
    def test_format(self, tmp_path):
        sigma, theta = analytic_params_case1(1.0, 1.0)
        c1 = make_certificate(CertCase.CASE1, F0INF, 1.0, 1.0,
                              sigma1=sigma, sigma2=sigma, theta=theta)
        from drsplit import optimize_rate
        c3 = optimize_rate(1.0, FunctionClass(1.0, 10.0))
        out = tmp_path / "certs.csv"
        write_certificates_csv([c1, c3], out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case", "alpha", "lambda", "theta", "sigma1",
                           "sigma2", "rho_sq", "max_eig", "feasible"]
        assert rows[1][0] == "case1"
        assert float(rows[1][3]) == theta
        assert rows[1][6] == ""
        assert rows[2][0] == "case3"
        assert float(rows[2][6]) == c3.rho_sq
        assert rows[1][8] == "1" and rows[2][8] == "1"
