"""Certificate factors, feasibility checks, analytic parameters, rate bounds."""

import csv
import math

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
    check_certificate,
    drs_run,
    kron_quadratic_form,
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
from drsplit.certify import assemble, detect_case, psd_tol, tune, write_certificates_csv
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


class TestTraceReplay:
    """Quadratic-form bridges between the factors and real solver trajectories."""

    def _error_blocks(self, rec, x_star, y_star, z_star):
        return [rec.x - x_star, rec.y - y_star, rec.z - z_star]

    def test_constraint_forms_nonnegative_along_trace(self, case1_run):
        tr, xs, ys, zs = case1_run
        Q1 = build_Q1(1.0, F0INF)
        Q2 = build_Q2(1.0)
        for rec in tr.records[:50]:
            e = self._error_blocks(rec, xs, ys, zs)
            assert kron_quadratic_form(Q1, e) >= -1e-10
            assert kron_quadratic_form(Q2, e) >= -1e-10

    def test_case1_decrement_matches_factor_form(self, case1_run):
        tr, xs, ys, zs = case1_run
        sigma, theta = analytic_params_case1(1.0, 1.0)
        W0 = build_W0(1.0, 1.0, theta)
        V = lyapunov_series(tr, "case1", theta, xs)
        for k in range(30):
            e = self._error_blocks(tr.records[k], xs, ys, zs)
            form = kron_quadratic_form(W0, e)
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
        for k in range(60):
            e = [tr.records[k].x - x_star, tr.records[k].y - y,
                 tr.records[k].z - z]
            form = kron_quadratic_form(W1, e)
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
        for k in range(40):
            e = [tr.records[k].x - x_star, tr.records[k].y - y,
                 tr.records[k].z - z]
            form = kron_quadratic_form(Qk, e)
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
        assert np.abs(assemble(cert)).max() <= 1e-12

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


class TestAnalyticParamsCase2:
    def test_reference_values(self):
        sigma, theta = analytic_params_case2(1.0, 1.0, 1.0)
        assert sigma == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-6)
        assert theta == pytest.approx(2.0 * (2.0 - math.sqrt(2.0)), abs=1e-6)

    def test_weight_limit_for_vanishing_smoothness(self):
        # as L -> 0 the weight approaches 2 lam alpha
        lam, a = 1.3, 0.8
        prev = 0.0
        for L in (1.0, 0.1, 0.01, 1e-4):
            _, theta = analytic_params_case2(a, lam, L)
            assert theta > prev
            prev = theta
        assert prev == pytest.approx(2.0 * lam * a, rel=1e-3)

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
        # passes the eigen check of check_certificate: its largest eigenvalue
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
        # as alpha L grows; below alpha L = 1e-32 it rounds to 2
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


class TestKronQuadraticForm:
    def test_matches_explicit_kronecker_expansion(self):
        rng = np.random.default_rng(55)
        M = rng.standard_normal((3, 3))
        M = (M + M.T) / 2
        blocks = rng.standard_normal((3, 5))
        e = blocks.reshape(-1)
        full = np.kron(M, np.eye(5))
        assert kron_quadratic_form(M, blocks) == pytest.approx(
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
