"""End-to-end acceptance suite.

Ten criteria covering the certificate identities, the certified bounds on
real solver trajectories, the rate optimizer against a frozen brute-force
oracle, the parameter-sweep shape, Lyapunov monotonicity, and the residual
identity and eigensolver contracts.  Each test prints a single PASS line
(with its runtime) once its assertions hold, and asserts its own runtime
budget.
"""

import math
import time

import numpy as np
import pytest

from drsplit import (
    CertCase,
    DrsParams,
    FunctionClass,
    analytic_params_case1,
    analytic_params_case2,
    build_Q1,
    build_Q2,
    build_W0,
    drs_run,
    eig_sym,
    lyapunov_series,
    make_certificate,
    optimize_rate,
    solve_reference,
    suggest_lambda_case2,
    sweep_heatmap,
)
from drsplit.sdplite import DEFAULT_ALPHA_GRID, DEFAULT_KAPPA_GRID
from drsplit.cli import ProblemSpec, gen_basis_pursuit, gen_lasso

F0INF = FunctionClass(0.0, math.inf)

# Brute-force grid oracle for the best certified squared linear rate
# (tools/case3_grid_oracle.py): 200 points per axis over relaxation
# [0.01, 4] x multipliers [0, 100]^2, squared rate bisected per grid point.
# Values frozen from an offline run.
GRID_ORACLE = {
    (1.0, 1.0, 10.0): 0.673418,
    (0.3, 1.0, 100.0): 0.878060,
    (1.0, 1.0, 1.0): 0.000007,
}

_cache = {}


def _report(number, title, elapsed, budget):
    print(f"[criterion {number:2d}] {title}: PASS ({elapsed:.2f}s, "
          f"budget {budget:g}s)")
    assert elapsed < budget


def _basis_pursuit_run():
    """Criterion-3 fixture: underdetermined equality-constrained l1 problem."""
    if "bp" not in _cache:
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 30, 100, seed=42))
        x0 = np.zeros(100)
        params = DrsParams(alpha=1.0, lam=1.0, max_iters=10000, stop_tol=0.0)
        x_star, _, _ = solve_reference(f, g, params, x0)
        trace = drs_run(f, g, params, x0)
        _cache["bp"] = (trace, x0, x_star, f, g)
    return _cache["bp"]


def _lasso_rank_deficient_run():
    """Criterion-4 fixture: rank-deficient least squares + l1."""
    if "lasso2" not in _cache:
        f, g, fc = gen_lasso(ProblemSpec("lasso", 60, 40, rank=20, gamma=0.1,
                                         seed=7))
        lam = suggest_lambda_case2(1.0, fc.L)
        _, theta = analytic_params_case2(1.0, lam, fc.L)
        x0 = np.zeros(40)
        params = DrsParams(alpha=1.0, lam=lam, max_iters=10000, stop_tol=0.0)
        x_star, _, F_star = solve_reference(f, g, params, x0)
        trace = drs_run(f, g, params, x0)
        _cache["lasso2"] = (trace, x0, x_star, F_star, theta, f, g)
    return _cache["lasso2"]


def _lasso_full_rank_run(rows=60, cols=40):
    """Criterion-5 fixture: strongly convex least squares + l1 at the
    optimized rate."""
    key = ("lasso3", rows, cols)
    if key not in _cache:
        f, g, fc = gen_lasso(ProblemSpec("lasso", rows, cols, rank=cols,
                                         gamma=0.1, seed=7))
        cert = optimize_rate(1.0, fc)
        x0 = np.zeros(cols)
        params = DrsParams(alpha=1.0, lam=cert.lam, max_iters=5000,
                           stop_tol=0.0)
        x_star, _, _ = solve_reference(f, g, params, x0)
        trace = drs_run(f, g, DrsParams(alpha=1.0, lam=cert.lam,
                                        max_iters=2000, stop_tol=0.0), x0)
        _cache[key] = (trace, x0, x_star, cert, f, g)
    return _cache[key]


def _assert_linear_rate(trace, x0, x_star, cert):
    """||x_k - x*||^2 <= 1.01 rho^2k ||x0 - x*||^2 until the iterates reach x*."""
    dist_sq = float(np.sum((x0 - x_star) ** 2))
    dist = np.sum((trace.x - x_star) ** 2, axis=1)
    k = np.arange(len(trace), dtype=float)
    bound = 1.01 * cert.rho_sq ** k * dist_sq
    below = np.nonzero(dist <= 1e-20)[0]
    horizon = int(below[0]) + 1 if len(below) else len(dist)
    assert horizon > 10  # the certified rate is actually exercised
    assert np.all(dist[:horizon] <= bound[:horizon])


def test_criterion_01_case1_zero_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        alpha = rng.uniform(1e-3, 10.0)
        lam = rng.uniform(1e-3, 2.0 - 1e-3)
        sigma, theta = analytic_params_case1(alpha, lam)
        W = build_W0(alpha, lam, theta) + sigma * (
            build_Q1(alpha, F0INF) + build_Q2(alpha))
        assert np.abs(W).max() <= 1e-12
    _report(1, "nonsmooth-certificate zero identity (100 draws)",
            time.perf_counter() - t0, 1.0)


def test_criterion_02_case2_feasibility_grid():
    t0 = time.perf_counter()
    for alpha in (0.1, 1.0, 10.0):
        for lam in (0.5, 1.0, 1.5, 1.9):
            for L in (1.0, 10.0, 100.0):
                sigma, theta = analytic_params_case2(alpha, lam, L)
                cert = make_certificate(
                    CertCase.CASE2, FunctionClass(0.0, L), alpha, lam,
                    sigma1=sigma, sigma2=sigma, theta=theta)
                assert cert.feasible, (alpha, lam, L, cert.max_eig)
    _report(2, "smooth-certificate feasibility (36-point grid)",
            time.perf_counter() - t0, 1.0)


def test_criterion_03_case1_residual_bound_on_trajectory():
    t0 = time.perf_counter()
    trace, x0, x_star, _, _ = _basis_pursuit_run()
    dist_sq = float(np.sum((x0 - x_star) ** 2))
    running_min = np.minimum.accumulate(trace.fp_residual ** 2)
    k = np.arange(1, len(trace) + 1, dtype=float)
    # alpha = lam = 1: min_{i<k} ||z_i - y_i||^2 <= ||x0 - x*||^2 / k
    assert np.all(running_min <= dist_sq / k)
    _report(3, "sublinear residual bound on basis pursuit (10^4 iterations)",
            time.perf_counter() - t0, 10.0)


def test_criterion_04_case2_objective_bound_on_trajectory():
    t0 = time.perf_counter()
    trace, x0, x_star, F_star, theta, _, _ = _lasso_rank_deficient_run()
    dist_sq = float(np.sum((x0 - x_star) ** 2))
    gaps = trace.objective - F_star
    running_min = np.minimum.accumulate(gaps)
    k = np.arange(1, len(trace) + 1, dtype=float)
    assert np.all(running_min <= dist_sq / (theta * k) * (1.0 + 1e-6))
    _report(4, "sublinear objective bound on rank-deficient regression "
               "(10^4 iterations)", time.perf_counter() - t0, 10.0)


def test_criterion_05_case3_linear_rate_on_trajectory():
    t0 = time.perf_counter()
    trace, x0, x_star, cert, _, _ = _lasso_full_rank_run()
    _assert_linear_rate(trace, x0, x_star, cert)
    _report(5, "certified linear rate on strongly convex regression",
            time.perf_counter() - t0, 10.0)


def test_linear_rate_on_lasso_wider_than_64_columns():
    # the class estimate of a 150x100 LASSO needs a 100x100 eigensolve
    trace, x0, x_star, cert, _, _ = _lasso_full_rank_run(150, 100)
    _assert_linear_rate(trace, x0, x_star, cert)


def test_linear_rate_on_lasso_with_1000_columns():
    trace, x0, x_star, cert, _, _ = _lasso_full_rank_run(1000, 1000)
    _assert_linear_rate(trace, x0, x_star, cert)


def test_criterion_06_optimizer_matches_grid_oracle():
    t0 = time.perf_counter()
    for (alpha, m, L), oracle in GRID_ORACLE.items():
        cert = optimize_rate(alpha, FunctionClass(m, L))
        assert abs(cert.rho_sq - oracle) <= 1e-2, (alpha, m, L, cert.rho_sq)
    _report(6, "rate optimizer vs frozen brute-force oracle (3 configs)",
            time.perf_counter() - t0, 1.0)


def test_criterion_07_optimal_relaxation_is_two():
    t0 = time.perf_counter()
    for alpha in (0.05, 0.1, 0.3, 1.0):
        for kappa in (10.0, 100.0):
            cert = optimize_rate(alpha, FunctionClass(1.0, kappa))
            assert 1.98 <= cert.lam <= 2.02, (alpha, kappa, cert.lam)
    _report(7, "optimal relaxation parameter equals 2 (8 configs)",
            time.perf_counter() - t0, 30.0)


def test_criterion_08_sweep_shape():
    t0 = time.perf_counter()
    cells = sweep_heatmap(DEFAULT_ALPHA_GRID, DEFAULT_KAPPA_GRID, m_base=1.0)
    rho = np.array([c.rho_opt for c in cells]).reshape(
        len(DEFAULT_KAPPA_GRID), len(DEFAULT_ALPHA_GRID))
    assert all(c.feasible for c in cells)
    assert np.all(rho < 1.0)
    # unimodal per condition-number row, up to a tolerance far above the
    # optimizer's duality-gap bound (1e-10 on the squared rate)
    grid_tol = 2e-3
    argmins = []
    for row in rho:
        am = int(np.argmin(row))
        argmins.append(am)
        diffs = np.diff(row)
        assert np.all(diffs[:am] <= grid_tol)
        assert np.all(diffs[am:] >= -grid_tol)
    # the best step size shifts left as conditioning degrades
    assert all(argmins[i + 1] <= argmins[i] for i in range(len(argmins) - 1))
    _report(8, "sweep: rates < 1, rows unimodal, best step size "
               "nonincreasing in condition number", time.perf_counter() - t0,
            120.0)


def test_criterion_09_lyapunov_monotonicity():
    t0 = time.perf_counter()
    # run 3: residual running-sum values are nonincreasing
    trace, x0, x_star, _, _ = _basis_pursuit_run()
    _, theta = analytic_params_case1(1.0, 1.0)
    V = lyapunov_series(trace, "case1", theta, x_star)
    assert np.all(np.diff(V) <= 1e-9)
    # run 4: objective running-sum values are nonincreasing
    trace, x0, x_star, F_star, theta, _, _ = _lasso_rank_deficient_run()
    V = lyapunov_series(trace, "case2", theta, x_star, F_star=F_star)
    assert np.all(np.diff(V) <= 1e-9)
    # run 5: squared distance contracts at the certified rate
    trace, x0, x_star, cert, _, _ = _lasso_full_rank_run()
    V = lyapunov_series(trace, "case3", None, x_star)
    assert np.all(V[1:] <= cert.rho_sq * V[:-1] + 1e-9)
    _report(9, "Lyapunov monotonicity along all three trajectory runs",
            time.perf_counter() - t0, 10.0)


def test_criterion_10_residual_identity_and_eigensolver():
    t0 = time.perf_counter()
    runs = [
        (_basis_pursuit_run()[0], 1.0),
        (_lasso_rank_deficient_run()[0], 1.0),
        (_lasso_full_rank_run()[0], 1.0),
    ]
    for trace, alpha in runs:
        for x, y, z, fp in zip(trace.x, trace.y, trace.z, trace.fp_residual):
            # z - y = -alpha (df(y) + dg(z)) with subgradients recovered from
            # the two proximal steps
            sf = (x - y) / alpha
            sg = (2.0 * y - x - z) / alpha
            lhs = z - y
            rhs = -alpha * (sf + sg)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1.0 + np.linalg.norm(lhs))
            assert abs(fp / alpha * alpha - fp) <= 1e-12 * (1.0 + fp)
    rng = np.random.default_rng(99)
    for _ in range(1000):
        B = rng.standard_normal((4, 4))
        M = (B + B.T) / 2.0
        w, V = eig_sym(M)
        assert np.linalg.norm(V @ np.diag(w) @ V.T - M) <= 1e-10 * np.linalg.norm(M)
        assert np.linalg.norm(V.T @ V - np.eye(4)) <= 1e-10
    _report(10, "residual identity on all traces; eigensolver contracts "
                "(1000 random draws)", time.perf_counter() - t0, 5.0)
