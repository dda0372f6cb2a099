"""Validated LAPACK-backed symmetric eigensolver and the linear-rate optimizer."""

import csv
import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from drsplit import (
    FunctionClass,
    build_Q1,
    build_Q2,
    build_Qk,
    eig_sym,
    optimize_rate,
    sweep_heatmap,
    write_heatmap_csv,
)
from drsplit import sdplite
from drsplit.certify import psd_tol


def _char_poly_coeffs(M):
    """Characteristic polynomial coefficients via Faddeev-LeVerrier.

    Uses only matrix products and traces, independent of any eigensolver.
    """
    n = M.shape[0]
    coeffs = [1.0]
    N = np.zeros_like(M)
    for k in range(1, n + 1):
        N = M @ N + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(M @ N) / k)
    return np.array(coeffs)


class TestEigSym:
    def test_identity(self):
        w, V = eig_sym(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(V @ V.T, np.eye(3), atol=1e-14)

    def test_diagonal_sorted_ascending(self):
        w, _ = eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            B = rng.standard_normal((4, 4))
            M = (B + B.T) / 2
            w, _ = eig_sym(M)
            roots = np.sort(np.roots(_char_poly_coeffs(M)).real)
            assert np.allclose(w, roots, atol=1e-10)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4, 8, 40, 65, 300):
            B = rng.standard_normal((n, n))
            M = (B + B.T) / 2
            w, V = eig_sym(M)
            assert np.linalg.norm(V @ np.diag(w) @ V.T - M) <= 1e-10 * np.linalg.norm(M)
            assert np.linalg.norm(V.T @ V - np.eye(n)) <= 1e-10

    def test_gram_matrix(self):
        # positive semidefinite input with an exact null space
        rng = np.random.default_rng(9)
        A = rng.standard_normal((2, 5))
        w, _ = eig_sym(A.T @ A)
        assert np.all(w >= -1e-12)
        assert np.sum(np.abs(w) < 1e-10) == 3

    def test_zero_matrix(self):
        w, V = eig_sym(np.zeros((3, 3)))
        assert np.array_equal(w, np.zeros(3))
        assert np.array_equal(V, np.eye(3))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        M = np.eye(3)
        M[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            eig_sym(M)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eig_sym(np.zeros((2, 3)))


FC = FunctionClass(1.0, 10.0)


def _contraction_sq(alpha, fc):
    """Squared lambda = 2 contraction factor of DRS (Giselsson & Boyd 2017)."""
    return max(abs(1.0 - alpha * fc.m) / (1.0 + alpha * fc.m),
               abs(alpha * fc.L - 1.0) / (alpha * fc.L + 1.0)) ** 2


class TestOptimizeRate:
    def test_witness_revalidated(self):
        cert = optimize_rate(1.0, FC)
        assert cert.feasible
        assert 0 < cert.rho_sq < 1
        assert cert.sigma1 >= 0 and cert.sigma2 >= 0
        W = cert.witness
        assert cert.max_eig <= psd_tol(W)

    def test_known_rate(self):
        cert = optimize_rate(1.0, FC)
        assert cert.rho_sq == pytest.approx(0.6698, abs=5e-3)

    def test_deterministic(self):
        c1 = optimize_rate(0.3, FunctionClass(1.0, 100.0))
        c2 = optimize_rate(0.3, FunctionClass(1.0, 100.0))
        assert c1.rho_sq == c2.rho_sq
        assert c1.lam == c2.lam
        assert c1.sigma1 == c2.sigma1
        assert c1.sigma2 == c2.sigma2

    def test_lam_fixed(self):
        cert = optimize_rate(1.0, FC, lam_fixed=1.0)
        assert cert.lam == 1.0
        assert cert.feasible
        # pinning the relaxation cannot beat the free optimum
        free = optimize_rate(1.0, FC)
        assert cert.rho_sq >= free.rho_sq - 1e-4

    def test_large_step_reaches_relaxation_two(self):
        # lambda = 1.9 alone certifies 0.996207 here, so the optimum is lower
        cert = optimize_rate(10.0, FunctionClass(1.0, 100.0))
        assert cert.feasible
        assert cert.rho_sq <= 0.9961
        assert 1.98 <= cert.lam <= 2.02

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("kappa", [2.0, 100.0])
    def test_matches_peaceman_rachford_contraction(self, alpha, kappa):
        # at lambda = 2 the iteration composes two reflected resolvents; that
        # of alpha*f with f in F(m, L) contracts by the factor below
        # (Giselsson & Boyd 2017), and the certified optimum attains it
        fc = FunctionClass(1.0, kappa)
        assert optimize_rate(alpha, fc).rho_sq == pytest.approx(
            _contraction_sq(alpha, fc), abs=1e-9)

    @pytest.mark.parametrize("alpha, m, L", [(0.0166, 2.99, 3.17), (0.172, 0.0149, 0.0152)])
    def test_near_unit_condition_number_reaches_the_contraction(self, alpha, m, L):
        # at kappa close to 1 the optimal sigma1 is far above 100/alpha, where
        # a fixed multiplier box used to stop it
        fc = FunctionClass(m, L)
        cert = optimize_rate(alpha, fc)
        assert cert.feasible
        assert abs(cert.rho_sq - _contraction_sq(alpha, fc)) <= 1e-9

    def test_random_classes_reach_the_contraction(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            alpha = 10.0 ** rng.uniform(-3.0, 2.0)
            m = 10.0 ** rng.uniform(-2.0, 1.0)
            fc = FunctionClass(m, m * 10.0 ** rng.uniform(0.0, 4.0))
            cert = optimize_rate(alpha, fc)
            direct = (build_Qk(cert.lam, cert.rho_sq) + cert.sigma1 * build_Q1(alpha, fc)
                      + cert.sigma2 * build_Q2(alpha))
            assert eig_sym(direct)[0][-1] <= psd_tol(direct), (alpha, fc)
            assert abs(cert.rho_sq - _contraction_sq(alpha, fc)) <= 1e-8, (alpha, fc)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 3.0])
    def test_equality_class_is_certified_near_its_infimum(self, alpha):
        # for f in F(m, m) no finite sigma1 attains the infimum; the bound on
        # sigma1 keeps the barrier centred and the rate within 1e-5 of it
        fc = FunctionClass(1.0, 1.0)
        cert = optimize_rate(alpha, fc)
        assert cert.feasible and cert.max_eig < 0.0
        assert 0.0 <= cert.rho_sq - _contraction_sq(alpha, fc) <= 1e-5

    def test_ill_conditioned_cell_ends_at_the_rounding_limit(self):
        # alpha*m ~ 4e-5 leaves 1 - rho^2 ~ 1e-4 and a factor with condition
        # number near 1/eps at the optimum; the solve stops at its last
        # centred stage instead of failing
        alpha, fc = 0.0015, FunctionClass(0.024, 0.0266)
        factor = (1.0 - alpha * fc.m) / (1.0 + alpha * fc.m)
        cert = optimize_rate(alpha, fc)
        assert cert.feasible
        assert -1e-12 <= cert.rho_sq - factor ** 2 <= 1e-7

    @pytest.mark.parametrize("alpha", [1.0, 10.0])
    @pytest.mark.parametrize("kappa", [10.0, 100.0])
    def test_free_optimum_beats_every_pinned_relaxation(self, alpha, kappa):
        # the pinned optimum (|1 - lam/2| + lam delta/2)^2 is smallest at
        # lam = 2 and reaches 1 at lam = 4/(1 + delta) (Giselsson & Boyd 2017)
        fc = FunctionClass(1.0, kappa)
        free = optimize_rate(alpha, fc)
        assert free.lam == 2.0
        edge = 4.0 / (1.0 + math.sqrt(_contraction_sq(alpha, fc)))
        for lam in (0.5, 1.0, 1.5, 1.9, 1.99, (2.0 + edge) / 2, 1.01 * edge):
            if lam < edge:
                pinned = optimize_rate(alpha, fc, lam_fixed=lam).rho_sq
                assert free.rho_sq <= pinned + 1e-9, lam
            else:
                with pytest.raises(RuntimeError, match="no certificate"):
                    optimize_rate(alpha, fc, lam_fixed=lam)

    def test_infeasible_relaxation_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match="no certificate"):
            optimize_rate(1.0, FC, lam_fixed=2.5)

    def test_false_failure_says_found_and_gives_the_rate(self):
        # at lambda = 2 the rate delta^2 is below 1 for every finite alpha > 0,
        # but 1 - delta^2 = 4e-8 here is below what the barrier resolves
        fc = FunctionClass(1.0, 2.0)
        rate = _contraction_sq(1e-8, fc)
        assert rate < 1
        with pytest.raises(RuntimeError) as exc:
            optimize_rate(1e-8, fc)
        assert str(exc.value) == ("no certificate with rho^2 < 1 found at alpha=1e-08; the best "
                                  f"rate (|1 - lambda/2| + lambda delta/2)^2 is {rate!r}")

    @pytest.mark.parametrize("alpha", [1e-300, 1e100])
    def test_extreme_step_is_a_failed_solve_without_warnings(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=r"^no certificate with rho\^2 < 1 found "):
                optimize_rate(alpha, FC)

    def test_logs_one_debug_line_per_call(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="drsplit.sdplite"):
            optimize_rate(1.0, FC)
        assert len(caplog.records) == 1
        msg = caplog.records[0].getMessage()
        assert "Newton steps" in msg and "barrier stages" in msg and "gap bound" in msg

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            optimize_rate(1.0, FunctionClass(0.0, 10.0))


def _exact_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def _exact_prox_qc(m, L, alpha):
    """``prox_qc_matrix`` in rationals, L = None for F(m, inf)."""
    h = Fraction(1, 2)
    qc = [[-m, h], [h, Fraction(0)]] if L is None else [[-m * L / (m + L), h], [h, -1 / (m + L)]]
    M = _exact_mul(_exact_mul([[0, 1], [alpha, -1]], qc), [[0, alpha], [1, -1]])
    return [[(M[i][j] + M[j][i]) / 2 for j in range(2)] for i in range(2)]


def _exact_neg_witness(cert, rho_sq):
    """-(Qk(lambda, rho_sq) + sigma1 Q1 + sigma2 Q2) of a Case-3 certificate,
    formed in rationals from its stored floats, with ``rho_sq`` for its own."""
    a, lam, s1, s2, r, m, L = map(Fraction, (cert.alpha, cert.lam, cert.sigma1, cert.sigma2,
                                             rho_sq, cert.fc.m, cert.fc.L))
    l2 = lam * lam
    Qk = [[1 - r, -lam, lam], [-lam, l2, -l2], [lam, -l2, l2]]
    P = _exact_prox_qc(m, L, a)
    C = [[-1, 2, 0], [0, 0, 1]]
    Q2 = _exact_mul(_exact_mul([list(c) for c in zip(*C)], _exact_prox_qc(Fraction(0), None, a)), C)
    return [[-(Qk[i][j] + (s1 * P[i][j] if i < 2 and j < 2 else 0) + s2 * Q2[i][j])
             for j in range(3)] for i in range(3)]


def _principal_minors(F):
    """The seven principal minors of a 3x3 matrix: all >= 0 exactly when a
    symmetric F is positive semidefinite."""
    pairs = [F[i][i] * F[j][j] - F[i][j] * F[j][i] for i, j in ((0, 1), (0, 2), (1, 2))]
    det = (F[0][0] * (F[1][1] * F[2][2] - F[1][2] * F[2][1])
           - F[0][1] * (F[1][0] * F[2][2] - F[1][2] * F[2][0])
           + F[0][2] * (F[1][0] * F[2][1] - F[1][1] * F[2][0]))
    return [F[i][i] for i in range(3)] + pairs + [det]


class TestExactWitness:
    """The exact check of ROADMAP item 4 as a test oracle: the witness of
    each default-grid certificate is negative semidefinite in rational
    arithmetic, not merely within the float check's tolerance."""

    def test_default_grid_witnesses_are_exactly_nsd(self):
        for kappa in sdplite.DEFAULT_KAPPA_GRID:
            fc = FunctionClass(1.0, kappa)
            for alpha in sdplite.DEFAULT_ALPHA_GRID:
                cert = optimize_rate(float(alpha), fc)
                F = _exact_neg_witness(cert, cert.rho_sq)
                # the rational factor is the one the float check eigen-checks
                assert np.allclose(-np.array(F, dtype=float), cert.witness, rtol=0,
                                   atol=psd_tol(cert.witness))
                assert min(_principal_minors(F)) >= 0, (alpha, kappa)
                # a rate a relative 1e-9 below the certified one has no witness
                lowered = _exact_neg_witness(cert, cert.rho_sq * (1 - 1e-9))
                assert min(_principal_minors(lowered)) < 0, (alpha, kappa)


class TestSweepHeatmap:
    def test_small_grid(self):
        alphas = [0.5, 1.0]
        kappas = [5.0, 10.0]
        cells = sweep_heatmap(alphas, kappas, m_base=1.0)
        assert len(cells) == 4
        # row-major, kappa outer
        assert [c.kappa for c in cells] == [5.0, 5.0, 10.0, 10.0]
        assert [c.alpha for c in cells] == [0.5, 1.0, 0.5, 1.0]
        for c in cells:
            assert c.feasible
            assert 0 < c.rho_opt < 1
            assert c.lambda_opt == 2.0

    @pytest.mark.parametrize("alphas,kappas", [([], [5.0]), ([1.0], []), ([], [])])
    def test_empty_grid_refused(self, alphas, kappas):
        with pytest.raises(ValueError, match="^grids must be nonempty$"):
            sweep_heatmap(alphas, kappas)

    def test_m_base_scaling_changes_class(self):
        cells = sweep_heatmap([1.0], [10.0], m_base=2.0)
        assert cells[0].feasible

    def test_csv_format(self, tmp_path):
        cells = sweep_heatmap([1.0], [5.0, 50.0], m_base=1.0)
        out = tmp_path / "heatmap.csv"
        write_heatmap_csv(cells, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "kappa", "rho_opt", "lambda_opt",
                           "sigma1", "sigma2", "feasible", "reason"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 1.0
        assert float(rows[1][1]) == 5.0
        assert 0 < float(rows[1][2]) < 1
        assert rows[1][6] == "1"
        assert rows[1][7] == ""

    def test_failure_reason_reaches_cell_and_csv(self, tmp_path, monkeypatch):
        def fail(alpha, fc, lam_fixed=None):
            raise RuntimeError(f"no certificate at alpha={alpha:g}")

        monkeypatch.setattr(sdplite, "optimize_rate", fail)
        cells = sweep_heatmap([1.0], [5.0])
        assert not cells[0].feasible
        assert math.isnan(cells[0].rho_opt)
        assert cells[0].reason == "no certificate at alpha=1"
        out = tmp_path / "heatmap.csv"
        write_heatmap_csv(cells, out)
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][6] == "0"
        assert rows[1][7] == "no certificate at alpha=1"
