"""Problem generators and the command-line harness."""

import csv
import math

import numpy as np
import pytest

from drsplit import CertCase, DrsParams, drs_run, sdplite
from drsplit.certify import detect_case
from drsplit.cli import (
    ProblemSpec,
    build_problem,
    gen_basis_pursuit,
    gen_lasso,
    main,
)


class TestProblemSpec:
    def test_valid(self):
        ProblemSpec("basis_pursuit", 30, 100, seed=42)
        ProblemSpec("lasso", 60, 40, rank=20, gamma=0.1, seed=7)

    @pytest.mark.parametrize("kwargs", [
        dict(kind="unknown", rows=3, cols=5),
        dict(kind="basis_pursuit", rows=5, cols=5),
        dict(kind="basis_pursuit", rows=10, cols=5),
        dict(kind="basis_pursuit", rows=0, cols=5),
        dict(kind="lasso", rows=6, cols=4, gamma=0.0),
        dict(kind="lasso", rows=6, cols=4, rank=0),
        dict(kind="lasso", rows=6, cols=4, rank=5),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ProblemSpec(**kwargs)


class TestGenBasisPursuit:
    def test_reproducible(self):
        spec = ProblemSpec("basis_pursuit", 1, 2, seed=5)
        _, _, m1 = gen_basis_pursuit(spec)
        _, _, m2 = gen_basis_pursuit(spec)
        assert np.array_equal(m1["A"], m2["A"])
        assert np.array_equal(m1["b"], m2["b"])
        assert np.array_equal(m1["x_truth"], m2["x_truth"])

    def test_consistent_ground_truth(self):
        _, _, meta = gen_basis_pursuit(ProblemSpec("basis_pursuit", 8, 20, seed=1))
        assert np.array_equal(meta["b"], meta["A"] @ meta["x_truth"])
        assert np.count_nonzero(meta["x_truth"]) == 2  # ceil(8 / 4)

    def test_classes(self):
        f, g, _ = gen_basis_pursuit(ProblemSpec("basis_pursuit", 4, 9, seed=0))
        assert not f.function_class.smooth
        assert not g.function_class.smooth

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            gen_basis_pursuit(ProblemSpec("lasso", 6, 4))


class TestGenLasso:
    def test_full_rank_is_strongly_convex(self):
        _, _, fc = gen_lasso(ProblemSpec("lasso", 12, 8, rank=8, seed=2))
        assert fc.m > 0
        assert detect_case(fc) is CertCase.CASE3

    def test_rank_deficient_loses_strong_convexity(self):
        _, _, fc = gen_lasso(ProblemSpec("lasso", 12, 8, rank=4, seed=2))
        assert fc.m == 0.0
        assert detect_case(fc) is CertCase.CASE2

    def test_spectrum_matches_construction(self):
        f, _, fc = gen_lasso(ProblemSpec("lasso", 12, 8, rank=5, seed=2))
        s = np.linalg.svd(f.A, compute_uv=False)
        assert fc.L == pytest.approx(s[0] ** 2, rel=1e-8)
        assert np.sum(s > 1e-10) == 5

    def test_reproducible(self):
        f1, _, _ = gen_lasso(ProblemSpec("lasso", 6, 4, seed=3))
        f2, _, _ = gen_lasso(ProblemSpec("lasso", 6, 4, seed=3))
        assert np.array_equal(f1.A, f2.A)
        assert np.array_equal(f1.b, f2.b)


class TestBuildProblem:
    def test_detected_case_matches_generated_class(self):
        for spec, expected in [
            (ProblemSpec("basis_pursuit", 5, 12, seed=0), CertCase.CASE1),
            (ProblemSpec("lasso", 10, 6, rank=3, seed=0), CertCase.CASE2),
            (ProblemSpec("lasso", 10, 6, rank=6, seed=0), CertCase.CASE3),
        ]:
            _, _, fc = build_problem(spec)
            assert detect_case(fc) is expected

    def test_generated_runs_converge_quickly(self):
        for lam in (0.5, 1.0, 1.9):
            f, g, _ = build_problem(ProblemSpec("basis_pursuit", 6, 15, seed=4))
            tr = drs_run(f, g, DrsParams(alpha=1.0, lam=lam, max_iters=100000,
                                         stop_tol=1e-10), np.zeros(15))
            assert tr.status == "converged"


class TestCliSolve:
    def test_writes_trace_and_is_reproducible(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["--mode", "solve", "--problem", "basis_pursuit", "--rows", "6",
                "--cols", "15", "--seed", "3", "--max-iters", "500"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["k", "fp_residual", "subgrad_residual"]
        assert len(rows) > 1

    def test_lambda_list_writes_suffixed_files(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["--mode", "solve", "--problem", "basis_pursuit", "--rows", "6",
                   "--cols", "15", "--seed", "3", "--max-iters", "200",
                   "--lambda-list", "0.5,1,1.5,1.9", "--out", str(out)])
        assert rc == 0
        for lam in ("0.5", "1", "1.5", "1.9"):
            assert (tmp_path / f"sweep_lam{lam}.csv").exists()

    def test_lasso_wider_than_64_columns(self, tmp_path):
        out = tmp_path / "wide.csv"
        rc = main(["--mode", "solve", "--problem", "lasso", "--rows", "200",
                   "--cols", "100", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["k", "fp_residual", "subgrad_residual"]
        assert len(rows) > 1

    def test_x0_seed(self, tmp_path):
        out0 = tmp_path / "zero.csv"
        out7 = tmp_path / "seeded.csv"
        base = ["--mode", "solve", "--problem", "lasso", "--rows", "8",
                "--cols", "6", "--seed", "1", "--max-iters", "50"]
        assert main(base + ["--out", str(out0)]) == 0
        assert main(base + ["--x0-seed", "7", "--out", str(out7)]) == 0
        assert out0.read_bytes() != out7.read_bytes()

    def test_diverged_run_is_a_reported_failure(self, tmp_path, capsys):
        # lambda = 50 makes the relaxed iteration blow up to inf
        out = tmp_path / "diverged.csv"
        rc = main(["--mode", "solve", "--problem", "lasso", "--rows", "20",
                   "--cols", "10", "--lambda", "50", "--max-iters", "2000",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite x iterate at iteration ")
        assert not out.exists()


class TestCliCertify:
    def test_nonsmooth_problem_feasible(self, tmp_path):
        out = tmp_path / "cert.csv"
        rc = main(["--mode", "certify", "--problem", "basis_pursuit",
                   "--rows", "6", "--cols", "15", "--alpha", "1", "--lambda", "1",
                   "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "case1"
        assert rows[1][8] == "1"

    def test_overridden_weight_can_be_infeasible(self, tmp_path):
        out = tmp_path / "cert.csv"
        rc = main(["--mode", "certify", "--problem", "basis_pursuit",
                   "--rows", "6", "--cols", "15", "--theta", "100",
                   "--out", str(out)])
        assert rc == 1

    def test_strongly_convex_problem_gets_rate(self, tmp_path):
        out = tmp_path / "cert.csv"
        rc = main(["--mode", "certify", "--problem", "lasso", "--rows", "8",
                   "--cols", "6", "--rank", "6", "--seed", "2",
                   "--lambda", "1.5", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "case3"
        assert float(rows[1][2]) == 1.5
        assert 0 < float(rows[1][6]) < 1

    def test_no_case3_certificate_is_a_reported_failure(self, tmp_path, capsys):
        # lambda = 3 leaves no certified rate below 1 for a strongly convex f
        out = tmp_path / "cert.csv"
        rc = main(["--mode", "certify", "--problem", "lasso", "--rank", "40",
                   "--lambda", "3", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no certificate with rho^2 < 1" in err and "lambda=3" in err
        assert not out.exists()

    def test_weight_override_rejected_for_case3(self, tmp_path, capsys):
        out = tmp_path / "cert.csv"
        rc = main(["--mode", "certify", "--problem", "lasso", "--rank", "40",
                   "--theta", "5", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--theta" in err
        assert not out.exists()


class TestCliTune:
    def test_full_rank_lasso_reports_optimal_relaxation(self, tmp_path, capsys):
        out = tmp_path / "tune.csv"
        rc = main(["--mode", "tune", "--problem", "lasso", "--rows", "12",
                   "--cols", "8", "--rank", "8", "--seed", "2", "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "case3" in printed
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][2]) == pytest.approx(2.0, abs=0.05)
        assert 0 < math.sqrt(float(rows[1][6])) < 1

    def test_rank_deficient_lasso_uses_suggested_relaxation(self, tmp_path, capsys):
        out = tmp_path / "tune.csv"
        rc = main(["--mode", "tune", "--problem", "lasso", "--rows", "12",
                   "--cols", "8", "--rank", "4", "--seed", "2", "--out", str(out)])
        assert rc == 0
        assert "case2" in capsys.readouterr().out

    def test_rank_deficient_lasso_gets_best_weight(self, tmp_path):
        # the series approximation of the relaxation parameter gave 0.0023375
        out = tmp_path / "tune.csv"
        rc = main(["--mode", "tune", "--problem", "lasso", "--rank", "20",
                   "--alpha", "0.001", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1][0] == "case2"
        assert float(rows[1][3]) >= 0.0037555

    def test_nonsmooth_uses_unit_relaxation(self, tmp_path, capsys):
        out = tmp_path / "tune.csv"
        rc = main(["--mode", "tune", "--problem", "basis_pursuit", "--rows", "6",
                   "--cols", "15", "--out", str(out)])
        assert rc == 0
        assert "case1" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][2]) == 1.0


class TestCliSweep:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "heat.csv"
        rc = main(["--mode", "sweep", "--alpha-grid", "0.5:2:3",
                   "--kappa-list", "5,20", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 7
        assert all(0 < float(r[2]) < 1 for r in rows[1:])

    def test_failed_cell_reason_on_stderr(self, tmp_path, monkeypatch, capsys):
        def fail(alpha, fc, lam_fixed=None):
            raise RuntimeError("no certificate here")

        monkeypatch.setattr(sdplite, "optimize_rate", fail)
        rc = main(["--mode", "sweep", "--alpha-grid", "0.5:2:2",
                   "--kappa-list", "5", "--out", str(tmp_path / "heat.csv")])
        assert rc == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["cell alpha=0.5 kappa=5 failed: no certificate here",
                       "cell alpha=2 kappa=5 failed: no certificate here"]

    def test_bad_grid_is_input_error(self, tmp_path):
        rc = main(["--mode", "sweep", "--alpha-grid", "nonsense",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestCliErrors:
    def test_unknown_flag(self):
        assert main(["--definitely-not-a-flag"]) == 2

    def test_unknown_mode(self):
        assert main(["--mode", "frobnicate"]) == 2

    def test_invalid_problem_dimensions(self, tmp_path):
        rc = main(["--mode", "solve", "--problem", "basis_pursuit",
                   "--rows", "10", "--cols", "5",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unwritable_output(self):
        rc = main(["--mode", "solve", "--problem", "basis_pursuit",
                   "--rows", "4", "--cols", "9", "--max-iters", "10",
                   "--out", "/nonexistent-dir/x.csv"])
        assert rc == 2
