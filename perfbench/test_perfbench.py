"""Self-tests of the benchmark.

The output checks must reject corrupted outputs, and the command must print
every metric that BENCHMARK.json names, with its unit.  Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from drsplit import sdplite  # noqa: E402
from drsplit.funclass import FunctionClass  # noqa: E402
from drsplit.sdplite import SweepCell  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _sweep_output(cell, tmp_path):
    path = str(tmp_path / "heatmap.csv")
    sdplite.write_heatmap_csv([cell], path)
    return workloads.SweepOutput([cell], path)


@pytest.fixture(scope="module")
def oracle_cell():
    cert = sdplite.optimize_rate(1.0, FunctionClass(1.0, 10.0))
    return SweepCell(1.0, 10.0, math.sqrt(cert.rho_sq), cert.lam, cert.sigma1,
                     cert.sigma2, True)


def test_sweep_check_accepts_optimizer_cell(oracle_cell, tmp_path):
    assert workloads.check_sweep(_sweep_output(oracle_cell, tmp_path), 1) == []


def test_sweep_check_rejects_lowered_rate(oracle_cell, tmp_path):
    rho_sq = oracle_cell.rho_opt ** 2 - 1e-2
    bad = dataclasses.replace(oracle_cell, rho_opt=math.sqrt(rho_sq))
    reasons = workloads.check_sweep(_sweep_output(bad, tmp_path), 1)
    assert len(reasons) == 1 and "3x3 re-check failed" in reasons[0]


def test_sweep_check_rejects_rate_off_the_oracle(oracle_cell, tmp_path):
    # a larger rate is still certified, but misses the frozen optimum
    rho_sq = oracle_cell.rho_opt ** 2 + 2e-2
    bad = dataclasses.replace(oracle_cell, rho_opt=math.sqrt(rho_sq))
    reasons = workloads.check_sweep(_sweep_output(bad, tmp_path), 1)
    assert len(reasons) == 1 and "grid oracle" in reasons[0]


def test_sweep_check_rejects_infeasible_cell(oracle_cell, tmp_path):
    bad = dataclasses.replace(oracle_cell, rho_opt=math.nan, feasible=False)
    reasons = workloads.check_sweep(_sweep_output(bad, tmp_path), 1)
    assert len(reasons) == 1 and "infeasible" in reasons[0]


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    """A certified_run workload with one op's outputs, checked clean."""
    run_ = workloads.CertifiedRun(0, str(tmp_path_factory.mktemp("certified")))
    run_.setup()
    outs = run_.run(run_.prepare(0), None)
    assert run_.check(0, outs) == []
    return run_, outs


def test_certified_check_rejects_rising_lyapunov_values(certified):
    run_, outs = certified
    assert [out.case.value for out in outs] == ["case1", "case2", "case3"]
    V = outs[0].trajectory[-1]
    saved = V.copy()
    V[len(V) // 2] = 2.0 * V[len(V) // 2 - 1] + 1.0
    reasons = run_.check(0, outs)
    V[:] = saved
    assert len(reasons) == 1 and reasons[0].startswith("case1: Lyapunov value increased")


def test_certified_check_rejects_truncated_trace_csv(certified):
    run_, outs = certified
    path = Path(outs[1].csv_path)
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    reasons = run_.check(0, outs)
    path.write_text(text)
    assert reasons == [f"case2: trace CSV has {workloads.TRAJECTORY_ITERS - 1} rows "
                       f"for {workloads.TRAJECTORY_ITERS} iterations"]


def test_lasso_reference_iterations_match_the_library():
    import numpy as np
    from drsplit import DrsParams, certify, drs_run

    spec = workloads.cli.ProblemSpec("lasso", 60, 40, rank=20, seed=3)
    f, g, fc = workloads.cli.build_problem(spec)
    lam = certify.suggest_lambda_case2(1.0, fc.L)
    ref = workloads.lasso_reference_iterations(f.A, f.b, spec.gamma, lam,
                                               workloads.REFERENCE_TOL, 20_000)
    lib = len(drs_run(f, g, DrsParams(1.0, lam, 20_000, workloads.REFERENCE_TOL),
                      np.zeros(40)))
    assert abs(ref - lib) <= 1  # the two prox solves differ in rounding


def test_reference_iterations_match_the_library():
    import numpy as np
    from drsplit import DrsParams, drs_run

    f, g, data = workloads.cli.gen_basis_pursuit(
        workloads.cli.ProblemSpec("basis_pursuit", 30, 100, seed=1))
    ref = workloads.reference_iterations(data["A"], data["b"], workloads.LAMBDAS,
                                         workloads.SOLVE_TOL, 3000)
    lib = [len(drs_run(f, g, DrsParams(1.0, lam, 3000, workloads.SOLVE_TOL),
                       np.zeros(100))) for lam in workloads.LAMBDAS]
    assert list(ref) == lib


def test_metric_lists_match_benchmark_json():
    assert list(_units("end_to_end")) == list(run.END_TO_END)
    assert list(_units("per_layer")) == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "certified_run",
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("per_layer" if trace else "end_to_end")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    assert any(line.startswith("env: python=") for line in lines)


@pytest.mark.parametrize("trace", [False, True])
def test_sweep_metrics_on_a_small_grid(trace, tmp_path):
    sweep = workloads.Sweep(7, str(tmp_path))
    sweep.alphas, sweep.kappas, sweep.order = [0.1, 1.0], [2.0, 10.0], [1, 0]
    metrics, loop = run.collect(sweep, 0.01, trace, time.perf_counter())
    assert loop.failures == []
    assert len(loop.times) == (1 if trace else 2)  # untraced: the whole grid
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(names) <= set(metrics)
    if trace:
        assert metrics["sdplite.linalg_calls"][0] > 0
        assert metrics["prox.affine_eval_calls"][0] == 0  # bypassed
    else:
        assert 0 < metrics["certified_iters_geomean"][0]
        cells = (tmp_path / "sweep_cells_seed7.csv").read_text().splitlines()
        assert len(cells) == 1 + 4


def test_jittered_grid_stays_inside_the_range():
    import numpy as np

    rng = np.random.default_rng(1)
    grid = workloads.jittered_grid(sdplite.DEFAULT_ALPHA_GRID, rng)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] >= 0.01 and grid[-1] <= 10.0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
