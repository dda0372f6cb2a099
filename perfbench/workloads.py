"""The benchmark's two workloads: inputs made from the seed, the timed op,
and the checks of every op's output.

Each workload offers
  ``setup()``        build what every op needs (timed as part of ``setup_s``);
  ``warmup()``       one untimed op, so lazy imports and caches are filled;
  ``prepare(i)``     the i-th op's input (untimed, deterministic in the seed);
  ``run(inp, tracer)`` the op itself (timed); ``tracer`` is None when untraced;
  ``check(inp, out)`` the list of failure reasons (empty when the op passed);
  ``min_ops``        ops an untraced run holds at least, however long it takes.

The library is only called through its public module attributes, so the
traced run can wrap them (``install_tracing``) without editing the library.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import numpy.linalg

from drsplit import certify, cli, prox, sdplite, splitting
from drsplit.funclass import FunctionClass

LAMBDAS = (0.5, 1.0, 1.5, 1.9)  # the documented --lambda-list
SOLVE_TOL = 1e-10  # the CLI's default --tol
# The basis pursuit of certified_run (Case 1) is kept only when the
# benchmark's own DRS recursion (``reference_iterations``) reaches SOLVE_TOL
# within this many iterations at every documented lambda.  Iteration counts
# are bimodal: of 200 generated 30x100 seeds, 77% converge within 3,000
# iterations, 13% stop at the 100,000 cap, and the 10% in between mostly
# need over 10^4, which would make the reference solve of one op take
# seconds.
ITER_BUDGET = 3_000
# The rank-deficient LASSO of certified_run (Case 2) is filtered the same
# way: its reference solve must reach REFERENCE_TOL within ITER_BUDGET
# iterations.  Of 200 generated seeds, 10.5% need more, 2.5% more than
# 10^4, and one did not converge within 200,000 iterations.
REFERENCE_TOL = 1e-12  # splitting.solve_reference's stopping tolerance
TRAJECTORY_ITERS = 10_000  # acceptance-suite trajectory length
# Frozen brute-force optimum rho^2 for (alpha, m, L), from acceptance
# criterion 6 (tools/case3_grid_oracle.py); a sweep cell at one of these
# configurations must agree to within ORACLE_TOL.
GRID_ORACLE = {
    (1.0, 1.0, 10.0): 0.673418,
    (0.3, 1.0, 100.0): 0.878060,
    (1.0, 1.0, 1.0): 0.000007,
}
ORACLE_TOL = 1e-2


def certified_iters(rho_sq: float) -> float:
    """Certified iterations to shrink ||x - x*||^2 by 1e6 at squared rate rho_sq."""
    return math.log(1e-6) / math.log(rho_sq)


def reference_iterations(A, b, lams, tol: float, budget: int):
    """Iterations DRS on min ||x||_1 s.t. Ax = b (alpha = 1) needs at each
    relaxation parameter to reach ||z - y|| <= tol, or None past ``budget``.

    The benchmark's own numpy recursion, independent of the library under
    test, with all relaxation parameters advanced together.
    """
    G = np.linalg.solve(A @ A.T, np.c_[A, b])
    P, q = A.T @ G[:, :-1], A.T @ G[:, -1]  # projection y = x - x P + q
    lam = np.asarray(lams, dtype=float)[:, None]
    X = np.zeros((len(lam), A.shape[1]))
    iters = np.zeros(len(lam), dtype=int)
    for k in range(1, budget + 1):
        Y = X - X @ P + q
        V = 2.0 * Y - X
        D = np.sign(V) * np.maximum(np.abs(V) - 1.0, 0.0) - Y
        done = (iters == 0) & (np.linalg.norm(D, axis=1) <= tol)
        iters[done] = k
        if iters.all():
            return iters
        X += lam * D
    return None


def lasso_reference_iterations(A, b, gamma: float, lam: float, tol: float,
                               budget: int):
    """Iterations DRS on 0.5 ||Ax - b||^2 + gamma ||x||_1 (alpha = 1) needs at
    relaxation parameter ``lam`` to reach ||z - y|| <= tol, or None past
    ``budget``.  The benchmark's own numpy recursion, like
    ``reference_iterations``."""
    n = A.shape[1]
    R = np.linalg.inv(np.eye(n) + A.T @ A)
    c = R @ (A.T @ b)
    x = np.zeros(n)
    for k in range(1, budget + 1):
        y = R @ x + c
        v = 2.0 * y - x
        d = np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0) - y
        if np.linalg.norm(d) <= tol:
            return k
        x += lam * d
    return None


def solvable_seeds(stream, rows: int, cols: int):
    """Endless stream of program seeds drawn from ``default_rng(stream)``
    whose basis-pursuit instance converges within ITER_BUDGET at every
    documented lambda."""
    rng = np.random.default_rng(stream)
    while True:
        seed = int(rng.integers(0, 2**31 - 1))
        _, _, data = cli.gen_basis_pursuit(
            cli.ProblemSpec("basis_pursuit", rows, cols, seed=seed))
        if reference_iterations(data["A"], data["b"], LAMBDAS, SOLVE_TOL,
                                ITER_BUDGET) is not None:
            yield seed


def converging_lasso_seeds(stream, rows: int, cols: int, rank: int):
    """Endless stream of program seeds drawn from ``default_rng(stream)``
    whose LASSO instance's reference solve (alpha = 1, the Case-2 lambda,
    ``splitting.solve_reference``'s tolerance) converges within
    ITER_BUDGET iterations."""
    rng = np.random.default_rng(stream)
    while True:
        seed = int(rng.integers(0, 2**31 - 1))
        spec = cli.ProblemSpec("lasso", rows, cols, rank=rank, seed=seed)
        f, _, fc = cli.gen_lasso(spec)
        lam = certify.suggest_lambda_case2(1.0, fc.L)
        if lasso_reference_iterations(f.A, f.b, spec.gamma, lam, REFERENCE_TOL,
                                      ITER_BUDGET) is not None:
            yield seed


# -- tracing -----------------------------------------------------------------

def _set(stack: contextlib.ExitStack, owner, attr: str, value):
    """Set ``owner.attr`` to ``value`` until ``stack`` closes."""
    stack.enter_context(mock.patch.object(owner, attr, value))


_PROX_KIND = {"_AffineProjection": "affine", "_SoftThreshold": "soft_threshold",
              "_QuadraticProx": "quadratic"}


def wrap_prox(tracer, stack: contextlib.ExitStack, *ops):
    """Span every evaluate/objective call of the given prox objects."""
    for op in ops:
        kind = _PROX_KIND.get(type(op).__name__, type(op).__name__.lower())
        _set(stack, op, "evaluate", tracer.wrap(f"prox.{kind}.evaluate", op.evaluate))
        _set(stack, op, "objective", tracer.wrap("prox.objective", op.objective))


def _linalg_functions():
    return [n for n in numpy.linalg.__all__
            if callable(getattr(numpy.linalg, n))
            and not isinstance(getattr(numpy.linalg, n), type)]


def install_tracing(tracer, stack: contextlib.ExitStack):
    """Wrap the library's public entry points and numpy.linalg in spans."""
    counts = tracer.counts

    def on_build(args, out):
        wrap_prox(tracer, stack, out[0], out[1])

    def on_drs(args, trace):
        counts["drs_runs"] += 1
        counts["iters"] += len(trace)
        if len(trace):
            n = trace.records[0].x.size
            counts["trace_bytes_max"] = max(counts["trace_bytes_max"],
                                            len(trace) * 3 * n * 8)

    def on_certificate(args, cert):
        if tracer.is_open("sdplite.optimize_rate"):
            counts["revalidations"] += 1
            counts["revalidations_feasible"] += int(cert.feasible)

    def on_linalg(args, out):
        a = args[0] if args else None
        counts["linalg_matrices"] += (
            int(np.prod(np.shape(a)[:-2])) if np.ndim(a) > 2 else 1)

    w = tracer.wrap
    drs = w("splitting.drs_run", splitting.drs_run, on_return=on_drs)
    _set(stack, cli, "drs_run", drs)
    _set(stack, splitting, "drs_run", drs)
    wrapped = (  # (module, attribute, span name, return hook)
        (cli, "build_problem", "cli.build_problem", on_build),
        (cli, "write_trace_csv", "splitting.write_trace_csv", None),
        (splitting, "solve_reference", "splitting.solve_reference", None),
        (splitting, "lyapunov_series", "splitting.lyapunov_series", None),
        (prox, "estimate_class_quadratic", "funclass.estimate_class", None),
        (sdplite, "sweep_heatmap", "sdplite.sweep_heatmap", None),
        (sdplite, "write_heatmap_csv", "sdplite.write_heatmap_csv", None),
        (sdplite, "optimize_rate", "sdplite.optimize_rate", None),
        (certify, "make_certificate", "certify.make_certificate", on_certificate),
        (sdplite, "eig_sym", "sdplite.eig_sym", None),
    )
    for module, attr, span, hook in wrapped:
        _set(stack, module, attr, w(span, getattr(module, attr), on_return=hook))
    for name in _linalg_functions():
        _set(stack, numpy.linalg, name,
             w(f"numpy.linalg.{name}", getattr(numpy.linalg, name),
               inside="sdplite.optimize_rate", on_return=on_linalg))


class Workload:
    """Defaults for a workload whose set-up is only importing drsplit."""

    name = ""
    min_ops = 1

    def setup_args(self):
        return None

    @staticmethod
    def setup_from_args(args):
        return None

    def setup(self):
        pass

    def certified_iters(self, inp, out) -> dict:
        """Certified iteration counts of the op's Case-3 results, keyed by
        problem, so a problem met twice in a run counts once."""
        return {}


@contextlib.contextmanager
def traced(tracer, root: str):
    """Tracing installed, inside one root span named ``root``."""
    with contextlib.ExitStack() as stack:
        install_tracing(tracer, stack)
        i = tracer.begin(tracer.name_to_id(root))
        try:
            yield
        finally:
            tracer.finish(i)


# -- output checks shared by the workloads -----------------------------------

def check_trace_csv(path: str, iters: int):
    """The trace CSV has one row per iteration, k running 0..iters-1."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"trace CSV unreadable: {exc}"]
    if not rows or rows[0][:2] != ["k", "fp_residual"]:
        return ["trace CSV header missing"]
    ks = [r[0] for r in rows[1:]]
    if len(ks) != iters:
        return [f"trace CSV has {len(ks)} rows for {iters} iterations"]
    if ks != [str(k) for k in range(iters)]:
        return ["trace CSV iteration column is not 0..n-1"]
    return []


# -- sweep -------------------------------------------------------------------

def jittered_grid(grid, rng):
    """Each point moved in log space by up to 0.4 of its distance to a
    neighbour; end points move inward only, so the range is kept."""
    logs = np.log10(np.asarray(grid, dtype=float))
    gaps = np.diff(logs)
    left = np.concatenate(([0.0], gaps))
    right = np.concatenate((gaps, [0.0]))
    width = 0.4 * np.minimum(np.where(left > 0, left, np.inf),
                             np.where(right > 0, right, np.inf))
    lo = np.where(left > 0, -width, 0.0)
    hi = np.where(right > 0, width, 0.0)
    return 10.0 ** (logs + rng.uniform(lo, hi))


@dataclass
class SweepOutput:
    cells: list
    csv_path: str
    rechecks: list = field(default_factory=list)


class Sweep(Workload):
    """``drsplit --mode sweep``: sweep_heatmap then write_heatmap_csv.

    The grid is 25 alpha x 6 kappa cells.  Seed 0 is the documented grid;
    other seeds move every alpha and kappa within its own grid spacing.  One
    op is one alpha row of the grid, its six kappa cells in one
    sweep_heatmap call, so a run of about a minute holds 25 samples of op
    time rather than one.  The rows run in an order shuffled by the seed,
    and an untraced run covers the whole grid at least once (``min_ops``).
    """

    name = "sweep"

    def __init__(self, seed: int, out_dir: str):
        alphas, kappas = sdplite.DEFAULT_ALPHA_GRID, sdplite.DEFAULT_KAPPA_GRID
        self.out = os.path.join(out_dir, "heatmap.csv")
        self.cells_out = os.path.join(out_dir, f"sweep_cells_seed{seed}.csv")
        if seed == 0:
            self.alphas = [float(a) for a in alphas]
            self.kappas = [float(k) for k in kappas]
        else:
            rng = np.random.default_rng([seed, 2])
            self.alphas = [float(a) for a in jittered_grid(alphas, rng)]
            self.kappas = [float(k) for k in jittered_grid(kappas, rng)]
        self.order = np.random.default_rng([seed, 6]).permutation(len(self.alphas))
        self.checked = {}  # (alpha, kappa) -> (cell, (max_eig, failure))

    @property
    def min_ops(self) -> int:
        return len(self.alphas)

    def warmup(self):
        sdplite.optimize_rate(1.0, FunctionClass(1.0, 10.0))

    def prepare(self, i: int):
        return self.alphas[self.order[i % len(self.order)]]

    def run(self, alpha, tracer):
        cells = sdplite.sweep_heatmap([alpha], self.kappas, m_base=1.0)
        sdplite.write_heatmap_csv(cells, self.out)
        return SweepOutput(cells, self.out)

    def check(self, alpha, out: SweepOutput):
        reasons = check_sweep(out, len(self.kappas))
        for c, recheck in zip(out.cells, out.rechecks):
            self.checked[c.alpha, c.kappa] = (c, recheck)
        write_cells(sorted(self.checked.items()), self.cells_out)
        return reasons

    def certified_iters(self, alpha, out: SweepOutput):
        return {(c.alpha, c.kappa): certified_iters(c.rho_opt ** 2) for c in out.cells
                if c.feasible and 0.0 < c.rho_opt < 1.0}


def check_sweep(out: SweepOutput, n_cells: int):
    """Reasons a sweep op failed.

    Every cell must be feasible with rho < 1, and re-check on the direct 3x3
    factor through ``certify.make_certificate`` at rho^2 = rho_opt^2.  Cells
    at a GRID_ORACLE configuration must match the frozen optimum.  Fills
    ``out.rechecks`` with (max_eig, reason) per cell.
    """
    reasons = []
    if len(out.cells) != n_cells:
        reasons.append(f"{len(out.cells)} cells, expected {n_cells}")
    out.rechecks = []
    for c in out.cells:
        tag = f"cell alpha={c.alpha:.6g} kappa={c.kappa:.6g}"
        why, max_eig = "", math.nan
        if not c.feasible:
            why = "optimizer reported the cell infeasible"
        elif not 0.0 < c.rho_opt < 1.0:
            why = f"rho_opt {c.rho_opt!r} not in (0, 1)"
        else:
            fc = FunctionClass(1.0, c.kappa)
            try:
                cert = certify.make_certificate(
                    certify.CertCase.CASE3, fc, c.alpha, c.lambda_opt,
                    sigma1=c.sigma1, sigma2=c.sigma2, rho_sq=c.rho_opt ** 2)
                max_eig = cert.max_eig
                if not cert.feasible:
                    why = f"3x3 re-check failed, max_eig {cert.max_eig:.3e}"
            except ValueError as exc:
                why = f"3x3 re-check rejected the parameters: {exc}"
            oracle = GRID_ORACLE.get((c.alpha, 1.0, c.kappa))
            if not why and oracle is not None and \
                    abs(c.rho_opt ** 2 - oracle) > ORACLE_TOL:
                why = (f"rho^2 {c.rho_opt ** 2:.6f} differs from the grid "
                       f"oracle {oracle:.6f} by more than {ORACLE_TOL:g}")
        out.rechecks.append((max_eig, why))
        if why:
            reasons.append(f"{tag}: {why}")
    try:
        with open(out.csv_path, newline="") as fh:
            n_rows = sum(1 for _ in fh) - 1
        if n_rows != len(out.cells):
            reasons.append(f"heatmap CSV has {n_rows} rows for {len(out.cells)} cells")
    except OSError as exc:
        reasons.append(f"heatmap CSV unreadable: {exc}")
    return reasons


def write_cells(checked, path: str):
    """Per-cell artifact from ``((alpha, kappa), (cell, (max_eig, failure)))``
    pairs: alpha, kappa, rho^2, lambda, sigma1, sigma2, and the 3x3
    re-check's largest eigenvalue and verdict."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "kappa", "rho_sq", "lambda", "sigma1", "sigma2",
                    "feasible", "recheck_max_eig", "failure"])
        for _, (c, (max_eig, why)) in checked:
            w.writerow([repr(c.alpha), repr(c.kappa), repr(c.rho_opt ** 2),
                        repr(c.lambda_opt), repr(c.sigma1), repr(c.sigma2),
                        int(c.feasible), repr(max_eig), why])


# -- certified_run -------------------------------------------------------------

CERTIFIED_CASES = (  # (kind, rows, cols, rank) of Cases 1, 2 and 3
    ("basis_pursuit", 30, 100, None), ("lasso", 60, 40, 20), ("lasso", 60, 40, 40),
)
# Problem triples built at set-up; the ops take them in turn, so a run's
# median is not set by the cost of one seed's problems.
CERTIFIED_POOL = 4


@dataclass
class CertifiedOutput:
    case: certify.CertCase
    rho_sq: float
    failure: str = ""  # set when no trajectory was run
    trajectory: tuple = ()  # (trace, theta, x0, x_star, F_star, V)
    csv_path: str = ""


class CertifiedRun(Workload):
    """The paper's workflow, on one problem of each case per op.

    Per problem: detect_case, the certificate (closed form, or optimize_rate
    for Case 3), a 10,000-iteration drs_run at the certified lambda,
    solve_reference, lyapunov_series, and write_trace_csv of the trajectory
    with its Lyapunov values.  ``check`` then tests the certified bound at
    every k and the CSV's rows, outside the timed op, like every other
    output check.  Set-up builds CERTIFIED_POOL triples of basis pursuit
    30x100 (Case 1), LASSO 60x40 rank 20 (Case 2) and LASSO 60x40 full rank
    (Case 3); op i runs all three problems of triple i mod CERTIFIED_POOL.
    The cases cost different amounts, so an op that ran one problem would
    put the run's median on the boundary between two cases' op times.  The
    Case-1 and Case-2 instances converge within ITER_BUDGET iterations
    (``solvable_seeds``, ``converging_lasso_seeds``).
    """

    name = "certified_run"

    def __init__(self, seed: int, out_dir: str):
        case1, case2, _ = CERTIFIED_CASES
        bp = solvable_seeds([seed, 3], case1[1], case1[2])
        lasso = converging_lasso_seeds([seed, 4], *case2[1:])
        full = np.random.default_rng([seed, 5]).integers(0, 2**31 - 1, CERTIFIED_POOL)
        self.specs = [
            [cli.ProblemSpec(kind, r, c, rank=rk, seed=int(s))
             for (kind, r, c, rk), s in zip(CERTIFIED_CASES, (next(bp), next(lasso), f))]
            for f in full]
        self.out_dir = out_dir
        self.problems = []

    def setup_args(self):
        return [[[s.kind, s.rows, s.cols, s.rank, s.seed] for s in triple]
                for triple in self.specs]

    @staticmethod
    def setup_from_args(args):
        return [[cli.build_problem(cli.ProblemSpec(k, r, c, rank=rk, seed=s))
                 for k, r, c, rk, s in triple] for triple in args]

    def setup(self):
        self.problems = self.setup_from_args(self.setup_args())

    def warmup(self):
        self.run(0, None)

    def prepare(self, i: int):
        return i % len(self.problems)

    def run(self, k: int, tracer):
        with contextlib.ExitStack() as stack:
            outs = []
            for f, g, fc in self.problems[k]:
                if tracer is not None:
                    wrap_prox(tracer, stack, f, g)
                outs.append(certified_workflow(f, g, fc, self.out_dir))
            return outs

    def check(self, k: int, outs):
        reasons = []
        for out in outs:
            if out.failure:
                reasons.append(f"{out.case.value}: {out.failure}")
                continue
            found = check_certified_bound(out.case, out.rho_sq, *out.trajectory)
            found += check_trace_csv(out.csv_path, TRAJECTORY_ITERS)
            reasons.extend(f"{out.case.value}: {r}" for r in found)
        return reasons

    def certified_iters(self, k: int, outs):
        return {k: certified_iters(out.rho_sq) for out in outs
                if out.case is certify.CertCase.CASE3}


def certified_workflow(f, g, fc, out_dir: str, alpha: float = 1.0) -> CertifiedOutput:
    case = certify.detect_case(fc)
    theta, rho_sq = None, math.nan
    if case is certify.CertCase.CASE1:
        lam = 1.0
        sigma, theta = certify.analytic_params_case1(alpha, lam)
        cert = certify.make_certificate(case, fc, alpha, lam, sigma1=sigma,
                                        sigma2=sigma, theta=theta)
    elif case is certify.CertCase.CASE2:
        lam = certify.suggest_lambda_case2(alpha, fc.L)
        sigma, theta = certify.analytic_params_case2(alpha, lam, fc.L)
        cert = certify.make_certificate(case, fc, alpha, lam, sigma1=sigma,
                                        sigma2=sigma, theta=theta)
    else:
        cert = sdplite.optimize_rate(alpha, fc)
        lam, rho_sq = cert.lam, cert.rho_sq
    if not cert.feasible:
        return CertifiedOutput(case, rho_sq,
                               f"certificate infeasible, max_eig {cert.max_eig:.3e}")
    params = splitting.DrsParams(alpha=alpha, lam=lam, max_iters=TRAJECTORY_ITERS,
                                 stop_tol=0.0)
    x0 = np.zeros(f.A.shape[1])
    trace = splitting.drs_run(f, g, params, x0)
    x_star, _, F_star = splitting.solve_reference(f, g, params, x0)
    V = splitting.lyapunov_series(trace, case, theta, x_star, F_star=F_star)
    path = os.path.join(out_dir, f"certified_trace_{case.value}.csv")
    cli.write_trace_csv(trace, path, lyapunov=V)
    return CertifiedOutput(case, rho_sq, csv_path=path,
                           trajectory=(trace, theta, x0, x_star, F_star, V))


def check_certified_bound(case, rho_sq, trace, theta, x0, x_star, F_star, V):
    """Acceptance criteria 3-5 (certified bound at every k) and 9 (Lyapunov
    values do not increase; in Case 3 they contract at rate rho^2)."""
    reasons = []
    n = len(trace)
    if n != TRAJECTORY_ITERS:
        reasons.append(f"trajectory has {n} iterations, expected {TRAJECTORY_ITERS}")
    dist0 = float(np.sum((x0 - x_star) ** 2))
    k = np.arange(1, n + 1, dtype=float)
    if case is certify.CertCase.CASE1:
        sub = np.array([r.subgrad_residual for r in trace.records]) ** 2
        bad = np.minimum.accumulate(sub) > dist0 / (theta * k)
    elif case is certify.CertCase.CASE2:
        gaps = trace.objectives() - F_star
        bad = ~(np.minimum.accumulate(gaps) <= dist0 / (theta * k) * (1.0 + 1e-6))
    else:
        dist = V  # Case 3: V_k = ||x_k - x*||^2
        below = np.nonzero(dist <= 1e-20)[0]
        horizon = int(below[0]) + 1 if len(below) else n
        bound = 1.01 * rho_sq ** (k - 1) * dist0
        bad = np.zeros(n, dtype=bool)
        bad[:horizon] = ~(dist[:horizon] <= bound[:horizon])
        if horizon <= 10:
            reasons.append(f"distance floor reached after {horizon} iterations; "
                           "the rate is not exercised")
    if bad.any():
        reasons.append(f"certified bound violated at {int(bad.sum())} of {n} "
                       f"iterations, first at k={int(np.argmax(bad))}")
    if case is certify.CertCase.CASE3:
        up = ~(V[1:] <= rho_sq * V[:-1] + 1e-9)
    else:
        up = ~(np.diff(V) <= 1e-9)
    if up.any():
        reasons.append(f"Lyapunov value increased at {int(up.sum())} steps, "
                       f"first at k={int(np.argmax(up)) + 1}")
    return reasons


WORKLOADS = {w.name: w for w in (Sweep, CertifiedRun)}
