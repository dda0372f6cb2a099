"""One sha256 over every DRS, ADMM and certificate output on the benchmark's pools.

For each seed, the benchmark's certified_run problem pools (Cases 1-3, built
by ``perfbench/workloads.py``, which this script imports and does not change)
are run through the paper's workflow at the tuned relaxation parameter:

  * the certificate ``certify.tune`` returns: lambda, sigma1, sigma2, theta,
    rho^2, the witness bytes, max_eig and feasible;
  * ``drs_run`` and ``admm_run`` (from u0 = 0) for 10^4 iterations at
    stop_tol 0 and at 1e-10: every Trace column, x_final and the status, or
    the run's error message (x, y and z as the trace gives them when they
    are read together: a DRS trace's y and z, and an ADMM trace's x, u and
    z, recomputed from its held state rows, and a replayed run's rows
    mapped from the rows it holds), and under the label subgrad_residual
    fp_residual / alpha, the residual the trace's readers derive;
  * ``solve_reference``: (x*, y*, F*), or its error message;
  * the trace CSV of the stop_tol 0 DRS run with its Lyapunov values, as bytes.

Once per invocation it also digests, through ``drs_run`` and ``admm_run``,
two kinds of long run that the pools hardly reach (few pool runs grow their
rows far past the first 1,024, and none of them replays a cycle at a
tolerance below its rounding floor):

  * f = 0.5e-3 ||x - 1||^2, g = 0, n = 100 from x0 = 0 at stop_tol 1e-12,
    which DRS reaches after 23,038 iterations, at max_iters 24,000 and
    200,000;
  * the LASSO 60 x 40 of rank 40, seed 7, at its tuned lambda and stop_tol
    1e-17, below its rounding floor: the run cycles, holds the rows it
    computed, and maps every column from them up to max_iters 10,000.

With them, in the same part, go two early-stopping ``admm_run`` runs at
stop_tol 1e-8 and lambda 1.5: basis pursuit 30 x 100, seed 42, at alpha 1,
and the LASSO above at alpha 0.3.  A DRS tolerance derived from a
nonexpansiveness bound would stop the first late and miss the second's
stop row.

Two checkouts whose library gives the same bits print the same digest.  A
line per part follows it, each the sha256 of that part's share of the same
bytes: the certificate, the ``drs_run`` runs, the ``admm_run`` runs, the
reference solves, the trace CSVs and the growth runs.  Where the digests
differ, those lines name the part that moved.  A last line names numpy's
BLAS build configuration and ``OPENBLAS_CORETYPE`` (a DYNAMIC_ARCH OpenBLAS
picks its kernel from the CPU when that is unset): a matrix product's last
bits can depend on the kernel, so two digests compare only on one kernel.

Run from the root of a checkout (the library is imported from its ``src``):

    python tools/trace_digest.py --seeds 0-7
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as the benchmark pins them

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from drsplit import certify, cli, prox, splitting  # noqa: E402

ALPHA = 1.0
STOP_TOLS = (0.0, 1e-10)
COLUMNS = ("x", "y", "z", "fp_residual", "subgrad_residual", "objective", "x_final")
RECOMPUTED = ("x", "y", "z")  # read in one pass, each row's y and z computed once
PARTS = ("certificate", "drs_run", "admm_run", "reference", "trace CSV", "growth runs")


def seed_range(text: str):
    """'0-7' -> [0, ..., 7]; '3' -> [3]."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


class _Part:
    """One part's sha256, which also feeds its bytes, in order, to the overall one."""

    def __init__(self, total):
        self.total, self.own = total, hashlib.sha256()

    def update(self, data: bytes):
        self.total.update(data)
        self.own.update(data)


def _array(h, name: str, a):
    if a is None:
        h.update(f"{name}:None;".encode())
        return
    a = np.ascontiguousarray(a)
    h.update(f"{name}:{a.dtype.str}{a.shape};".encode())
    h.update(a.tobytes())


def _certificate(h, cert):
    """Feed a certificate's parameters, witness and check into ``h``."""
    h.update(f"cert case={cert.case.value} lam={cert.lam!r} sigma1={cert.sigma1!r} "
             f"sigma2={cert.sigma2!r} theta={cert.theta!r} rho_sq={cert.rho_sq!r} "
             f"max_eig={cert.max_eig!r} feasible={cert.feasible};".encode())
    _array(h, "witness", cert.witness)


def _run(h, label: str, run, f, g, params, start):
    """Feed one run's columns, x_final and status, or its error, into ``h``."""
    try:
        tr = run(f, g, params, start)
    except RuntimeError as exc:
        h.update(f"{label} tol={params.stop_tol!r} error: {exc};".encode())
        return None
    h.update(f"{label} tol={params.stop_tol!r} status={tr.status} len={len(tr)};".encode())
    columns = dict(zip(RECOMPUTED, tr._column(*RECOMPUTED)))
    columns["subgrad_residual"] = tr.fp_residual / params.alpha
    for name in COLUMNS:
        _array(h, name, columns[name] if name in columns else getattr(tr, name))
    return tr


def digest_problem(parts, f, g, fc, out_dir: str):
    """Feed one problem's certificate, runs, reference solve and trace CSV into
    their ``parts``."""
    cert = certify.tune(fc, ALPHA)
    _certificate(parts["certificate"], cert)
    x0 = np.zeros(f.A.shape[1])
    traces = []
    for tol in STOP_TOLS:
        params = splitting.DrsParams(alpha=ALPHA, lam=cert.lam,
                                     max_iters=workloads.TRAJECTORY_ITERS, stop_tol=tol)
        traces.append((params, _run(parts["drs_run"], "run", splitting.drs_run,
                                    f, g, params, x0)))
        _run(parts["admm_run"], "admm", splitting.admm_run, f, g, params, x0)
    params, trace = traces[0]
    ref = parts["reference"]
    try:
        x_star, y_star, F_star = splitting.solve_reference(f, g, params, x0)
    except RuntimeError as exc:
        ref.update(f"reference error: {exc};".encode())
        return
    _array(ref, "x_star", x_star)
    _array(ref, "y_star", y_star)
    ref.update(f"F_star={F_star!r};".encode())
    if trace is None:
        return
    V = splitting.lyapunov_series(trace, cert.case, cert.theta, x_star, F_star=F_star)
    path = os.path.join(out_dir, "trace.csv")
    splitting.write_trace_csv(trace, path, lyapunov=V)
    with open(path, "rb") as fh:
        parts["trace CSV"].update(fh.read())


def digest_growth(h):
    """Feed the runs whose rows grow far past the first capacity, and the two
    ADMM stop runs, into ``h``."""
    n = 100
    s = np.sqrt(1e-3)
    f, g = prox.prox_quadratic(s * np.eye(n), s * np.ones(n)), prox.prox_zero()
    for iters in (24_000, 200_000):
        params = splitting.DrsParams(alpha=ALPHA, max_iters=iters, stop_tol=1e-12)
        _run(h, f"slow run max_iters={iters}", splitting.drs_run, f, g, params, np.zeros(n))
        _run(h, f"slow admm max_iters={iters}", splitting.admm_run, f, g, params, np.zeros(n))
    f, g, fc = cli.gen_lasso(cli.ProblemSpec("lasso", 60, 40, rank=40, seed=7))
    params = splitting.DrsParams(alpha=ALPHA, lam=certify.tune(fc, ALPHA).lam,
                                 max_iters=workloads.TRAJECTORY_ITERS, stop_tol=1e-17)
    _run(h, "cycle run", splitting.drs_run, f, g, params, np.zeros(40))
    _run(h, "cycle admm", splitting.admm_run, f, g, params, np.zeros(40))
    for spec, alpha in ((cli.ProblemSpec("basis_pursuit", 30, 100, seed=42), 1.0),
                        (cli.ProblemSpec("lasso", 60, 40, rank=40, seed=7), 0.3)):
        f, g, _ = cli.build_problem(spec)
        params = splitting.DrsParams(alpha=alpha, lam=1.5, max_iters=1000, stop_tol=1e-8)
        _run(h, f"stop admm {spec.kind}", splitting.admm_run, f, g, params, np.zeros(spec.cols))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-7"),
                   help="benchmark seeds: a range such as 0-7 (the default), or one seed")
    args = p.parse_args(argv)
    h = hashlib.sha256()
    parts = {name: _Part(h) for name in PARTS}
    runs = 0
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in args.seeds:
            wl = workloads.CertifiedRun(seed, out_dir)
            wl.setup()
            for triple in wl.problems:
                for f, g, fc in triple:
                    h.update(f"seed={seed};".encode())
                    digest_problem(parts, f, g, fc, out_dir)
                    runs += 1
    digest_growth(parts["growth runs"])
    print(f"{h.hexdigest()}  {runs} problems, seeds {','.join(map(str, args.seeds))}, "
          "and the growth runs")
    for name, part in parts.items():
        print(f"{part.own.hexdigest()}  {name}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
          f"({blas.get('openblas configuration', 'no OpenBLAS configuration')}), "
          f"OPENBLAS_CORETYPE={os.environ.get('OPENBLAS_CORETYPE', 'unset')}")


if __name__ == "__main__":
    main()
