"""Command-line harness: problem generators, solver, certifier, tuner, sweep.

Problems are generated from a seeded PCG64 generator (numpy's default_rng),
so identical (seed, flags) give identical problems.  Gaussian entries come
from the generator's standard_normal (ziggurat over the 64-bit uniform
stream).  Outputs are byte-identical for identical (seed, flags) on one
numpy build and BLAS kernel: another kernel (OpenBLAS's Prescott against
its SkylakeX, say) can change the last bit of a matrix product, and with it
every later iterate.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .funclass import _positive
from .prox import prox_affine_indicator, prox_l1, prox_quadratic
from .splitting import DrsParams, drs_run, write_trace_csv
from . import certify
from . import sdplite

__all__ = [
    "ProblemSpec",
    "gen_basis_pursuit",
    "gen_lasso",
    "build_problem",
    "main",
]


@dataclass(frozen=True)
class ProblemSpec:
    """Generator inputs for the two experiment families."""

    kind: str  # "basis_pursuit" | "lasso"
    rows: int
    cols: int
    rank: Optional[int] = None
    gamma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("basis_pursuit", "lasso"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be positive")
        if self.kind == "basis_pursuit" and self.rows >= self.cols:
            raise ValueError("basis pursuit requires rows < cols (underdetermined)")
        if self.kind == "lasso":
            _positive("gamma", self.gamma)
            r = self.rank if self.rank is not None else min(self.rows, self.cols)
            if not 1 <= r <= min(self.rows, self.cols):
                raise ValueError("rank must be in [1, min(rows, cols)]")


def gen_basis_pursuit(spec: ProblemSpec):
    """Affine-constraint + l1 pair with a consistent k-sparse ground truth.

    b = A x_truth with k = ceil(rows/4) nonzeros.
    """
    if spec.kind != "basis_pursuit":
        raise ValueError("spec.kind must be basis_pursuit")
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.rows, spec.cols))
    k = math.ceil(spec.rows / 4)
    support = rng.choice(spec.cols, size=k, replace=False)
    x_truth = np.zeros(spec.cols)
    x_truth[support] = rng.standard_normal(k)
    b = A @ x_truth
    return prox_affine_indicator(A, b), prox_l1(1.0), {"A": A, "b": b, "x_truth": x_truth}


def gen_lasso(spec: ProblemSpec):
    """Quadratic + l1 pair with exactly ``rank`` nonzero singular values.

    A = U diag(s) V^T from seeded orthogonal factors; the rank-deficient
    variant zeroes the trailing singular values.
    """
    if spec.kind != "lasso":
        raise ValueError("spec.kind must be lasso")
    rng = np.random.default_rng(spec.seed)
    kmin = min(spec.rows, spec.cols)
    rank = spec.rank if spec.rank is not None else kmin
    U, _ = np.linalg.qr(rng.standard_normal((spec.rows, spec.rows)))
    V, _ = np.linalg.qr(rng.standard_normal((spec.cols, spec.cols)))
    s = np.sort(rng.uniform(0.5, 2.0, size=kmin))[::-1]
    s[rank:] = 0.0
    A = (U[:, :kmin] * s) @ V[:, :kmin].T
    b = rng.standard_normal(spec.rows)
    f = prox_quadratic(A, b)
    g = prox_l1(spec.gamma)
    return f, g, f.function_class


def build_problem(spec: ProblemSpec):
    """Dispatch to the generator; returns (f, g, f's FunctionClass)."""
    if spec.kind == "basis_pursuit":
        f, g, _ = gen_basis_pursuit(spec)
        return f, g, f.function_class
    f, g, fc = gen_lasso(spec)
    return f, g, fc


def _spec_from_args(args) -> ProblemSpec:
    if args.problem == "basis_pursuit":
        rows = args.rows if args.rows is not None else 30
        cols = args.cols if args.cols is not None else 100
    else:
        rows = args.rows if args.rows is not None else 60
        cols = args.cols if args.cols is not None else 40
    return ProblemSpec(kind=args.problem, rows=rows, cols=cols,
                       rank=args.rank, gamma=args.gamma, seed=args.seed)


def _x0(args, dim: int) -> np.ndarray:
    if args.x0_seed is None:
        return np.zeros(dim)
    return np.random.default_rng(args.x0_seed).standard_normal(dim)


def _out_with_suffix(path: str, suffix: str) -> str:
    if "." in path.rsplit("/", 1)[-1]:
        stem, ext = path.rsplit(".", 1)
        return f"{stem}{suffix}.{ext}"
    return path + suffix


def cmd_solve(args) -> int:
    spec = _spec_from_args(args)
    f, g, _ = build_problem(spec)
    lams = args.lambda_list if args.lambda_list else [args.lam]
    outs = ([_out_with_suffix(args.out, f"_lam{lam:g}") for lam in lams]
            if len(lams) > 1 else [args.out])
    for j, out in enumerate(outs):
        if out in outs[:j]:
            i = outs.index(out)
            raise ValueError(f"--lambda-list values {lams[i]!r} and {lams[j]!r} both write {out}")
    runs = [DrsParams(alpha=args.alpha, lam=lam, max_iters=args.max_iters, stop_tol=args.tol)
            for lam in lams]
    for params, out in zip(runs, outs):
        trace = drs_run(f, g, params, _x0(args, spec.cols))
        write_trace_csv(trace, out)
        replay = ("" if trace._replay is None else
                  " ({} computed, the rest repeating with period {})".format(*trace._replay))
        print(f"lambda={params.lam:g}: {len(trace)} iterations{replay}, status={trace.status}, "
              f"final residual={trace.fp_residual[-1]:.3e} -> {out}")
    return 0


def cmd_certify(args) -> int:
    spec = _spec_from_args(args)
    _, _, fc = build_problem(spec)
    if args.theta is not None and certify.detect_case(fc) is certify.CertCase.CASE3:
        raise ValueError("--theta sets the Case-1/2 weight; f is strongly convex (Case 3)")
    cert = certify.tune(fc, args.alpha, args.lam)
    if args.theta is not None:
        cert = certify.make_certificate(cert.case, fc, args.alpha, cert.lam,
                                        sigma1=cert.sigma1, sigma2=cert.sigma2,
                                        theta=args.theta)
    certify.write_certificates_csv([cert], args.out)
    print(f"case={cert.case.value} alpha={cert.alpha:g} lambda={cert.lam:g} "
          f"max_eig={cert.max_eig:.3e} feasible={cert.feasible} -> {args.out}")
    return 0 if cert.feasible else 1


def cmd_tune(args) -> int:
    spec = _spec_from_args(args)
    _, _, fc = build_problem(spec)
    cert = certify.tune(fc, args.alpha)
    if cert.case is certify.CertCase.CASE3:
        print(f"case3: lambda_opt={cert.lam:g} rho={math.sqrt(cert.rho_sq):g} "
              f"rho_sq={cert.rho_sq:g}")
    else:
        print(f"{cert.case.value}: lambda={cert.lam:g} theta={cert.theta:g} "
              f"sigma={cert.sigma1:g} (bound ||x0-x*||^2/(theta k))")
    certify.write_certificates_csv([cert], args.out)
    return 0 if cert.feasible else 1


def _parse_alpha_grid(text: str) -> np.ndarray:
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError as exc:
        raise ValueError("--alpha-grid expects lo:hi:steps") from exc
    if not (_positive("--alpha-grid lo", lo) < _positive("--alpha-grid hi", hi) and steps >= 1):
        raise ValueError("--alpha-grid expects lo < hi and steps >= 1")
    return np.logspace(math.log10(lo), math.log10(hi), steps)


def cmd_sweep(args) -> int:
    alphas = (_parse_alpha_grid(args.alpha_grid) if args.alpha_grid
              else sdplite.DEFAULT_ALPHA_GRID)
    kappas = args.kappa_list if args.kappa_list else list(sdplite.DEFAULT_KAPPA_GRID)
    cells = sdplite.sweep_heatmap(alphas, kappas, m_base=args.m_base)
    sdplite.write_heatmap_csv(cells, args.out)
    failed = [c for c in cells if not c.feasible]
    for c in failed:
        print(f"cell alpha={c.alpha:g} kappa={c.kappa:g} failed: {c.reason}",
              file=sys.stderr)
    print(f"{len(cells)} cells ({len(failed)} failed) -> {args.out}")
    return 0


def _float_list(text: str):
    return [float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="drsplit",
        description="Douglas-Rachford splitting with certified convergence rates",
    )
    p.add_argument("--mode", choices=["solve", "certify", "tune", "sweep"],
                   default="solve")
    p.add_argument("--problem", choices=["basis_pursuit", "lasso"],
                   default="basis_pursuit")
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--lambda-list", type=_float_list, default=None,
                   metavar="A,B,C")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--alpha-grid", type=str, default=None, metavar="LO:HI:STEPS")
    p.add_argument("--kappa-list", type=_float_list, default=None, metavar="A,B,C")
    p.add_argument("--m-base", type=float, default=1.0)
    p.add_argument("--x0-seed", type=int, default=None)
    p.add_argument("--out", type=str, default="drsplit_out.csv")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    commands = {"solve": cmd_solve, "certify": cmd_certify,
                "tune": cmd_tune, "sweep": cmd_sweep}
    try:
        return commands[args.mode](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # a diverged run or no certificate
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
