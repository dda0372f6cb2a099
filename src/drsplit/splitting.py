"""The Douglas-Rachford iteration, its relaxed-ADMM form, and trace tooling.

The solver records every iterate together with the fixed-point residual
||z_k - y_k|| and the optimality residual ||df(y_k) + dg(z_k)||, which are
tied by the exact identity  z_k - y_k = -alpha (df(y_k) + dg(z_k)).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .prox import ProxOperator

__all__ = [
    "DrsParams",
    "TraceRecord",
    "Trace",
    "drs_run",
    "admm_run",
    "lyapunov_series",
    "solve_reference",
    "write_trace_csv",
]


@dataclass(frozen=True)
class DrsParams:
    """Step size, relaxation schedule, iteration cap, and stopping tolerance.

    ``lam`` is either a constant relaxation parameter or an explicit
    per-iteration sequence covering at least ``max_iters`` entries.
    """

    alpha: float
    lam: Union[float, Sequence[float]] = 1.0
    max_iters: int = 1000
    stop_tol: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be >= 0")
        if np.isscalar(self.lam):
            if not self.lam > 0:
                raise ValueError(f"relaxation parameter must be > 0, got {self.lam}")
        else:
            seq = np.asarray(self.lam, dtype=float)
            if len(seq) < self.max_iters:
                raise ValueError("relaxation sequence shorter than max_iters")
            if not np.all(seq > 0):
                raise ValueError("every relaxation parameter must be > 0")

    def lam_at(self, k: int) -> float:
        if np.isscalar(self.lam):
            return float(self.lam)
        return float(self.lam[k])


@dataclass
class TraceRecord:
    """One iteration: state triple, residuals, and objective when evaluable."""

    k: int
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fp_residual: float
    subgrad_residual: float
    objective: Optional[float] = None


@dataclass
class Trace:
    """Ordered iteration records plus terminal status and terminal state."""

    records: list = field(default_factory=list)
    status: str = "iteration-limit"
    x_final: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def fp_residuals(self) -> np.ndarray:
        return np.array([r.fp_residual for r in self.records])

    def objectives(self) -> np.ndarray:
        return np.array(
            [math.nan if r.objective is None else r.objective for r in self.records]
        )


def _objective_at(f: ProxOperator, g: ProxOperator, point: np.ndarray) -> Optional[float]:
    vf = f.objective(point)
    vg = g.objective(point)
    if vf is None or vg is None:
        return None
    return vf + vg


def _check_finite(v: np.ndarray, name: str, k: int):
    if not np.all(np.isfinite(v)):
        raise RuntimeError(f"non-finite {name} iterate at iteration {k}")


def drs_run(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray) -> Trace:
    """Run Douglas-Rachford splitting on f + g from x0.

        y_k = prox_{af}(x_k);  z_k = prox_{ag}(2 y_k - x_k);
        x_{k+1} = x_k + lam_k (z_k - y_k).

    Stops when ||z_k - y_k|| <= stop_tol or the iteration cap is reached.
    Records every iterate; the objective column is F evaluated at z_k when
    both function values are evaluable.
    """
    a = params.alpha
    x = np.asarray(x0, dtype=float).copy()
    trace = Trace()
    for k in range(params.max_iters):
        y = f.evaluate(x, a)
        z = g.evaluate(2.0 * y - x, a)
        if y.shape != x.shape or z.shape != x.shape:
            raise ValueError("dimension mismatch between prox outputs and x0")
        _check_finite(y, "y", k)
        _check_finite(z, "z", k)
        fp = float(np.linalg.norm(z - y))
        trace.records.append(
            TraceRecord(k, x.copy(), y, z, fp, fp / a, _objective_at(f, g, z))
        )
        if fp <= params.stop_tol:
            trace.status = "converged"
            trace.x_final = x
            return trace
        x = x + params.lam_at(k) * (z - y)
        _check_finite(x, "x", k)
    trace.x_final = x
    return trace


def admm_run(f_prox: ProxOperator, g_prox: ProxOperator, params: DrsParams, u0: np.ndarray) -> Trace:
    """Relaxed ADMM on the consensus problem min f(x) + g(z), x - z = 0.

    Updates (scaled dual u, relaxation applied to the x block):

        x+ = prox_{af}(z - u);  v = lam x+ + (1 - lam) z;
        z+ = prox_{ag}(v + u);  u+ = u + v - z+.

    The trace stores x = x+, y = u (dual), z = z+, with the primal residual
    ||x+ - z+|| in fp_residual.  This is standard relaxed ADMM, equivalent to
    DRS applied to the dual problem.
    """
    a = params.alpha
    u = np.asarray(u0, dtype=float).copy()
    z = np.zeros_like(u)
    trace = Trace()
    for k in range(params.max_iters):
        lam = params.lam_at(k)
        xn = f_prox.evaluate(z - u, a)
        v = lam * xn + (1.0 - lam) * z
        zn = g_prox.evaluate(v + u, a)
        un = u + v - zn
        _check_finite(xn, "x", k)
        _check_finite(zn, "z", k)
        _check_finite(un, "u", k)
        fp = float(np.linalg.norm(xn - zn))
        obj_f = f_prox.objective(xn)
        obj_g = g_prox.objective(zn)
        obj = None if obj_f is None or obj_g is None else obj_f + obj_g
        trace.records.append(TraceRecord(k, xn, u.copy(), zn, fp, fp / a, obj))
        z, u = zn, un
        if fp <= params.stop_tol:
            trace.status = "converged"
            break
    trace.x_final = z
    return trace


def _theta_at(theta, k: int) -> float:
    if np.isscalar(theta):
        return float(theta)
    return float(theta[k])


def lyapunov_series(trace: Trace, case, theta, x_star: np.ndarray,
                    F_star: Optional[float] = None) -> np.ndarray:
    """Lyapunov values V_k along a trace, one per recorded iteration.

    Case 1: V_k = ||x_k - x*||^2 + sum_{i<k} theta_i ||df(y_i) + dg(z_i)||^2.
    Case 2: V_k = ||x_k - x*||^2 + sum_{i<k} theta_i [F(z_i) - F*].
    Case 3: V_k = ||x_k - x*||^2.
    """
    from .certify import CertCase

    case = CertCase(case)
    x_star = np.asarray(x_star, dtype=float)
    dist = np.array([float(np.sum((r.x - x_star) ** 2)) for r in trace.records])
    if case is CertCase.CASE3:
        return dist
    incr = np.zeros(len(trace.records))
    for i, r in enumerate(trace.records):
        if case is CertCase.CASE1:
            incr[i] = _theta_at(theta, i) * r.subgrad_residual ** 2
        else:
            if F_star is None:
                raise ValueError("Case 2 Lyapunov values require F_star")
            if r.objective is None:
                raise ValueError(f"missing objective value at iteration {r.k}")
            incr[i] = _theta_at(theta, i) * (r.objective - F_star)
    running = np.concatenate(([0.0], np.cumsum(incr)[:-1]))
    return dist + running


def solve_reference(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray):
    """High-precision fixed point: (x*, y*, F*) with ||z - y|| <= 1e-12.

    Reruns the solver with a tight tolerance and a large iteration cap; the
    terminal y (equal to z within tolerance) is the minimizer and F* is the
    objective there.
    """
    cap = max(params.max_iters, 2_000_000)
    ref = DrsParams(alpha=params.alpha, lam=params.lam if np.isscalar(params.lam) else 1.0,
                    max_iters=cap, stop_tol=1e-12)
    trace = drs_run(f, g, ref, x0)
    if trace.status != "converged":
        raise RuntimeError(
            f"reference solve did not reach ||z - y|| <= 1e-12 in {cap} "
            "iterations; increase the iteration cap"
        )
    last = trace.records[-1]
    if last.fp_residual > 1e-8 or last.subgrad_residual > 1e-8 / params.alpha:
        raise RuntimeError("terminal fixed-point residuals unexpectedly large")
    F_star = _objective_at(f, g, last.z)
    return trace.x_final, last.y, F_star


def write_trace_csv(trace: Trace, path, lyapunov: Optional[np.ndarray] = None):
    """Trace CSV: columns k, fp_residual, subgrad_residual, objective, V."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "fp_residual", "subgrad_residual", "objective", "V"])
        for i, r in enumerate(trace.records):
            obj = "" if r.objective is None else repr(r.objective)
            v = "" if lyapunov is None else repr(float(lyapunov[i]))
            w.writerow([r.k, repr(r.fp_residual), repr(r.subgrad_residual), obj, v])
