"""The Douglas-Rachford iteration, its relaxed-ADMM form, and trace tooling.

The solver records every iterate together with the fixed-point residual
||z_k - y_k|| and the optimality residual ||df(y_k) + dg(z_k)||, which are
tied by the exact identity  z_k - y_k = -alpha (df(y_k) + dg(z_k)).  A Trace
keeps them as arrays with one row per iteration.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

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
    """Iteration columns plus terminal status and terminal state.

    Row k of ``x``, ``y`` and ``z`` (shape iterations x n) and entry k of
    ``fp_residual``, ``subgrad_residual`` and ``objective`` (length
    iterations; ``objective`` is None when F is not evaluable) describe
    iteration k.  The columns are read-only; ``records`` presents the same
    rows as TraceRecord objects.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    fp_residual: np.ndarray
    subgrad_residual: np.ndarray
    objective: Optional[np.ndarray] = None
    status: str = "iteration-limit"
    x_final: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.fp_residual)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def records(self) -> "_Records":
        return _Records(self)

    def fp_residuals(self) -> np.ndarray:
        return self.fp_residual.copy()

    def objectives(self) -> np.ndarray:
        """The objective column, NaN throughout when F is not evaluable."""
        if self.objective is None:
            return np.full(len(self), math.nan)
        return self.objective.copy()


class _Records(Sequence):
    """Read-only sequence view of a Trace's rows as TraceRecord objects."""

    def __init__(self, trace: Trace):
        self._trace = trace

    def __len__(self):
        return len(self._trace)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        t = self._trace
        k = range(len(t))[i]
        obj = None if t.objective is None else float(t.objective[k])
        return TraceRecord(k, t.x[k], t.y[k], t.z[k], float(t.fp_residual[k]),
                           float(t.subgrad_residual[k]), obj)


def _objective(f: ProxOperator, g: ProxOperator, at_f, at_g):
    """f(at_f) + g(at_g) at one point or along the rows of two stacks; None
    when either function is not evaluable."""
    vf = f.objective(at_f)
    vg = g.objective(at_g)
    if vf is None or vg is None:
        return None
    return vf + vg


def _raise_nonfinite(k: int, **arrays):
    """Raise for the first array holding a non-finite entry.

    Called when a scalar guard computed from the arrays (a squared norm) is
    not finite; the guard is finite whenever the arrays are.
    """
    for name, v in arrays.items():
        if not np.isfinite(v).all():
            raise RuntimeError(f"non-finite {name} iterate at iteration {k}")


def _relaxations(params: DrsParams):
    """lam_0, lam_1, ... as floats, one per iteration up to max_iters."""
    if np.isscalar(params.lam):
        return itertools.repeat(float(params.lam), params.max_iters)
    return np.asarray(params.lam, dtype=float)[:params.max_iters].tolist()


def _drs_steps(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray):
    """The DRS recursion, one step per item: (x_k, y_k, z_k, ||z_k - y_k||,
    x_{k+1}).

    Stops after the first step with ||z_k - y_k|| <= stop_tol, whose x_{k+1}
    is x_k, or after max_iters steps.  Each array is new, so a consumer may
    keep any of them.
    """
    a = params.alpha
    tol = params.stop_tol
    x = np.array(x0, dtype=float)
    for k, lam in enumerate(_relaxations(params)):
        y = f.evaluate(x, a)
        z = g.evaluate(2.0 * y - x, a)
        if y.shape != x.shape or z.shape != x.shape:
            raise ValueError("dimension mismatch between prox outputs and x0")
        with np.errstate(over="ignore", invalid="ignore"):
            d = z - y
            fp = math.sqrt(d @ d)
            x_next = x + lam * d
            guard = x_next @ x_next
        if not math.isfinite(fp):
            _raise_nonfinite(k, y=y, z=z)
        if fp <= tol:
            yield x, y, z, fp, x
            return
        if not math.isfinite(guard):
            _raise_nonfinite(k, x=x_next)
        yield x, y, z, fp, x_next
        x = x_next


_FIRST_ROWS = 1024  # initial row capacity when a run may stop early


def _collect(steps, params: DrsParams, shape, objective) -> Trace:
    """Read-only Trace of the (x, y, z, fp, state) steps; the last state is
    x_final, and ``objective(X, Z)`` gives the objective column.

    Rows go into preallocated arrays: max_iters rows when the run cannot
    stop early (stop_tol == 0), else a capacity that doubles as needed and
    is trimmed at the end, so memory follows the iterations actually run.
    """
    cap = params.max_iters if params.stop_tol == 0 else min(params.max_iters, _FIRST_ROWS)
    X, Y, Z = (np.empty((cap,) + shape) for _ in range(3))
    FP = np.empty(cap)
    k = 0
    for x, y, z, fp, state in steps:
        if k == cap:
            cap = min(2 * cap, params.max_iters)
            X, Y, Z, FP = (np.concatenate((c, np.empty((cap - k,) + c.shape[1:])))
                           for c in (X, Y, Z, FP))
        X[k] = x
        Y[k] = y
        Z[k] = z
        FP[k] = fp
        k += 1
    X, Y, Z, FP = (c if len(c) == k else c[:k].copy() for c in (X, Y, Z, FP))
    trace = Trace(X, Y, Z, FP, FP / params.alpha, objective(X, Z),
                  "converged" if fp <= params.stop_tol else "iteration-limit", state)
    for c in (X, Y, Z, FP, trace.subgrad_residual, trace.objective):
        if c is not None:
            c.flags.writeable = False
    return trace


def drs_run(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray) -> Trace:
    """Run Douglas-Rachford splitting on f + g from x0.

        y_k = prox_{af}(x_k);  z_k = prox_{ag}(2 y_k - x_k);
        x_{k+1} = x_k + lam_k (z_k - y_k).

    Stops when ||z_k - y_k|| <= stop_tol or the iteration cap is reached.
    Records every iterate; the objective column is F evaluated at z_k when
    both function values are evaluable, computed once after the run.
    """
    x0 = np.asarray(x0, dtype=float)
    return _collect(_drs_steps(f, g, params, x0), params, x0.shape,
                    lambda X, Z: _objective(f, g, Z, Z))


def _admm_steps(f_prox: ProxOperator, g_prox: ProxOperator, params: DrsParams,
                u0: np.ndarray):
    """The relaxed ADMM recursion, one step per item: (x+, u, z+, ||x+ - z+||,
    z+), stopping after the first step with ||x+ - z+|| <= stop_tol."""
    a = params.alpha
    u = np.array(u0, dtype=float)
    z = np.zeros_like(u)
    for k, lam in enumerate(_relaxations(params)):
        xn = f_prox.evaluate(z - u, a)
        v = lam * xn + (1.0 - lam) * z
        zn = g_prox.evaluate(v + u, a)
        with np.errstate(over="ignore", invalid="ignore"):
            d = xn - zn
            fp = math.sqrt(d @ d)
            un = u + v - zn
            guard = un @ un
        if not math.isfinite(fp):
            _raise_nonfinite(k, x=xn, z=zn)
        if not math.isfinite(guard):
            _raise_nonfinite(k, u=un)
        yield xn, u, zn, fp, zn
        if fp <= params.stop_tol:
            return
        z, u = zn, un


def admm_run(f_prox: ProxOperator, g_prox: ProxOperator, params: DrsParams, u0: np.ndarray) -> Trace:
    """Relaxed ADMM on the consensus problem min f(x) + g(z), x - z = 0.

    Updates (scaled dual u, relaxation applied to the x block):

        x+ = prox_{af}(z - u);  v = lam x+ + (1 - lam) z;
        z+ = prox_{ag}(v + u);  u+ = u + v - z+.

    The trace stores x = x+, y = u (dual), z = z+, with the primal residual
    ||x+ - z+|| in fp_residual and f(x+) + g(z+) in objective.  This is
    standard relaxed ADMM, equivalent to DRS applied to the dual problem.
    """
    u0 = np.asarray(u0, dtype=float)
    return _collect(_admm_steps(f_prox, g_prox, params, u0), params, u0.shape,
                    lambda X, Z: _objective(f_prox, g_prox, X, Z))


def lyapunov_series(trace: Trace, case, theta, x_star: np.ndarray,
                    F_star: Optional[float] = None) -> np.ndarray:
    """Lyapunov values V_k along a trace, one per recorded iteration.

    Case 1: V_k = ||x_k - x*||^2 + sum_{i<k} theta_i ||df(y_i) + dg(z_i)||^2.
    Case 2: V_k = ||x_k - x*||^2 + sum_{i<k} theta_i [F(z_i) - F*].
    Case 3: V_k = ||x_k - x*||^2.

    ``theta`` is a constant or a sequence with at least one entry per
    iteration.
    """
    from .certify import CertCase

    case = CertCase(case)
    n = len(trace)
    diff = (trace.x - np.asarray(x_star, dtype=float)).reshape(n, -1)
    dist = np.sum(diff ** 2, axis=1)
    if case is CertCase.CASE3:
        return dist
    th = float(theta) if np.isscalar(theta) else np.asarray(theta, dtype=float)[:n]
    if case is CertCase.CASE1:
        incr = th * trace.subgrad_residual ** 2
    else:
        if F_star is None:
            raise ValueError("Case 2 Lyapunov values require F_star")
        if trace.objective is None:
            raise ValueError("missing objective value at iteration 0")
        incr = th * (trace.objective - F_star)
    running = np.concatenate(([0.0], np.cumsum(incr)[:-1]))
    return dist + running


def solve_reference(f: ProxOperator, g: ProxOperator, params: DrsParams, x0: np.ndarray):
    """High-precision fixed point: (x*, y*, F*) with ||z - y|| <= 1e-12.

    Reruns the iteration with a tight tolerance and a large iteration cap,
    keeping only the current iterate, so memory is O(n) however many
    iterations it takes; the terminal y (equal to z within tolerance) is the
    minimizer and F* is the objective there.
    """
    cap = max(params.max_iters, 2_000_000)
    ref = DrsParams(alpha=params.alpha, lam=params.lam if np.isscalar(params.lam) else 1.0,
                    max_iters=cap, stop_tol=1e-12)
    for x, y, z, fp, x_final in _drs_steps(f, g, ref, x0):
        pass
    if not fp <= ref.stop_tol:
        raise RuntimeError(
            f"reference solve did not reach ||z - y|| <= 1e-12 in {cap} "
            "iterations; increase the iteration cap"
        )
    if fp > 1e-8 or fp / params.alpha > 1e-8 / params.alpha:
        raise RuntimeError("terminal fixed-point residuals unexpectedly large")
    F_star = _objective(f, g, z, z)
    return x_final, y, None if F_star is None else float(F_star)


def write_trace_csv(trace: Trace, path, lyapunov: Optional[np.ndarray] = None):
    """Trace CSV: columns k, fp_residual, subgrad_residual, objective, V.

    Floats are written with ``repr``; the objective and V cells are blank
    when the trace has no objective or no Lyapunov values are given.
    """
    n = len(trace)

    def cells(column):
        if column is None:
            return itertools.repeat("", n)
        return map(repr, np.asarray(column, dtype=float)[:n].tolist())

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "fp_residual", "subgrad_residual", "objective", "V"])
        w.writerows(zip(range(n), cells(trace.fp_residual), cells(trace.subgrad_residual),
                        cells(trace.objective), cells(lyapunov), strict=True))
