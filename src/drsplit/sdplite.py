"""Validated symmetric eigensolver and the linear-rate certificate optimizer.

``eig_sym`` checks its input and hands it to LAPACK (``np.linalg.eigh``); it
is the one eigensolver entry point of the certificate checks.  The optimizer
fixes the relaxation parameter (at 2 unless pinned), where the direct 3x3
Case-3 certificate factor is affine in the squared rate and both
multipliers, so minimizing rho^2 over the factor's negative semidefinite set
is a small semidefinite program.  It is solved by one deterministic
log-barrier Newton method from a closed-form strictly feasible start, over
rho^2 > 0 and sigma1, sigma2 >= 0 (sigma1 below a multiple of its start
value, see ``optimize_rate``), and each result is revalidated on the same
factor.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .funclass import FunctionClass, _positive
from . import certify

__all__ = [
    "SweepCell",
    "eig_sym",
    "optimize_rate",
    "sweep_heatmap",
    "write_heatmap_csv",
    "DEFAULT_ALPHA_GRID",
    "DEFAULT_KAPPA_GRID",
]

logger = logging.getLogger(__name__)

_SIGMA1_RANGE = 1e6  # sigma1 stays below this multiple of its start value
_GAP_TOL = 1e-10  # duality-gap bound on rho^2 at which the barrier stops
_CENTERING_TOL = 0.25  # Newton decrement that ends a centering stage
_T_START = 10.0  # barrier weight of the first centering stage
_T_GROWTH = 30.0  # barrier weight factor between centering stages
_MAX_NEWTON = 100  # Newton steps allowed per centering stage


@dataclass
class SweepCell:
    """One (alpha, kappa) cell of the rate sweep."""

    alpha: float
    kappa: float
    rho_opt: float
    lambda_opt: float
    sigma1: float
    sigma2: float
    feasible: bool
    reason: str = ""  # why the optimizer failed; empty for a feasible cell


def eig_sym(M: np.ndarray):
    """LAPACK eigendecomposition of a real symmetric matrix.

    Returns (eigenvalues ascending, matrix of orthonormal eigenvector
    columns) with M = V diag(w) V^T.  Input must be square, finite and
    symmetric to 1e-12 (relative); anything else raises ValueError.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("input must be a square matrix")
    if not np.isfinite(M).all():
        raise ValueError("input matrix has non-finite entries")
    scale = 1.0 + float(np.abs(M).max(initial=0.0))
    if float(np.abs(M - M.T).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("input matrix is not symmetric")
    return np.linalg.eigh(M)


def _barrier(F0, Fs, x, hi):
    """Minimize x[0] over {x : F0 + sum_i x[i] Fs[i] > 0, 0 < x < hi}.

    Log-barrier method (Boyd & Vandenberghe, Convex Optimization, sec. 11.3)
    from the strictly feasible ``x``: damped Newton steps on t x[0] + phi(x),
    phi being -log det of the matrix plus -log of the distance to each
    bound, with t raised by _T_GROWTH per centering stage.  A stage ending at
    Newton decrement delta < 1 bounds x[0] - min by (nu + (delta + sqrt(nu))
    delta / (1 - delta)) / t for barrier parameter nu (Nesterov, Introductory
    Lectures on Convex Optimization, sec. 4.2); the last t brings it to
    _GAP_TOL.  When rounding stops a stage (an iterate leaves the feasible
    set or centering stalls, as happens once F is too ill-conditioned), the
    solve ends at the previous stage, with its larger bound.  Returns (x, gap
    bound, Newton steps, centred stages).
    """
    n = F0.shape[0]
    nu = n + len(x) + int(np.isfinite(hi).sum())
    tol = _CENTERING_TOL
    t_last = (nu + (tol + math.sqrt(nu)) * tol / (1.0 - tol)) / _GAP_TOL
    t, gap, steps, stages, centred = _T_START, math.inf, 0, 0, x
    while True:
        delta = math.inf
        for _ in range(_MAX_NEWTON):
            # a damped step has Hessian norm delta / (1 + delta) < 1, so it
            # keeps F > 0 and the bounds strict up to rounding
            w, V = np.linalg.eigh(F0 + np.tensordot(x, Fs, 1))
            if w[0] <= 0 or np.any(x <= 0) or np.any(x >= hi):
                break
            # log-det derivatives in Gram form, C_i = F^-1/2 Fs[i] F^-1/2:
            # gradient -tr(C_i) and Hessian tr(C_i C_j), which stays positive
            # semidefinite in floating point near the boundary
            R = V / np.sqrt(w)
            C = (R.T @ Fs @ R).reshape(len(x), n * n)
            to_hi = hi - x
            g = 1.0 / to_hi - 1.0 / x - C[:, ::n + 1].sum(axis=1)
            g[0] += t
            H = C @ C.T + np.diag(1.0 / x ** 2 + 1.0 / to_hi ** 2)
            d = 1.0 / np.sqrt(np.diag(H))  # Jacobi scaling of the Newton system
            dx = -d * np.linalg.solve(H * np.outer(d, d), g * d)
            delta = math.sqrt(max(-float(g @ dx), 0.0))
            if delta <= tol:
                break
            x = x + dx / (1.0 + delta)
            steps += 1
        if delta > tol:
            if stages == 0:
                raise RuntimeError(f"barrier method found no centred point at t={t:.3g}")
            return centred, gap, steps, stages
        stages, centred = stages + 1, x
        gap = (nu + (delta + math.sqrt(nu)) * delta / (1.0 - delta)) / t
        if t >= t_last:
            return x, gap, steps, stages
        t = min(t * _T_GROWTH, t_last)


def optimize_rate(alpha: float, fc: FunctionClass,
                  lam_fixed: Optional[float] = None) -> certify.Certificate:
    """Best certified squared linear rate, with its witness.

    The relaxation parameter is ``lam_fixed`` when given and otherwise 2.
    With R_f, the reflected resolvent of alpha f, delta-contractive for delta
    = max(|1 - alpha m| / (1 + alpha m), |1 - alpha L| / (1 + alpha L)), the
    best rate at a fixed lambda is (|1 - lambda/2| + lambda delta / 2)^2,
    smallest at lambda = 2 where it is delta^2 (Giselsson & Boyd, "Linear
    convergence and metric selection for Douglas-Rachford splitting and
    ADMM", 2017).

    At fixed lambda the direct 3x3 factor F = -(Qk(lambda, rho^2) + sigma1 Q1
    + sigma2 Q2) is affine in (rho^2, sigma1, sigma2), so minimizing rho^2
    subject to F > 0 is a small semidefinite program, solved by ``_barrier``
    to a duality-gap bound of 1e-10 on rho^2 from a closed-form strictly
    feasible start.  With l = lambda, sigma2 = 4 l^2 / alpha and sigma1 =
    8 l^2 (m + L) / ((1 + alpha m)(1 + alpha L)), the (y, z) block of F is
    B = l^2 [[7, -3], [-3, 3]] > 0: -sigma1 Q1 adds 8 l^2 to its (y, y)
    entry, -sigma2 Q2 adds l^2 [[0, -4], [-4, 4]] and -Qk adds l^2 [[-1, 1],
    [1, -1]].  rho^2 enters F only as +rho^2 in entry (0, 0), so with c the
    rest of column 0, F > 0 exactly when rho^2 > c^T B^-1 c - F[0, 0] at
    rho^2 = 0; the start puts rho^2 one above that threshold and above 0.

    sigma1 stays below _SIGMA1_RANGE times its start value.  For f in F(m, m)
    the prox constraint is an equality, F grows without bound along sigma1
    and the barrier has no centre; for m < L the bound only binds when
    alpha (L - m) is below about 1e-6 |1 - alpha m|.  The 1e-10 gap holds
    only while it does not bind: at kappa = 1 the result was 2.8e-7 to
    4.2e-7 above delta^2 for alpha in {0.01, 0.3, 0.5, 2, 10}, at kappa =
    1.0001 up to 9.0e-9, and from kappa = 1.01 on at most 4.2e-11.  At
    lambda = 2 a rate below 1 exists for every finite alpha > 0, yet with
    m = 1 none was found at alpha = 1e-8 and 1e8 (kappa 1 and 2), and 1e-7
    and 1e7 (kappa 1), where 1 - delta^2 is 2e-8 to 4e-7.

    The result is revalidated once on the same factor by
    ``certify.make_certificate``.  Raises ValueError for a pinned lambda
    outside (0, inf), and RuntimeError when no rate below 1 is found (the
    message gives (|1 - lambda/2| + lambda delta/2)^2, the best rate) or
    the revalidation fails.  The solve runs under ``np.errstate``: overflow,
    a singular matrix or a non-finite iterate at an extreme alpha ends it as
    a solve that found no rate, without a warning.
    """
    if not (fc.strongly_convex and fc.smooth):
        raise ValueError("the linear-rate certificate requires 0 < m <= L < inf")
    lam = 2.0 if lam_fixed is None else _positive("lambda", float(lam_fixed))
    m, L = fc.m, fc.L
    with np.errstate(all="ignore"):
        try:
            F0 = -certify.build_Qk(lam, 0.0)
            Fs = np.array([np.diag([1.0, 0.0, 0.0]), -certify.build_Q1(alpha, fc),
                           -certify.build_Q2(alpha)])
            sigma1 = 8.0 * lam ** 2 * (m + L) / ((1.0 + alpha * m) * (1.0 + alpha * L))
            x = np.array([0.0, sigma1, 4.0 * lam ** 2 / alpha])
            F = F0 + np.tensordot(x, Fs, 1)
            c = F[1:, 0]
            x[0] = max(c @ np.linalg.solve(F[1:, 1:], c) - F[0, 0], 0.0) + 1.0
            hi = np.array([math.inf, _SIGMA1_RANGE * sigma1, math.inf])
            x, gap, steps, stages = _barrier(F0, Fs, x, hi)
        except np.linalg.LinAlgError:
            x, gap, steps, stages = np.full(3, math.nan), math.nan, 0, 0
        logger.debug("alpha=%g m=%g L=%g lam=%g: rho_sq=%.12g after %d Newton "
                     "steps in %d barrier stages, gap bound %.2e",
                     alpha, m, L, lam, x[0], steps, stages, gap)
        if not (x[0] < 1 and np.isfinite(x).all()):
            delta = max(abs(1 - alpha * m) / (1 + alpha * m), abs(1 - alpha * L) / (1 + alpha * L))
            pinned = "" if lam_fixed is None else f" and lambda={lam_fixed:g}"
            raise RuntimeError(f"no certificate with rho^2 < 1 found at alpha={alpha:g}{pinned}; "
                               f"the best rate (|1 - lambda/2| + lambda delta/2)^2 is "
                               f"{(abs(1 - lam / 2) + lam * delta / 2) ** 2!r}")
    rho_sq, sigma1, sigma2 = (float(v) for v in x)
    cert = certify.make_certificate(certify.CertCase.CASE3, fc, alpha, lam=lam,
                                    sigma1=sigma1, sigma2=sigma2, rho_sq=rho_sq)
    if not cert.feasible:
        raise RuntimeError(f"optimized certificate failed the 3x3 revalidation "
                           f"(rho_sq {rho_sq:.12g}, max_eig {cert.max_eig:.3e})")
    return cert


DEFAULT_ALPHA_GRID = np.logspace(math.log10(0.01), math.log10(10.0), 25)
DEFAULT_KAPPA_GRID = (2.0, 5.0, 10.0, 50.0, 100.0, 500.0)


def sweep_heatmap(alpha_grid: Sequence[float], kappa_grid: Sequence[float],
                  m_base: float = 1.0) -> list:
    """Optimal certified rate per (alpha, kappa) cell, row-major (kappa outer).

    A cell whose optimization fails is kept, marked infeasible with NaN
    values and the exception text as its ``reason``; the sweep goes on.  A
    kappa below 1 or NaN is no condition number and is refused up front; an
    infinite one gives failed cells.
    """
    if len(alpha_grid) == 0 or len(kappa_grid) == 0:
        raise ValueError("grids must be nonempty")
    _positive("m_base", m_base)
    for kappa in kappa_grid:
        if not kappa >= 1:
            raise ValueError(f"every kappa must be >= 1, got kappa={kappa}")
    cells = []
    for kappa in kappa_grid:
        fc = FunctionClass(m_base, kappa * m_base)
        for alpha in alpha_grid:
            try:
                cert = optimize_rate(float(alpha), fc)
            except (RuntimeError, ValueError) as exc:
                cells.append(SweepCell(float(alpha), float(kappa), math.nan, math.nan,
                                       math.nan, math.nan, False, reason=str(exc)))
                continue
            cells.append(SweepCell(float(alpha), float(kappa), math.sqrt(cert.rho_sq),
                                   cert.lam, cert.sigma1, cert.sigma2, True))
    return cells


def write_heatmap_csv(cells: Sequence[SweepCell], path):
    """Heatmap CSV: alpha, kappa, rho_opt, lambda_opt, sigma1, sigma2, feasible, reason."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "kappa", "rho_opt", "lambda_opt", "sigma1", "sigma2",
                    "feasible", "reason"])
        for c in cells:
            w.writerow([repr(c.alpha), repr(c.kappa), repr(c.rho_opt),
                        repr(c.lambda_opt), repr(c.sigma1), repr(c.sigma2),
                        int(c.feasible), c.reason])
