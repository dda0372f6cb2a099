"""Reduced certificate matrices, feasibility checks, and the parameter rules.

Certificates live on 3x3 Kronecker factors acting on the error signal
e = (x - x*, y - y*, z - z*), in that fixed order.  A parameter tuple is
certified when the assembled factor W + sigma1 Q1 + sigma2 Q2 is negative
semidefinite up to a tolerance scaled on the magnitudes of its three terms.
"""

from __future__ import annotations

import enum
import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .funclass import FunctionClass, prox_qc_matrix
from . import sdplite

__all__ = [
    "CertCase", "Certificate", "psd_tol", "build_W0", "build_W1", "build_Q1",
    "build_Q2", "build_Qk", "assemble", "check_certificate", "make_certificate",
    "analytic_params_case1", "analytic_params_case2", "suggest_lambda_case2",
    "tune", "rate_bound", "kron_quadratic_form", "detect_case",
    "write_certificates_csv",
]


class CertCase(enum.Enum):
    """Function-class regime of the certificate."""

    CASE1 = "case1"  # f, g in F(0, inf)
    CASE2 = "case2"  # f in F(0, L), g in F(0, inf)
    CASE3 = "case3"  # f in F(m, L), g in F(0, inf)


def detect_case(fc: FunctionClass) -> CertCase:
    """Regime implied by the class of f (g is always assumed F(0, inf))."""
    if not fc.smooth:
        return CertCase.CASE1
    if fc.m == 0:
        return CertCase.CASE2
    return CertCase.CASE3


def psd_tol(W: np.ndarray) -> float:
    """Tolerance 1e-12 (1 + max|W|) for declaring a symmetric factor NSD.

    ``W`` is the scale of the factor's rounding error: the entrywise sum of
    the magnitudes of the terms it was summed from (``check_certificate``),
    or the factor itself when its terms are not known.
    """
    return 1e-12 * (1.0 + float(np.abs(W).max()))


def build_W0(alpha: float, lam: float, theta: float) -> np.ndarray:
    """Case-1 Lyapunov-decrement factor (V with the residual running sum)."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    w = lam ** 2 + theta / alpha ** 2
    return np.array([
        [0.0, -lam, lam],
        [-lam, w, -w],
        [lam, -w, w],
    ])


def build_W1(alpha: float, lam: float, theta: float, L_f: float) -> np.ndarray:
    """Case-2 decrement factor (V with the objective-gap running sum)."""
    if not (0 < L_f < math.inf):
        raise ValueError("Case 2 requires 0 < L_f < inf")
    l2 = lam ** 2
    c = theta / 2.0 * (1.0 / alpha - L_f) - l2
    return np.array([
        [0.0, -lam, lam],
        [-lam, theta * L_f / 2.0 + l2, c],
        [lam, c, theta * (L_f / 2.0 - 1.0 / alpha) + l2],
    ])


def build_Qk(lam: float, rho_sq: float) -> np.ndarray:
    """Case-3 decrement factor for V_{k+1} - rho^2 V_k."""
    l2 = lam ** 2
    return np.array([
        [1.0 - rho_sq, -lam, lam],
        [-lam, l2, -l2],
        [lam, -l2, l2],
    ])


def build_Q1(alpha: float, fc: FunctionClass) -> np.ndarray:
    """Constraint factor of prox_{af}: its prox QC embedded on the (x, y) block."""
    Q = np.zeros((3, 3))
    Q[:2, :2] = prox_qc_matrix(fc, alpha)
    return Q


def build_Q2(alpha: float) -> np.ndarray:
    """Constraint factor of prox_{ag}: the F(0, inf) prox QC acting on (2y - x, z)."""
    C = np.array([[-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    M = C.T @ prox_qc_matrix(FunctionClass(0.0, math.inf), alpha) @ C
    return (M + M.T) / 2


@dataclass
class Certificate:
    """A verified parameter tuple with its assembled certificate factor.

    ``theta`` applies to Cases 1-2 (running-sum weight), ``rho_sq`` to Case 3
    (squared linear rate).  ``witness`` is the assembled left-hand side and
    ``max_eig`` its largest eigenvalue; ``feasible`` records whether that
    eigenvalue passed the NSD tolerance of ``check_certificate``.
    """

    case: CertCase
    fc: FunctionClass
    alpha: float
    lam: float
    sigma1: float
    sigma2: float
    theta: Optional[float] = None
    rho_sq: Optional[float] = None
    witness: Optional[np.ndarray] = None
    max_eig: Optional[float] = None
    feasible: bool = False

    def __post_init__(self):
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("multipliers sigma1, sigma2 must be >= 0")
        if self.case in (CertCase.CASE1, CertCase.CASE2):
            if self.theta is None or not self.theta > 0:
                raise ValueError("Cases 1-2 require theta > 0")
        if self.case is CertCase.CASE2 and not self.fc.smooth:
            raise ValueError("Case 2 requires a finite smoothness constant")
        if self.case is CertCase.CASE3:
            if self.rho_sq is None or not (0 < self.rho_sq < 1):
                raise ValueError("Case 3 requires rho_sq in (0, 1)")
            if not (self.fc.strongly_convex and self.fc.smooth):
                raise ValueError("Case 3 requires 0 < m <= L < inf")


def _terms(cert: Certificate):
    """The summed terms W, sigma1 Q1 and sigma2 Q2 of the certificate factor."""
    a, lam = cert.alpha, cert.lam
    if cert.case is CertCase.CASE1:
        W = build_W0(a, lam, cert.theta)
        q1_class = FunctionClass(0.0, math.inf)
    elif cert.case is CertCase.CASE2:
        W = build_W1(a, lam, cert.theta, cert.fc.L)
        q1_class = cert.fc
    else:
        W = build_Qk(lam, cert.rho_sq)
        q1_class = cert.fc
    return W, cert.sigma1 * build_Q1(a, q1_class), cert.sigma2 * build_Q2(a)


def assemble(cert: Certificate) -> np.ndarray:
    """Left-hand side W + sigma1 Q1 + sigma2 Q2 of the certificate inequality."""
    W, S1, S2 = _terms(cert)
    return W + S1 + S2


def check_certificate(cert: Certificate):
    """Assemble and eigen-check the certificate; updates it in place.

    Returns (feasible, max_eig) where feasibility means the largest
    eigenvalue is at most ``psd_tol`` of |W| + sigma1 |Q1| + sigma2 |Q2|,
    so that cancellation between the terms cannot hide a positive
    eigenvalue nor fail an exactly singular witness on rounding.
    """
    W, S1, S2 = _terms(cert)
    cert.witness = W + S1 + S2
    evals, _ = sdplite.eig_sym(cert.witness)
    cert.max_eig = float(evals[-1])
    cert.feasible = cert.max_eig <= psd_tol(np.abs(W) + np.abs(S1) + np.abs(S2))
    return cert.feasible, cert.max_eig


def make_certificate(case: CertCase, fc: FunctionClass, alpha: float, lam: float,
                     sigma1: float, sigma2: float, theta: Optional[float] = None,
                     rho_sq: Optional[float] = None) -> Certificate:
    """Construct and immediately check a certificate."""
    cert = Certificate(case=case, fc=fc, alpha=alpha, lam=lam, sigma1=sigma1,
                       sigma2=sigma2, theta=theta, rho_sq=rho_sq)
    check_certificate(cert)
    return cert


def analytic_params_case1(alpha: float, lam: float):
    """Closed-form (sigma, theta) making the Case-1 factor identically zero."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if not 0 < lam < 2:
        raise ValueError("analytic Case-1 parameters require 0 < lambda < 2")
    return 2.0 * lam / alpha, alpha ** 2 * lam * (2.0 - lam)


def analytic_params_case2(alpha: float, lam: float, L_f: float):
    """Closed-form (sigma, theta) certifying Case 2 for any alpha, lambda in (0,2)."""
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if not 0 < lam < 2:
        raise ValueError("analytic Case-2 parameters require 0 < lambda < 2")
    if not (0 < L_f < math.inf):
        raise ValueError("Case 2 requires 0 < L_f < inf")
    t = (2.0 - lam) / (alpha * L_f)
    s = math.sqrt(t * t + 1.0)
    # r = s - t and 1 - r = 2 t / (1 + t + s), both without cancellation
    r = 1.0 / (s + t)
    sigma = 2.0 * lam / alpha * r
    theta = 2.0 * lam * alpha * (2.0 * t / (1.0 + t + s))
    return sigma, theta


def suggest_lambda_case2(alpha: float, L_f: float) -> float:
    """Relaxation parameter maximizing the Case-2 weight theta, exactly.

    With a = alpha L_f, c = 2 / a, t = (2 - lambda) / a in (0, c) and
    s = sqrt(t^2 + 1), ``analytic_params_case2`` gives theta = 2 alpha a
    (c - t) h(t), where h = 1 + t - s is increasing and concave
    (h' = 1 / (s (s + t)), h'' = -1 / s^3).  So d theta / dt has the sign of
    phi = (c - t) h' - h, which falls strictly from c at t = 0 to -h(c) at
    t = c, and its one root is the maximizer.  Isolating s in s phi = 0 and
    squaring gives 4 t^3 + (1 - 2c) t^2 + (4 - 2c) t + c (c - 2) = 0; at a = 1
    this is t^2 (4 t - 3) = 0, so t = 3/4 and lambda = 5/4.  The root is
    bisected on lambda in (0, 2) down to adjacent floats, with c - t = lambda / a.
    """
    if not (alpha > 0 and L_f > 0):
        raise ValueError("alpha and L_f must be > 0")
    a = alpha * L_f
    lo, hi, lam = 0.0, 2.0, 1.0
    while lo < lam < hi:
        t = (2.0 - lam) / a
        s = math.hypot(t, 1.0)
        if lam / a / s / (s + t) > 2.0 * t / (1.0 + t + s):  # phi(t) > 0
            hi = lam
        else:
            lo = lam
        lam = 0.5 * (lo + hi)
    return lo  # below 2 also where the maximizer rounds to 2 (alpha L < 1e-32)


def tune(fc: FunctionClass, alpha: float, lam: Optional[float] = None) -> Certificate:
    """Re-checked certificate for f's regime at step size ``alpha``.

    A given ``lam`` is used as is (as ``lam_fixed`` in Case 3).  Otherwise
    lambda maximizes the certified quantity: 1 for the Case-1 weight
    alpha^2 lambda (2 - lambda), ``suggest_lambda_case2`` in Case 2, and 2 in
    Case 3 through ``sdplite.optimize_rate``.
    """
    case = detect_case(fc)
    if case is CertCase.CASE3:
        return sdplite.optimize_rate(alpha, fc, lam_fixed=lam)
    if case is CertCase.CASE1:
        lam = 1.0 if lam is None else lam
        sigma, theta = analytic_params_case1(alpha, lam)
    else:
        lam = suggest_lambda_case2(alpha, fc.L) if lam is None else lam
        sigma, theta = analytic_params_case2(alpha, lam, fc.L)
    return make_certificate(case, fc, alpha, lam, sigma1=sigma, sigma2=sigma, theta=theta)


def rate_bound(cert_sequence: Union[Certificate, Sequence[Certificate]],
               k: int, x0_dist_sq: float) -> float:
    """Certified bound at iteration k given feasible per-step certificates.

    Case 1: bound on min_i ||df(y_i) + dg(z_i)||^2 = x0_dist_sq / Theta_k.
    Case 2: bound on min_i [F(z_i) - F*]           = x0_dist_sq / (Theta_k).
    Case 3: bound on ||x_k - x*||^2                = rho^(2k) * x0_dist_sq.

    A single certificate stands for a constant schedule.
    """
    if isinstance(cert_sequence, Certificate):
        certs = [cert_sequence] * k
    else:
        certs = list(cert_sequence)
        if len(certs) < k:
            raise ValueError("certificate sequence shorter than k")
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(not c.feasible for c in certs[:k]):
        raise ValueError("all certificates must be feasible")
    case = certs[0].case
    if case is CertCase.CASE3:
        return certs[0].rho_sq ** k * x0_dist_sq
    theta_total = sum(c.theta for c in certs[:k])
    if theta_total == 0:
        raise ValueError("Theta_k is zero; no rate is certified")
    return x0_dist_sq / theta_total


def kron_quadratic_form(M: np.ndarray, blocks: Sequence[np.ndarray]) -> float:
    """e^T (M (x) I_d) e for e stacked from the given d-vectors.

    Evaluates sum_ij M[i, j] <blocks[i], blocks[j]> without materializing the
    Kronecker expansion.
    """
    B = np.asarray(blocks, dtype=float)
    G = B @ B.T
    return float(np.sum(np.asarray(M) * G))


def write_certificates_csv(certs: Sequence[Certificate], path):
    """Certificate CSV: case, alpha, lambda, theta, sigma1, sigma2, rho_sq, max_eig, feasible."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "alpha", "lambda", "theta", "sigma1", "sigma2",
                    "rho_sq", "max_eig", "feasible"])
        for c in certs:
            w.writerow([
                c.case.value, repr(c.alpha), repr(c.lam),
                "" if c.theta is None else repr(c.theta),
                repr(c.sigma1), repr(c.sigma2),
                "" if c.rho_sq is None else repr(c.rho_sq),
                "" if c.max_eig is None else repr(c.max_eig),
                int(c.feasible),
            ])
