"""Reduced certificate matrices, feasibility checks, and the parameter rules.

Certificates live on 3x3 Kronecker factors acting on the error signal
e = (x - x*, y - y*, z - z*), in that fixed order.  A parameter tuple is
certified when the assembled factor W + sigma1 Q1 + sigma2 Q2 is negative
semidefinite up to a tolerance scaled on the magnitudes of its three terms.
A ``Certificate`` runs this check when it is built and is immutable after,
so its ``feasible`` flag always describes the parameters it carries.
"""

from __future__ import annotations

import enum
import csv
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .funclass import FunctionClass, _positive, prox_qc_matrix
from . import sdplite

__all__ = [
    "CertCase", "Certificate", "psd_tol", "build_W0", "build_W1", "build_Q1",
    "build_Q2", "build_Qk", "make_certificate",
    "analytic_params_case1", "analytic_params_case2", "suggest_lambda_case2",
    "tune", "rate_bound", "detect_case", "write_certificates_csv",
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
    the magnitudes of the terms it was summed from (``Certificate``), or the
    factor itself when its terms are not known.
    """
    return 1e-12 * (1.0 + float(np.abs(W).max()))


def build_W0(alpha: float, lam: float, theta: float) -> np.ndarray:
    """Case-1 factor: the decrement ``build_Qk(lam, 1)`` plus theta/alpha^2 ||z - y||^2."""
    _positive("alpha", alpha)
    W = build_Qk(lam, 1.0)
    t = theta / alpha ** 2
    W[1:, 1:] += [[t, -t], [-t, t]]
    return W


def build_W1(alpha: float, lam: float, theta: float, L_f: float) -> np.ndarray:
    """Case-2 factor: the decrement ``build_Qk(lam, 1)`` plus the theta-weighted gap term."""
    _positive("L_f", L_f)
    W = build_Qk(lam, 1.0)
    c = theta / 2.0 * (1.0 / alpha - L_f)
    W[1:, 1:] += [[theta * L_f / 2.0, c], [c, theta * (L_f / 2.0 - 1.0 / alpha)]]
    return W


def build_Qk(lam: float, rho_sq: float) -> np.ndarray:
    """DRS decrement factor of V_{k+1} - rho^2 V_k: rho^2 in Case 3, 1 in Cases 1-2."""
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
    return C.T @ prox_qc_matrix(FunctionClass(0.0, math.inf), alpha) @ C


@dataclass(frozen=True)
class Certificate:
    """A parameter tuple, eigen-checked on its certificate factor when built.

    ``theta`` applies to Cases 1-2 (running-sum weight), ``rho_sq`` to Case 3
    (squared linear rate).  Construction validates the tuple and computes the
    read-only ``witness`` W + sigma1 Q1 + sigma2 Q2, its largest eigenvalue
    ``max_eig``, and ``feasible``: whether that eigenvalue is at most
    ``psd_tol`` of |W| + sigma1 |Q1| + sigma2 |Q2|, so that cancellation
    between the terms cannot hide a positive eigenvalue nor fail an exactly
    singular witness on rounding.  The instance is frozen, so the check always
    belongs to the parameters it carries.
    """

    case: CertCase
    fc: FunctionClass
    alpha: float
    lam: float
    sigma1: float
    sigma2: float
    theta: Optional[float] = None
    rho_sq: Optional[float] = None
    witness: np.ndarray = field(init=False, compare=False)
    max_eig: float = field(init=False)
    feasible: bool = field(init=False)

    def __post_init__(self):
        a, lam = self.alpha, self.lam
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("multipliers sigma1, sigma2 must be >= 0")
        _positive("alpha", a)
        _positive("lambda", lam)
        if self.case is not CertCase.CASE3:
            _positive("theta", self.theta)
        if self.case is CertCase.CASE1:
            W, q1_class = build_W0(a, lam, self.theta), FunctionClass(0.0, math.inf)
        elif self.case is CertCase.CASE2:
            if not self.fc.smooth:
                raise ValueError("Case 2 requires a finite smoothness constant")
            W, q1_class = build_W1(a, lam, self.theta, self.fc.L), self.fc
        else:
            if self.rho_sq is None or not (0 < self.rho_sq < 1):
                raise ValueError("Case 3 requires rho_sq in (0, 1)")
            if not (self.fc.strongly_convex and self.fc.smooth):
                raise ValueError("Case 3 requires 0 < m <= L < inf")
            W, q1_class = build_Qk(lam, self.rho_sq), self.fc
        S1, S2 = self.sigma1 * build_Q1(a, q1_class), self.sigma2 * build_Q2(a)
        witness = W + S1 + S2
        witness.flags.writeable = False
        max_eig = float(sdplite.eig_sym(witness)[0][-1])
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "max_eig", max_eig)
        object.__setattr__(self, "feasible",
                           max_eig <= psd_tol(np.abs(W) + np.abs(S1) + np.abs(S2)))


def make_certificate(case: CertCase, fc: FunctionClass, alpha: float, lam: float,
                     sigma1: float, sigma2: float, theta: Optional[float] = None,
                     rho_sq: Optional[float] = None) -> Certificate:
    """The checked ``Certificate`` of a tuple; library code builds them here."""
    return Certificate(case, fc, alpha, lam, sigma1, sigma2, theta, rho_sq)


def analytic_params_case1(alpha: float, lam: float):
    """Closed-form (sigma, theta) making the Case-1 factor identically zero.

    An alpha whose weight theta = alpha^2 lambda (2 - lambda) overflows or
    underflows to 0 is refused, naming alpha and the weight.
    """
    _positive("alpha", alpha)
    if not _positive("lambda", lam) < 2:
        raise ValueError("analytic Case-1 parameters require lambda < 2")
    try:
        theta = alpha ** 2 * lam * (2.0 - lam)
    except OverflowError:
        theta = math.inf
    if not 0 < theta < math.inf:
        raise ValueError(f"alpha = {alpha!r} puts the Case-1 weight alpha^2 lambda (2 - lambda) "
                         f"at {theta}, outside the positive floats")
    return 2.0 * lam / alpha, theta


def analytic_params_case2(alpha: float, lam: float, L_f: float):
    """Closed-form (sigma, theta) certifying Case 2 for any alpha, lambda in (0,2)."""
    _positive("alpha", alpha)
    _positive("L_f", L_f)
    if not _positive("lambda", lam) < 2:
        raise ValueError("analytic Case-2 parameters require lambda < 2")
    t = (2.0 - lam) / (alpha * L_f)
    s = math.hypot(t, 1.0)
    # r = s - t and 1 - r = 2 t / (1 + t + s), both without cancellation
    r = 1.0 / (s + t)
    sigma = 2.0 * lam / alpha * r
    theta = 2.0 * lam * alpha * (2.0 * t / (1.0 + t + s))
    return sigma, theta


# Largest relaxation parameter suggest_lambda_case2 returns.  Toward 2 the
# term sigma Q1 of the Case-2 witness grows like 2 / (2 - lambda), and the
# eigen-check's tolerance with it (to 9e3 where the maximizer rounds to 2),
# while theta gains less than (2 - lambda) / 2 relative to its supremum
# 4 alpha.  Here the tolerance stays near 2e-7.
_LAMBDA_CASE2_MAX = 2.0 - 1e-5


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
    The maximizer is about 2 - sqrt(a) for small a; it is capped at
    2 - 1e-5 (reached for a below about 1e-10), past which the certificate's
    eigen-check could no longer tell a feasible witness from an infeasible one.
    """
    a = _positive("alpha", alpha) * _positive("L_f", L_f)
    lo, hi, lam = 0.0, 2.0, 1.0
    while lo < lam < hi:
        t = (2.0 - lam) / a
        s = math.hypot(t, 1.0)
        if lam / a / s / (s + t) > 2.0 * t / (1.0 + t + s):  # phi(t) > 0
            hi = lam
        else:
            lo = lam
        lam = 0.5 * (lo + hi)
    return min(lo, _LAMBDA_CASE2_MAX)


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
    Case 2: bound on min_i [F(z_i) - F*]           = x0_dist_sq / Theta_k.
    Case 3: bound on ||x_k - x*||^2                = rho_0^2 ... rho_{k-1}^2 x0_dist_sq.

    Certificate i certifies step i, so the steps compose: Theta_k sums the
    first k thetas, and the Case-3 bound multiplies the first k rates, as
    rho^(2k) when they are equal.  The certificates must share one regime
    and one alpha, as x* depends on alpha.  A single certificate stands for
    a constant schedule.
    """
    if isinstance(cert_sequence, Certificate):
        certs = [cert_sequence] * k
    else:
        certs = list(cert_sequence)
        if len(certs) < k:
            raise ValueError("certificate sequence shorter than k")
    if k < 1:
        raise ValueError("k must be >= 1")
    certs = certs[:k]
    if any(not c.feasible for c in certs):
        raise ValueError("all certificates must be feasible")
    if len({(c.case, c.alpha) for c in certs}) > 1:
        raise ValueError("the certificates of one run must share one regime and one alpha")
    if certs[0].case is CertCase.CASE3:
        rates = [c.rho_sq for c in certs]
        if len(set(rates)) == 1:
            return rates[0] ** k * x0_dist_sq
        return math.prod(rates) * x0_dist_sq
    return x0_dist_sq / sum(c.theta for c in certs)


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
                repr(c.max_eig),
                int(c.feasible),
            ])
