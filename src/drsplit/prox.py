"""Exact proximal operators used by the solver and the experiments.

Every operator evaluates ``prox_{alpha f}(v) = argmin_y f(y) + ||v-y||^2/(2a)``
in closed form and declares the function class of the underlying f.  The
subgradient used implicitly by the prox is recoverable as (v - y)/alpha.
Operators with an evaluable objective expose it via ``objective``, at one
point or at every row of a stack of points; others return None there.
"""

from __future__ import annotations

import math

import numpy as np

from .funclass import FunctionClass, estimate_class_quadratic

__all__ = [
    "ProxOperator",
    "prox_l1",
    "prox_affine_indicator",
    "prox_quadratic",
    "prox_zero",
    "recover_subgradient",
]


class ProxOperator:
    """Base class: an evaluatable proximal map with a declared function class."""

    function_class: FunctionClass

    def evaluate(self, v: np.ndarray, alpha: float) -> np.ndarray:
        raise NotImplementedError

    def objective(self, x: np.ndarray):
        """Value of the underlying f at x, or None if not evaluable.

        ``x`` is one point of shape (n,), giving a scalar, or a (k, n) stack
        of points, giving a (k,) array of the values at its rows.
        """
        return None


class _SoftThreshold(ProxOperator):
    """Prox of gamma * ||x||_1: componentwise soft threshold at alpha*gamma."""

    def __init__(self, gamma: float):
        if not gamma > 0:
            raise ValueError(f"gamma must be > 0, got {gamma}")
        self.gamma = gamma
        self.function_class = FunctionClass(0.0, math.inf)

    def evaluate(self, v, alpha):
        t = alpha * self.gamma
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def objective(self, x):
        return self.gamma * np.sum(np.abs(x), axis=-1)


class _AffineProjection(ProxOperator):
    """Prox of the indicator of {y | Ay = b}: Euclidean projection, alpha-free.

    With the reduced QR factorization A^T = QR and c = R^-T b, computed once
    at construction, the projection is y = v - Q(Q^T v - c).  Requires full
    row rank: diag(R)^2 are the Cholesky pivots of A A^T, and a pivot not
    above 1e-12 * trace(A A^T)/p is rejected.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError("A must be p x n and b length p")
        self.A = A
        self.b = b
        p, n = A.shape
        if p > n:
            raise ValueError(
                f"A has {p} rows but only {n} columns, so its rows are linearly "
                "dependent; remove linearly dependent rows of A"
            )
        Q, R = np.linalg.qr(A.T)
        pivots = np.diag(R) ** 2
        if not pivots.min() > 1e-12 * np.sum(A * A) / p:
            raise ValueError(
                "A is numerically rank deficient (tiny pivot of A A^T); "
                "remove linearly dependent rows of A"
            )
        self._Q = Q
        self._c = np.linalg.solve(R.T, b)
        self.function_class = FunctionClass(0.0, math.inf)
        self._feas_tol = 1e-9 * (1.0 + float(np.linalg.norm(b)))

    def evaluate(self, v, alpha):
        return v - self._Q @ (v @ self._Q - self._c)

    def objective(self, x):
        r = np.linalg.norm(x @ self.A.T - self.b, axis=-1)
        return np.where(r <= self._feas_tol, 0.0, math.inf)[()]


class _QuadraticProx(ProxOperator):
    """Prox of 0.5 * ||Ax - b||^2: y = (I + a A^T A)^-1 (v + a A^T b).

    The inverse and the offset a (I + a A^T A)^-1 A^T b are computed once per
    distinct alpha and cached, so each call is one matrix-vector product; the
    solver keeps alpha constant, so one entry is made per run.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError("A must be p x n and b length p")
        self.A = A
        self.b = b
        self._H = A.T @ A
        self._Atb = A.T @ b
        self._cho_cache = {}  # alpha -> (inverse, offset)
        self.function_class = estimate_class_quadratic(A)

    def _factor(self, alpha):
        cached = self._cho_cache.get(alpha)
        if cached is None:
            n = self._H.shape[0]
            # I + a A^T A is positive definite for every a > 0
            S = np.linalg.solve(np.eye(n) + alpha * self._H,
                                np.column_stack((np.eye(n), self._Atb)))
            cached = self._cho_cache[alpha] = (S[:, :n], alpha * S[:, n])
        return cached

    def evaluate(self, v, alpha):
        inverse, offset = self._factor(alpha)
        return inverse @ v + offset

    def objective(self, x):
        r = x @ self.A.T - self.b
        return 0.5 * np.sum(r * r, axis=-1)


class _Identity(ProxOperator):
    """Prox of the zero function: the identity map."""

    def __init__(self):
        self.function_class = FunctionClass(0.0, math.inf)

    def evaluate(self, v, alpha):
        return np.asarray(v, dtype=float).copy()

    def objective(self, x):
        return np.zeros(np.shape(x)[:-1])[()]


def prox_l1(gamma: float) -> ProxOperator:
    """Soft-threshold operator for gamma * ||x||_1; class F(0, inf)."""
    return _SoftThreshold(gamma)


def prox_affine_indicator(A: np.ndarray, b: np.ndarray) -> ProxOperator:
    """Projection onto {y | Ay = b}; class F(0, inf). A must have full row rank."""
    return _AffineProjection(A, b)


def prox_quadratic(A: np.ndarray, b: np.ndarray) -> ProxOperator:
    """Prox of 0.5 * ||Ax - b||^2; class estimated from the spectrum of A^T A."""
    return _QuadraticProx(A, b)


def prox_zero() -> ProxOperator:
    """Identity prox (f = 0); useful for degenerate tests."""
    return _Identity()


def recover_subgradient(op: ProxOperator, v: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Subgradient of f at y = op.evaluate(v, alpha), i.e. (v - y)/alpha."""
    return (np.asarray(v, dtype=float) - np.asarray(y, dtype=float)) / alpha
