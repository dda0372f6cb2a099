"""Function classes F(m, L) and their incremental quadratic-constraint matrices.

All matrices returned here are the 2x2 Kronecker factors of the full
constraint matrices (factor (x) I_d); the d-dimensional expansion is never
materialized, which is what makes every certificate check dimension
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FunctionClass",
    "qc_matrix",
    "prox_qc_matrix",
    "estimate_class_quadratic",
]


def _positive(name: str, value):
    """``value`` if 0 < value < inf, else a ValueError naming ``name``: the one
    rule for every step size, relaxation, weight and scale."""
    if value is None or not 0 < value < math.inf:
        raise ValueError(f"{name} must be > 0 and finite, got {value}")
    return value


@dataclass(frozen=True)
class FunctionClass:
    """An (m, L) pair describing m-strongly convex, L-smooth functions.

    ``L = math.inf`` is a first-class value meaning "no smoothness
    assumption"; all formulas downstream implement the analytic limit rather
    than large-number arithmetic.
    """

    m: float
    L: float

    def __post_init__(self):
        if not (self.m >= 0 and math.isfinite(self.m)):
            raise ValueError(f"strong-convexity modulus must be finite and >= 0, got {self.m}")
        if not self.L > 0:
            raise ValueError(f"smoothness constant must be > 0, got {self.L}")
        if self.m > self.L:
            raise ValueError(f"need m <= L, got m={self.m}, L={self.L}")

    @property
    def smooth(self) -> bool:
        return math.isfinite(self.L)

    @property
    def strongly_convex(self) -> bool:
        return self.m > 0

    @property
    def kappa(self) -> float:
        """Condition number L/m; defined only for 0 < m <= L < inf."""
        if not (self.strongly_convex and self.smooth):
            raise ValueError("condition number requires 0 < m <= L < inf")
        return self.L / self.m


def qc_matrix(fc: FunctionClass) -> np.ndarray:
    """2x2 factor of the incremental QC satisfied by (sub)gradients of F(m, L).

    For finite L this is [[-mL/(m+L), 1/2], [1/2, -1/(m+L)]]; for L = inf the
    analytic limit [[-m, 1/2], [1/2, 0]].
    """
    if not fc.smooth:
        return np.array([[-fc.m, 0.5], [0.5, 0.0]])
    s = fc.m + fc.L
    return np.array([[-fc.m * fc.L / s, 0.5], [0.5, -1.0 / s]])


def prox_qc_matrix(fc: FunctionClass, alpha: float) -> np.ndarray:
    """2x2 factor of the incremental QC satisfied by the prox of f in F(m, L).

    Product of the two congruence factors with the gradient QC matrix,
    symmetrized defensively with (M + M^T)/2.
    """
    _positive("alpha", alpha)
    left = np.array([[0.0, 1.0], [alpha, -1.0]])
    right = np.array([[0.0, alpha], [1.0, -1.0]])
    M = left @ qc_matrix(fc) @ right
    return (M + M.T) / 2


def estimate_class_quadratic(A: np.ndarray) -> FunctionClass:
    """Class of x -> 0.5*||Ax - b||^2, i.e. extreme eigenvalues of A^T A.

    The smallest eigenvalue is reported as 0 when below a relative rank
    tolerance (1e-10 * L).
    """
    from . import sdplite

    A = np.asarray(A, dtype=float)
    if A.size == 0:
        raise ValueError("matrix must be nonempty")
    H = A.T @ A
    evals, _ = sdplite.eig_sym(H)
    L = float(evals[-1])
    if L <= 0:
        raise ValueError("A^T A has no positive eigenvalue; A is the zero matrix")
    m = float(evals[0])
    if m < 1e-10 * L:
        m = 0.0
    return FunctionClass(m=m, L=L)
