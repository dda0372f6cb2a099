"""Brute-force grid oracle for the optimal certified linear rate.

Enumerates (lambda, sigma1, sigma2) on a 200^3 grid (lambda in [0.01, 4],
sigmas in [0, 100]) and bisects the squared rate per grid point using a
direct eigenvalue check of the 3x3 certificate factor.  Independent of the
optimizer: lambda is searched, not fixed at 2, with no barrier method and no
shared search code.

Run:  python tools/case3_grid_oracle.py
The printed values are frozen into the acceptance suite.
"""

import math
import time

import numpy as np

CONFIGS = [(1.0, 1.0, 10.0), (0.3, 1.0, 100.0), (1.0, 1.0, 1.0)]
N = 200
BISECT_ITERS = 20


def qc(m, L):
    if math.isinf(L):
        return np.array([[-m, 0.5], [0.5, 0.0]])
    return np.array([[-m * L / (m + L), 0.5], [0.5, -1.0 / (m + L)]])


def prox_qc(m, L, a):
    left = np.array([[0.0, 1.0], [a, -1.0]])
    right = np.array([[0.0, a], [1.0, -1.0]])
    M = left @ qc(m, L) @ right
    return (M + M.T) / 2


def q1(a, m, L):
    E = np.zeros((3, 3))
    E[:2, :2] = prox_qc(m, L, a)
    return E


def q2(a):
    C = np.array([[-1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    M = C.T @ prox_qc(0.0, math.inf, a) @ C
    return (M + M.T) / 2


def oracle(alpha, m, L):
    lams = np.linspace(0.01, 4.0, N)
    sigs = np.linspace(0.0, 100.0, N)
    S1, S2 = np.meshgrid(sigs, sigs, indexing="ij")
    s1 = S1.ravel()
    s2 = S2.ravel()
    Q1 = q1(alpha, m, L)
    Q2 = q2(alpha)
    best = 1.0
    for lam in lams:
        l2 = lam * lam
        base = np.array([[1.0, -lam, lam], [-lam, l2, -l2], [lam, -l2, l2]])
        M = (base[None]
             + s1[:, None, None] * Q1
             + s2[:, None, None] * Q2)
        # feasible at rho^2 just below 1?  (0,0) entry is 1 - rho^2
        probe = M.copy()
        probe[:, 0, 0] -= 1.0 - 1e-9
        top = np.linalg.eigvalsh(probe)[:, -1]
        ok = top <= 1e-9
        if not np.any(ok):
            continue
        Mok = M[ok]
        lo = np.zeros(Mok.shape[0])
        hi = np.full(Mok.shape[0], 1.0 - 1e-9)
        for _ in range(BISECT_ITERS):
            mid = (lo + hi) / 2.0
            probe = Mok.copy()
            probe[:, 0, 0] -= mid
            top = np.linalg.eigvalsh(probe)[:, -1]
            feas = top <= 1e-9
            hi = np.where(feas, mid, hi)
            lo = np.where(feas, lo, mid)
        best = min(best, float(hi.min()))
    return best


def main():
    for alpha, m, L in CONFIGS:
        t = time.perf_counter()
        val = oracle(alpha, m, L)
        print(f"alpha={alpha} m={m} L={L}: rho_sq_opt={val:.6f} "
              f"({time.perf_counter() - t:.0f}s)", flush=True)


if __name__ == "__main__":
    main()
