"""Independent ground-truth computations the tests compare against.

Everything in this module is deliberately primitive: exhaustive enumeration
and piecewise-linear quantile calculus. It imports numpy and the standard
library only, nothing of the package it is used to validate; measures are
read through their ``positions``, ``weights`` and ``total_mass()``.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np


def brute_force_wp(mu, nu, p: int = 1) -> float:
    """Exact W_p by enumerating all assignments (≤ 8 equal-weight atoms)."""
    if len(mu) != len(nu):
        raise ValueError("equal atom counts required")
    n = len(mu)
    if n > 8:
        raise ValueError("brute force is capped at 8 atoms per side")
    w = mu.weights
    if not (np.allclose(w, w[0]) and np.allclose(nu.weights, nu.weights[0])):
        raise ValueError("equal weights required")
    if abs(mu.total_mass() - nu.total_mass()) > 1e-10:
        raise ValueError("equal total masses required")
    diff = mu.positions[:, None, :] - nu.positions[None, :, :]
    cost = np.linalg.norm(diff, axis=2) ** p
    best = np.inf
    idx = np.arange(n)
    for perm in permutations(range(n)):
        val = cost[idx, perm].sum()
        if val < best:
            best = val
    return float((w[0] * best) ** (1.0 / p))


def _piecewise_quantiles():
    # initial two-bump law: density 1/2 on (-1,0) plus 1/2 on (1,2)
    # target law: density 1/2 on (-1,1)
    def q_two_bump(q):
        return np.where(q < 0.5, -1.0 + 2.0 * q, 2.0 * q)

    def q_one_bump(q):
        return 2.0 * q - 1.0

    return q_two_bump, q_one_bump


def two_bump_quantile_w1() -> float:
    """Exact W1 between the merging two-bump pair, from quantile functions.

    Both quantile functions are piecewise linear with the only breakpoint at
    q = 1/2, so integrating |difference| by the trapezoid rule on each piece
    is exact.
    """
    qa, qb = _piecewise_quantiles()
    total = 0.0
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        # |qa - qb| is linear on each piece
        d_lo = abs(qa(np.float64(lo + 1e-15)) - qb(np.float64(lo + 1e-15)))
        d_hi = abs(qa(np.float64(hi - 1e-15)) - qb(np.float64(hi - 1e-15)))
        total += 0.5 * (d_lo + d_hi) * (hi - lo)
    return float(total)
