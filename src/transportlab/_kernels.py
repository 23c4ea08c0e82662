"""Hot numeric kernels: the weighted 1D W1 merge, the row-wise sorted
search and the moving-cell velocity along one axis, all vectorized numpy
over whole particle batches.

``grid_eval_2d`` and its helpers ``_falloff`` and ``_nearest_column``
evaluate the earlier design's inner-cell field with a quintic falloff; the
package no longer calls them. They stay because the benchmark harness
looks them up by name: its probe times ``grid_eval_2d``.
"""
from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# weighted 1D Wasserstein-1: exact integral of |F_a^{-1} - F_b^{-1}| over mass
# ---------------------------------------------------------------------------

def w1_pair_sorted(xa, wa, xb, wb):
    """W1 between weighted 1D atom lists already sorted by position.

    Both inputs must carry (numerically) equal total mass; the caller
    validates that. Exact up to float rounding: the quantile functions are
    piecewise constant and the merge visits every breakpoint once.
    """
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    ca = np.cumsum(np.asarray(wa, dtype=np.float64))
    cb = np.cumsum(np.asarray(wb, dtype=np.float64))
    total = min(ca[-1], cb[-1])
    cuts = np.concatenate([ca[:-1], cb[:-1]])
    cuts = cuts[cuts < total]
    grid = np.concatenate([[0.0], np.sort(cuts), [total]])
    seg = np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    ia = np.minimum(np.searchsorted(ca, mid, side="left"), len(xa) - 1)
    ib = np.minimum(np.searchsorted(cb, mid, side="left"), len(xb) - 1)
    return float(np.sum(seg * np.abs(xa[ia] - xb[ib])))


# ---------------------------------------------------------------------------
# the earlier inner-cell field, kept for the benchmark probe
# ---------------------------------------------------------------------------
#
# Columns i carry intervals (cxm[i], cxp[i]) with per-column affine velocity
# ax[i]*x + bx[i]; cells (i, j) carry (cym[i,j], cyp[i,j]) with ay[i,j]*y +
# by[i,j]. Outside a cell the velocity is damped by a quintic falloff over
# the half-gap to the neighbouring cell (gxm/gxp per column, gym/gyp per
# cell).

def _falloff(dist, margin):
    """Quintic falloff of ``grid_eval_2d``; kept with it for the probe."""
    u = np.clip(np.divide(dist, margin, out=np.full_like(dist, np.inf),
                          where=margin > 0.0), 0.0, 1.0)
    return 1.0 - u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _nearest_column(px, cxm, cxp, gxm, gxp):
    """Index of the nearest interval and the falloff factor there; kept
    with ``grid_eval_2d`` for the probe."""
    n = cxm.shape[0]
    i = np.minimum(np.searchsorted(cxp, px), n - 1)
    has_prev = i > 0
    d_here = np.maximum(cxm[i] - px, 0.0)
    d_prev = np.where(has_prev, px - cxp[np.maximum(i - 1, 0)], np.inf)
    i = np.where(has_prev & (d_prev < d_here), i - 1, i)
    below = px < cxm[i]
    above = px > cxp[i]
    dx = np.where(below, cxm[i] - px, np.where(above, px - cxp[i], 0.0))
    mx = np.where(below, gxm[i], np.where(above, gxp[i], 1.0))
    return i, _falloff(dx, mx)


def _row_keys(rows, values):
    keys = np.empty(np.broadcast_shapes(np.shape(rows), np.shape(values)),
                    dtype=np.complex128)
    keys.real = rows
    keys.imag = values
    return keys


def row_search(table, rows, values, side="left"):
    """``np.searchsorted(table[rows[k]], values[k], side)`` for every k.

    One search over (row, value) keys, O(N log n) for N points and n-wide
    rows, each of which must be sorted. Complex numbers compare
    lexicographically, and the keys are assembled without arithmetic on the
    values, so ties resolve exactly as in a search within one row.
    """
    keys = _row_keys(np.arange(table.shape[0])[:, None], table).ravel()
    found = np.searchsorted(keys, _row_keys(rows, values), side=side)
    return found - table.shape[1] * rows


def row_cell(walls, rows, values):
    """Cell c of row ``rows[k]`` with walls[r, c] <= values[k] < walls[r,
    c + 1] for every k; a value beyond the outer walls gets the outermost
    cell, one on an interior wall the cell above it."""
    found = row_search(walls, rows, values, side="right")
    return np.clip(found - 1, 0, walls.shape[1] - 2)


def grid_eval_2d(px, py, cxm, cxp, ax, bx, cym, cyp, ay, by,
                 gxm, gxp, gym, gyp):
    """Velocity of the earlier 2D inner-cell field at particle positions.

    No package code calls it; ``benchmarks/probe.py`` times it by name and
    ``benchmarks/tracer.py`` patches it."""
    n = cxm.shape[0]
    i, sx = _nearest_column(px, cxm, cxp, gxm, gxp)

    # flat indices into the (n, n) cell tables: the first cell of row i
    # whose top is at or above py, and the one below it
    row = n * i
    here = row + np.minimum(row_search(cyp, i, py), n - 1)
    prev = np.maximum(here - 1, row)
    cym_f, cyp_f = cym.ravel(), cyp.ravel()
    d_here = np.maximum(cym_f[here] - py, 0.0)
    d_prev = np.where(prev < here, py - cyp_f[prev], np.inf)
    k = np.where(d_prev < d_here, prev, here)

    lo, hi = cym_f[k], cyp_f[k]
    below = py < lo
    above = py > hi
    dy = np.where(below, lo - py, np.where(above, py - hi, 0.0))
    my = np.where(below, gym.ravel()[k], np.where(above, gyp.ravel()[k], 1.0))
    s = sx * _falloff(dy, my)

    out = np.empty((px.shape[0], 2))
    out[:, 0] = s * (ax[i] * px + bx[i])
    out[:, 1] = s * (ay.ravel()[k] * py + by.ravel()[k])
    return out


def grid_eval_1d(px, rows, walls, alpha, beta):
    """Velocity along one axis of the moving-cell field.

    Point k lies in the row ``rows[k]`` of cells, whose walls are
    ``walls[rows[k]]`` (sorted, shape ``(rows, n + 1)``); inside cell c its
    velocity is ``alpha[r, c] * px + beta[r, c]``, and it is zero outside
    the row's outer walls. ``benchmarks/tracer.py`` patches it by name to
    count grid-field evaluations.
    """
    c = row_cell(walls, rows, px)
    inside = (walls[rows, 0] <= px) & (px <= walls[rows, -1])
    return np.where(inside, alpha[rows, c] * px + beta[rows, c], 0.0)


def active_lane() -> str:
    """Name of the kernel implementation in use; numpy is the only one."""
    return "numpy"
