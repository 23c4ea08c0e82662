"""Hot numeric kernels: the weighted 1D W1 merge, exact square assignment,
the row-wise sorted search and the moving-cell velocity along one axis, all
vectorized numpy over whole particle batches.

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

def quantile_coupling(wa, wb):
    """North-west-corner coupling of two weighted atom lists in the given
    order: pieces k of mass ``seg[k]`` join atom ``ia[k]`` to ``ib[k]``.

    Both lists must carry (numerically) equal total mass; the caller
    validates that. The merge visits every breakpoint of the two cumulative
    masses once.
    """
    ca = np.cumsum(np.asarray(wa, dtype=np.float64))
    cb = np.cumsum(np.asarray(wb, dtype=np.float64))
    total = min(ca[-1], cb[-1])
    cuts = np.concatenate([ca[:-1], cb[:-1]])
    cuts = cuts[cuts < total]
    grid = np.concatenate([[0.0], np.sort(cuts), [total]])
    seg = np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    ia = np.minimum(np.searchsorted(ca, mid, side="left"), len(ca) - 1)
    ib = np.minimum(np.searchsorted(cb, mid, side="left"), len(cb) - 1)
    return ia, ib, seg


def w1_pair_sorted(xa, wa, xb, wb):
    """W1 between weighted 1D atom lists already sorted by position.

    Exact up to float rounding: on sorted lists the north-west-corner
    coupling is the monotone one, which is optimal on the line.
    """
    ia, ib, seg = quantile_coupling(wa, wb)
    xa = np.asarray(xa, dtype=np.float64)
    xb = np.asarray(xb, dtype=np.float64)
    return float(np.sum(seg * np.abs(xa[ia] - xb[ib])))


# ---------------------------------------------------------------------------
# exact square assignment: shortest augmenting paths with dual potentials
# ---------------------------------------------------------------------------

def assignment(cost, starts=()):
    """Column ``cols[i]`` for each row i of a square cost matrix, minimizing
    the total ``cost[i, cols[i]]``, and optimal row duals u; for a stack of
    matrices (shape ``(B, n, n)``), one such row of columns per matrix.

    Shortest augmenting paths (Jonker & Volgenant 1987, in the form of
    Crouse 2016) from dual potentials u, v and a partial matching whose
    entries all have reduced cost c_ij - u_i - v_j = 0 and all others >= 0.
    The column reduction starts it: v_j = min_i c_ij and u_i = min_j (c_ij -
    v_j), and each column claims its cheapest row. Every row still free
    then grows a Dijkstra tree over the columns on the reduced costs until
    it reaches a free column, and the path is flipped. One scan relaxes
    every column at once; scanned columns are masked by a -inf in a copy of
    v. Among columns at the least distance a free one is taken first, so
    ties end the search at once: an all-zero matrix takes one scan per free
    row.

    ``starts``, for a single matrix, lists functions returning column
    duals v (then u_i = min_j (c_ij - v_j)); the first whose dual objective
    sum(u) + sum(v) is above the column reduction's replaces it. None is
    tried when each free row has a free column among its cheapest (repeated
    atoms), for then each search ends at its first scan.

    A stack runs its searches in lockstep, one scan of every matrix per
    step, so many small matrices share each step's numpy calls, and tracks
    each column's predecessor row at every scan. A single matrix takes the
    lighter loop of :meth:`_ShortestPaths.solve_one`: a scan is three array
    calls and an argmin, predecessors are not tracked, and at the free
    column the search rebuilds its path from a log of the rows it scanned.
    Both loops settle the same columns and return the same matching.
    """
    cost = np.asarray(cost, dtype=np.float64)
    stack = cost[None] if cost.ndim == 2 else cost
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"assignment needs square matrices, got {cost.shape}")
    if not np.all(np.isfinite(stack)):
        raise ValueError("assignment needs finite costs")
    paths = _ShortestPaths(stack)
    if cost.ndim == 3:
        paths.solve_lockstep()
        return paths.col4row
    for start in () if paths.ends_at_once() else starts:
        guess = _ShortestPaths(stack, start()[None])
        if guess.u.sum() + guess.v.sum() > paths.u.sum() + paths.v.sum():
            paths = guess
            break
    paths.solve_one()
    return paths.col4row[0], paths.u[0]


def _chain_duals(cost, rows, cols):
    """Column duals for the guessed pairs (rows[k], cols[k]): from one pair
    to the next, v steps halfway between the exchange costs
    c(r[k+1], c[k+1]) - c(r[k+1], c[k]) and c(r[k], c[k+1]) - c(r[k], c[k]).

    For two clouds on a line, sorted, under a strictly convex cost of the
    distance, the first exchange cost is below the second, and these are
    optimal duals of the monotone matching: every row's pair is its
    cheapest column, and no search is left to run.
    """
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    lo = cost[rows[1:], cols[1:]] - cost[rows[1:], cols[:-1]]
    hi = cost[rows[:-1], cols[1:]] - cost[rows[:-1], cols[:-1]]
    v = np.empty(len(cost))
    v[cols] = np.concatenate([[0.0], np.cumsum(0.5 * (lo + hi))])
    return v


def _first_claims(choice):
    """Block, chooser and chosen index of every choice ``choice[b, i]`` made
    by no lower i of its block."""
    nb, n = choice.shape
    keys, first = np.unique((np.arange(nb)[:, None] * n + choice).ravel(),
                            return_index=True)
    return keys // n, first % n, keys % n


class _ShortestPaths:
    """Duals, matching and search state of ``assignment``, one row per
    matrix of the stack."""

    def __init__(self, cost, v=None):
        """Start from the column reduction, or, given column duals ``v``
        (one row per matrix), from u_i = min_j (c_ij - v_j), each row
        claiming its cheapest column under v."""
        nb, n, _ = cost.shape
        self.cost = cost
        self.col4row = np.full((nb, n), -1, dtype=np.int64)
        self.row4col = np.full((nb, n), -1, dtype=np.int64)
        if v is None:
            self.v = cost.min(axis=1)
            self.u = np.min(cost - self.v[:, None, :], axis=2)
            blk, col, row = _first_claims(cost.argmin(axis=1))
        else:
            self.v = v
            reduced = cost - v[:, None, :]
            self.u = reduced.min(axis=2)
            blk, row, col = _first_claims(reduced.argmin(axis=2))
        self.col4row[blk, row] = col
        self.row4col[blk, col] = row
        self.path = np.zeros((nb, n), dtype=np.int64)
        self.reached = np.zeros((nb, n))
        self.dist = np.full((nb, n), np.inf)
        self.masked_v = self.v.copy()

    def ends_at_once(self):
        """Whether each free row has a free column among its cheapest."""
        rows = np.flatnonzero(self.col4row[0] < 0)
        cols = np.flatnonzero(self.row4col[0] < 0)
        reduced = self.cost[0][np.ix_(rows, cols)] - self.v[0][cols]
        return bool(np.all(np.any(reduced == self.u[0][rows, None], axis=1)))

    def augment(self, blocks, sink, start, low):
        """Close the searches of ``blocks`` that reached the free column
        ``sink`` at distance ``low``: move the duals of the tree by low
        minus each column's distance, which keeps every reduced cost >= 0
        and the new path's zero, then flip the path."""
        k, col = np.nonzero(self.masked_v[blocks] == -np.inf)
        blk = blocks[k]
        gain = low[k] - self.reached[blk, col]
        self.v[blk, col] -= gain
        # the tree's rows: the start, and those matched to scanned columns
        row = self.row4col[blk, col]
        tree = row >= 0
        self.u[blk[tree], row[tree]] += gain[tree]
        self.u[blocks, start] += low
        col = sink
        while len(blocks):
            row = self.path[blocks, col]
            self.row4col[blocks, col] = row
            prev = self.col4row[blocks, row]
            self.col4row[blocks, row] = col
            more = row != start
            blocks, col, start = blocks[more], prev[more], start[more]

    def solve_one(self):
        cost, v, u = self.cost[0], self.v[0], self.u[0]
        row4col, col4row, path = self.row4col[0], self.col4row[0], self.path[0]
        dist, masked_v, reached = self.dist[0], self.masked_v[0], self.reached[0]
        reduced = np.empty(len(v))
        free_cols = np.flatnonzero(row4col < 0)
        for start in np.flatnonzero(col4row < 0).tolist():
            dist.fill(np.inf)
            masked_v[:] = v
            # the search logs, per scan, the row scanned, its label and the
            # column it settled, and tracks no predecessors
            rows, lows, settled = [], [], []
            row, low = start, 0.0
            while True:
                np.subtract(cost[row], masked_v, out=reduced)
                reduced += low - u[row]
                np.minimum(dist, reduced, out=dist)
                rows.append(row)
                lows.append(low)
                col = int(dist.argmin())
                low = float(dist[col])
                row = int(row4col[col])
                if row >= 0:
                    # the lowest-index free column among the ties, if any
                    ties = dist[free_cols]
                    k = int(ties.argmin())
                    if ties[k] == low:
                        col, row = int(free_cols[k]), -1
                settled.append(col)
                reached[col] = low
                masked_v[col] = -np.inf
                dist[col] = np.inf
                if row < 0:
                    break
            self._rebuild_path(rows, lows, settled)
            # ``augment`` for one matrix, on the settled columns the log
            # holds: the free sink is the last, and the others' rows are the
            # tree's rows besides the start
            tree = np.array(settled)
            gain = low - reached[tree]
            v[tree] -= gain
            u[row4col[tree[:-1]]] += gain[:-1]
            u[start] += low
            free_cols = free_cols[free_cols != col]
            while True:
                row = int(path[col])
                row4col[col] = row
                prev = int(col4row[row])
                col4row[row] = col
                if row == start:
                    break
                col = prev

    def _rebuild_path(self, rows, lows, settled):
        """Write into ``path`` the predecessor row of each column on the
        path to the sink ``settled[-1]``, from the log of one search.

        Scan i scanned ``rows[i]`` at label ``lows[i]`` and settled
        ``settled[i]``; row ``rows[i + 1]`` is the one matched to
        ``settled[i]``. A column's predecessor is the first of the rows
        scanned before it settled that gave it its least distance, as a
        strict ``<`` at every scan would have kept. The candidates are
        recomputed with the scan's own float operations, so they are
        bitwise the distances the scans compared.
        """
        cost, v, u, path = self.cost[0], self.v[0], self.u[0], self.path[0]
        rows = np.array(rows)
        offset = np.array(lows) - u[rows]
        i = len(rows) - 1
        while True:
            col = settled[i]
            k = int(((cost[rows[:i + 1], col] - v[col]) + offset[:i + 1])
                    .argmin())
            path[col] = rows[k]
            if k == 0:
                return
            i = k - 1

    def solve_lockstep(self):
        nb, n = self.v.shape
        blk = np.arange(nb)
        cost, u, row4col, path = self.cost, self.u, self.row4col, self.path
        dist, masked_v = self.dist, self.masked_v
        reduced = np.empty((nb, n))
        shorter = np.empty((nb, n), dtype=bool)
        start = np.zeros(nb, dtype=np.int64)
        row = np.zeros(nb, dtype=np.int64)
        low = np.zeros(nb)
        active = np.zeros(nb, dtype=bool)

        def begin(blocks):
            # each block's next free row starts a search; a block with none
            # left is done, and its idle scans change nothing it returns
            free = self.col4row[blocks] < 0
            active[blocks] = free.any(axis=1)
            start[blocks] = row[blocks] = free.argmax(axis=1)
            low[blocks] = 0.0
            dist[blocks] = np.inf
            masked_v[blocks] = self.v[blocks]

        begin(blk)
        while active.any():
            np.subtract(cost[blk, row], masked_v, out=reduced)
            reduced += (low - u[blk, row])[:, None]
            np.less(reduced, dist, out=shorter)
            np.copyto(path, row[:, None], where=shorter)
            np.minimum(dist, reduced, out=dist)
            col = dist.argmin(axis=1)
            low = dist[blk, col]
            ties = (dist == low[:, None]) & (row4col < 0)
            col = np.where(ties.any(axis=1), ties.argmax(axis=1), col)
            self.reached[blk, col] = low
            masked_v[blk, col] = -np.inf
            dist[blk, col] = np.inf
            nxt = row4col[blk, col]
            done = active & (nxt < 0)
            if done.any():
                ended = np.flatnonzero(done)
                self.augment(ended, col[ended], start[ended], low[ended])
                begin(ended)
            # a finished block's columns are all matched, so only a block
            # that just ended reads -1 here, and it keeps its new start
            row = np.where(done, row, nxt)


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
    velocity is ``alpha[r, c] * px + beta[r, c]``, and beyond the row's
    outer walls that of the wall (px clamped to it), continuous when the
    walls move. ``benchmarks/tracer.py`` patches it by name to count
    grid-field evaluations.
    """
    c = row_cell(walls, rows, px)
    x = np.clip(px, walls[rows, 0], walls[rows, -1])
    return alpha[rows, c] * x + beta[rows, c]


def active_lane() -> str:
    """Name of the kernel implementation in use; numpy is the only one."""
    return "numpy"
