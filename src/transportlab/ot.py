"""Exact Wasserstein distances and optimal plans, and a certified W1
bracket for clouds above the exact solver's cap.

Equal-count equal-weight instances solve as a linear assignment problem, by
the package's own shortest-augmenting-path kernel (:func:`_assignment`);
general weighted instances solve as a transportation linear program
(scipy's HiGHS, imported at the first such solve). Both routes are exact
(vertex solutions); there is no entropic smoothing anywhere in these code
paths. Instances above the configured cap are refused; :func:`w1_bracket`
bounds W1 for large clouds from both sides instead.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .measure import ParticleMeasure

__all__ = [
    "TransportPlan",
    "w1_1d",
    "wp_discrete",
    "w1_bracket",
    "EXACT_SOLVER_CAP",
]

EXACT_SOLVER_CAP = 2048
MASS_TOL = 1e-10
# projection directions of the bracket's lower bound
SLICES = 128
# about this many points per block of the bracket's upper bound
BLOCK_POINTS = 40
# blocks per stacked assignment: 2 048 blocks of 40 hold 26 MB of costs
BLOCK_STACK = 2048
COARSE_POINTS = 128  # clouds above this may start from a coarse level


@dataclass
class TransportPlan:
    """Sparse coupling between two atom clouds."""

    src_idx: np.ndarray
    tgt_idx: np.ndarray
    mass: np.ndarray
    source: ParticleMeasure
    target: ParticleMeasure
    p: int
    method: str
    dual_gap: float = float("nan")

    def __post_init__(self):
        self.src_idx = np.asarray(self.src_idx, dtype=np.int64)
        self.tgt_idx = np.asarray(self.tgt_idx, dtype=np.int64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if np.any(self.mass <= 0):
            raise ValueError("plan masses must be positive")

    def displacements(self):
        return (self.target.positions[self.tgt_idx]
                - self.source.positions[self.src_idx])

    def entry_costs(self):
        return np.linalg.norm(self.displacements(), axis=1) ** self.p

    def cost(self) -> float:
        return float(np.sum(self.mass * self.entry_costs()))

    def distance(self) -> float:
        return self.cost() ** (1.0 / self.p)

    def marginal_residuals(self):
        row = np.zeros(len(self.source))
        col = np.zeros(len(self.target))
        np.add.at(row, self.src_idx, self.mass)
        np.add.at(col, self.tgt_idx, self.mass)
        return (float(np.max(np.abs(row - self.source.weights))),
                float(np.max(np.abs(col - self.target.weights))))

    def validate(self, tol: float = MASS_TOL) -> None:
        r, c = self.marginal_residuals()
        if max(r, c) > tol:
            raise ValueError(f"plan marginals off by ({r:.2e}, {c:.2e})")


def _check_masses(mu: ParticleMeasure, nu: ParticleMeasure) -> float:
    ma, mb = mu.total_mass(), nu.total_mass()
    if abs(ma - mb) > MASS_TOL * max(ma, mb, 1.0):
        raise ValueError(
            f"total masses differ: {ma!r} vs {mb!r}; rescale one side first")
    return ma


def w1_1d(mu: ParticleMeasure, nu: ParticleMeasure) -> float:
    """Exact W1 on the line via the quantile-function integral."""
    if mu.dim != 1 or nu.dim != 1:
        raise ValueError("w1_1d handles one-dimensional measures only")
    _check_masses(mu, nu)
    ia = np.argsort(mu.positions[:, 0], kind="stable")
    ib = np.argsort(nu.positions[:, 0], kind="stable")
    return _kernels.w1_pair_sorted(mu.positions[ia, 0], mu.weights[ia],
                                   nu.positions[ib, 0], nu.weights[ib])


def _distances(a, b, p=1):
    """|a_i - b_j|^p for every pair of points ``a[..., i, :]`` and ``b[...,
    j, :]``, summed axis by axis."""
    sq = 0.0
    for axis in range(a.shape[-1]):
        diff = a[..., :, None, axis] - b[..., None, :, axis]
        diff *= diff
        sq += diff
    return sq if p == 2 else np.sqrt(sq, out=sq)


def _equal_weights(mu, nu):
    """Both clouds have the same count and one weight per atom."""
    return (len(mu) == len(nu)
            and np.allclose(mu.weights, mu.weights[0], rtol=0, atol=1e-12)
            and np.allclose(nu.weights, nu.weights[0], rtol=0, atol=1e-12))


def _principal_chain(a, b):
    """Both clouds sorted along the principal axis of their union: the
    monotone matching on that line, a guess for the assignment to start
    from. The exact lane parks both clouds on one line, where the guess is
    optimal."""
    both = np.concatenate([a, b])
    both = both - both.mean(axis=0)
    axis = np.linalg.eigh(both.T @ both)[1][:, -1]
    return (np.argsort(a @ axis, kind="stable"),
            np.argsort(b @ axis, kind="stable"))


def _assignment(a, b, p):
    """Optimal column for each point of ``a`` among those of ``b`` under
    the cost |a_i - b_j|^p, and optimal row duals. The candidate starts of
    :func:`_kernels.assignment`: the duals along ``_principal_chain``
    (optimal on a line under p = 2), then, above ``COARSE_POINTS`` points,
    ``_coarse_duals`` (Merigot 2011; Schmitzer 2016)."""
    cost = _distances(a, b, p)
    starts = [lambda: _kernels._chain_duals(cost, *_principal_chain(a, b))]
    if len(a) > COARSE_POINTS:
        starts.append(lambda: _coarse_duals(cost, a, b, p))
    return _kernels.assignment(cost, starts)


def _coarse_duals(cost, a, b, p):
    """Column duals: the row duals u of the assignment between every third
    point of each cloud in ``_block_order``'s nested order, extended to
    every column by the c-transform v_j = min_i (c_ij - u_i)."""
    def thinned(points):
        per_axis = max(1, round((len(points) / 3) ** (1 / points.shape[1])))
        return _block_order(points, per_axis)[0][1::3]
    rows = thinned(a)
    _, u = _assignment(a[rows], b[thinned(b)], p)
    return np.min(cost[rows] - u[:, None], axis=0)


def _assignment_plan(mu, nu, p):
    cols, _ = _assignment(mu.positions, nu.positions, p)
    rows = np.arange(len(mu))
    return TransportPlan(rows, cols, mu.weights, mu, nu, p,
                         method="assignment", dual_gap=0.0)


def _transportation_plan(mu, nu, p):
    # scipy is most of the package's import time; only weighted solves pay it
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n, m = len(mu), len(nu)
    cost = _distances(mu.positions, nu.positions, p)
    c = cost.ravel()
    # marginal constraints: row i sums flow[i, :], row n + j sums
    # flow[:, j]; the last column constraint is redundant
    rows = np.concatenate([np.repeat(np.arange(n), m),
                           np.repeat(n + np.arange(m - 1), n)])
    cols = np.concatenate([np.arange(n * m),
                           np.tile(m * np.arange(n), m - 1)
                           + np.repeat(np.arange(m - 1), n)])
    a_eq = coo_matrix((np.ones(len(rows)), (rows, cols)),
                      shape=(n + m - 1, n * m))
    b_eq = np.concatenate([mu.weights, nu.weights[:-1]])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transportation LP failed: {res.message}")
    flow = res.x.reshape(n, m)
    keep = flow > 1e-14 * max(mu.weights.max(), nu.weights.max())
    src, tgt = np.nonzero(keep)
    # dual feasibility certificate: c_ij - u_i - v_j >= -tol everywhere
    duals = res.eqlin.marginals
    u = duals[:n]
    v = np.concatenate([duals[n:], [0.0]])
    gap = float(np.min(cost - u[:, None] - v[None, :]))
    plan = TransportPlan(src, tgt, flow[keep], mu, nu, p,
                         method="transportation-lp", dual_gap=gap)
    return plan


def wp_discrete(mu: ParticleMeasure, nu: ParticleMeasure, p: int = 1,
                cap: int = EXACT_SOLVER_CAP):
    """Exact W_p with plan, p in {1, 2}.

    Distances follow the mass-scaling convention W_p(cμ, cν) = c^{1/p}
    W_p(μ, ν): the solve runs on probability normalizations and the plan is
    rescaled back to the input masses.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    mass = _check_masses(mu, nu)
    if max(len(mu), len(nu)) > cap:
        raise ValueError(
            f"instance size {len(mu)}x{len(nu)} exceeds the exact-solver cap "
            f"{cap}; bracket W1 with w1_bracket, or subsample both sides "
            "first")
    mun = mu.scaled(1.0 / mass)
    nun = nu.scaled(1.0 / mass)
    if _equal_weights(mun, nun):
        plan_n = _assignment_plan(mun, nun, p)
    else:
        plan_n = _transportation_plan(mun, nun, p)
    distance = mass ** (1.0 / p) * plan_n.distance()
    plan = TransportPlan(plan_n.src_idx, plan_n.tgt_idx, plan_n.mass * mass,
                         mu, nu, p, plan_n.method, plan_n.dual_gap)
    return distance, plan


def _sliced_lower(mu, nu):
    """Largest exact 1D W1 between the projections on a fixed set of
    directions: a lower bound on W1, since a projection is 1-Lipschitz."""
    dim = mu.dim
    if dim == 1:
        directions = np.ones((1, 1))
    else:
        gauss = np.random.default_rng(0).standard_normal((SLICES - dim, dim))
        directions = np.concatenate(
            [np.eye(dim), gauss / np.linalg.norm(gauss, axis=1)[:, None]])
    equal = _equal_weights(mu, nu)
    best = 0.0
    for direction in directions:
        xa = mu.positions @ direction
        xb = nu.positions @ direction
        if equal:
            # the monotone coupling pairs the k-th smallest of each side,
            # without the weighted merge's sort of cuts and its searches
            w1 = (float(np.sum(np.abs(np.sort(xa) - np.sort(xb))))
                  * mu.total_mass() / len(mu))
        else:
            ia, ib = np.argsort(xa), np.argsort(xb)
            w1 = _kernels.w1_pair_sorted(xa[ia], mu.weights[ia],
                                         xb[ib], nu.weights[ib])
        best = max(best, w1)
    return best


def _block_order(positions, per_axis):
    """Permutation of the points into nested equal-count blocks, and the
    block boundaries in it.

    Sort by the first coordinate and cut into ``per_axis`` slabs, then
    sort each slab by the next coordinate and cut it likewise, down to the
    last axis. Block sizes depend only on the point count.
    """
    count, dim = positions.shape
    order = np.arange(count)
    bounds = np.array([0, count])
    for axis in range(dim):
        sizes = np.diff(bounds)
        group = np.repeat(np.arange(len(sizes)), sizes)
        order = order[np.lexsort((positions[order, axis], group))]
        cuts = (bounds[:-1, None] + np.arange(per_axis + 1)
                * sizes[:, None] // per_axis).ravel()
        bounds = cuts[np.concatenate([[True], cuts[1:] != cuts[:-1]])]
    return order, bounds


def _block_upper(mu, nu):
    """Cost of an explicit coupling: an upper bound on W1.

    Both clouds are cut into the same nested blocks. With N equal weights
    on each side, blocks hold equal counts and each block pair is matched
    by exact assignment; otherwise the north-west-corner coupling runs
    along the block order.
    """
    count = max(len(mu), len(nu))
    per_axis = max(1, round((count / BLOCK_POINTS) ** (1.0 / mu.dim)))
    oa, bounds = _block_order(mu.positions, per_axis)
    ob, _ = _block_order(nu.positions, per_axis)
    pa, pb = mu.positions[oa], nu.positions[ob]
    if _equal_weights(mu, nu):
        # blocks of one size solve as one stack, a bounded number at a time
        starts, sizes = bounds[:-1], np.diff(bounds)
        total = 0.0
        for size in sorted(set(sizes.tolist())):
            first = starts[sizes == size]
            for lo in range(0, len(first), BLOCK_STACK):
                idx = first[lo:lo + BLOCK_STACK, None] + np.arange(size)
                cost = _distances(pa[idx], pb[idx])
                cols = _kernels.assignment(cost)
                total += float(np.sum(
                    np.take_along_axis(cost, cols[..., None], axis=2)))
        return total * mu.total_mass() / count
    ia, ib, seg = _kernels.quantile_coupling(mu.weights[oa], nu.weights[ob])
    return float(np.sum(seg * np.linalg.norm(pa[ia] - pb[ib], axis=1)))


def w1_bracket(mu: ParticleMeasure, nu: ParticleMeasure,
               cap: int = EXACT_SOLVER_CAP) -> dict:
    """W1 between two clouds of equal mass: exact at or below ``cap``
    atoms a side, else a certified bracket.

    At or below the cap the report is ``{"estimate": W1, "method":
    "exact"}``. Above it, ``lower`` is the largest exact W1 between 1D
    projections on ``SLICES`` fixed directions, and ``upper``, which is
    also the ``estimate``, is the cost of the block coupling of
    ``_block_upper`` (blocks of about ``BLOCK_POINTS`` points). Both bounds
    take O(N log N) work plus the small block assignments.
    """
    _check_masses(mu, nu)
    if max(len(mu), len(nu)) <= cap:
        dist, _ = wp_discrete(mu, nu, p=1, cap=cap)
        return {"estimate": dist, "method": "exact"}
    upper = _block_upper(mu, nu)
    return {"estimate": upper, "method": "bracket",
            "lower": _sliced_lower(mu, nu), "upper": upper}
