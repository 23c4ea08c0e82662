"""Exact Wasserstein distances and optimal plans, and a nested-block
coupling for clouds off a line above the exact solver's cap.

Clouds on parallel lines take the monotone coupling, a sort at any size
(:func:`_line_plan`). Off a line, equal-count equal-weight instances solve
as an assignment by the package's own kernel (:func:`_assignment`), the
rest as a transportation LP (scipy's HiGHS, imported at the first such
solve). All routes are exact vertex solutions, with no entropic smoothing.
:func:`wp_discrete` alone decides whether an exact plan is in reach: off a
line above the cap it raises :class:`SolverCapError`. Its callers then
take :func:`_block_plan`, a coupling with no optimality claim:
:func:`w1_bracket` bounds W1 from both sides with it, and the exact lane
steers along it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .measure import ParticleMeasure

__all__ = [
    "TransportPlan",
    "wp_discrete",
    "w1_bracket",
    "SolverCapError",
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
COARSE_POINTS = 128  # clouds off a line above this start from a coarse level
# a cloud is on a line when its spread off it is at most this share of
# both clouds' extent along it
LINE_TOL = 1e-12


@dataclass
class TransportPlan:
    """Sparse coupling between two atom clouds; ``method`` is the route
    that built it: ``"line"``, ``"assignment"``, ``"transportation-lp"``
    or, not optimal, ``"block"``."""

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


class SolverCapError(ValueError):
    """Clouds off a line with more atoms a side than the solver's cap."""


def _check_masses(mu: ParticleMeasure, nu: ParticleMeasure) -> float:
    if mu.dim != nu.dim:
        raise ValueError(f"measures of different dimensions: {mu.dim} and "
                         f"{nu.dim}")
    ma, mb = mu.total_mass(), nu.total_mass()
    if abs(ma - mb) > MASS_TOL * max(ma, mb, 1.0):
        raise ValueError(
            f"total masses differ: {ma!r} vs {mb!r}; rescale one side first")
    return ma


def _distances(a, b, p=1):
    """|a_i - b_j|^p for every pair of points ``a[..., i, :]`` and ``b[...,
    j, :]``, summed axis by axis into one preallocated buffer."""
    sq = np.empty(a.shape[:-1] + b.shape[-2:-1])
    diff = np.empty_like(sq)
    for axis in range(a.shape[-1]):
        step = diff if axis else sq
        np.subtract(a[..., :, None, axis], b[..., None, :, axis], out=step)
        step *= step
        if axis:
            sq += diff
    return sq if p == 2 else np.sqrt(sq, out=sq)


def _equal_weights(mu, nu):
    """Both clouds have the same count and one weight per atom."""
    return (len(mu) == len(nu)
            and np.allclose(mu.weights, mu.weights[0], rtol=0, atol=1e-12)
            and np.allclose(nu.weights, nu.weights[0], rtol=0, atol=1e-12))


def _principal_chain(a, b):
    """Both clouds' orders along their principal axis, if each lies on a
    line parallel to it, to within ``LINE_TOL`` of the union's extent along
    it; else None. The axis is that of the scatter of each cloud about its
    own mean, so two clouds on parallel lines, however far apart, pass: the
    exact lane parks a translation drift's clouds on two such lines. There
    |a_i - b_j|^2 is the squared gap along the axis plus a constant, and
    the monotone coupling is optimal for p = 1 and p = 2. A cloud's spread
    off the axis is the range of its own projections on the normals, so
    equal coordinates read 0 whatever the rounding of its mean."""
    centred = np.concatenate([a - a.mean(axis=0), b - b.mean(axis=0)])
    axes = np.linalg.eigh(centred.T @ centred)[1]
    along = np.concatenate([a, b]) @ axes[:, -1]
    spread = max(np.max(np.ptp(cloud @ axes[:, :-1], axis=0), initial=0.0)
                 for cloud in (a, b))
    if spread > LINE_TOL * np.ptp(along):
        return None
    return (np.argsort(along[:len(a)], kind="stable"),
            np.argsort(along[len(a):], kind="stable"))


def _kept(mass, mu):
    """Mask of the plan pieces above rounding: a sliver is cut where two
    cumulative sums near the total mass all but meet, so the floor is
    1e-14 of ``mu``'s total mass."""
    return mass > 1e-14 * mu.total_mass()


def _line_plan(mu, nu, p, ia, ib, method="line"):
    """The coupling along the orders ``ia`` and ``ib``, monotone on a line,
    sorted by (source, target): equal counts of equal weights pair the k-th
    atoms; else the corner coupling, less slivers (``_kept``)."""
    if _equal_weights(mu, nu):
        src, tgt, mass = ia, ib, mu.weights[ia]
    else:
        ka, kb, mass = _kernels.quantile_coupling(mu.weights[ia],
                                                  nu.weights[ib])
        keep = _kept(mass, mu)
        src, tgt, mass = ia[ka[keep]], ib[kb[keep]], mass[keep]
    order = np.lexsort((tgt, src))
    return TransportPlan(src[order], tgt[order], mass[order], mu, nu, p,
                         method)


def _repeats(points):
    """Whether two points of the cloud coincide: a lexicographic sort puts
    them side by side."""
    ordered = points[np.lexsort(points.T)]
    return bool(np.any(np.all(ordered[1:] == ordered[:-1], axis=1)))


def _assignment(a, b, p):
    """Optimal column for each point of ``a`` among those of ``b`` under
    the cost |a_i - b_j|^p, and optimal row duals.

    :func:`_kernels.assignment` starts from one start, chosen from what the
    clouds show and the only one built: the column reduction when a cloud
    repeats a point or has at most ``COARSE_POINTS`` points; else
    ``_coarse_duals`` (Merigot 2011; Schmitzer 2016). The search tests
    ties at a free column only when a cloud repeats a point, for only then
    are they common: each free row of the column reduction has a free
    column at its least reduced cost, and the test ends its search at its
    first scan."""
    cost = _distances(a, b, p)
    repeats = _repeats(a) or _repeats(b)
    if repeats or len(a) <= COARSE_POINTS:
        start = None
    else:
        start = _coarse_duals(cost, a, b, p)
    return _kernels.assignment(cost, start, ties=repeats)


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
    keep = _kept(flow, mu)
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

    Clouds on parallel lines (``_principal_chain``) take ``_line_plan``
    at any size; off a line, more than ``cap`` atoms a side raise
    :class:`SolverCapError`. This is the one test of whether an exact plan
    is in reach.

    Distances follow the mass-scaling convention W_p(cμ, cν) = c^{1/p}
    W_p(μ, ν): the solve runs on probability normalizations and the plan is
    rescaled back to the input masses.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    mass = _check_masses(mu, nu)
    chain = _principal_chain(mu.positions, nu.positions)
    if chain is None and max(len(mu), len(nu)) > cap:
        raise SolverCapError(
            f"instance size {len(mu)}x{len(nu)} exceeds the exact-solver cap "
            f"{cap}; bracket W1 with w1_bracket, or subsample both sides "
            "first")
    mun = mu.scaled(1.0 / mass)
    nun = nu.scaled(1.0 / mass)
    if chain is not None:
        plan_n = _line_plan(mun, nun, p, *chain)
    elif _equal_weights(mun, nun):
        cols, _ = _assignment(mun.positions, nun.positions, p)
        plan_n = TransportPlan(np.arange(len(mun)), cols, mun.weights, mun,
                               nun, p, method="assignment", dual_gap=0.0)
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
            ka, kb, seg = _kernels.quantile_coupling(mu.weights[ia],
                                                     nu.weights[ib])
            w1 = float(np.sum(seg * np.abs(xa[ia[ka]] - xb[ib[kb]])))
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


def _block_plan(mu, nu, p):
    """A coupling at any size, not optimal: both clouds cut into the same
    nested blocks of about ``BLOCK_POINTS`` points. Equal counts of equal
    weights match each block pair by exact assignment at cost |x - y|^p,
    whose straight paths do not cross at p = 2 (McCann 1997); else the
    corner coupling runs along the block order, as in ``_line_plan``."""
    count = max(len(mu), len(nu))
    per_axis = max(1, round((count / BLOCK_POINTS) ** (1.0 / mu.dim)))
    oa, bounds = _block_order(mu.positions, per_axis)
    ob, _ = _block_order(nu.positions, per_axis)
    if _equal_weights(mu, nu):
        # blocks of one size solve as one stack, a bounded number at a time
        pa, pb = mu.positions[oa], nu.positions[ob]
        starts, sizes = bounds[:-1], np.diff(bounds)
        for size in sorted(set(sizes.tolist())):
            first = starts[sizes == size]
            for lo in range(0, len(first), BLOCK_STACK):
                idx = first[lo:lo + BLOCK_STACK, None] + np.arange(size)
                cols = _kernels.assignment(_distances(pa[idx], pb[idx], p))
                ob[idx] = ob[np.take_along_axis(idx, cols, axis=1)]
    return _line_plan(mu, nu, p, oa, ob, "block")


def w1_bracket(mu: ParticleMeasure, nu: ParticleMeasure,
               cap: int = EXACT_SOLVER_CAP) -> dict:
    """W1 between two clouds of equal mass: exact where ``wp_discrete``
    solves it, else a certified bracket.

    An exact value reads ``{"estimate": W1, "method": "exact"}``. Where
    ``wp_discrete`` raises :class:`SolverCapError`, ``lower`` is the
    largest exact W1 between 1D projections on ``SLICES`` fixed directions,
    and ``upper``, which is also the ``estimate``, is the cost of
    ``_block_plan`` at p = 1. Both bounds take O(N log N) work plus the
    small block assignments.
    """
    try:
        dist, _ = wp_discrete(mu, nu, p=1, cap=cap)
    except SolverCapError:
        upper = _block_plan(mu, nu, 1).cost()
        return {"estimate": upper, "method": "bracket",
                "lower": _sliced_lower(mu, nu), "upper": upper}
    return {"estimate": dist, "method": "exact"}
