"""Exact Wasserstein distances and optimal plans.

Equal-count equal-weight instances solve as a linear assignment problem;
general weighted instances solve as a transportation linear program. Both
routes are exact (vertex solutions); there is no entropic smoothing anywhere
in these code paths. Instances above the configured cap are refused — large
clouds go through :func:`subsampled_w1`, which reports its own noise
estimate.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .measure import ParticleMeasure

__all__ = [
    "TransportPlan",
    "w1_1d",
    "wp_discrete",
    "subsampled_w1",
    "EXACT_SOLVER_CAP",
]

EXACT_SOLVER_CAP = 2048
MASS_TOL = 1e-10


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
    meta: dict = field(default_factory=dict)

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

    def to_csv(self, path) -> None:
        costs = self.entry_costs()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "j", "mass", "cost_contribution"])
            for i, j, m, c in zip(self.src_idx, self.tgt_idx, self.mass, costs):
                writer.writerow([i, j, f"{m:.17g}", f"{m * c:.17g}"])

    def report(self) -> dict:
        r, c = self.marginal_residuals()
        return {"method": self.method, "p": self.p, "entries": len(self.mass),
                "distance": self.distance(), "row_residual": r,
                "col_residual": c, "dual_gap": self.dual_gap, **self.meta}

    def report_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.report(), fh, indent=2, sort_keys=True)


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


def _assignment_plan(mu, nu, p):
    # scipy is most of the package's import time; only solves pay it
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    cost = cdist(mu.positions, nu.positions)
    if p == 2:
        cost = cost ** 2
    rows, cols = linear_sum_assignment(cost)
    w = mu.weights[rows]
    plan = TransportPlan(rows, cols, w, mu, nu, p, method="assignment",
                         dual_gap=0.0, meta={"atoms": len(mu)})
    return plan


def _transportation_plan(mu, nu, p):
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix
    from scipy.spatial.distance import cdist

    n, m = len(mu), len(nu)
    cost = cdist(mu.positions, nu.positions)
    if p == 2:
        cost = cost ** 2
    c = cost.ravel()
    # marginal constraints; the last column constraint is redundant
    rows = []
    cols = []
    for i in range(n):
        rows.append(np.full(m, i))
        cols.append(np.arange(i * m, (i + 1) * m))
    for j in range(m - 1):
        rows.append(np.full(n, n + j))
        cols.append(np.arange(j, n * m, m))
    a_eq = coo_matrix((np.ones(n * m + n * (m - 1)),
                       (np.concatenate(rows), np.concatenate(cols))),
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
                         method="transportation-lp", dual_gap=gap,
                         meta={"atoms": (n, m), "lp_iterations": int(res.nit)})
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
            f"{cap}; subsample first (see subsampled_w1)")
    mun = mu.scaled(1.0 / mass)
    nun = nu.scaled(1.0 / mass)
    same_count = len(mun) == len(nun)
    uniform = (same_count
               and np.allclose(mun.weights, mun.weights[0], rtol=0, atol=1e-12)
               and np.allclose(nun.weights, nun.weights[0], rtol=0, atol=1e-12))
    if uniform:
        plan_n = _assignment_plan(mun, nun, p)
    else:
        plan_n = _transportation_plan(mun, nun, p)
    distance = mass ** (1.0 / p) * plan_n.distance()
    plan = TransportPlan(plan_n.src_idx, plan_n.tgt_idx, plan_n.mass * mass,
                         mu, nu, p, plan_n.method, plan_n.dual_gap, plan_n.meta)
    return distance, plan


def subsampled_w1(mu: ParticleMeasure, nu: ParticleMeasure, cap: int = 2000,
                  seed: int = 0, batches: int = 3) -> dict:
    """W1 estimate for clouds above the exact cap.

    Draws ``batches`` independent cap-sized subsamples from each side, solves
    each pair exactly, and reports the mean together with a same-law noise
    floor (W1 between two disjoint subsamples of ``nu``). The estimate is
    upward-biased by about that floor.
    """
    mass = _check_masses(mu, nu)
    if max(len(mu), len(nu)) <= cap:
        dist, _ = wp_discrete(mu, nu, p=1)
        return {"estimate": dist, "method": "exact", "batches": [dist],
                "noise_floor": 0.0, "cap": cap}
    rng = np.random.default_rng(seed)

    def draw(m, gen):
        if len(m) <= cap:
            return m.normalized()
        prob = m.weights / m.total_mass()
        idx = gen.choice(len(m), size=cap, replace=False, p=prob)
        return ParticleMeasure(m.positions[idx], np.full(cap, 1.0 / cap))

    vals = []
    for _ in range(batches):
        d, _ = wp_discrete(draw(mu, rng), draw(nu, rng), p=1)
        vals.append(d * mass)
    # same-law floor: two disjoint subsamples of the target
    if len(nu) >= 2 * cap:
        idx = rng.choice(len(nu), size=2 * cap, replace=False,
                         p=nu.weights / nu.total_mass())
        half_a = ParticleMeasure(nu.positions[idx[:cap]], np.full(cap, 1.0 / cap))
        half_b = ParticleMeasure(nu.positions[idx[cap:]], np.full(cap, 1.0 / cap))
        floor, _ = wp_discrete(half_a, half_b, p=1)
        floor *= mass
    else:
        floor = float("nan")
    return {"estimate": float(np.mean(vals)), "method": f"subsample-{cap}",
            "batches": [float(v) for v in vals], "noise_floor": float(floor),
            "cap": cap}
