"""Control-field synthesis: grid, storage and funnel controls, and the
five-phase schedules composing them.

Every field records the drift v it perturbs as its ambient; its control
is the total minus the drift, exactly zero outside omega, where each
blend factor is exactly 0 or 1. Both lanes share one plan (``_plan``):
the crossing check, the phase times T0..T5 and the sets S, S0, omega1.

The approximate lane synthesizes genuinely Lipschitz fields and pushes the
particles through their flows phase by phase, in closed form where the
construction gives the flow map. The exact lane integrates nothing: it
parks atoms with stopped flows on the drift's exact affine flow map,
funnels them along the same straight-line funnels, read off in closed
form, and joins the two sides by a quadratic-cost geodesic, storing the
control as a per-plan-entry witness (the velocity field is Borel, not
Lipschitz, and atoms may overlap).
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .flow import (TimeField, Trajectory, choose_step, flow_push,
                   stopped_flow_batch, _affine_flow,
                   _integrate_batch as _integrate_batch_local)
from .geometry import (GeometricCondition, Region, cutoff_flow,
                       cutoff_theta, check_geometric_condition, _smootherstep,
                       _smootherstep_d)
from .measure import GridPartition, ParticleMeasure, quantile_partition
from .ot import wp_discrete, w1_bracket

__all__ = [
    "ControlSegment",
    "ControlSchedule",
    "GridControlField",
    "storage_total",
    "approx_controller",
    "exact_controller",
    "bv_blowup_diagnostic",
    "shear_diagnostic",
    "grid_error_bound",
    "ControllerResult",
    "STORAGE_K_CAP",
]

# largest cutoff index the storage escalation tries
STORAGE_K_CAP = 2 ** 20


def weight_eta(*args, **kwargs):
    """Retired gradient-ascent weight; the benchmark tracer still patches
    this name, which goes with the tracer rework (ROADMAP item 1)."""
    raise NotImplementedError("the gradient-ascent weight eta is retired")


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

@dataclass
class ControlSegment:
    t_start: float
    t_end: float
    field: TimeField
    label: str

    def descriptor(self):
        return {"label": self.label, "t_start": self.t_start,
                "t_end": self.t_end, "field": self.field.descriptor}


class ControlSchedule:
    """Contiguous time-segmented concatenation of total velocity fields."""

    def __init__(self, segments):
        if not segments:
            raise ValueError("schedule needs at least one segment")
        t = segments[0].t_start
        for seg in segments:
            if abs(seg.t_start - t) > 1e-9:
                raise ValueError("segments must be contiguous")
            if seg.t_end <= seg.t_start + 1e-15:
                raise ValueError("segments need positive length")
            t = seg.t_end
        self.segments = list(segments)

    @property
    def horizon(self):
        return self.segments[-1].t_end

    def max_control_outside(self, omega: Region, n_samples: int,
                            seed: int) -> float:
        """Largest sampled |control| outside omega over all segments, at
        points drawn in omega's bounding box grown by its extent."""
        rng = np.random.default_rng(seed)
        lo, hi = omega.bounding_box()
        span = hi - lo
        lo, hi = lo - span, hi + span
        pts = lo + (hi - lo) * rng.random((n_samples, omega.dim))
        pts = pts[~omega.contains(pts)]
        worst = 0.0
        for seg in self.segments:
            for t in np.linspace(seg.t_start, seg.t_end, 5)[:-1]:
                ctrl = seg.field.control_part(pts, t)
                if ctrl.size:
                    worst = max(worst, float(np.max(np.linalg.norm(ctrl, axis=1))))
        return worst

    @property
    def descriptor(self):
        return {"kind": "schedule", "horizon": self.horizon,
                "segments": [s.descriptor() for s in self.segments]}

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.descriptor, fh, indent=2, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# grid control (moving quantile cells, one axis at a time)
# ---------------------------------------------------------------------------

# half-width of the blend strip at a slab wall, as a share of the narrower
# of the two slabs beside it
STRIP_GAMMA = 1.0 / 200.0


class GridControlField(TimeField):
    """Moving quantile cells carrying the source mesh onto the target mesh,
    one axis per sub-phase of length T/d.

    In sub-phase a only x_a moves. A slab is a cell on every earlier axis of
    the target mesh, whose walls stay put now. In each slab the walls of
    axis a move linearly in time from source to target, exactly at both
    ends, and the velocity is affine in x_a inside a cell, continuous across
    walls. Beyond a slab's outer walls it continues at the outer wall's
    speed (zero where they are static, as on a unit-box mesh), so it stays
    continuous when the outer walls move. The walls are characteristics: a
    point keeps its relative coordinate in its cell, or its distance to the
    outer wall it lies beyond, so the flow is in closed form (``_carry``).
    Across a slab wall the two slabs' velocities blend by a smootherstep
    over a strip of half-width ``STRIP_GAMMA`` times the narrower slab,
    which keeps the field Lipschitz. Only strip points need numerics: a 1D
    ODE in x_a, whose Lipschitz constant is the axis-a slope bound.
    """

    def __init__(self, part_src, part_tgt, T):
        if T <= 0:
            raise ValueError("T must be positive")
        if part_src.n != part_tgt.n or part_src.dim != part_tgt.dim:
            raise ValueError("partitions must share n and the dimension")
        self.src = part_src
        self.tgt = part_tgt
        self.n = part_src.n
        self.T = float(T)
        d = part_src.dim
        # sub-phase a runs over [ends[a], ends[a + 1]]
        self.ends = np.append(np.arange(d) * (self.T / d), self.T)
        # per axis, flat over slabs: walls, wall speeds and strip half-widths
        self._src = [w.reshape(-1, self.n + 1) for w in part_src.walls]
        self._tgt = [w.reshape(-1, self.n + 1) for w in part_tgt.walls]
        self._speed = [(b - a) / (t1 - t0) for a, b, t0, t1 in zip(
            self._src, self._tgt, self.ends[:-1], self.ends[1:])]
        self._gamma = [np.pad(STRIP_GAMMA * np.minimum(w[:, :-1], w[:, 1:]),
                              ((0, 0), (1, 1))) for w in map(np.diff, self._tgt)]
        # a cell's velocity lies between its wall speeds, and its slope is
        # at most their difference over the narrower end width
        tops = [float(np.max(np.abs(v))) for v in self._speed]
        self.slopes = [float(np.max(np.abs(np.diff(v)) / np.minimum(
            np.diff(a), np.diff(b)))) for v, a, b in zip(
                self._speed, self._src, self._tgt)]
        # each earlier axis blends two velocities (difference <= 2 top) over
        # 2 gamma, where the smootherstep's slope is at most 1.875
        gmin = [float(np.min(g[:, 1:-1])) if self.n > 1 else np.inf
                for g in self._gamma]
        lip = max(slope + sum(1.875 * top / g for g in gmin[:a])
                  for a, (slope, top) in enumerate(zip(self.slopes, tops)))
        super().__init__(self._eval, d, lipschitz_bound=lip,
                         sup_bound=max(tops), label=f"grid_n{self.n}",
                         descriptor={"kind": "grid", "n": self.n, "T": self.T})

    def _walls(self, a, t):
        """Axis-a walls of every slab at time t; exact at both ends, so
        mesh vertices land on their targets bit for bit."""
        t0, t1 = self.ends[a], self.ends[a + 1]
        u = min(max((t - t0) / (t1 - t0), 0.0), 1.0)
        return (1.0 - u) * self._src[a] + u * self._tgt[a]

    def _slabs(self, a, pts):
        """Rows of the slabs whose axis-a velocities each point blends, and
        their weights, both ``(points, 2**a)``: within the strip of a wall
        of an earlier axis, the slab across it weighs in."""
        rows = np.zeros((len(pts), 1), dtype=np.intp)
        weights = np.ones((len(pts), 1))
        for b in range(a):
            x = np.broadcast_to(pts[:, b:b + 1], rows.shape)
            c = self.tgt.cell_of(b, rows.ravel(), x.ravel()).reshape(x.shape)
            walls, gamma = self._tgt[b], self._gamma[b]
            below = _across(x - walls[rows, c], gamma[rows, c])
            above = _across(walls[rows, c + 1] - x, gamma[rows, c + 1])
            other = np.where(below > 0, c - 1, np.where(above > 0, c + 1, c))
            share = below + above
            rows = np.concatenate([rows * self.n + c, rows * self.n + other],
                                  axis=1)
            weights = np.concatenate([weights * (1.0 - share),
                                      weights * share], axis=1)
        return rows, weights

    def _velocity(self, a, pts, t):
        """The field of sub-phase a: only coordinate a moves."""
        rows, weights = self._slabs(a, pts)
        walls = self._walls(a, t)
        speed = self._speed[a]
        alpha = np.diff(speed) / np.diff(walls)
        beta = speed[:, :-1] - alpha * walls[:, :-1]
        v = _kernels.grid_eval_1d(np.repeat(pts[:, a], rows.shape[1]),
                                  rows.ravel(), walls, alpha, beta)
        out = np.zeros_like(pts)
        out[:, a] = np.sum(weights * v.reshape(rows.shape), axis=1)
        return out

    def _eval(self, pts, t):
        a = int(np.clip(np.searchsorted(self.ends, t, side="right") - 1, 0,
                        self.dim - 1))
        return self._velocity(a, pts, t)

    def subphase_field(self, a):
        """The field of sub-phase a alone, with the axis-a slope bound: the
        Lipschitz constant of the ODE of a point whose earlier coordinates
        stay frozen."""
        return TimeField(lambda pts, t: self._velocity(a, pts, t), self.dim,
                         lipschitz_bound=self.slopes[a],
                         sup_bound=self.sup_bound, label="grid_norm")

    def flow(self, pts, ta, tb, tol):
        """Positions at tb of the points ``pts`` at ta (0 <= ta <= tb <= T).

        Returns ``(images, closed, stats)``: the images of every row, the
        mask of the rows moved in closed form in every sub-phase (never
        inside a blend strip), and the strip points' fixed-step RK4: its
        number of steps, its step and the Lipschitz bound that chose the
        step (None when no strip point moved).
        """
        images = np.array(np.atleast_2d(pts), dtype=np.float64)
        closed = np.ones(len(images), dtype=bool)
        stats = {"steps": 0, "h": None, "lipschitz": None}
        for a in range(self.dim):
            lo, hi = max(ta, self.ends[a]), min(tb, self.ends[a + 1])
            if hi <= lo:
                continue
            rows, weights = self._slabs(a, images)
            whole = np.any(weights == 1.0, axis=1)
            row = rows[whole, np.argmax(weights[whole], axis=1)]
            x = images[whole, a]
            w_lo, w_hi = self._walls(a, lo), self._walls(a, hi)
            c = _kernels.row_cell(w_lo, row, x)
            images[whole, a] = _carry(x, w_lo[row, c], w_lo[row, c + 1],
                                      w_hi[row, c], w_hi[row, c + 1])
            closed &= whole
            if np.all(whole):
                continue
            field = self.subphase_field(a)
            images[~whole] = _integrate_batch_local(field, images[~whole],
                                                    lo, hi, tol)
            h = float(choose_step(field, tol, hi - lo))
            stats = {"steps": stats["steps"] + round((hi - lo) / h),
                     "h": min(h, stats["h"] or h),
                     "lipschitz": max(field.lipschitz_bound,
                                      stats["lipschitz"] or 0.0)}
        return images, closed, stats


def _across(dist, gamma):
    """Weight of the slab across a wall, for points at ``dist`` from it on
    their own side: 1/2 on the wall, falling by a smootherstep to 0 at the
    strip half-width ``gamma`` (0 everywhere where gamma is 0)."""
    u = np.divide(gamma - dist, 2.0 * gamma, out=np.zeros_like(dist),
                  where=gamma > 0.0)
    return _smootherstep(u)


def _carry(p, lo_a, hi_a, lo_b, hi_b):
    """The point with p's relative coordinate in [lo_a, hi_a] placed in
    [lo_b, hi_b] (exact when that coordinate is 0 or 1); a p beyond an
    outer wall moves with it, at its constant speed."""
    s = (p - lo_a) / (hi_a - lo_a)
    return np.where(p < lo_a, p + (lo_b - lo_a),
                    np.where(p > hi_a, p + (hi_b - hi_a),
                             (1.0 - s) * lo_b + s * hi_b))


def grid_error_bound(mesh, moved: ParticleMeasure, closed,
                     target: ParticleMeasure) -> float:
    """Certified W1 bound between the grid phase's image ``moved`` and
    ``target``, both in the unit box of the target ``mesh`` and taken with
    unit mass.

    p_c is the mass of the rows moved in closed form (mask ``closed``) that
    land in target cell c, q_c the target mass in c. Coupling min(p_c, q_c)
    inside each cell, and the rest anywhere in the unit box (which the flow
    keeps every point in), costs at most
    sum_c min(p_c, q_c) diam(c) + (1 - sum_c min(p_c, q_c)) sqrt(d).
    """
    size = mesh.n ** mesh.dim
    p = np.bincount(mesh.locate(moved.positions[closed]),
                    moved.weights[closed], size) / moved.total_mass()
    q = np.bincount(mesh.locate(target.positions), target.weights,
                    size) / target.total_mass()
    lo, hi = mesh.cells()
    matched = np.minimum(p, q)
    return float(matched @ np.linalg.norm(hi - lo, axis=1)
                 + (1.0 - matched.sum()) * math.sqrt(mesh.dim))


# ---------------------------------------------------------------------------
# storage control
# ---------------------------------------------------------------------------

def storage_total(v: TimeField, omega0: Region, k: int) -> TimeField:
    """Total velocity theta_k * v of the storage phase. Its control part
    (theta_k - 1) v cancels the drift progressively inside omega0: it is
    exactly zero outside omega0, and the total velocity is exactly zero at
    depth 1/k. Under a translation drift (A = 0) and a box omega0 the
    field carries its exact flow map (``cutoff_flow``), so ``flow_push``
    steps nothing; a curved drift is stepped by RK4."""
    theta = cutoff_theta(omega0, k)

    def total(pts, t):
        return theta(pts)[:, None] * v.evaluate(pts, t)

    pair = v.affine_pair
    straight = (pair is not None and not pair[0].any()
                and omega0.kind == "box")
    return TimeField(total, v.dim,
                     lipschitz_bound=v.sup_bound * 1.875 * k + v.lipschitz_bound,
                     sup_bound=v.sup_bound, label=f"storage_total_k{k}",
                     ambient=v,
                     descriptor={"kind": "storage", "k": k,
                                 "omega0": omega0.to_dict()},
                     flow_map=cutoff_flow(omega0, k, pair[1]) if straight
                     else None)


# ---------------------------------------------------------------------------
# funnel control
# ---------------------------------------------------------------------------

def _blend_factor(region: Region, band: float):
    """1 inside region, quintic decay to 0 at distance band outside it."""
    def factor(pts):
        d = np.maximum(region.signed_distance(pts), 0.0)
        return 1.0 - _smootherstep(d / band)

    return factor


def _boxes_inside(region: Region, lo, hi):
    """Per row, whether the box [lo, hi] lies in the convex region, i.e.
    whether all its corners do."""
    lo = np.atleast_2d(lo)
    hi = np.atleast_2d(hi)
    d = lo.shape[1]
    bits = (np.arange(2 ** d)[:, None] >> np.arange(d)) & 1
    corners = np.where(bits[:, None, :] == 1, hi, lo)
    return np.all(region.contains(corners.reshape(-1, d)).reshape(2 ** d, -1),
                  axis=0)


def _cloud_box(pts, omega1: Region):
    """Bounding box of the points ``pts``, padded by 1% of its extent on
    each axis: the box a straight-line funnel contracts. On a long cloud
    that pad can outgrow the room between the points and omega1's edge, so
    on each side it is cut to 99% of that room (to none outside omega1)."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.01 * np.maximum(hi - lo, 1e-9)
    box_lo, box_hi = omega1.bounding_box()
    return Region.box(lo - np.clip(0.99 * (lo - box_lo), 0.0, pad),
                      hi + np.clip(0.99 * (box_hi - hi), 0.0, pad))


def affine_funnel_total(v: TimeField, omega1: Region, cloud_box, target_box,
                        duration: float, blend_band: float) -> TimeField:
    """Straight-line funnel: a time-gated affine similarity carrying the
    cloud box onto a copy inside the target box. Both lanes funnel with it:
    the approximate lane pushes its particles through it, and the exact lane
    reads its atoms' paths off it.

    Valid when omega1 is convex (the swept boxes stay inside the hull of the
    two). Translation and contraction decouple, so the per-axis contraction
    is exactly the ratio the geometry requires and early arrivals never keep
    compressing. The ramp has zero velocity at both ends, which makes the
    segment handoff exact.

    Inside omega1 the blend factor is 1, so there the flow is the similarity
    x(t) = c(t) + lam^w(t) (x0 - c0) with w the ramp and c(t) the centre
    moving from c0 to c1. The field's flow map (see ``TimeField``) takes
    points from t0 to t1 on it: c(t1) + lam^(w(t1) - w(t0)) (x - c(t0)). On
    each axis the box c(t) +- lam^w(t) |x0 - c0| is a linear function of w
    plus or minus a convex one, and w is monotone, so between any two times
    it never leaves the hull of its boxes at those times. The map certifies
    a row when both of those boxes lie in omega1: its path between them
    stays where the similarity is the field's flow.
    """
    if not omega1.is_convex():
        raise ValueError("the straight-line funnel needs a convex omega1")
    c0 = cloud_box.center_point()
    c1 = target_box.center_point()
    half0 = 0.5 * (cloud_box.hi - cloud_box.lo)
    half1 = 0.5 * (target_box.hi - target_box.lo)
    lam = np.minimum(1.0, 0.9 * half1 / np.maximum(half0, 1e-300))
    log_lam = np.log(lam)
    span = float(duration)

    if not _boxes_inside(omega1,
                         np.minimum(cloud_box.lo, c1 - lam * half0 - 1e-12),
                         np.maximum(cloud_box.hi, c1 + lam * half0 + 1e-12))[0]:
        raise ValueError("funnel endpoints do not fit inside omega1")
    blend = _blend_factor(omega1, blend_band)

    def flow_map(pts, t0, t1):
        w0, w1 = _smootherstep(np.array([t0, t1]) / span)
        c_t0, c_t1 = (1.0 - w0) * c0 + w0 * c1, (1.0 - w1) * c0 + w1 * c1
        scale = lam ** w1 / lam ** w0
        reach = np.abs(pts - c_t0)
        certified = _boxes_inside(
            omega1, np.minimum(c_t0 - reach, c_t1 - scale * reach),
            np.maximum(c_t0 + reach, c_t1 + scale * reach))
        return c_t1 + scale * (pts - c_t0), certified

    def ramp(t):
        u = min(max(t / span, 0.0), 1.0)
        return _smootherstep(np.array([u]))[0], \
            _smootherstep_d(np.array([u]))[0] / span

    def total(pts, t):
        w, wd = ramp(t)
        c_t = c0 + w * (c1 - c0)
        drift = wd * ((c1 - c0) + log_lam * (np.atleast_2d(pts) - c_t))
        b = blend(pts)[:, None]
        return b * drift + (1.0 - b) * v.evaluate(pts, t)

    wd_max = 1.875 / span
    reach = float(np.linalg.norm(c1 - c0)
                  + np.max(np.abs(log_lam)) * np.linalg.norm(
                      omega1.bounding_box()[1] - omega1.bounding_box()[0]))
    sup = wd_max * reach + v.sup_bound
    lip = (wd_max * float(np.max(np.abs(log_lam)))
           + (sup + v.sup_bound) * 1.875 / blend_band + v.lipschitz_bound)
    fld = TimeField(total, v.dim, lipschitz_bound=lip, sup_bound=sup,
                    label="funnel_affine", ambient=v,
                    descriptor={"kind": "funnel_affine",
                                "ratios": lam.tolist(),
                                "from": cloud_box.to_dict(),
                                "to": target_box.to_dict()},
                    flow_map=flow_map)
    fld.ratios = lam
    fld.expansion = float(np.max(1.0 / lam))
    return fld


# ---------------------------------------------------------------------------
# per-atom witness of the exact lane
# ---------------------------------------------------------------------------

def _on_knots(knots, paths, t):
    """Positions at time t on the ``(E, K, d)`` paths, linear between the
    increasing ``knots`` (clamped to their range), and the index j of the
    knot interval [knots[j], knots[j + 1]] holding t."""
    t = np.clip(t, knots[0], knots[-1])
    j = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    lam = (t - knots[j]) / (knots[j + 1] - knots[j])
    return (1 - lam) * paths[:, j, :] + lam * paths[:, j + 1, :], j


# query-atom distances the witness computes in one block at most
_WITNESS_BLOCK = 1 << 16


class ParticleWitnessField(TimeField):
    """Borel control witness: velocities defined along recorded atom paths.

    Off the atom set the field evaluates to the ambient velocity, so the
    control part vanishes identically away from the transported atoms (in
    particular outside the control region).
    """

    # a query takes an atom's velocity within this distance of it
    match_tol = 1e-9

    def __init__(self, knots, paths, ambient: TimeField, label, descriptor):
        self.knots = np.asarray(knots, dtype=float)
        self.paths = np.asarray(paths, dtype=float)   # (E, K, d)
        seg = np.diff(self.paths, axis=1)
        dt = np.diff(self.knots)
        self._vels = seg / dt[None, :, None]
        speed = float(np.max(np.linalg.norm(self._vels, axis=2))) if seg.size else 0.0
        super().__init__(self._eval, self.paths.shape[2],
                         lipschitz_bound=math.inf,
                         sup_bound=speed + ambient.sup_bound, label=label,
                         ambient=ambient, descriptor=descriptor)

    def positions_at(self, t):
        return _on_knots(self.knots, self.paths, t)

    def _witness(self, pts, t):
        """Velocity of the atom nearest each query (the first among ties)
        where it lies within ``match_tol``, nan elsewhere. Squared gaps to
        every atom, by blocks of queries, keep the atoms within twice the
        tolerance; their distances are then taken as the norm takes them,
        and any atom left out is farther than the tolerance."""
        pos, j = self.positions_at(t)
        vel = self._vels[:, min(j, self._vels.shape[1] - 1)]
        out = np.full_like(pts, np.nan)
        reach = (2.0 * self.match_tol) ** 2
        block = max(1, _WITNESS_BLOCK // max(len(pos), 1))
        for q in range(0, pts.shape[0], block):
            near = pts[q:q + block]
            sq = 0.0
            for a in range(pts.shape[1]):
                gap = pos[:, a] - near[:, a, None]
                sq = sq + gap * gap
            qi, ei = np.nonzero(sq <= reach)
            if not qi.size:
                continue
            d = np.linalg.norm(pos[ei] - near[qi], axis=1)
            order = np.lexsort((ei, d, qi))
            lead = order[np.r_[True, np.diff(qi[order]) != 0]]
            lead = lead[d[lead] <= self.match_tol]
            out[q + qi[lead]] = vel[ei[lead]]
        return out

    def _eval(self, pts, t):
        w = self._witness(pts, t)
        miss = np.isnan(w[:, 0])
        if np.any(miss):
            w[miss] = self.ambient.evaluate(pts[miss], t)
        return w


# ---------------------------------------------------------------------------
# five-phase composition helpers
# ---------------------------------------------------------------------------

@dataclass
class ControllerResult:
    schedule: ControlSchedule
    trajectory: Trajectory
    report: dict


def _largest_free_box(omega: Region, omega0: Region) -> Region:
    """Largest axis-aligned slab of a box omega avoiding the box omega0,
    shrunk by 15% about its centre."""
    if omega.kind != "box" or omega0.kind != "box":
        raise ValueError("storage-set placement needs box regions")
    best = None
    best_vol = -1.0
    for axis in range(omega.dim):
        for lo_a, hi_a in ((omega.lo[axis], omega0.lo[axis]),
                           (omega0.hi[axis], omega.hi[axis])):
            if hi_a - lo_a <= 0:
                continue
            lo = omega.lo.copy()
            hi = omega.hi.copy()
            lo[axis], hi[axis] = lo_a, hi_a
            vol = float(np.prod(hi - lo))
            if vol > best_vol and np.all(hi > lo):
                best_vol = vol
                best = (lo, hi)
    if best is None:
        raise ValueError("no room for a storage hypercube beside omega0")
    lo, hi = best
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * 0.85
    if np.any(half <= 0):
        raise ValueError("free slab degenerate after shrinking")
    return Region.box(c - half, c + half)


def _place_sets(omega: Region, omega0: Region):
    """S inside omega \\ omega0, S0 well inside S, omega1 around both."""
    s_box = _largest_free_box(omega, omega0)
    c = s_box.center_point()
    half = 0.5 * (s_box.hi - s_box.lo)
    s0 = Region.box(c - 0.5 * half, c + 0.5 * half)
    hull_lo = np.minimum(omega0.lo, s_box.lo)
    hull_hi = np.maximum(omega0.hi, s_box.hi)
    gap = min(np.min(hull_lo - omega.lo), np.min(omega.hi - hull_hi))
    if gap <= 0:
        raise ValueError("omega0 and S leave no room for omega1 inside omega")
    omega1 = Region.box(hull_lo - gap / 2, hull_hi + gap / 2)
    return s_box, s0, omega1, gap


@dataclass
class _Plan:
    """The skeleton both controllers share: the scenario's drift and
    measures, the crossing check, the phase times T0..T5 read off its
    hitting times, and the sets S, S0 and omega1 (see ``_place_sets``).
    ``t_back`` is the backward park's horizon, T5 - T4 before rounding."""
    params: dict
    v: TimeField
    mu0: ParticleMeasure
    mu1: ParticleMeasure
    cond: GeometricCondition
    t_back: float
    times: dict
    s_box: Region
    s0: Region
    omega1: Region
    gap: float

    def report(self, mode, fun_fwd, fun_back, mass_total) -> dict:
        """The report keys both lanes carry."""
        return {
            "mode": mode,
            "times": self.times,
            "T0star": self.cond.T0star,
            "T1star": self.cond.T1star,
            "funnel": {"forward_ratios": fun_fwd.ratios.tolist(),
                       "backward_ratios": fun_back.ratios.tolist()},
            "mass_total": mass_total,
            "regions": {"omega0": self.cond.omega0.to_dict(),
                        "S": self.s_box.to_dict(), "S0": self.s0.to_dict(),
                        "omega1": self.omega1.to_dict()},
        }


def _plan(scenario) -> _Plan:
    """Load a scenario (or its dict), run the crossing check and lay out
    the five phases."""
    from .scenarios import Scenario

    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    params = scenario.params
    v = scenario.velocity_field()
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    omega = scenario.omega_region()
    cond = check_geometric_condition(v, mu0, mu1, omega,
                                     float(params["horizon"]),
                                     float(params["tol"]))
    if not math.isfinite(v.sup_bound):
        # the drift's speed on the box holding omega and both supports grown
        # by 1, at its corners (|Ax + b| is convex); every bound reads it
        lo, hi = zip(omega.bounding_box(), mu0.support_bbox(),
                     mu1.support_bbox())
        corners = np.meshgrid(*zip(np.min(lo, axis=0) - 1.0,
                                   np.max(hi, axis=0) + 1.0), indexing="ij")
        v.sup_bound = float(np.max(np.linalg.norm(v.evaluate(
            np.stack(corners, axis=-1).reshape(-1, v.dim), 0.0), axis=1)))
    # token minimum lengths keep every segment well-posed when a support
    # already sits inside the control region
    t1 = max(cond.T0star, 1e-3)
    t_back = max(cond.T1star, 1e-3)
    delta = float(params["delta"])
    t4 = t1 + delta
    times = {"T0": 0.0, "T1": t1, "T2": t1 + delta / 3.0,
             "T3": t1 + 2.0 * delta / 3.0, "T4": t4, "T5": t4 + t_back}
    return _Plan(params, v, mu0, mu1, cond, t_back, times,
                 *_place_sets(omega, cond.omega0))


class MovingFrameGridField(TimeField):
    """World-coordinate grid control gated to a static region inside the
    storage hypercube: g grid(x, t - t0) + (1 - g) v(x), g the gate's blend
    factor. The name dates from a frame that once carried a normalized grid
    along with the two clouds; the benchmark tracer looks ``advect`` up by it.

    Inside the gate core the field IS the grid field, so ``advect`` moves
    core particles with ``GridControlField.flow``: closed form off the
    blend strips, fixed-step RK4 at the moving axis's slope bound inside
    them. Only the particles outside the core are integrated, by
    fixed-step RK4 at the mild outer bound (the gate blend has kinks).
    """

    def __init__(self, inner: GridControlField, v: TimeField, t0,
                 gate_core: Region, band: float):
        self.inner = inner
        self.t0 = float(t0)
        self.gate_core = gate_core
        self._gate = _blend_factor(gate_core, band)
        sup = inner.sup_bound + v.sup_bound
        # the gate blends two velocities, at most sup + |v| apart, over band
        outer = (sup + v.sup_bound) * 1.875 / band + v.lipschitz_bound
        super().__init__(self._eval, inner.dim,
                         lipschitz_bound=inner.lipschitz_bound + outer,
                         sup_bound=sup, label="grid_frame", ambient=v,
                         descriptor={"kind": "grid_frame",
                                     "inner": inner.descriptor,
                                     "gate": gate_core.to_dict(), "band": band})
        # the field at the mild bound away from the cell margins, for the
        # particles outside the gate core
        self._outer = TimeField(self._eval, self.dim, lipschitz_bound=outer,
                                sup_bound=sup, label="grid_frame_outer")

    def _eval(self, pts, t):
        g = self._gate(pts)[:, None]
        return (g * self.inner.evaluate(pts, t - self.t0)
                + (1.0 - g) * self.ambient.evaluate(pts, t))

    def advect(self, mu: ParticleMeasure, ta: float, tb: float,
               tol: float) -> tuple[ParticleMeasure, np.ndarray, dict]:
        """Flow of this field: the grid's own flow for core particles.

        Returns the pushed measure, the mask of the particles moved in
        closed form (core particles off every blend strip) and the strip
        RK4's statistics (see ``GridControlField.flow``).
        """
        core = self.gate_core.contains(mu.positions)
        pos = mu.positions.copy()
        closed = np.zeros(len(mu), dtype=bool)
        pos[core], closed[core], stats = self.inner.flow(
            pos[core], ta - self.t0, tb - self.t0, tol)
        if np.any(~core):
            pos[~core] = _integrate_batch_local(self._outer, pos[~core],
                                                ta, tb, tol)
            if np.any(self.gate_core.contains(pos[~core])):
                warnings.warn("a particle outside the gate core drifted into "
                              "it during the grid phase; its step control "
                              "used the mild outer bound", stacklevel=2)
        return ParticleMeasure(pos, mu.weights, mu.tags), closed, stats


def _shift_time(field: TimeField, offset: float) -> TimeField:
    """The same field with its clock started at ``offset`` (segment-local
    fields in a schedule). The ambient drift is autonomous, so it keeps its
    clock."""
    return TimeField(lambda pts, t: field.evaluate(pts, t - offset),
                     field.dim, field.lipschitz_bound, field.sup_bound,
                     label=field.label, ambient=field.ambient,
                     descriptor=field.descriptor)


def _escalate_storage(v: TimeField, omega0: Region, mu: ParticleMeasure,
                      horizon: float, mass_target: float, tol: float):
    """Double the cutoff index until the mass left outside omega0 at the end
    of the storage phase is at most mass_target; the push's record (see
    ``flow_push``) comes last. Raises ``ValueError`` when no index up to
    ``STORAGE_K_CAP`` does, as on an omega0 too thin for the cap."""
    k = 2
    while 1.0 / k >= omega0.inradius():
        k *= 2
    while k <= STORAGE_K_CAP:
        total = storage_total(v, omega0, k)
        state, closed = flow_push(total, mu, 0.0, horizon, tol)
        outside = ~omega0.contains(state.positions)
        stray = float(np.sum(state.weights[outside]))
        if stray <= mass_target + 1e-15:
            return total, k, state, outside, closed
        k *= 2
    raise ValueError(
        f"no storage cutoff index up to the cap {STORAGE_K_CAP} leaves at "
        f"most {mass_target:.3g} of the mass outside omega0, whose inradius "
        f"is {omega0.inradius():.3g}")


def _select_untouched(state: ParticleMeasure, must_tag: np.ndarray,
                      depth: np.ndarray, target_mass: float) -> np.ndarray:
    """Boolean tag mask containing `must_tag` topped up (shallowest-first)
    until the tagged mass reaches target_mass within one particle weight."""
    tagged = must_tag.copy()
    mass = float(np.sum(state.weights[tagged]))
    order = np.argsort(depth, kind="stable")
    for idx in order:
        if mass >= target_mass - 0.5 * np.max(state.weights):
            break
        if not tagged[idx]:
            tagged[idx] = True
            mass += state.weights[idx]
    return tagged


def _choose_n(count: int, dim: int, n_override=None) -> int:
    """Cells per axis of the grid phase: the override if given, else the
    finest mesh the particle count resolves, the integer dim-th root of
    N // 25 (isqrt in 2D), kept within [3, 64]."""
    if n_override is not None:
        return int(n_override)
    m = count // 25
    root = int(round(m ** (1.0 / dim)))
    while root ** dim > m:
        root -= 1
    while (root + 1) ** dim <= m:
        root += 1
    return max(3, min(64, root))


def approx_controller(scenario, epsilon: float | None = None) -> ControllerResult:
    """Five-phase Lipschitz control: storage, funnel, grid, and the time
    reversals of a funnel and a storage synthesized on the reversed drift.

    Tags an untouched particle set of mass eps/(2 d Rbar) on each side,
    pushes the particles through the phases one at a time (the backward
    storage and funnel on the target side, the forward ones, the grid, then
    the reversals) and reports the measured transport error against the
    target. Particles inside a funnel's core or off the grid's blend strips
    move along their closed-form characteristics; the rest are integrated.
    """
    plan = _plan(scenario)
    v, mu0, mu1, cond = plan.v, plan.mu0, plan.mu1, plan.cond
    s_box, s0, omega1 = plan.s_box, plan.s0, plan.omega1
    _, t1, t2, t3, t4, t5 = plan.times.values()
    epsilon = float(epsilon if epsilon is not None else plan.params["epsilon"])
    tol = float(plan.params["tol"])

    lo0, hi0 = mu0.support_bbox()
    lo1, hi1 = mu1.support_bbox()
    edge = float(np.max(np.maximum(hi0, hi1) - np.minimum(lo0, lo1)))
    rbar = edge + t5 * v.sup_bound
    eps_mass = epsilon / (2.0 * mu0.dim * rbar)

    # phase 1 forward: storage along v
    (store_fwd, k_fwd, state1_all, stray_fwd,
     cf_store_fwd) = _escalate_storage(v, cond.omega0, mu0, t1, eps_mass, tol)
    depth_fwd = cond.omega0.depth(state1_all.positions)
    tag_fwd = _select_untouched(state1_all, stray_fwd, depth_fwd, eps_mass)
    tags0 = np.where(tag_fwd, "untouched", "").astype(object)
    mu0_tagged = mu0.with_tags(tags0)
    state1 = state1_all.with_tags(tags0)

    # backward lane on the reversed drift
    v_back = v.negated()
    (store_back, k_back, back1_all, stray_back,
     cf_store_back) = _escalate_storage(v_back, cond.omega0, mu1,
                                        plan.t_back, eps_mass, tol)
    depth_back = cond.omega0.depth(back1_all.positions)
    tag_back = _select_untouched(back1_all, stray_back, depth_back, eps_mass)
    tags1 = np.where(tag_back, "untouched", "").astype(object)
    mu1_tagged = mu1.with_tags(tags1)
    back1 = back1_all.with_tags(tags1)

    # phase 2 on each lane: a straight-line funnel into s0 (omega1 is a box;
    # the affine similarity keeps the cloud shape, so the grid phase sees
    # well-conditioned quantiles)
    fun_back = affine_funnel_total(
        v_back, omega1, _cloud_box(back1.subset(~tag_back).positions, omega1),
        s0, t4 - t3, blend_band=0.45 * plan.gap)
    back2_all, cf_back = flow_push(fun_back, back1, 0.0, t4 - t3, tol)
    grid_target_cloud = back2_all.subset(~tag_back)
    if not np.all(s0.contains(grid_target_cloud.positions)):
        raise RuntimeError("backward funnel failed to reach the storage cube")

    fun_fwd = affine_funnel_total(
        v, omega1, _cloud_box(state1.subset(~tag_fwd).positions, omega1),
        s0, t2 - t1, blend_band=0.45 * plan.gap)
    state2_all, cf_fwd = flow_push(fun_fwd, state1, 0.0, t2 - t1, tol)
    grid_source_cloud = state2_all.subset(~tag_fwd)
    if not np.all(s0.contains(grid_source_cloud.positions)):
        raise RuntimeError("forward funnel failed to reach the storage cube")

    # phase 3: grid control between the two parked clouds. Each cloud's
    # quantile mesh is cut in the normalized frame where it fills the unit
    # box, and its walls are mapped back to world coordinates
    n = _choose_n(len(grid_source_cloud), mu0.dim, plan.params["n"])

    def cloud_frame(cloud):
        """Origin and scale of a box around the cloud, and the cloud in the
        box's unit coordinates."""
        lo, hi = cloud.support_bbox()
        span = np.maximum(hi - lo, 1e-13)
        o, s = lo - 0.02 * span, 1.04 * span
        return o, s, ParticleMeasure((cloud.positions - o) / s, cloud.weights)

    def to_world(part, origin, scale):
        return GridPartition(part.n, [origin[a] + scale[a] * w
                                      for a, w in enumerate(part.walls)])

    o0, s0n, norm_src = cloud_frame(grid_source_cloud)
    o1, s1n, norm_tgt = cloud_frame(grid_target_cloud)
    while True:
        try:
            part_src, part_tgt = quantile_partition(norm_src.normalized(),
                                                    norm_tgt.normalized(), n)
            break
        except ValueError:
            # empirical resolution insufficient for this mesh; coarsen
            if plan.params["n"] is not None or n <= 1:
                raise
            n -= 1
    grid = GridControlField(to_world(part_src, o0, s0n),
                            to_world(part_tgt, o1, s1n), t3 - t2)
    pad = 0.25
    hull_lo = np.minimum(o0 - pad * s0n, o1 - pad * s1n)
    hull_hi = np.maximum(o0 + (1 + pad) * s0n, o1 + (1 + pad) * s1n)
    room = float(np.min(np.minimum(hull_lo - s_box.lo, s_box.hi - hull_hi)))
    if room <= 0:
        raise RuntimeError("parked clouds leave no gating room inside S")
    gate_region = Region.box(hull_lo - room / 3, hull_hi + room / 3)
    grid_total = MovingFrameGridField(grid, v, t2, gate_region, band=room / 3)
    state3_all, grid_closed, grid_flow = grid_total.advect(state2_all, t2,
                                                           t3, tol)
    # the certificate, in the target cloud's normalized frame
    landed = state3_all.subset(~tag_fwd)
    grid_bound = grid_error_bound(
        part_tgt, ParticleMeasure((landed.positions - o1) / s1n,
                                  landed.weights),
        grid_closed[~tag_fwd], norm_tgt)

    # phases 4 and 5: time reversals of the backward synthesis
    fun_rev = fun_back.reversed(t4 - t3, t3, "funnel_reversed",
                                f"rev({fun_back.label})")
    store_rev = store_back.reversed(plan.t_back, t4, "storage_reversed",
                                    f"-({store_back.label})")
    state4_all, cf_rev = flow_push(fun_rev, state3_all, t3, t4, tol)
    state5_all, cf_store_rev = flow_push(store_rev, state4_all, t4, t5, tol)

    fun_fwd_seg = _shift_time(fun_fwd, t1)
    segments = [
        ControlSegment(0.0, t1, store_fwd, "storage"),
        ControlSegment(t1, t2, fun_fwd_seg, "funnel"),
        ControlSegment(t2, t3, grid_total, "grid"),
        ControlSegment(t3, t4, fun_rev, "funnel"),
        ControlSegment(t4, t5, store_rev, "storage"),
    ]
    schedule = ControlSchedule(segments)
    traj = Trajectory(
        np.array([0.0, t1, t2, t3, t4, t5]),
        [mu0_tagged, state1, state2_all, state3_all, state4_all, state5_all],
        field_ref=schedule, meta={"mode": "approx"})

    # the estimate is exact at or below the solver's cap and the certified
    # upper bound above it
    w1 = w1_bracket(state5_all.with_tags(None), mu1.with_tags(None))
    w1["epsilon_certified"] = w1["estimate"] <= epsilon
    report = plan.report("approx", fun_fwd, fun_back,
                         state5_all.total_mass())
    report["funnel"]["backward_expansion"] = fun_back.expansion
    report.update({
        "epsilon": epsilon,
        "final_w1": w1,
        "storage_k": {"forward": k_fwd, "backward": k_back},
        "grid_n": n,
        "grid_bound": grid_bound,
        "untouched": {
            "target_mass": eps_mass,
            "rbar": rbar,
            "tagged_mass_source": float(np.sum(state1_all.weights[tag_fwd])),
            "tagged_mass_target": float(np.sum(back1_all.weights[tag_back])),
            "count_source": int(np.sum(tag_fwd)),
            "count_target": int(np.sum(tag_back)),
        },
        "closed_form": {
            "storage_forward": cf_store_fwd,
            "storage_backward": cf_store_back,
            "storage_reversed": cf_store_rev,
            "funnel_forward": cf_fwd,
            "funnel_backward": cf_back,
            "grid": {"count": int(np.sum(grid_closed)),
                     "total": len(state2_all)},
            "funnel_reversed": cf_rev},
        "grid_flow": grid_flow,
    })
    return ControllerResult(schedule, traj, report)


# ---------------------------------------------------------------------------
# exact controller (stopped flows + geodesic, per-atom witness)
# ---------------------------------------------------------------------------

# knots per recorded segment of the exact lane
EXACT_KNOTS = 33


def _stopped_paths(field, stop_region, pts, horizon, tol):
    """Stopped-flow endpoints, hit times, and ``(n, knots, d)`` paths on a
    uniform knot grid over [0, horizon], read off the drift's exact flow
    map at min(knot, hit time): a knot past a point's hit time holds its
    position at the hit."""
    end, hits = stopped_flow_batch(field, stop_region, pts, 0.0, horizon, tol)
    if np.any(np.isnan(hits)):
        bad = int(np.flatnonzero(np.isnan(hits))[0])
        raise RuntimeError(f"point {pts[bad].tolist()} failed to reach the "
                           "stop region")
    knots = np.linspace(0.0, horizon, EXACT_KNOTS)
    paths = _affine_flow(field.affine_pair, pts,
                         np.minimum(knots[:, None], hits))
    return end, hits, knots, paths.swapaxes(0, 1)


def _escalate_exact_funnel(omega1, s0, lanes, blend_band):
    """Closed-form funnel paths of the exact lane: each lane's parked
    points ride a straight-line funnel (``affine_funnel_total``) from their
    cloud box into s0, as the approximate lane's particles do.

    ``lanes`` maps a lane name to ``(v, duration, pts)``: the drift the
    funnel field blends into outside omega1, the funnel's span and the
    points at its start. Returns a dict mapping each name to ``(knots,
    paths, funnel)``: ``EXACT_KNOTS`` uniform knots over [0, duration], the
    ``(n, knots, d)`` paths read off the funnel's flow map from time 0 to
    each knot (the last knot is the points' image in s0) and the funnel
    field, whose ``ratios`` and ``descriptor`` the report and the witness
    carry. Nothing is integrated. Raises unless the map certifies every
    point at every knot, which for the last knot already proves its whole
    path stays in omega1, where the similarity is the funnel field's flow.

    The name dates from a gain-doubling search long since replaced; the
    benchmark tracer still looks it up by that name.
    """
    funnels = {}
    for name, (v, duration, pts) in lanes.items():
        funnel = affine_funnel_total(v, omega1, _cloud_box(pts, omega1), s0,
                                     duration, blend_band)
        knots = np.linspace(0.0, duration, EXACT_KNOTS)
        images, certified = zip(*(funnel.flow_map(pts, 0.0, t) for t in knots))
        if not np.all(certified):
            raise RuntimeError(f"the {name} funnel cannot keep every atom in "
                               "omega1")
        funnels[name] = (knots, np.stack(images, axis=1), funnel)
    return funnels


def exact_controller(scenario) -> ControllerResult:
    """Atom-exact steering: park along the drift, funnel into S0, ride the
    quadratic-cost geodesic, then replay the target-side construction
    backwards. The composite control is stored as a per-plan-entry witness.

    The parks are stopped flows on the drift's exact flow map; both funnels
    are the approximate lane's straight-line funnels, whose paths inside
    omega1 are in closed form (see ``_escalate_exact_funnel``), so nothing
    is integrated.
    """
    plan = _plan(scenario)
    v, mu0, mu1, cond = plan.v, plan.mu0, plan.mu1, plan.cond
    bounds = list(plan.times.values())
    _, t1, t2, t3, t4, t5 = bounds
    tol = float(plan.params["tol"])

    # park in omega0: forward along the drift, backward along the reversed
    # drift (recorded for replay)
    v_back = v.negated()
    _, _, knots1, paths1 = _stopped_paths(v, cond.omega0, mu0.positions, t1, tol)
    _, _, knots5, paths5 = _stopped_paths(v_back, cond.omega0, mu1.positions,
                                          plan.t_back, tol)

    # both lanes funnel from their parks into s0; omega1 is a box around
    # omega0 and S, so every atom's path is certified in closed form
    funnels = _escalate_exact_funnel(
        plan.omega1, plan.s0, {"forward": (v, t2 - t1, paths1[:, -1, :]),
                               "backward": (v_back, t4 - t3, paths5[:, -1, :])},
        blend_band=0.45 * plan.gap)
    knots2, paths2, fun_fwd = funnels["forward"]
    knots4, paths4, fun_back = funnels["backward"]
    fwd_in_s0 = paths2[:, -1]
    back_in_s0 = paths4[:, -1]

    # geodesic coupling between the parked clouds
    src_cloud = ParticleMeasure(fwd_in_s0, mu0.weights)
    tgt_cloud = ParticleMeasure(back_in_s0, mu1.weights)
    _, coupling = wp_discrete(src_cloud, tgt_cloud, p=2)
    e_src = coupling.src_idx
    e_tgt = coupling.tgt_idx

    # per-entry composite paths over [0, T5]: each segment after the first
    # starts at the knot where the one before it ends
    all_knots = np.concatenate([
        knots1, t1 + knots2[1:], [t3], t3 + (knots4[-1] - knots4[-2::-1]),
        t4 + (knots5[-1] - knots5[-2::-1])])
    all_paths = np.concatenate([
        paths1[e_src], paths2[e_src, 1:], back_in_s0[e_tgt, None],
        paths4[e_tgt, -2::-1], paths5[e_tgt, -2::-1]], axis=1)

    witness_segments = []
    labels = ["storage", "funnel", "geodesic", "funnel", "storage"]
    descriptors = [
        {"kind": "stopped_drift", "omega0": cond.omega0.to_dict()},
        fun_fwd.descriptor,
        {"kind": "geodesic", "entries": len(coupling.mass)},
        {"kind": "funnel_reversed", "inner": fun_back.descriptor},
        {"kind": "stopped_drift_reversed"},
    ]
    for label, lo, hi, desc in zip(labels, bounds[:-1], bounds[1:], descriptors):
        keep = slice(np.searchsorted(all_knots, lo - 1e-12),
                     np.searchsorted(all_knots, hi + 1e-12, side="right"))
        wf = ParticleWitnessField(all_knots[keep], all_paths[:, keep], v,
                                  label=f"witness_{label}", descriptor=desc)
        witness_segments.append(ControlSegment(lo, hi, wf, label))
    schedule = ControlSchedule(witness_segments)

    # sorted without repeats; plain np.unique would import numpy.ma
    snap_times = np.sort(np.concatenate([np.array(bounds),
                                         np.linspace(0.0, t5, 21)]))
    snap_times = snap_times[np.append(True, np.diff(snap_times) != 0.0)]
    states = [ParticleMeasure(_on_knots(all_knots, all_paths, t)[0],
                              coupling.mass) for t in snap_times]
    traj = Trajectory(snap_times, states, field_ref=schedule,
                      meta={"mode": "exact",
                            "plan_entries": len(coupling.mass)})
    traj.plan = coupling

    final = states[-1].merged_coincident()
    final_w1, _ = wp_discrete(final, mu1, p=1)
    report = plan.report("exact", fun_fwd, fun_back, states[-1].total_mass())
    report["final_w1"] = {"estimate": final_w1, "method": "exact"}
    report["plan_entries"] = int(len(coupling.mass))
    return ControllerResult(schedule, traj, report)


# ---------------------------------------------------------------------------
# negative-result diagnostics
# ---------------------------------------------------------------------------

def bv_blowup_diagnostic(traj: Trajectory, pair: tuple[int, int],
                         max_halvings: int = 20) -> dict:
    """Lower-bound accumulation of the one-sided derivative integral along a
    merging pair.

    Along trajectories y, z of the same field, the integral of
    |(u(y)-u(z))/(y-z)| equals the total variation of log|y-z|, which the
    table accumulates exactly (telescoping) on the recorded snapshots. Rows
    report the value each time the gap first halves.
    """
    i, j = pair
    gaps = np.array([abs(s.positions[i, 0] - s.positions[j, 0])
                     for s in traj.states])
    if np.any(gaps <= 0):
        cut = int(np.argmax(gaps <= 0))
        gaps = gaps[:cut]
    if len(gaps) < 2:
        return {"rows": [], "merged": False, "note": "no merge detected"}
    logg = np.log(gaps)
    acc = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(logg)))])
    rows = []
    g0 = gaps[0]
    for m in range(1, max_halvings + 1):
        cutoff = g0 * 2.0 ** (-m)
        hit = np.flatnonzero(gaps <= cutoff)
        if len(hit) == 0:
            break
        k = int(hit[0])
        rows.append({"halvings": m, "gap": float(gaps[k]),
                     "integral": float(acc[k])})
    if not rows:
        return {"rows": [], "merged": False, "note": "no merge detected"}
    return {"rows": rows, "merged": True, "initial_gap": float(g0)}


def linear_merge_toy(halvings: int = 12, samples_per_halving: int = 24) -> Trajectory:
    """Two straight-line particles approaching at constant speed; gap halves
    every fixed time fraction of the remaining distance to the merge time."""
    t_end = 1.0 - 2.0 ** (-halvings - 2)
    times = 1.0 - np.geomspace(1.0, 1.0 - t_end, halvings * samples_per_halving)
    times = np.concatenate([[0.0], times[1:]])
    states = []
    for t in times:
        gap = 1.0 - t
        states.append(ParticleMeasure(np.array([[0.5 * gap], [-0.5 * gap]]),
                                      np.array([0.5, 0.5])))
    return Trajectory(times, states, field_ref="linear-merge-toy")


def shear_diagnostic(probes: int = 7) -> dict:
    """Velocity mismatch of the naive map that sends full outer cells onto
    their targets; the swapped two-by-two configuration makes the jump across
    the interior column line explicit."""
    a_cols = np.array([0.0, 0.5, 1.0])
    a_rows = np.array([[0.0, 0.8, 1.0], [0.0, 0.2, 1.0]])
    b_rows = np.array([[0.0, 0.2, 1.0], [0.0, 0.8, 1.0]])

    def naive_velocity(x, y):
        i = 0 if x < a_cols[1] else 1
        j = 0 if y < a_rows[i, 1] else 1
        lo, hi = a_rows[i, j], a_rows[i, j + 1]
        tlo, thi = b_rows[i, j], b_rows[i, j + 1]
        image = tlo + (y - lo) * (thi - tlo) / (hi - lo)
        return image - y  # T = 1

    ys = np.linspace(0.05, 0.95, probes)
    jump_rows = []
    for y in ys:
        left = naive_velocity(a_cols[1] - 1e-9, y)
        right = naive_velocity(a_cols[1] + 1e-9, y)
        jump_rows.append({"y": float(y), "jump": float(abs(right - left))})
    max_jump = max(r["jump"] for r in jump_rows)

    lips = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4):
        worst = 0.0
        for y in ys:
            du = abs(naive_velocity(a_cols[1] + eps, y)
                     - naive_velocity(a_cols[1] - eps, y))
            worst = max(worst, du / (2 * eps))
        lips.append({"epsilon": eps, "lipschitz_estimate": worst})
    return {"config": "swapped-2x2", "jumps": jump_rows, "max_jump": max_jump,
            "lipschitz_table": lips}
