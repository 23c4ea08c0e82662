"""Control-field synthesis: grid, storage and funnel controls, the
approximate lane's five-phase schedule and the exact lane's three-segment
witness schedule.

Every field records the drift v it perturbs as its ambient; its control
is the total minus the drift. Each Lipschitz phase field is a
``GatedField``, whose control is exactly zero off one box inside omega.
Both lanes share one plan (``_plan``): the crossing check and the phase
times T0..T5.

The approximate lane synthesizes genuinely Lipschitz fields and pushes the
particles through their flows phase by phase, in closed form where the
construction gives the flow map; it places the sets S, S0 and omega1 its
funnels and grid need (``_place_sets``), and its target side is its source
side run backward, on the reversed drift (``_approx_side``). The exact
lane integrates nothing, and every atom path in it is in closed form: it
parks each atom where the crossing check's stopped flow entered the
control set, on the drift's exact affine flow map until its hit, and joins
the two sides' parks, all in the box omega0, by a quadratic-cost geodesic.
Its three segments are per-plan-entry witnesses that read each atom's
position and velocity off its closed form (the velocity field is Borel,
not Lipschitz, and atoms may overlap).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
# unused here, but the benchmark tracer looks stopped_flow_batch up here
from .flow import (TimeField, Trajectory, choose_step, flow_push,
                   stopped_flow_batch, _affine_flow,
                   _integrate_batch as _integrate_batch_local)
from .geometry import (GeometricCondition, Region, cutoff_flow,
                       check_geometric_condition, _smootherstep,
                       _smootherstep_d)
from .measure import ParticleMeasure, quantile_partition
from .ot import (SolverCapError, TransportPlan, wp_discrete, w1_bracket,
                 _block_plan, _distances)

__all__ = [
    "ControlSegment",
    "ControlSchedule",
    "GatedField",
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
    this name, which goes with the tracer rework (ROADMAP item 2b)."""
    raise NotImplementedError("the gradient-ascent weight eta is retired")


def _escalate_exact_funnel(*args, **kwargs):
    """Retired exact-lane funnel; the benchmark tracer still patches this
    name, which goes with the tracer rework (ROADMAP item 2b)."""
    raise NotImplementedError("the exact lane no longer funnels")


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
        points drawn in the box omega grown by its extent."""
        rng = np.random.default_rng(seed)
        lo, hi = omega.lo, omega.hi
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
# localized fields
# ---------------------------------------------------------------------------

def _ramp(d, reach, width):
    """S((reach - d) / width) for the smootherstep S: 1 where d <= reach -
    width, 0 where d >= reach, and 0 everywhere where width is 0."""
    u = np.divide(reach - d, width, out=np.zeros_like(d), where=width > 0.0)
    return _smootherstep(u)


class GatedField(TimeField):
    """(1 - g) v + g inner: the drift v with the velocity ``inner(points,
    t)`` (zero when None) gated in on the box ``region``, g = ``_ramp`` of
    its excess (``Region.excess``) over ``reach`` and ``width``. g is 1 on
    the region grown by reach - width, and the control, the total minus v,
    is exactly zero off the region grown by reach. The excess is
    1-Lipschitz, so |grad g| <= 1.875 / width and the bounds follow from
    the inner velocity's on the grown box, ``inner_lip`` and ``inner_sup``.
    The other keywords go to ``TimeField``."""

    def __init__(self, v: TimeField, region: Region, reach, width,
                 inner=None, inner_lip=0.0, inner_sup=0.0, **kwargs):
        self.region, self.reach, self.width = region, reach, width
        self._inner_velocity = inner
        super().__init__(
            self._total, v.dim, sup_bound=inner_sup + v.sup_bound, ambient=v,
            lipschitz_bound=inner_lip + v.lipschitz_bound
            + 1.875 * (inner_sup + v.sup_bound) / width, **kwargs)

    def _total(self, pts, t):
        g = _ramp(self.region.excess(pts), self.reach, self.width)[:, None]
        total = (1.0 - g) * self.ambient.evaluate(pts, t)
        if self._inner_velocity is None:
            return total
        return total + g * self._inner_velocity(pts, t)


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
    speed (zero where source and target share a frame), so it stays
    continuous when the outer walls move. The walls are characteristics: a
    point keeps its relative coordinate in its cell, or its distance to the
    outer wall it lies beyond, so the flow is in closed form (``_carry``).
    Across a slab wall the two slabs' velocities blend by a smootherstep
    over a strip of half-width ``STRIP_GAMMA`` times the narrower slab,
    which keeps the field Lipschitz. Only strip points need numerics: their
    earlier coordinates stay frozen, so ``flow`` steps x_a alone, a 1D ODE
    whose Lipschitz constant is the axis-a slope bound.
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
        their weights, both ``(points, 2**a)``: the slab across a wall of an
        earlier axis weighs 1/2 on it, falling to 0 at gamma from it."""
        rows = np.zeros((len(pts), 1), dtype=np.intp)
        weights = np.ones((len(pts), 1))
        for b in range(a):
            x = np.broadcast_to(pts[:, b:b + 1], rows.shape)
            c = self.tgt.cell_of(b, rows.ravel(), x.ravel()).reshape(x.shape)
            walls, gamma = self._tgt[b], self._gamma[b]
            low, high = gamma[rows, c], gamma[rows, c + 1]
            below = _ramp(x - walls[rows, c], low, 2.0 * low)
            above = _ramp(walls[rows, c + 1] - x, high, 2.0 * high)
            other = np.where(below > 0, c - 1, np.where(above > 0, c + 1, c))
            share = below + above
            rows = np.concatenate([rows * self.n + c, rows * self.n + other],
                                  axis=1)
            weights = np.concatenate([weights * (1.0 - share),
                                      weights * share], axis=1)
        return rows, weights

    def _axis_velocity(self, a, rows, weights, x, t):
        """Axis-a velocity at time t of points at axis-a coordinates ``x``
        that blend the slabs ``rows`` with ``weights`` (see ``_slabs``)."""
        walls = self._walls(a, t)
        speed = self._speed[a]
        alpha = np.diff(speed) / np.diff(walls)
        beta = speed[:, :-1] - alpha * walls[:, :-1]
        v = _kernels.grid_eval_1d(np.repeat(x, rows.shape[1]), rows.ravel(),
                                  walls, alpha, beta)
        return np.sum(weights * v.reshape(rows.shape), axis=1)

    def _velocity(self, a, pts, t):
        """The field of sub-phase a: only coordinate a moves."""
        out = np.zeros_like(pts)
        out[:, a] = self._axis_velocity(a, *self._slabs(a, pts), pts[:, a], t)
        return out

    def _eval(self, pts, t):
        a = int(np.clip(np.searchsorted(self.ends, t, side="right") - 1, 0,
                        self.dim - 1))
        return self._velocity(a, pts, t)

    def flow(self, pts, ta, tb, tol):
        """Positions at tb of the points ``pts`` at ta (0 <= ta <= tb <= T).

        Each sub-phase reads every row's slabs once. Strip rows step x_a
        alone by fixed-step RK4 at the axis-a slope bound. Returns
        ``(images, closed, stats)``: the images of every row, the mask of
        the rows moved in closed form in every sub-phase (never inside a
        blend strip), and the strip RK4's number of steps, its step and the
        bound that chose the step (None when no strip row moved).
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
            strip = ~whole
            field = TimeField(
                lambda x, t, r=rows[strip], w=weights[strip], a=a:
                self._axis_velocity(a, r, w, x[:, 0], t)[:, None], 1,
                lipschitz_bound=self.slopes[a], sup_bound=self.sup_bound,
                label="grid_norm")
            images[strip, a] = _integrate_batch_local(
                field, images[strip, a:a + 1], lo, hi, tol)[:, 0]
            h = float(choose_step(field, tol, hi - lo))
            stats = {"steps": stats["steps"] + round((hi - lo) / h),
                     "h": min(h, stats["h"] or h),
                     "lipschitz": max(field.lipschitz_bound,
                                      stats["lipschitz"] or 0.0)}
        return images, closed, stats


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
    """Certified W1 bound, in world units, between the grid phase's image
    ``moved`` and ``target``, both taken with unit mass; ``mesh`` is the
    target's mesh.

    p_c is the mass of the rows moved in closed form (mask ``closed``) that
    land in target cell c, q_c the target mass in c. Coupling min(p_c, q_c)
    inside each cell, and the rest anywhere in the mesh's frame (which
    holds the target, and into which the flow carries every row of the
    source's frame), costs at most
    sum_c min(p_c, q_c) diam(c) + (1 - sum_c min(p_c, q_c)) diam(frame).
    """
    size = mesh.n ** mesh.dim
    p = np.bincount(mesh.locate(moved.positions[closed]),
                    moved.weights[closed], size) / moved.total_mass()
    q = np.bincount(mesh.locate(target.positions), target.weights,
                    size) / target.total_mass()
    lo, hi = mesh.cells()
    frame_lo, frame_hi = mesh.frame()
    matched = np.minimum(p, q)
    return float(matched @ np.linalg.norm(hi - lo, axis=1)
                 + (1.0 - matched.sum()) * np.linalg.norm(frame_hi - frame_lo))


# ---------------------------------------------------------------------------
# storage control
# ---------------------------------------------------------------------------

def storage_total(v: TimeField, omega0: Region, k: int) -> GatedField:
    """Total velocity (1 - S(k depth)) v of the storage phase, a
    ``GatedField`` on omega0 with reach 0 and width 1/k: its control is
    exactly zero outside omega0, and the total is exactly zero at depth
    1/k. Under a translation drift (A = 0) the field carries its exact
    flow map (``cutoff_flow``), so ``flow_push`` steps nothing; a curved
    drift is stepped by RK4."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if 1.0 / k >= omega0.inradius():
        raise ValueError(
            f"1/k = {1.0 / k:.4g} is not below the inradius "
            f"{omega0.inradius():.4g}; the parked zone would be empty")
    pair = v.affine_pair
    straight = pair is not None and not pair[0].any()
    return GatedField(v, omega0, 0.0, 1.0 / k, label=f"storage_total_k{k}",
                      descriptor={"kind": "storage", "k": k,
                                  "omega0": omega0.to_dict()},
                      flow_map=cutoff_flow(omega0, k, pair[1]) if straight
                      else None)


# ---------------------------------------------------------------------------
# funnel control
# ---------------------------------------------------------------------------

def _cloud_box(pts, omega1: Region):
    """Bounding box of the points ``pts``, padded by 1% of its extent on
    each axis: the box a straight-line funnel contracts. On a long cloud
    that pad can outgrow the room between the points and omega1's edge, so
    on each side it is cut to 99% of that room (to none outside omega1)."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = 0.01 * np.maximum(hi - lo, 1e-9)
    box_lo, box_hi = omega1.lo, omega1.hi
    return Region.box(lo - np.clip(0.99 * (lo - box_lo), 0.0, pad),
                      hi + np.clip(0.99 * (box_hi - hi), 0.0, pad))


def affine_funnel_total(v: TimeField, omega1: Region, cloud_box, target_box,
                        clock, blend_band: float) -> GatedField:
    """Straight-line funnel: a time-gated affine similarity carrying the
    cloud box onto a copy inside the target box over the interval ``clock``
    = (t_a, t_b), whose ramp reads (t - t_a)/(t_b - t_a), gated in on
    omega1 with reach and width ``blend_band``. The approximate lane
    funnels with it, pushing its particles through its flow map.

    The boxes it sweeps stay inside the hull of the first and the last,
    which the box omega1 holds. Translation and contraction decouple, so
    the per-axis contraction is exactly the ratio the geometry requires and
    early arrivals never keep compressing. The ramp has zero velocity at
    both ends, which makes the segment handoff exact.

    Inside omega1 the gate is 1, so there the flow is the similarity
    x(t) = c(t) + lam^w(t) (x0 - c0) with w the ramp and c(t) the centre
    moving from c0 to c1. The field's flow map (see ``TimeField``) takes
    points from t0 to t1 on it: c(t1) + lam^(w(t1) - w(t0)) r with
    r = x - c(t0). On each axis that coordinate is c(w), linear in w, plus
    a term of r's sign, convex in w for r >= 0 and concave for r < 0, and
    w is monotone between t0 and t1. So for r >= 0 it keeps between the
    least of c's ends and the largest of its own, for r < 0 mirrored:
    within the box spanned by the row's two ends and c's. The map
    certifies a row when that box lies in omega1: its path stays where the
    similarity is the field's flow.
    """
    c0 = 0.5 * (cloud_box.lo + cloud_box.hi)
    c1 = 0.5 * (target_box.lo + target_box.hi)
    half0 = 0.5 * (cloud_box.hi - cloud_box.lo)
    half1 = 0.5 * (target_box.hi - target_box.lo)
    lam = np.minimum(1.0, 0.9 * half1 / np.maximum(half0, 1e-300))
    log_lam = np.log(lam)
    t_a = float(clock[0])
    span = float(clock[1]) - t_a

    if not np.all(omega1.contains(np.stack([
            np.minimum(cloud_box.lo, c1 - lam * half0 - 1e-12),
            np.maximum(cloud_box.hi, c1 + lam * half0 + 1e-12)]))):
        raise ValueError("funnel endpoints do not fit inside omega1")

    def flow_map(pts, t0, t1):
        w0, w1 = _smootherstep((np.array([t0, t1]) - t_a) / span)
        c_t0, c_t1 = (1.0 - w0) * c0 + w0 * c1, (1.0 - w1) * c0 + w1 * c1
        scale = lam ** w1 / lam ** w0
        image = c_t1 + scale * (pts - c_t0)
        lo = np.minimum(np.minimum(pts, image), np.minimum(c_t0, c_t1))
        hi = np.maximum(np.maximum(pts, image), np.maximum(c_t0, c_t1))
        return image, omega1.contains(lo) & omega1.contains(hi)

    def similarity(pts, t):
        u = np.array([(t - t_a) / span])
        w, wd = _smootherstep(u)[0], _smootherstep_d(u)[0] / span
        return wd * ((c1 - c0) + log_lam * (pts - (c0 + w * (c1 - c0))))

    # the similarity's slope, and its speed on omega1 grown by the band
    wd_max, rate = 1.875 / span, float(np.max(np.abs(log_lam)))
    extent = (np.linalg.norm(c1 - c0) + rate * np.linalg.norm(
        omega1.hi - omega1.lo + 2.0 * blend_band))
    fld = GatedField(v, omega1, blend_band, blend_band, similarity,
                     wd_max * rate, wd_max * extent, label="funnel_affine",
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

class ParticleWitnessField(TimeField):
    """Borel control witness: one velocity per plan entry, at its atom.

    ``position(t)`` and ``velocity(t)`` give the ``(E, d)`` positions and
    velocities of the E entries' atoms at time t, in closed form, and
    ``speed`` bounds the velocities. A query within ``match_tol`` of an
    atom takes its velocity. Off the atom set the field evaluates to the
    ambient velocity, so the control part vanishes identically away from
    the transported atoms (in particular outside the control region).
    ``witness_control_outside`` reads the atoms' closed forms directly;
    the match serves evaluation at any other point.
    """

    # a query takes an atom's velocity within this distance of it
    match_tol = 1e-9

    def __init__(self, position, velocity, speed, ambient: TimeField, label,
                 descriptor):
        self.position = position
        self.velocity = velocity
        super().__init__(self._eval, ambient.dim, lipschitz_bound=math.inf,
                         sup_bound=speed + ambient.sup_bound, label=label,
                         ambient=ambient, descriptor=descriptor)

    def _witness(self, pts, t):
        """Velocity of the atom nearest each query (the first among ties)
        where it lies within ``match_tol``, nan elsewhere. Queries take
        their distances to every atom in blocks of about 2^16 pairs."""
        pos, vel = self.position(t), self.velocity(t)
        out = np.full_like(pts, np.nan)
        rows = max(1, 2 ** 16 // len(pos))
        for q in range(0, len(pts), rows):
            dist = _distances(pts[q:q + rows], pos)
            near = np.argmin(dist, axis=1)
            hit = dist[np.arange(len(near)), near] <= self.match_tol
            out[q:q + rows][hit] = vel[near[hit]]
        return out

    def _eval(self, pts, t):
        w = self._witness(pts, t)
        miss = np.isnan(w[:, 0])
        if np.any(miss):
            w[miss] = self.ambient.evaluate(pts[miss], t)
        return w


def _park_witness(v: TimeField, pair, x0, hits, clock, descriptor):
    """Witness of atoms parked from ``x0`` by the affine field with ``pair``
    at their ``hits``, read at park time ``clock(t)``: each sits on the
    field's exact map at min(clock(t), hit). Before its hit an atom moves at
    the drift v, after it at 0, so outside omega its control is 0."""
    def position(t):
        return _affine_flow(pair, x0, np.minimum(clock(t), hits))

    def velocity(t):
        return np.where((clock(t) < hits)[:, None],
                        v.evaluate(position(t), t), 0.0)

    return ParticleWitnessField(position, velocity, v.sup_bound, v,
                                "witness_storage", descriptor)


def witness_control_outside(schedule: ControlSchedule, omega: Region,
                            times) -> float:
    """Largest |control| of the witness segments at their own atoms outside
    omega, at each of ``times`` a segment holds: each atom's closed-form
    velocity less the drift at its position. Sampled points never come
    within ``match_tol`` of an atom, so ``max_control_outside`` cannot see
    the control where a witness acts."""
    worst = 0.0
    for seg in schedule.segments:
        fld = seg.field
        if not isinstance(fld, ParticleWitnessField):
            continue
        for t in times[(seg.t_start <= times) & (times <= seg.t_end)]:
            pos = fld.position(t)
            out = ~omega.contains(pos)
            ctrl = fld.velocity(t)[out] - fld.ambient.evaluate(pos[out], t)
            worst = max(worst, float(np.max(np.linalg.norm(ctrl, axis=1),
                                            initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# five-phase composition helpers
# ---------------------------------------------------------------------------

@dataclass
class ControllerResult:
    schedule: ControlSchedule
    trajectory: Trajectory
    report: dict
    plan: TransportPlan | None = None  # the exact lane's coupling


def _largest_free_box(omega: Region, omega0: Region) -> Region:
    """Largest axis-aligned slab of a box omega avoiding the box omega0 (the
    first of the largest), shrunk by 15% about its centre. A checked omega0
    leaves every slab a positive thickness."""
    slabs = []
    for axis in range(omega.dim):
        for lo_a, hi_a in ((omega.lo[axis], omega0.lo[axis]),
                           (omega0.hi[axis], omega.hi[axis])):
            lo, hi = omega.lo.copy(), omega.hi.copy()
            lo[axis], hi[axis] = lo_a, hi_a
            slabs.append((lo, hi))
    lo, hi = max(slabs, key=lambda slab: float(np.prod(slab[1] - slab[0])))
    c = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * 0.85
    return Region.box(c - half, c + half)


def _place_sets(omega: Region, omega0: Region):
    """The approximate lane's sets: S inside omega \\ omega0, S0 well inside
    S, omega1 around both, and the funnels' blend band."""
    s_box = _largest_free_box(omega, omega0)
    c = 0.5 * (s_box.lo + s_box.hi)
    half = 0.5 * (s_box.hi - s_box.lo)
    s0 = Region.box(c - 0.5 * half, c + 0.5 * half)
    hull_lo = np.minimum(omega0.lo, s_box.lo)
    hull_hi = np.maximum(omega0.hi, s_box.hi)
    gap = min(np.min(hull_lo - omega.lo), np.min(omega.hi - hull_hi))
    omega1 = Region.box(hull_lo - gap / 2, hull_hi + gap / 2)
    return s_box, s0, omega1, 0.45 * gap


@dataclass
class _Plan:
    """The skeleton both controllers share: the scenario's drift and
    measures, the control region omega, the crossing check and the phase
    times T0..T5 read off its hitting times. ``v_back`` is the reversed
    drift and ``t_back`` T5 - T4 before rounding."""
    params: dict
    v: TimeField
    v_back: TimeField
    mu0: ParticleMeasure
    mu1: ParticleMeasure
    omega: Region
    cond: GeometricCondition
    t_back: float
    times: dict

    def report(self, mode, mass_total) -> dict:
        """The report keys both lanes carry."""
        return {
            "mode": mode,
            "times": self.times,
            "T0star": self.cond.T0star,
            "T1star": self.cond.T1star,
            "mass_total": mass_total,
            "regions": {"omega0": self.cond.omega0.to_dict()},
        }


def _plan(scenario) -> _Plan:
    """Read a ``Scenario``'s drift, measures and region, run the crossing
    check and lay out the five phases."""
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
        lo, hi = zip((omega.lo, omega.hi), mu0.support_bbox(),
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
    if not np.all(np.diff(list(times.values())) > 0.0):
        raise ValueError(f"delta {delta!r} leaves the phase times {times} "
                         "not strictly increasing")
    return _Plan(params, v, v.negated(), mu0, mu1, omega, cond, t_back,
                 times)


class MovingFrameGridField(GatedField):
    """Grid control gated in on the gate core, a static box inside S, with
    reach and width ``band``: g grid(x, t - t0) + (1 - g) v(x). The name
    dates from a frame that once carried a normalized grid along with the
    two clouds; the benchmark tracer looks ``advect`` up by it.

    Inside the gate core the field IS the grid field, and
    ``approx_controller`` sizes the core to hold every row's whole
    grid-phase path, so ``advect`` moves every row by the grid's own flow.
    """

    def __init__(self, inner: GridControlField, v: TimeField, t0,
                 gate_core: Region, band: float):
        self.inner = inner
        self.t0 = float(t0)
        self.gate_core = gate_core
        super().__init__(v, gate_core, band, band,
                         lambda pts, t: inner.evaluate(pts, t - self.t0),
                         inner.lipschitz_bound, inner.sup_bound,
                         label="grid_frame",
                         descriptor={"kind": "grid_frame",
                                     "inner": inner.descriptor,
                                     "gate": gate_core.to_dict(), "band": band})

    def advect(self, mu: ParticleMeasure, ta: float, tb: float,
               tol: float) -> tuple[ParticleMeasure, np.ndarray, dict]:
        """Flow of this field, for particles whose paths stay in the gate
        core. Returns the pushed measure, the mask of the particles moved in
        closed form (those off every blend strip) and the strip RK4's
        statistics (see ``GridControlField.flow``).
        """
        pos, closed, stats = self.inner.flow(mu.positions, ta - self.t0,
                                             tb - self.t0, tol)
        return ParticleMeasure(pos, mu.weights), closed, stats


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
    """Boolean mask of `must_tag` topped up, shallowest first, until the
    tagged mass is within half the largest weight of target_mass; the
    cumulative sum adds in that order, one row at a time."""
    w = state.weights
    order = np.argsort(depth, kind="stable")
    order = order[~must_tag[order]]
    mass = np.cumsum(np.append(np.sum(w[must_tag]), w[order]))
    tagged = must_tag.copy()
    tagged[order[:np.searchsorted(mass, target_mass - 0.5 * w.max())]] = True
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


def _approx_side(plan: _Plan, sets, v: TimeField, mu: ParticleMeasure,
                 horizon: float, clock, eps_mass: float, tol: float,
                 name: str):
    """One side of the approximate lane: store ``mu`` in omega0 along ``v``
    over [0, horizon], tag an untouched set of mass ``eps_mass``, and funnel
    the rest into S0 over the interval ``clock`` by a straight-line funnel,
    whose similarity keeps the cloud's shape for the grid's quantiles.
    ``sets`` is ``_place_sets``' tuple. Returns the storage field, its index
    k, the parked cloud, the untouched rows' mask, the funnel, the
    funnelled cloud and the two pushes' closed-form records."""
    omega0 = plan.cond.omega0
    _, s0, omega1, band = sets
    store, k, parked, stray, cf_store = _escalate_storage(
        v, omega0, mu, horizon, eps_mass, tol)
    tag = _select_untouched(parked, stray, omega0.depth(parked.positions),
                            eps_mass)
    funnel = affine_funnel_total(
        v, omega1, _cloud_box(parked.subset(~tag).positions, omega1), s0,
        clock, band)
    funnelled, cf_funnel = flow_push(funnel, parked, *clock, tol)
    if not np.all(s0.contains(funnelled.subset(~tag).positions)):
        raise RuntimeError(f"{name} funnel failed to reach the storage cube")
    return store, k, parked, tag, funnel, funnelled, cf_store, cf_funnel


def approx_controller(scenario) -> ControllerResult:
    """Five-phase Lipschitz control: storage, funnel, grid, and the time
    reversals of a funnel and a storage synthesized on the reversed drift.

    ``_approx_side`` builds the source side from mu0 along v, and the target
    side from mu1 along -v, each with an untouched set of mass
    eps/(2 d Rbar). The grid joins their funnelled clouds, the target side
    is replayed reversed, and the report carries the measured transport
    error against the target. Particles the funnels' flow maps certify or
    off the grid's blend strips move along their closed-form
    characteristics; the rest are integrated.
    """
    plan = _plan(scenario)
    v, mu0, mu1 = plan.v, plan.mu0, plan.mu1
    _, t1, t2, t3, t4, t5 = plan.times.values()
    epsilon = float(plan.params["epsilon"])
    tol = float(plan.params["tol"])

    lo0, hi0 = mu0.support_bbox()
    lo1, hi1 = mu1.support_bbox()
    edge = float(np.max(np.maximum(hi0, hi1) - np.minimum(lo0, lo1)))
    rbar = edge + t5 * v.sup_bound
    # at most half the cloud's mass, so the grid has a cloud to carry; the
    # untouched set's W1 charge only falls as it shrinks
    eps_mass = min(epsilon / (2.0 * mu0.dim * rbar), 0.5 * mu0.total_mass())
    sets = _place_sets(plan.omega, plan.cond.omega0)
    s_box, s0, omega1, _ = sets

    # phases 1 and 2, and the target side's for replay after the grid
    (store_fwd, k_fwd, state1, tag_fwd, fun_fwd, state2_all, cf_store_fwd,
     cf_fwd) = _approx_side(plan, sets, v, mu0, t1, (t1, t2), eps_mass, tol,
                            "forward")
    (store_back, k_back, back1, tag_back, fun_back, back2_all, cf_store_back,
     cf_back) = _approx_side(plan, sets, plan.v_back, mu1, plan.t_back,
                             (0.0, t4 - t3), eps_mass, tol, "backward")

    # phase 3: grid control between the two parked clouds, each cut into
    # quantile cells within its own frame
    cloud_src = state2_all.subset(~tag_fwd)
    cloud_tgt = back2_all.subset(~tag_back)
    n = _choose_n(len(cloud_src), mu0.dim, plan.params["n"])
    while True:
        try:
            part_src, part_tgt = quantile_partition(cloud_src, cloud_tgt, n)
            break
        except ValueError:
            # empirical resolution insufficient for this mesh; coarsen
            if plan.params["n"] is not None or n <= 1:
                raise
            n -= 1
    grid = GridControlField(part_src, part_tgt, t3 - t2)
    # every slab's outer walls are the frame faces: a row beyond a face
    # moves rigidly with it and one between them stays there, so the hull
    # holds every row's whole grid-phase path
    pad = 0.25
    (src_lo, src_hi), (tgt_lo, tgt_hi) = part_src.frame(), part_tgt.frame()
    pts = state2_all.positions
    hull_lo = np.minimum.reduce([
        src_lo - pad * (src_hi - src_lo), tgt_lo - pad * (tgt_hi - tgt_lo),
        pts.min(axis=0) + np.minimum(tgt_lo - src_lo, 0.0)])
    hull_hi = np.maximum.reduce([
        src_hi + pad * (src_hi - src_lo), tgt_hi + pad * (tgt_hi - tgt_lo),
        pts.max(axis=0) + np.maximum(tgt_hi - src_hi, 0.0)])
    room = float(np.min(np.minimum(hull_lo - s_box.lo, s_box.hi - hull_hi)))
    if room <= 0:
        raise RuntimeError("parked clouds leave no gating room inside S")
    gate_region = Region.box(hull_lo - room / 3, hull_hi + room / 3)
    grid_total = MovingFrameGridField(grid, v, t2, gate_region, band=room / 3)
    state3_all, grid_closed, grid_flow = grid_total.advect(state2_all, t2,
                                                           t3, tol)
    grid_bound = grid_error_bound(part_tgt, state3_all.subset(~tag_fwd),
                                  grid_closed[~tag_fwd], cloud_tgt)

    # phases 4 and 5: time reversals of the backward synthesis
    fun_rev = fun_back.reversed(t4 - t3, t3, "funnel_reversed",
                                f"rev({fun_back.label})")
    store_rev = store_back.reversed(plan.t_back, t4, "storage_reversed",
                                    f"-({store_back.label})")
    state4_all, cf_rev = flow_push(fun_rev, state3_all, t3, t4, tol)
    state5_all, cf_store_rev = flow_push(store_rev, state4_all, t4, t5, tol)

    segments = [
        ControlSegment(0.0, t1, store_fwd, "storage"),
        ControlSegment(t1, t2, fun_fwd, "funnel"),
        ControlSegment(t2, t3, grid_total, "grid"),
        ControlSegment(t3, t4, fun_rev, "funnel"),
        ControlSegment(t4, t5, store_rev, "storage"),
    ]
    schedule = ControlSchedule(segments)
    traj = Trajectory(
        np.array([0.0, t1, t2, t3, t4, t5]),
        [mu0, state1, state2_all, state3_all, state4_all, state5_all],
        field_ref=schedule, meta={"mode": "approx"},
        tags=np.where(tag_fwd, "untouched", ""))

    # the estimate is exact where wp_discrete solves it, else the certified
    # upper bound
    w1 = w1_bracket(state5_all, mu1)
    w1["epsilon_certified"] = w1["estimate"] <= epsilon
    report = plan.report("approx", state5_all.total_mass())
    report["regions"].update({"S": s_box.to_dict(), "S0": s0.to_dict(),
                              "omega1": omega1.to_dict()})
    report.update({
        "funnel": {"forward_ratios": fun_fwd.ratios.tolist(),
                   "backward_ratios": fun_back.ratios.tolist(),
                   "backward_expansion": fun_back.expansion},
        "epsilon": epsilon,
        "final_w1": w1,
        "storage_k": {"forward": k_fwd, "backward": k_back},
        "grid_n": n,
        "grid_bound": grid_bound,
        "untouched": {
            "target_mass": eps_mass,
            "rbar": rbar,
            "tagged_mass_source": float(np.sum(state1.weights[tag_fwd])),
            "tagged_mass_target": float(np.sum(back1.weights[tag_back])),
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

def exact_controller(scenario) -> ControllerResult:
    """Atom-exact steering in three witness segments, every atom path in
    closed form: park along the drift over [0, T1], ride the quadratic-cost
    geodesic between the two sides' parks over [T1, T4], then replay the
    target side's park, made along the reversed drift, over [T4, T5]. The
    atoms park at the crossing check's entries and hits
    (``GeometricCondition.parks``), which lie in the box omega0 and end by
    T0* (T1*), so the geodesic's straight paths stay in omega0. Each
    snapshot is read off the segment that ends at or after its time.
    ``final_w1`` is the coupling's own cost, an upper bound on W1 that
    reads 0 at exact arrival, and ``mass_residual`` the largest of its
    ``marginal_residuals``: how far it is from moving all of mu0's mass
    onto mu1. The result's ``plan`` is the coupling.
    """
    plan = _plan(scenario)
    v, mu0, mu1, cond = plan.v, plan.mu0, plan.mu1, plan.cond
    t1, t4, t5 = (plan.times[key] for key in ("T1", "T4", "T5"))

    # parked along the drift, and along the reversed drift (replayed)
    (hits1, parked1), (hits5, parked5) = cond.parks

    # geodesic coupling between the parks: optimal where it is in reach,
    # else the nested blocks, whose straight paths do not cross
    parked = (ParticleMeasure(parked1, mu0.weights),
              ParticleMeasure(parked5, mu1.weights))
    try:
        _, coupling = wp_discrete(*parked, p=2)
    except SolverCapError:
        coupling = _block_plan(*parked, 2)
    e_src, e_tgt = coupling.src_idx, coupling.tgt_idx
    start, end = parked1[e_src], parked5[e_tgt]
    pace = (end - start) / (t4 - t1)

    def on_geodesic(t):
        lam = (t - t1) / (t4 - t1)
        return (1.0 - lam) * start + lam * end

    segments = [
        ControlSegment(0.0, t1, _park_witness(
            v, v.affine_pair, mu0.positions[e_src], hits1[e_src],
            lambda t: t, {"kind": "stopped_drift",
                          "omega0": cond.omega0.to_dict()}), "storage"),
        ControlSegment(t1, t4, ParticleWitnessField(
            on_geodesic, lambda t: pace,
            float(np.max(np.linalg.norm(pace, axis=1), initial=0.0)), v,
            "witness_geodesic",
            {"kind": "geodesic", "entries": len(coupling.mass)}), "geodesic"),
        ControlSegment(t4, t5, _park_witness(
            v, plan.v_back.affine_pair, mu1.positions[e_tgt], hits5[e_tgt],
            lambda t: t5 - t, {"kind": "stopped_drift_reversed"}), "storage"),
    ]
    schedule = ControlSchedule(segments)

    # sorted without repeats; plain np.unique would import numpy.ma
    ends = np.array([t1, t4, t5])
    snap_times = np.sort(np.concatenate([ends, np.linspace(0.0, t5, 21)]))
    snap_times = snap_times[np.append(True, np.diff(snap_times) != 0.0)]
    states = [ParticleMeasure(
        segments[np.searchsorted(ends, t)].field.position(t), coupling.mass)
        for t in snap_times]
    traj = Trajectory(snap_times, states, field_ref=schedule,
                      meta={"mode": "exact",
                            "plan_entries": len(coupling.mass)})

    miss = np.linalg.norm(states[-1].positions - mu1.positions[e_tgt], axis=1)
    report = plan.report("exact", states[-1].total_mass())
    report["final_w1"] = {"estimate": float(coupling.mass @ miss),
                          "method": "coupling"}
    report["plan_entries"] = int(len(coupling.mass))
    report["mass_residual"] = max(coupling.marginal_residuals())
    report["witness_control_outside"] = witness_control_outside(
        schedule, plan.omega, snap_times)
    return ControllerResult(schedule, traj, report, coupling)


# ---------------------------------------------------------------------------
# negative-result diagnostics
# ---------------------------------------------------------------------------

def bv_blowup_diagnostic(traj: Trajectory, pair: tuple[int, int]) -> dict:
    """Lower-bound accumulation of the one-sided derivative integral along a
    merging pair.

    Along trajectories y, z of the same field, the integral of
    |(u(y)-u(z))/(y-z)| equals the total variation of log|y-z|, which the
    table accumulates exactly (telescoping) on the recorded snapshots. Rows
    report the value each time the gap first halves, up to 20 halvings.
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
    for m in range(1, 21):
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


def linear_merge_toy() -> Trajectory:
    """Two straight-line particles approaching at constant speed; gap halves
    every fixed time fraction of the remaining distance to the merge time.
    The 288 snapshots are geometric in the time left, down to 2^-14 of it."""
    times = 1.0 - np.geomspace(1.0, 2.0 ** -14, 288)
    times = np.concatenate([[0.0], times[1:]])
    states = []
    for t in times:
        gap = 1.0 - t
        states.append(ParticleMeasure(np.array([[0.5 * gap], [-0.5 * gap]]),
                                      np.array([0.5, 0.5])))
    return Trajectory(times, states, field_ref="linear-merge-toy")


def shear_diagnostic() -> dict:
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

    ys = np.linspace(0.05, 0.95, 7)
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
