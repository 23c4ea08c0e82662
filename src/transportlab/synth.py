"""Control-field synthesis: grid, storage and funnel controls, and the
five-phase schedules composing them.

The approximate lane synthesizes genuinely Lipschitz fields and pushes the
particles through their flows phase by phase, in closed form where the
construction gives the flow map; the exact lane transports atoms with
stopped flows and a quadratic-cost geodesic, storing the control as a
per-plan-entry witness (the velocity field is Borel, not Lipschitz, and
atoms may overlap).
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .flow import (TimeField, Trajectory, flow_push, stopped_flow_batch,
                   _integrate_batch as _integrate_batch_local)
from .geometry import Region, cutoff_theta, weight_eta, check_geometric_condition
from .measure import ParticleMeasure, GridPartition, quantile_partition
from .ot import wp_discrete, subsampled_w1

__all__ = [
    "ControlSegment",
    "ControlSchedule",
    "GridControlField",
    "grid_control",
    "storage_control",
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


def grid_error_bound(n: int) -> float:
    """Finite-n transport error of the moving-cell construction:
    2(n-2)²/n³ + 8(n-1)/n²."""
    return 2.0 * (n - 2) ** 2 / n ** 3 + 8.0 * (n - 1) / n ** 2


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
    def t_start(self):
        return self.segments[0].t_start

    @property
    def horizon(self):
        return self.segments[-1].t_end

    def segment_at(self, t: float) -> ControlSegment:
        # right-continuous: boundary times belong to the later segment
        for seg in self.segments:
            if seg.t_start <= t < seg.t_end:
                return seg
        return self.segments[-1]

    def evaluate(self, pts, t):
        return self.segment_at(t).field.evaluate(pts, t)

    def control_part(self, pts, t):
        return self.segment_at(t).field.control_part(pts, t)

    def max_control_outside(self, omega: Region, n_samples: int, seed: int,
                            bbox=None) -> float:
        """Largest sampled |control| outside omega over all segments."""
        rng = np.random.default_rng(seed)
        if bbox is None:
            lo, hi = omega.bounding_box()
            span = hi - lo
            lo, hi = lo - span, hi + span
        else:
            lo, hi = bbox
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
# grid control (moving quantile cells)
# ---------------------------------------------------------------------------

class GridControlField(TimeField):
    """Piecewise-affine field carrying inner quantile cells onto their targets.

    Inside the moving cell (i, j) the velocity is (ax_i(t) x + bx_i(t),
    ay_ij(t) y + by_ij(t)); the cell boundaries are themselves
    characteristics, so the flow maps source cells onto target cells exactly.
    Outside, each cell's formula is damped by a quintic falloff over half the
    gap to its neighbour, which keeps the field smooth, bounded and supported
    near the unit box.

    Because the field is Lipschitz and the cell walls are characteristics,
    no characteristic crosses a wall: each closed moving cell is invariant,
    and inside it the affine velocity keeps a point's relative coordinate s
    on every axis. ``cell_flow`` moves such points in closed form,
    x(tb) = c-(tb) + s (c+(tb) - c-(tb)) per axis.
    """

    def __init__(self, part_src, part_tgt, T):
        if part_src.n != part_tgt.n:
            raise ValueError("partitions must share n")
        self.src = part_src
        self.tgt = part_tgt
        self.n = part_src.n
        self.T = float(T)
        self.planar = isinstance(part_src, GridPartition)
        if self.planar != isinstance(part_tgt, GridPartition):
            raise ValueError("partition dimension mismatch")
        self.axm = part_src.inner_x[:, 0].copy() if self.planar else part_src.inner[:, 0].copy()
        self.axp = part_src.inner_x[:, 1].copy() if self.planar else part_src.inner[:, 1].copy()
        self.bxm = part_tgt.inner_x[:, 0].copy() if self.planar else part_tgt.inner[:, 0].copy()
        self.bxp = part_tgt.inner_x[:, 1].copy() if self.planar else part_tgt.inner[:, 1].copy()
        if self.planar:
            self.aym = part_src.inner_y[:, :, 0].copy()
            self.ayp = part_src.inner_y[:, :, 1].copy()
            self.bym = part_tgt.inner_y[:, :, 0].copy()
            self.byp = part_tgt.inner_y[:, :, 1].copy()
        # the last two (t, tables) pairs: RK4's middle stages share a time,
        # and a step's last stage usually shares it with the next step's first
        self._recent_tables = []
        self._assert_disjoint()
        dim = 2 if self.planar else 1
        sup, lip = self._bounds()
        super().__init__(self._eval, dim, lipschitz_bound=lip, sup_bound=sup,
                         time_domain=(0.0, self.T), label=f"grid_n{self.n}",
                         control_fn=self._eval,
                         descriptor={"kind": "grid", "n": self.n, "T": self.T})

    # boundary interpolants and their coefficient functions -----------------
    def _interp(self, a, b, t):
        # exact at both ends, so corners land on their targets bit for bit
        u = t / self.T
        return (1.0 - u) * a + u * b

    def _coeffs(self, am, ap, bm, bp, t):
        cm = self._interp(am, bm, t)
        cp = self._interp(ap, bp, t)
        width = cp - cm
        alpha = ((bp - ap) - (bm - am)) / (self.T * width)
        beta = (cp * (bm - am) - cm * (bp - ap)) / (self.T * width)
        return cm, cp, alpha, beta

    @staticmethod
    def _margins(cm, cp):
        # half gaps to the neighbouring moving cells along the last axis;
        # walls of the unit box bound the outermost falloffs
        left = np.empty_like(cm)
        right = np.empty_like(cp)
        left[..., 0] = np.maximum(cm[..., 0], 1e-12)
        left[..., 1:] = 0.5 * (cm[..., 1:] - cp[..., :-1])
        right[..., :-1] = 0.5 * (cm[..., 1:] - cp[..., :-1])
        right[..., -1] = np.maximum(1.0 - cp[..., -1], 1e-12)
        return np.maximum(left, 1e-12), np.maximum(right, 1e-12)

    def _tables(self, t):
        for t_key, tabs in self._recent_tables:
            if t_key == t:
                return tabs
        cxm, cxp, ax, bx = self._coeffs(self.axm, self.axp, self.bxm, self.bxp, t)
        gxm, gxp = self._margins(cxm, cxp)
        tabs = (cxm, cxp, ax, bx, gxm, gxp)
        if self.planar:
            cym, cyp, ay, by = self._coeffs(self.aym, self.ayp, self.bym, self.byp, t)
            gym, gyp = self._margins(cym, cyp)
            tabs += (cym, cyp, ay, by, gym, gyp)
        self._recent_tables = [(t, tabs)] + self._recent_tables[:1]
        return tabs

    def _eval(self, pts, t):
        t = min(max(t, 0.0), self.T)
        if self.planar:
            (cxm, cxp, ax, bx, gxm, gxp,
             cym, cyp, ay, by, gym, gyp) = self._tables(t)
            return _kernels.grid_eval_2d(pts[:, 0], pts[:, 1], cxm, cxp, ax, bx,
                                         cym, cyp, ay, by, gxm, gxp, gym, gyp)
        cxm, cxp, ax, bx, gxm, gxp = self._tables(t)
        return _kernels.grid_eval_1d(pts[:, 0], cxm, cxp, ax, bx, gxm, gxp)

    def _walls(self, t):
        """Cell walls at time t: x lower and upper per column, then (planar)
        y lower and upper per cell."""
        walls = [self._interp(self.axm, self.bxm, t),
                 self._interp(self.axp, self.bxp, t)]
        if self.planar:
            walls += [self._interp(self.aym, self.bym, t),
                      self._interp(self.ayp, self.byp, t)]
        return walls

    def _assert_disjoint(self):
        for t in (0.0, self.T):
            cxm, cxp, *y_walls = self._walls(t)
            if np.any(cxp[:-1] >= cxm[1:]):
                raise ValueError("moving cells overlap in x")
            if self.planar:
                cym, cyp = y_walls
                if np.any(cyp[:, :-1] >= cym[:, 1:]):
                    raise ValueError("moving cells overlap in y")

    def _bounds(self):
        sup = 0.0
        lip = 0.0
        for t in np.linspace(0.0, self.T, 5):
            tabs = self._tables(t)
            cxm, cxp, ax, bx, gxm, gxp = tabs[:6]
            vel_edges = np.maximum(np.abs(ax * (cxm - gxm) + bx),
                                   np.abs(ax * (cxp + gxp) + bx))
            sup_t = float(np.max(vel_edges))
            lip_t = float(np.max(np.abs(ax)
                                 + vel_edges * 1.875 / np.minimum(gxm, gxp)))
            if self.planar:
                cym, cyp, ay, by, gym, gyp = tabs[6:]
                vy = np.maximum(np.abs(ay * (cym - gym) + by),
                                np.abs(ay * (cyp + gyp) + by))
                sup_t = max(sup_t, float(np.max(vy)))
                lip_t = max(lip_t, float(np.max(np.abs(ay)
                                                + vy * 1.875 / np.minimum(gym, gyp))))
            sup = max(sup, sup_t)
            lip = max(lip, lip_t)
        return sup, lip

    def cell_flow(self, pts, ta, tb):
        """Closed-form flow from ta to tb of the points inside a moving cell.

        Returns ``(inside, images)``: the mask of the rows of ``pts`` that
        lie in a closed moving cell at time ta, and those rows' positions at
        tb. Cells are invariant under the flow (see the class docstring), so
        these points never need numerical integration; the others are left
        to the caller.
        """
        pts = np.atleast_2d(pts)
        xm_a, xp_a, *y_a = self._walls(min(max(ta, 0.0), self.T))
        xm_b, xp_b, *y_b = self._walls(min(max(tb, 0.0), self.T))
        px = pts[:, 0]
        i = np.maximum(np.searchsorted(xm_a, px, side="right") - 1, 0)
        inside, x = _carry(px, xm_a[i], xp_a[i], xm_b[i], xp_b[i])
        images = x[:, None]
        if self.planar:
            (ym_a, yp_a), (ym_b, yp_b) = y_a, y_b
            py = pts[:, 1]
            j = np.maximum(_kernels.row_search(ym_a, i, py, side="right") - 1, 0)
            inside_y, y = _carry(py, ym_a[i, j], yp_a[i, j], ym_b[i, j],
                                 yp_b[i, j])
            inside &= inside_y
            images = np.stack([x, y], axis=1)
        return inside, images[inside]

    # test hooks -------------------------------------------------------------
    def corner_pairs(self):
        """(start, end) positions of every inner-cell corner."""
        starts, ends = [], []
        if self.planar:
            for i in range(self.n):
                for j in range(self.n):
                    for xa, xb in ((self.axm[i], self.bxm[i]), (self.axp[i], self.bxp[i])):
                        for ya, yb in ((self.aym[i, j], self.bym[i, j]),
                                       (self.ayp[i, j], self.byp[i, j])):
                            starts.append([xa, ya])
                            ends.append([xb, yb])
        else:
            for i in range(self.n):
                starts.extend([[self.axm[i]], [self.axp[i]]])
                ends.extend([[self.bxm[i]], [self.bxp[i]]])
        return np.array(starts), np.array(ends)

    def source_cells(self):
        if self.planar:
            return [(np.array([self.axm[i], self.aym[i, j]]),
                     np.array([self.axp[i], self.ayp[i, j]]))
                    for i in range(self.n) for j in range(self.n)]
        return [(np.array([self.axm[i]]), np.array([self.axp[i]]))
                for i in range(self.n)]

    def target_cells(self):
        if self.planar:
            return [(np.array([self.bxm[i], self.bym[i, j]]),
                     np.array([self.bxp[i], self.byp[i, j]]))
                    for i in range(self.n) for j in range(self.n)]
        return [(np.array([self.bxm[i]]), np.array([self.bxp[i]]))
                for i in range(self.n)]


def _carry(p, lo_a, hi_a, lo_b, hi_b):
    """Whether each p lies in [lo_a, hi_a], and the point with the same
    relative coordinate in [lo_b, hi_b] (exact when that coordinate is 0
    or 1)."""
    s = (p - lo_a) / (hi_a - lo_a)
    return (lo_a <= p) & (p <= hi_a), (1.0 - s) * lo_b + s * hi_b


def grid_control(partition_src, partition_tgt, T: float) -> GridControlField:
    """Field whose time-T flow carries each inner source cell onto its target."""
    if T <= 0:
        raise ValueError("T must be positive")
    return GridControlField(partition_src, partition_tgt, T)


# ---------------------------------------------------------------------------
# storage control
# ---------------------------------------------------------------------------

def storage_control(v: TimeField, omega0: Region, k: int) -> TimeField:
    """Control (theta_k - 1) v: cancels the drift progressively inside omega0,
    exactly zero outside it and total velocity exactly zero at depth 1/k."""
    theta = cutoff_theta(omega0, k)

    def ctrl(pts, t):
        return (theta.evaluate(pts) - 1.0)[:, None] * v.evaluate(pts, t)

    u = TimeField(ctrl, v.dim,
                  lipschitz_bound=v.sup_bound * 1.875 * k + 2 * v.lipschitz_bound,
                  sup_bound=v.sup_bound, support_region=omega0,
                  label=f"storage_k{k}", control_fn=ctrl,
                  descriptor={"kind": "storage", "k": k,
                              "omega0": omega0.to_dict()})
    u.theta = theta
    return u


def storage_total(v: TimeField, omega0: Region, k: int) -> TimeField:
    """Total velocity theta_k * v of the storage phase."""
    u = storage_control(v, omega0, k)
    theta = u.theta

    def total(pts, t):
        return theta.evaluate(pts)[:, None] * v.evaluate(pts, t)

    fld = TimeField(total, v.dim,
                    lipschitz_bound=v.sup_bound * 1.875 * k + v.lipschitz_bound,
                    sup_bound=v.sup_bound, label=f"storage_total_k{k}",
                    control_fn=u.control_fn, descriptor=u.descriptor)
    fld.theta = theta
    fld.k = k
    return fld


# ---------------------------------------------------------------------------
# funnel control
# ---------------------------------------------------------------------------

def _blend_factor(region: Region, band: float):
    """1 inside region, quintic decay to 0 at distance band outside it."""
    from .geometry import _smootherstep

    def factor(pts):
        d = np.maximum(region.signed_distance(pts), 0.0)
        return 1.0 - _smootherstep(d / band)

    return factor


def _eta_grad_lipschitz(eta, omega1: Region, per_axis: int = 48) -> float:
    lo, hi = omega1.bounding_box()
    axes = [np.linspace(lo[a], hi[a], per_axis) for a in range(omega1.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = omega1.contains(pts)
    pts = pts[keep]
    grad = eta.gradient(pts)
    est = 0.0
    for a in range(omega1.dim):
        shift = np.zeros(omega1.dim)
        shift[a] = 1e-5
        diff = (eta.gradient(pts + shift) - grad) / 1e-5
        est = max(est, float(np.max(np.abs(diff))))
    return est


def _layer_max_grad(eta, region: Region, band: float, n: int = 4096,
                    seed: int = 0) -> float:
    """Sampled max |grad eta| in the inner boundary layer of the region."""
    lo, hi = region.bounding_box()
    rng = np.random.default_rng(seed)
    pts = (lo - band) + (hi - lo + 2 * band) * rng.random((n, region.dim))
    sd = region.signed_distance(pts)
    pts = pts[(sd >= -band) & (sd <= 0.0)]
    if len(pts) == 0:
        return 0.0
    return float(np.max(np.linalg.norm(eta.gradient(pts), axis=1)))


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


def affine_funnel_total(v: TimeField, omega1: Region, cloud_box, target_box,
                        duration: float, blend_band: float) -> TimeField:
    """Straight-line funnel: a time-gated affine similarity carrying the
    cloud box onto a copy inside the target box.

    Valid when omega1 is convex (the swept boxes stay inside the hull of the
    two). Unlike the gradient funnel, translation and contraction decouple,
    so the per-axis contraction is exactly the ratio the geometry requires
    and early arrivals never keep compressing. The ramp has zero velocity at
    both ends, which makes the segment handoff exact.

    Inside omega1 the blend factor is 1, so there the flow is the similarity
    x(t) - c(t) = lam^w(t) (x0 - c0) with w the ramp. On each axis the box
    c(t) +- lam^w(t) |x0 - c0| is a linear function of w plus or minus a
    convex one, so it never leaves the hull of its two end boxes. A point
    whose two end boxes lie in omega1 therefore stays in omega1, and its
    whole-span image is c1 + lam (x0 - c0); ``fld.closed_form`` applies that
    test and map (or, with ``reverse=True``, those of the time-reversed
    funnel, whose image is c0 + (x - c1) / lam).
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

    from .geometry import _smootherstep, _smootherstep_d

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

    def ctrl(pts, t):
        w, wd = ramp(t)
        c_t = c0 + w * (c1 - c0)
        drift = wd * ((c1 - c0) + log_lam * (np.atleast_2d(pts) - c_t))
        return blend(pts)[:, None] * (drift - v.evaluate(pts, t))

    wd_max = 1.875 / span
    reach = float(np.linalg.norm(c1 - c0)
                  + np.max(np.abs(log_lam)) * np.linalg.norm(
                      omega1.bounding_box()[1] - omega1.bounding_box()[0]))
    sup = wd_max * reach + v.sup_bound
    lip = (wd_max * float(np.max(np.abs(log_lam)))
           + (sup + v.sup_bound) * 1.875 / blend_band + v.lipschitz_bound)
    fld = TimeField(total, v.dim, lipschitz_bound=lip, sup_bound=sup,
                    support_region=omega1.inflate(blend_band),
                    time_domain=(0.0, span), label="funnel_affine",
                    control_fn=ctrl,
                    descriptor={"kind": "funnel_affine",
                                "ratios": lam.tolist(),
                                "from": cloud_box.to_dict(),
                                "to": target_box.to_dict()})

    def closed_form(pts, reverse=False):
        """``(certified, images)``: the mask of the points whose whole-span
        path provably stays in omega1, and those points' images."""
        start, end, scale = (c1, c0, 1.0 / lam) if reverse else (c0, c1, lam)
        reach = np.abs(pts - start)
        certified = _boxes_inside(
            omega1, np.minimum(start - reach, end - scale * reach),
            np.maximum(start + reach, end + scale * reach))
        return certified, end + scale * (pts[certified] - start)

    fld.ratios = lam
    fld.expansion = float(np.max(1.0 / lam))
    fld.closed_form = closed_form
    return fld


def _push_funnel(field: TimeField, funnel: TimeField, mu: ParticleMeasure,
                 t0: float, t1: float, tol: float, reverse=False):
    """Flow of a straight-line funnel phase over its whole span.

    ``field`` is the phase's total field and ``funnel`` the
    ``affine_funnel_total`` it runs (forward, or time-reversed when
    ``reverse``). Points ``funnel.closed_form`` certifies move in closed
    form; the rest go through ``flow_push`` on ``field``. Returns the pushed
    measure and the number of points moved in closed form.
    """
    certified, images = funnel.closed_form(mu.positions, reverse)
    pos = mu.positions.copy()
    pos[certified] = images
    pos[~certified] = flow_push(field, mu.subset(~certified), t0, t1,
                                tol).positions
    return ParticleMeasure(pos, mu.weights, mu.tags), int(np.sum(certified))


# ---------------------------------------------------------------------------
# per-atom witness of the exact lane
# ---------------------------------------------------------------------------

class ParticleWitnessField(TimeField):
    """Borel control witness: velocities defined along recorded atom paths.

    Off the atom set the field evaluates to the ambient velocity, so the
    control part vanishes identically away from the transported atoms (in
    particular outside the control region).
    """

    def __init__(self, knots, paths, base: TimeField, label, descriptor,
                 match_tol=1e-9):
        self.knots = np.asarray(knots, dtype=float)
        self.paths = np.asarray(paths, dtype=float)   # (E, K, d)
        self.base = base
        self.match_tol = float(match_tol)
        seg = np.diff(self.paths, axis=1)
        dt = np.diff(self.knots)
        self._vels = seg / dt[None, :, None]
        speed = float(np.max(np.linalg.norm(self._vels, axis=2))) if seg.size else 0.0
        super().__init__(self._eval, self.paths.shape[2],
                         lipschitz_bound=math.inf, sup_bound=speed + base.sup_bound,
                         label=label, control_fn=self._ctrl, descriptor=descriptor)

    def positions_at(self, t):
        t = np.clip(t, self.knots[0], self.knots[-1])
        j = np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0,
                    len(self.knots) - 2)
        lam = (t - self.knots[j]) / (self.knots[j + 1] - self.knots[j])
        return (1 - lam) * self.paths[:, j, :] + lam * self.paths[:, j + 1, :], j

    def _witness(self, pts, t):
        pos, j = self.positions_at(t)
        out = np.full_like(pts, np.nan)
        for q in range(pts.shape[0]):
            d = np.linalg.norm(pos - pts[q], axis=1)
            e = int(np.argmin(d))
            if d[e] <= self.match_tol:
                out[q] = self._vels[e, min(j, self._vels.shape[1] - 1)]
        return out

    def _eval(self, pts, t):
        w = self._witness(pts, t)
        miss = np.isnan(w[:, 0])
        if np.any(miss):
            w[miss] = self.base.evaluate(pts[miss], t)
        return w

    def _ctrl(self, pts, t):
        w = self._witness(pts, t)
        miss = np.isnan(w[:, 0])
        w[~miss] -= self.base.evaluate(pts[~miss], t)
        w[miss] = 0.0
        return w


# ---------------------------------------------------------------------------
# five-phase composition helpers
# ---------------------------------------------------------------------------

@dataclass
class ControllerResult:
    schedule: ControlSchedule
    trajectory: Trajectory
    report: dict


def _largest_free_box(omega: Region, omega0: Region, shrink_frac=0.15) -> Region:
    """Largest axis-aligned slab of a box omega avoiding the box omega0."""
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
    half = 0.5 * (hi - lo) * (1.0 - shrink_frac)
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


class MovingFrameGridField(TimeField):
    """Grid control conjugated into a frame that tracks the two clouds.

    The moving-cell field lives in normalized coordinates where each cloud
    fills the unit box; the frame origin interpolates linearly and the frame
    scale geometrically between the two cloud boxes, so strongly squeezed
    clouds (the funnel output) still present the cell construction with
    order-one geometry. The world control is gated to a static region inside
    the storage hypercube.

    The world field's literal Lipschitz constant is dominated by the cell
    falloff bands, whose world width shrinks with the frame; stepping by it
    would be hopeless. Inside the gate core the conjugation is exact
    (pulled back, the field IS the normalized one), so ``advect`` moves core
    particles in normalized coordinates and integrates only the outside ones
    in world coordinates, where the field is mild. In normalized coordinates
    the moving cells are invariant (see ``GridControlField``), so core
    particles inside a cell move in closed form, and only those in the cell
    margins are integrated, with the normalized field's step.
    """

    def __init__(self, inner: GridControlField, v: TimeField, o0, s0, o1, s1,
                 t0, t1, gate_core: Region, band: float):
        self.inner = inner
        self.v = v
        self.o0 = np.asarray(o0, dtype=float)
        self.o1 = np.asarray(o1, dtype=float)
        self.s0 = np.asarray(s0, dtype=float)
        self.s1 = np.asarray(s1, dtype=float)
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.gate_core = gate_core
        self.band = float(band)
        self._gate = _blend_factor(gate_core, band)
        self._log_ratio = np.log(self.s1 / self.s0)
        span = self.t1 - self.t0
        drift_lip = float(np.max(np.abs(self._log_ratio))) / span
        sup = (inner.sup_bound * float(np.max(np.maximum(self.s0, self.s1)))
               + float(np.linalg.norm((self.o1 - self.o0) / span))
               + v.sup_bound)
        ratio = float(max(np.max(self.s0) / np.min(self.s0),
                          np.max(self.s1) / np.min(self.s1),
                          np.max(self.s1) / np.min(self.s0),
                          np.max(self.s0) / np.min(self.s1)))
        lip = inner.lipschitz_bound * ratio + drift_lip + \
            (sup + v.sup_bound) * 1.875 / band + v.lipschitz_bound
        super().__init__(self._eval, inner.dim, lipschitz_bound=lip,
                         sup_bound=sup, support_region=gate_core.inflate(band),
                         time_domain=(t0, t1), label="grid_frame",
                         control_fn=self._ctrl,
                         descriptor={"kind": "grid_frame",
                                     "inner": inner.descriptor,
                                     "o0": self.o0.tolist(), "s0": self.s0.tolist(),
                                     "o1": self.o1.tolist(), "s1": self.s1.tolist(),
                                     "gate": gate_core.to_dict(), "band": band})
        # the mild bound away from the cell margins, used for the world-side
        # integration of particles that never enter the gate core
        self.outer_lipschitz = drift_lip + \
            (sup + v.sup_bound) * 1.875 / band + v.lipschitz_bound

    def frame(self, t):
        span = self.t1 - self.t0
        tau = min(max((t - self.t0) / span, 0.0), 1.0)
        s = self.s0 * np.exp(tau * self._log_ratio)
        o = self.o0 + tau * (self.o1 - self.o0)
        odot = (self.o1 - self.o0) / span
        sdot = s * self._log_ratio / span
        return o, s, odot, sdot

    def world_grid_velocity(self, pts, t):
        o, s, odot, sdot = self.frame(t)
        y = (np.atleast_2d(pts) - o) / s
        return odot + sdot * y + s * self.inner.evaluate(y, t - self.t0)

    def _eval(self, pts, t):
        g = self._gate(pts)[:, None]
        return (g * self.world_grid_velocity(pts, t)
                + (1.0 - g) * self.v.evaluate(pts, t))

    def _ctrl(self, pts, t):
        g = self._gate(pts)[:, None]
        return g * (self.world_grid_velocity(pts, t) - self.v.evaluate(pts, t))

    def advect(self, mu: ParticleMeasure, ta: float, tb: float,
               tol: float) -> tuple[ParticleMeasure, int]:
        """Flow of this field, via the exact conjugation for core particles.

        Returns the pushed measure and the number of particles moved in
        closed form (core particles inside a moving cell at ta).
        """
        core = self.gate_core.contains(mu.positions)
        pos = mu.positions.copy()
        moved = 0
        if np.any(core):
            o_a, s_a, _, _ = self.frame(ta)
            o_b, s_b, _, _ = self.frame(tb)
            y = (pos[core] - o_a) / s_a
            in_cell, images = self.inner.cell_flow(y, ta - self.t0,
                                                   tb - self.t0)
            y[in_cell] = images
            moved = int(np.sum(in_cell))
            inner_shifted = TimeField(
                lambda p, t: self.inner.evaluate(p, t),
                self.dim, self.inner.lipschitz_bound, self.inner.sup_bound,
                label="grid_norm")
            y[~in_cell] = _integrate_batch_local(inner_shifted, y[~in_cell],
                                                 ta - self.t0, tb - self.t0, tol)
            pos[core] = o_b + s_b * y
        if np.any(~core):
            outer_field = TimeField(self._eval, self.dim,
                                    lipschitz_bound=self.outer_lipschitz,
                                    sup_bound=self.sup_bound,
                                    label="grid_frame_outer")
            pos[~core] = _integrate_batch_local(outer_field, pos[~core],
                                                ta, tb, tol)
            inside_after = self.gate_core.contains(pos[~core])
            if np.any(inside_after):
                warnings.warn("a particle outside the gate core drifted into "
                              "it during the grid phase; its step control "
                              "used the mild outer bound", stacklevel=2)
        return ParticleMeasure(pos, mu.weights, mu.tags), moved


def _shift_time(field: TimeField, offset: float) -> TimeField:
    """The same field with its clock started at ``offset`` (segment-local
    fields in a schedule)."""
    fld = TimeField(lambda pts, t: field.evaluate(pts, t - offset),
                    field.dim, field.lipschitz_bound, field.sup_bound,
                    support_region=field.support_region, label=field.label,
                    control_fn=lambda pts, t: field.control_part(pts, t - offset),
                    descriptor=field.descriptor)
    return fld


def _sample_sup_v(v: TimeField, bbox_lo, bbox_hi, seed=0, n=4096) -> float:
    if np.isfinite(v.sup_bound):
        return v.sup_bound
    rng = np.random.default_rng(seed)
    pts = bbox_lo + (bbox_hi - bbox_lo) * rng.random((n, len(bbox_lo)))
    return float(np.max(np.linalg.norm(v.evaluate(pts, 0.0), axis=1)))


def _escalate_storage(v: TimeField, omega0: Region, mu: ParticleMeasure,
                      horizon: float, mass_target: float, tol: float,
                      k_cap: int = STORAGE_K_CAP):
    """Double the cutoff index until the mass left outside omega0 at the end
    of the storage phase is at most mass_target."""
    k = 2
    while 1.0 / k >= omega0.inradius():
        k *= 2
    while k <= k_cap:
        total = storage_total(v, omega0, k)
        state = flow_push(total, mu, 0.0, horizon, tol)
        outside = ~omega0.contains(state.positions)
        stray = float(np.sum(state.weights[outside]))
        if stray <= mass_target + 1e-15:
            return total, k, state, outside
        k *= 2
    raise RuntimeError(
        f"storage cutoff escalation exceeded {k_cap} with stray mass {stray:.3g} "
        f"> target {mass_target:.3g}")


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


def _choose_n(epsilon: float, lip_back: float, back_span: float,
              count: int, n_override=None):
    """Smallest n meeting the contraction-compensated grid target, capped by
    the resolution the particle count supports."""
    n_cap = max(3, min(64, int(math.isqrt(max(count, 9) // 25))))
    if n_override is not None:
        return int(n_override), None, True
    exponent = min(2.0 * lip_back * back_span, 700.0)
    target = epsilon / (2.0 * math.exp(exponent))
    for n in range(3, n_cap + 1):
        if grid_error_bound(n) <= target:
            return n, target, True
    return n_cap, target, False


def approx_controller(scenario, epsilon: float | None = None) -> ControllerResult:
    """Five-phase Lipschitz control: storage, funnel, grid, and the time
    reversals of a funnel and a storage synthesized on the reversed drift.

    Tags an untouched particle set of mass eps/(2 d Rbar) on each side,
    pushes the particles through the phases one at a time (the backward
    storage and funnel on the target side, the forward ones, the grid, then
    the reversals) and reports the measured transport error against the
    target. Particles inside a funnel's core or a moving grid cell move
    along their closed-form characteristics; the rest are integrated.
    """
    from .scenarios import Scenario

    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    epsilon = float(epsilon if epsilon is not None else scenario.params["epsilon"])
    tol = float(scenario.params.get("tol", 1e-6))
    delta = float(scenario.params["delta"])
    v = scenario.velocity_field()
    omega = scenario.omega_region()
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    horizon = float(scenario.params.get("horizon", 20.0))

    cond = check_geometric_condition(v, mu0, mu1, omega, horizon, tol)
    # token minimum lengths keep every segment well-posed when a support
    # already sits inside the control region
    t1 = max(cond.T0star, 1e-3)
    t_back_store = max(cond.T1star, 1e-3)
    t2 = t1 + delta / 3.0
    t3 = t1 + 2.0 * delta / 3.0
    t4 = t1 + delta
    t5 = t4 + t_back_store
    times = {"T0": 0.0, "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5}

    lo0, hi0 = mu0.support_bbox()
    lo1, hi1 = mu1.support_bbox()
    edge = float(np.max(np.maximum(hi0, hi1) - np.minimum(lo0, lo1)))
    sup_v = _sample_sup_v(v, np.minimum(lo0, lo1) - 1.0, np.maximum(hi0, hi1) + 1.0)
    rbar = edge + t5 * sup_v
    eps_mass = epsilon / (2.0 * mu0.dim * rbar)

    s_box, s0, omega1, gap = _place_sets(omega, cond.omega0)

    # phase 1 forward: storage along v
    store_fwd, k_fwd, state1_all, stray_fwd = _escalate_storage(
        v, cond.omega0, mu0, t1, eps_mass, tol)
    depth_fwd = cond.omega0.depth(state1_all.positions)
    tag_fwd = _select_untouched(state1_all, stray_fwd, depth_fwd, eps_mass)
    tags0 = np.where(tag_fwd, "untouched", "").astype(object)
    mu0_tagged = mu0.with_tags(tags0)
    state1 = state1_all.with_tags(tags0)

    # backward lane on the reversed drift
    v_back = v.negated()
    store_back, k_back, back1_all, stray_back = _escalate_storage(
        v_back, cond.omega0, mu1, t_back_store, eps_mass, tol)
    depth_back = cond.omega0.depth(back1_all.positions)
    tag_back = _select_untouched(back1_all, stray_back, depth_back, eps_mass)
    tags1 = np.where(tag_back, "untouched", "").astype(object)
    mu1_tagged = mu1.with_tags(tags1)
    back1 = back1_all.with_tags(tags1)

    # phase 2 on each lane: a straight-line funnel into s0 (omega1 is a box;
    # the affine similarity keeps the cloud shape, so the grid phase sees
    # well-conditioned quantiles)
    def cloud_box_of(cloud):
        lo, hi = cloud.support_bbox()
        pad = 0.01 * np.maximum(hi - lo, 1e-9)
        return Region.box(lo - pad, hi + pad)

    fun_back = affine_funnel_total(
        v_back, omega1, cloud_box_of(back1.subset(~tag_back)), s0,
        t4 - t3, blend_band=0.45 * gap)
    back2_all, cf_back = _push_funnel(fun_back, fun_back, back1, 0.0,
                                      t4 - t3, tol)
    grid_target_cloud = back2_all.subset(~tag_back)
    if not np.all(s0.contains(grid_target_cloud.positions)):
        raise RuntimeError("backward funnel failed to reach the storage cube")

    fun_fwd = affine_funnel_total(
        v, omega1, cloud_box_of(state1.subset(~tag_fwd)), s0,
        t2 - t1, blend_band=0.45 * gap)
    state2_all, cf_fwd = _push_funnel(fun_fwd, fun_fwd, state1, 0.0,
                                      t2 - t1, tol)
    grid_source_cloud = state2_all.subset(~tag_fwd)
    if not np.all(s0.contains(grid_source_cloud.positions)):
        raise RuntimeError("forward funnel failed to reach the storage cube")

    # phase 3: grid control between the two parked clouds, in normalized
    # coordinates of a box inside S
    n, n_target, n_met = _choose_n(
        epsilon,
        max(fun_back.lipschitz_bound, store_back.lipschitz_bound),
        t5 - t3, len(grid_source_cloud), scenario.params.get("n"))

    def cloud_frame(cloud):
        lo, hi = cloud.support_bbox()
        span = np.maximum(hi - lo, 1e-13)
        return lo - 0.02 * span, 1.04 * span

    o0, s0n = cloud_frame(grid_source_cloud)
    o1, s1n = cloud_frame(grid_target_cloud)
    norm_src = ParticleMeasure((grid_source_cloud.positions - o0) / s0n,
                               grid_source_cloud.weights)
    norm_tgt = ParticleMeasure((grid_target_cloud.positions - o1) / s1n,
                               grid_target_cloud.weights)
    while True:
        try:
            part_src, part_tgt = quantile_partition(norm_src.normalized(),
                                                    norm_tgt.normalized(), n)
            break
        except ValueError:
            # empirical resolution insufficient for this mesh; coarsen
            if scenario.params.get("n") is not None or n <= 3:
                raise
            n -= 1
    grid_norm = grid_control(part_src, part_tgt, t3 - t2)
    pad = 0.25
    hull_lo = np.minimum(o0 - pad * s0n, o1 - pad * s1n)
    hull_hi = np.maximum(o0 + (1 + pad) * s0n, o1 + (1 + pad) * s1n)
    room = float(np.min(np.minimum(hull_lo - s_box.lo, s_box.hi - hull_hi)))
    if room <= 0:
        raise RuntimeError("parked clouds leave no gating room inside S")
    gate_region = Region.box(hull_lo - room / 3, hull_hi + room / 3)
    grid_total = MovingFrameGridField(grid_norm, v, o0, s0n, o1, s1n,
                                      t2, t3, gate_region, band=room / 3)
    state3_all, cf_grid = grid_total.advect(state2_all, t2, t3, tol)

    # phases 4 and 5: time reversals of the backward synthesis. Reversing a
    # time-dependent segment of length D maps the field w to -w(x, D - t).
    def rev_shifted(fld, duration, offset, descriptor):
        def rev_fn(pts, t):
            return -fld.evaluate(pts, duration - (t - offset))

        return TimeField(rev_fn, fld.dim, fld.lipschitz_bound, fld.sup_bound,
                         support_region=fld.support_region,
                         label=f"rev({fld.label})",
                         control_fn=lambda pts, t: rev_fn(pts, t) - v.evaluate(pts, t),
                         descriptor=descriptor)

    fun_rev = rev_shifted(fun_back, t4 - t3, t3,
                          {"kind": "funnel_reversed",
                           "inner": fun_back.descriptor})
    store_rev = store_back.negated()
    store_rev.control_fn = lambda pts, t: store_rev.evaluate(pts, t) - v.evaluate(pts, t)
    store_rev.descriptor = {"kind": "storage_reversed",
                            "inner": store_back.descriptor}
    state4_all, cf_rev = _push_funnel(fun_rev, fun_back, state3_all, t3, t4,
                                      tol, reverse=True)
    state5_all = flow_push(store_rev, state4_all, t4, t5, tol)

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

    w1 = subsampled_w1(state5_all.with_tags(None), mu1.with_tags(None),
                       seed=int(scenario.params.get("seed", 0)))
    report = {
        "mode": "approx",
        "epsilon": epsilon,
        "final_w1": w1,
        "times": times,
        "T0star": cond.T0star,
        "T1star": cond.T1star,
        "storage_k": {"forward": k_fwd, "backward": k_back},
        "funnel": {"forward_ratios": fun_fwd.ratios.tolist(),
                   "backward_ratios": fun_back.ratios.tolist(),
                   "backward_expansion": fun_back.expansion},
        "grid_n": n,
        "grid_bound": grid_error_bound(n),
        "grid_bound_target": n_target,
        "grid_bound_met": n_met,
        "untouched": {
            "target_mass": eps_mass,
            "rbar": rbar,
            "tagged_mass_source": float(np.sum(state1_all.weights[tag_fwd])),
            "tagged_mass_target": float(np.sum(back1_all.weights[tag_back])),
            "count_source": int(np.sum(tag_fwd)),
            "count_target": int(np.sum(tag_back)),
        },
        "mass_total": state5_all.total_mass(),
        "closed_form": {
            name: {"count": count, "total": len(mu)}
            for name, count, mu in (("funnel_forward", cf_fwd, state1),
                                    ("funnel_backward", cf_back, back1),
                                    ("grid", cf_grid, state2_all),
                                    ("funnel_reversed", cf_rev, state3_all))},
        "regions": {"omega0": cond.omega0.to_dict(), "S": s_box.to_dict(),
                    "S0": s0.to_dict(), "omega1": omega1.to_dict()},
    }
    return ControllerResult(schedule, traj, report)


# ---------------------------------------------------------------------------
# exact controller (stopped flows + geodesic, per-atom witness)
# ---------------------------------------------------------------------------

def _resample_path(knots, path, new_knots):
    out = np.empty((len(new_knots), path.shape[1]))
    for a in range(path.shape[1]):
        out[:, a] = np.interp(new_knots, knots, path[:, a])
    return out


def _uniform_paths(pts, end, knots, raw, horizon, n_knots=33):
    """Recorded stopped-flow polylines resampled on a uniform knot grid over
    [0, horizon], with exact start and end points (past its last recorded
    knot a path stays where it parked)."""
    new_knots = np.linspace(0.0, horizon, n_knots)
    paths = np.stack([_resample_path(knots, raw[e], new_knots)
                      for e in range(raw.shape[0])])
    paths[:, 0, :] = pts
    paths[:, -1, :] = end
    return new_knots, paths


def _stopped_paths(field, stop_region, pts, horizon, tol):
    """Stopped-flow paths resampled on a uniform knot grid, exact endpoints."""
    end, hits, knots, raw = stopped_flow_batch(field, stop_region, pts, 0.0,
                                               horizon, tol, record=True)
    if np.any(np.isnan(hits)):
        bad = int(np.flatnonzero(np.isnan(hits))[0])
        raise RuntimeError(f"point {pts[bad].tolist()} failed to reach the "
                           "stop region; escalate first")
    new_knots, paths = _uniform_paths(pts, end, knots, raw, horizon)
    return end, hits, new_knots, paths


def _escalate_exact_funnel(v, omega1, s0, delta, pts, tol, blend_band):
    """Gain and parked paths of the exact funnel: total field k grad(eta)
    inside omega1, blended into v outside it; points freeze at first entry
    into s0. Returns ``(k, endpoints, hit_times, knots, paths)`` with every
    hit time at most 0.9 delta.

    The blend factor is 1 inside omega1, and ascent lines of eta started in
    omega1 stay there, so along every path the field is exactly k grad(eta)
    and the gain-k flow is the k = 1 flow with time divided by k. One
    recorded k = 1 run therefore gives the largest hitting time tau, the
    gain k = 2^ceil(log2(tau / 0.9 delta)) and, with its knot times divided
    by k, the gain-k paths. The name dates from the gain-doubling search
    this replaced; callers and tooling still look it up by that name.
    """
    eta, _, kappa1 = weight_eta(omega1, s0)
    blend = _blend_factor(omega1, blend_band)
    grad_lip = _eta_grad_lipschitz(eta, omega1)
    shell = _layer_max_grad(eta, omega1, blend_band)

    def total(p, t):
        b = blend(p)[:, None]
        return b * eta.gradient(p) + (1.0 - b) * v.evaluate(p, t)

    ascent = TimeField(total, v.dim,
                       lipschitz_bound=grad_lip + v.lipschitz_bound
                       + (shell + v.sup_bound) * 1.875 / blend_band,
                       sup_bound=kappa1 + v.sup_bound, label="exact_funnel_k1",
                       descriptor={"kind": "funnel_exact", "k": 1})
    end, hits, knots, raw = stopped_flow_batch(ascent, s0, pts, 0.0,
                                               512.0 * delta, tol, record=True)
    if np.any(np.isnan(hits)):
        raise RuntimeError("funnel probe found stranded points; the geometry "
                           "likely violates s0 strictly inside omega1")
    tau_max = float(np.max(hits))
    k = max(1, 2 ** math.ceil(math.log2(max(tau_max, 1e-12) / (0.9 * delta))))
    new_knots, paths = _uniform_paths(pts, end, knots / k, raw, delta)
    return k, end, hits / k, new_knots, paths


def exact_controller(scenario) -> ControllerResult:
    """Atom-exact steering: park along the drift, funnel-park into S0, ride
    the quadratic-cost geodesic, then replay the target-side construction
    backwards. The composite control is stored as a per-plan-entry witness.
    """
    from .scenarios import Scenario

    if isinstance(scenario, dict):
        scenario = Scenario.from_dict(scenario)
    tol = float(scenario.params.get("tol", 1e-6))
    delta = float(scenario.params["delta"])
    v = scenario.velocity_field()
    omega = scenario.omega_region()
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    horizon = float(scenario.params.get("horizon", 20.0))

    cond = check_geometric_condition(v, mu0, mu1, omega, horizon, tol)
    t1 = max(cond.T0star, 1e-3)
    t_back = max(cond.T1star, 1e-3)
    t2 = t1 + delta / 3.0
    t3 = t1 + 2.0 * delta / 3.0
    t4 = t1 + delta
    t5 = t4 + t_back
    s_box, s0, omega1, gap = _place_sets(omega, cond.omega0)
    band = 0.45 * gap

    # forward lane: park in omega0, then funnel-park into s0
    _, _, knots1, paths1 = _stopped_paths(v, cond.omega0, mu0.positions, t1, tol)
    fwd_parked = paths1[:, -1, :]
    k_fun_fwd, fwd_in_s0, _, knots2, paths2 = _escalate_exact_funnel(
        v, omega1, s0, t2 - t1, fwd_parked, tol, band)

    # backward lane on the reversed drift, recorded for replay
    v_back = v.negated()
    _, _, knots5, paths5 = _stopped_paths(v_back, cond.omega0, mu1.positions,
                                          t_back, tol)
    back_parked = paths5[:, -1, :]
    k_fun_back, back_in_s0, _, knots4, paths4 = _escalate_exact_funnel(
        v_back, omega1, s0, t4 - t3, back_parked, tol, band)

    # geodesic plan between the parked clouds
    src_cloud = ParticleMeasure(fwd_in_s0, mu0.weights)
    tgt_cloud = ParticleMeasure(back_in_s0, mu1.weights)
    _, plan = wp_discrete(src_cloud, tgt_cloud, p=2)
    e_src = plan.src_idx
    e_tgt = plan.tgt_idx

    # per-entry composite paths over [0, T5]
    seg_knots = [knots1 + 0.0, t1 + knots2, np.array([t2, t3]),
                 t3 + (knots4[-1] - knots4[::-1]), t4 + (knots5[-1] - knots5[::-1])]
    seg_paths = [paths1[e_src], paths2[e_src],
                 np.stack([fwd_in_s0[e_src], back_in_s0[e_tgt]], axis=1),
                 paths4[e_tgt][:, ::-1, :], paths5[e_tgt][:, ::-1, :]]
    knit_times = []
    knit_paths = []
    for kt, kp in zip(seg_knots, seg_paths):
        if knit_times:
            kt = kt[1:]
            kp = kp[:, 1:, :]
        knit_times.append(kt)
        knit_paths.append(kp)
    all_knots = np.concatenate(knit_times)
    all_paths = np.concatenate(knit_paths, axis=1)

    witness_segments = []
    labels = ["storage", "funnel", "geodesic", "funnel", "storage"]
    bounds = [0.0, t1, t2, t3, t4, t5]
    descriptors = [
        {"kind": "stopped_drift", "omega0": cond.omega0.to_dict()},
        {"kind": "funnel_exact", "k": k_fun_fwd, "s0": s0.to_dict()},
        {"kind": "geodesic", "entries": len(plan.mass)},
        {"kind": "funnel_exact_reversed", "k": k_fun_back},
        {"kind": "stopped_drift_reversed"},
    ]
    for label, lo, hi, desc in zip(labels, bounds[:-1], bounds[1:], descriptors):
        keep = (all_knots >= lo - 1e-12) & (all_knots <= hi + 1e-12)
        wf = ParticleWitnessField(all_knots[keep], all_paths[:, keep, :], v,
                                  label=f"witness_{label}", descriptor=desc)
        witness_segments.append(ControlSegment(lo, hi, wf, label))
    schedule = ControlSchedule(witness_segments)

    snap_times = np.unique(np.concatenate([
        np.array(bounds), np.linspace(0.0, t5, 21)]))
    entry_w = plan.mass
    states = []
    for t in snap_times:
        j = np.clip(np.searchsorted(all_knots, t, side="right") - 1, 0,
                    len(all_knots) - 2)
        lam = 0.0 if all_knots[j + 1] == all_knots[j] else (
            (t - all_knots[j]) / (all_knots[j + 1] - all_knots[j]))
        pos = (1 - lam) * all_paths[:, j, :] + lam * all_paths[:, j + 1, :]
        states.append(ParticleMeasure(pos, entry_w))
    traj = Trajectory(snap_times, states, field_ref=schedule,
                      meta={"mode": "exact", "plan_entries": len(plan.mass)})
    traj.plan = plan

    final = states[-1].merged_coincident()
    final_w1, _ = wp_discrete(final, mu1, p=1)
    report = {
        "mode": "exact",
        "final_w1": {"estimate": final_w1, "method": "exact"},
        "times": {"T0": 0.0, "T1": t1, "T2": t2, "T3": t3, "T4": t4, "T5": t5},
        "T0star": cond.T0star,
        "T1star": cond.T1star,
        "funnel_k": {"forward": k_fun_fwd, "backward": k_fun_back},
        "plan_entries": int(len(plan.mass)),
        "mass_total": states[-1].total_mass(),
        "regions": {"omega0": cond.omega0.to_dict(), "S": s_box.to_dict(),
                    "S0": s0.to_dict(), "omega1": omega1.to_dict()},
    }
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
