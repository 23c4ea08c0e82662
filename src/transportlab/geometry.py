"""Regions, cutoff functions and the geometric-condition checker.

Regions are axis-aligned boxes, balls and finite unions: enough for every
control set used by the laboratory while keeping signed distances exact for
single primitives (unions use the min, exact outside and within 1e-9 of the
true value inside overlaps).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import TimeField, stopped_flow_batch

__all__ = [
    "Region",
    "ScalarField",
    "cutoff_theta",
    "weight_eta",
    "check_geometric_condition",
    "GeometricCondition",
    "ConditionFailure",
]


class Region:
    """Axis-aligned box, ball, or finite union of such."""

    def __init__(self, kind, **params):
        self.kind = kind
        if kind == "box":
            self.lo = np.asarray(params["lo"], dtype=float).reshape(-1)
            self.hi = np.asarray(params["hi"], dtype=float).reshape(-1)
            if not np.all(self.hi > self.lo):
                raise ValueError("box must have positive extent")
            self.dim = len(self.lo)
        elif kind == "ball":
            self.center = np.asarray(params["center"], dtype=float).reshape(-1)
            self.radius = float(params["radius"])
            if self.radius <= 0:
                raise ValueError("ball needs positive radius")
            self.dim = len(self.center)
        elif kind == "union":
            self.parts = list(params["parts"])
            if not self.parts:
                raise ValueError("union of nothing")
            dims = {p.dim for p in self.parts}
            if len(dims) != 1:
                raise ValueError("union members must share a dimension")
            self.dim = dims.pop()
        else:
            raise ValueError(f"unknown region kind {kind!r}")

    @classmethod
    def box(cls, lo, hi):
        return cls("box", lo=lo, hi=hi)

    @classmethod
    def ball(cls, center, radius):
        return cls("ball", center=center, radius=radius)

    @classmethod
    def union(cls, *parts):
        return cls("union", parts=list(parts))

    # -- geometry -----------------------------------------------------------
    def signed_distance(self, pts):
        """Negative inside, positive outside, zero on the boundary."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.kind == "box":
            c = 0.5 * (self.lo + self.hi)
            h = 0.5 * (self.hi - self.lo)
            q = np.abs(pts - c) - h
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
            inside = np.minimum(np.max(q, axis=1), 0.0)
            return outside + inside
        if self.kind == "ball":
            return np.linalg.norm(pts - self.center, axis=1) - self.radius
        return np.min([p.signed_distance(pts) for p in self.parts], axis=0)

    def contains(self, pts):
        return self.signed_distance(pts) <= 0.0

    def depth(self, pts):
        """Distance to the complement: max(-sdf, 0)."""
        return np.maximum(-self.signed_distance(pts), 0.0)

    def shrink(self, r):
        """A region contained in this one at depth >= r (conservative for unions)."""
        if r < 0:
            raise ValueError("shrink margin must be nonnegative")
        if r == 0:
            return self
        if self.kind == "box":
            if np.any(self.hi - self.lo <= 2 * r):
                raise ValueError("shrink margin exceeds the box half-extent")
            return Region.box(self.lo + r, self.hi - r)
        if self.kind == "ball":
            if self.radius <= r:
                raise ValueError("shrink margin exceeds the radius")
            return Region.ball(self.center, self.radius - r)
        return Region.union(*[p.shrink(r) for p in self.parts])

    def inradius(self) -> float:
        if self.kind == "box":
            return float(np.min(self.hi - self.lo) / 2)
        if self.kind == "ball":
            return self.radius
        return max(p.inradius() for p in self.parts)

    def bounding_box(self):
        if self.kind == "box":
            return self.lo.copy(), self.hi.copy()
        if self.kind == "ball":
            return self.center - self.radius, self.center + self.radius
        los, his = zip(*[p.bounding_box() for p in self.parts])
        return np.min(los, axis=0), np.max(his, axis=0)

    def center_point(self):
        if self.kind == "box":
            return 0.5 * (self.lo + self.hi)
        if self.kind == "ball":
            return self.center.copy()
        lo, hi = self.bounding_box()
        return 0.5 * (lo + hi)

    def is_convex(self) -> bool:
        return self.kind in ("box", "ball")

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}
        if self.kind == "ball":
            return {"kind": "ball", "center": self.center.tolist(),
                    "radius": self.radius}
        return {"kind": "union", "parts": [p.to_dict() for p in self.parts]}

    @classmethod
    def from_dict(cls, data) -> "Region":
        kind = data["kind"]
        if kind == "box":
            return cls.box(data["lo"], data["hi"])
        if kind == "ball":
            return cls.ball(data["center"], data["radius"])
        if kind == "union":
            return cls.union(*[cls.from_dict(p) for p in data["parts"]])
        raise ValueError(f"unknown region kind {kind!r}")

    def __repr__(self):
        return f"Region({self.to_dict()})"


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

@dataclass
class ScalarField:
    """Scalar function, with its analytic gradient where a flow ascends it
    (the weight eta)."""

    evaluate: object
    gradient: object = None


def _smootherstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def _smootherstep_d(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u ** 2 * (1.0 - u) ** 2, 0.0)


def cutoff_theta(omega0: Region, k: int) -> ScalarField:
    """Smooth cutoff: 1 outside omega0, 0 at depth >= 1/k inside it.

    Built from a quintic ramp of the depth d(x, omega0^c) scaled by k, so
    both defining plateaus hold exactly.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if 1.0 / k >= omega0.inradius():
        raise ValueError(
            f"1/k = {1.0 / k:.4g} is not below the inradius "
            f"{omega0.inradius():.4g}; the parked zone would be empty")

    def evaluate(pts):
        return 1.0 - _smootherstep(k * omega0.depth(pts))

    return ScalarField(evaluate)


# ---------------------------------------------------------------------------
# the gradient-ascent weight on omega1
# ---------------------------------------------------------------------------

def _ball_eta(omega1: Region):
    c = omega1.center
    R = omega1.radius

    def evaluate(pts):
        d = np.atleast_2d(pts) - c
        return R ** 2 - np.sum(d * d, axis=1)

    def gradient(pts):
        return -2.0 * (np.atleast_2d(pts) - c)

    return ScalarField(evaluate, gradient)


def _box_eta(omega1: Region, peak, floor_slope: float = 0.0):
    lo, hi = omega1.lo, omega1.hi
    ext = hi - lo
    u_c = np.clip((np.asarray(peak, dtype=float) - lo) / ext, 1e-3, 1 - 1e-3)
    lam = u_c / (1.0 - u_c)

    # per-axis factor g = 4 s (1 - s) with the rational warp
    # s = u / (u + lam(1-u)); the warp is a diffeomorphism of [0, 1] placing
    # the single peak at u_c. The bump is the product of the factors, and
    # its partial derivative along an axis is that axis's dg times the
    # product of the other factors: ``before`` and ``after`` hold, per axis,
    # the products of the factors before and after it.
    def _bump(pts):
        u = np.minimum(np.maximum((np.atleast_2d(pts) - lo) / ext, 0.0), 1.0)
        denom = u + lam * (1.0 - u)
        s = u / denom
        g = 4.0 * s * (1.0 - s)
        dg = 4.0 * (1.0 - 2.0 * s) * (lam / denom ** 2) / ext
        before = np.ones_like(g)
        after = np.ones_like(g)
        np.multiply.accumulate(g[:, :-1], axis=1, out=before[:, 1:])
        np.multiply.accumulate(g[:, :0:-1], axis=1, out=after[:, -2::-1])
        return before[:, -1] * g[:, -1], dg * before * after

    # eta = b (floor + b): same ascent lines as the bump b itself. With the
    # default floor 0 this is the squared bump, whose speed profile scales
    # like the distance still to travel, so crossing a distance ratio costs
    # the same log-contraction (matching the concentric-ball profile) and the
    # gradient fades toward the boundary band where the ambient blend acts.
    def evaluate(pts):
        b, _ = _bump(pts)
        return b * (floor_slope + b)

    def gradient(pts):
        b, gb = _bump(pts)
        return (floor_slope + 2.0 * b)[:, None] * gb

    return ScalarField(evaluate, gradient)


def _sample_region_difference(outer: Region, inner: Region, per_axis: int = 96):
    lo, hi = outer.bounding_box()
    axes = [np.linspace(lo[a], hi[a], per_axis, endpoint=False)
            + 0.5 * (hi[a] - lo[a]) / per_axis for a in range(outer.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    keep = outer.contains(pts) & ~inner.contains(pts)
    return pts[keep]


def weight_eta(omega1: Region, s0: Region, per_axis: int = 96):
    """Confining weight: positive inside omega1, zero on its boundary, with a
    sampled no-critical-point certificate on omega1 minus s0.

    Ball domains use the concentric quadratic profile; box domains use a
    warped tensor bump whose single interior peak sits at the center of s0.
    Returns (eta, kappa0, kappa1) with the gradient-norm bounds certified on
    the sampling grid ("verified at resolution per_axis").
    """
    if omega1.kind == "union" or s0.kind == "union":
        raise ValueError("weight construction needs primitive regions")
    inner_pts = np.atleast_2d(s0.center_point())
    if not omega1.contains(inner_pts)[0]:
        raise ValueError("s0 must sit inside omega1")

    if omega1.kind == "ball":
        eta = _ball_eta(omega1)
        peak = omega1.center
    else:
        eta = _box_eta(omega1, s0.center_point())
        peak = s0.center_point()
    if not s0.contains(np.atleast_2d(peak))[0]:
        raise ValueError(
            f"critical point detected: the weight peaks at {peak.tolist()}, "
            "outside s0")

    pts = _sample_region_difference(omega1, s0, per_axis)
    if len(pts) == 0:
        raise ValueError("no sample points between s0 and omega1")
    gnorm = np.linalg.norm(eta.gradient(pts), axis=1)
    kappa0 = float(np.min(gnorm))
    kappa1 = float(np.max(gnorm))
    if kappa0 < 1e-6:
        worst = pts[int(np.argmin(gnorm))]
        raise ValueError(
            f"critical point detected: |grad eta| = {kappa0:.3g} at "
            f"{worst.tolist()} outside s0")
    return eta, kappa0, kappa1


# ---------------------------------------------------------------------------
# geometric condition
# ---------------------------------------------------------------------------

@dataclass
class GeometricCondition:
    T0star: float
    T1star: float
    omega0: Region
    margin: float
    resolution: int


class ConditionFailure(Exception):
    """A support particle never reaches the control region within the horizon."""

    def __init__(self, point, side, horizon):
        self.point = np.asarray(point, dtype=float)
        self.side = side
        self.horizon = float(horizon)
        super().__init__(
            f"{side} support point {self.point.tolist()} does not reach the "
            f"control region within horizon {horizon:g}")

    def to_dict(self):
        return {"counterexample": self.point.tolist(), "side": self.side,
                "horizon": self.horizon}


def check_geometric_condition(v: TimeField, mu0, mu1, omega: Region,
                              horizon: float, tol: float,
                              margin: float | None = None) -> GeometricCondition:
    """Sampled crossing check: every source particle must reach a shrunken
    copy of omega forward in time, every target particle backward in time.

    Returns the worst hitting times and a compactly included storage box
    around the entry points. Raises ConditionFailure with the first stranded
    particle otherwise. The check certifies the condition at the particle
    resolution only. ``v`` must be built smooth: both flows are
    ``stopped_flow_batch``'s error-controlled stopped flows.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if len(mu0) == 0 or len(mu1) == 0:
        raise ValueError("empty measures cannot satisfy the crossing condition")
    if margin is None:
        margin = 0.2 * omega.inradius()
    target = omega.shrink(margin)

    fwd_pts, fwd_hits = stopped_flow_batch(v, target, mu0.positions, 0.0,
                                           horizon, tol)
    if np.any(np.isnan(fwd_hits)):
        bad = int(np.flatnonzero(np.isnan(fwd_hits))[0])
        raise ConditionFailure(mu0.positions[bad], "source", horizon)
    back_pts, back_hits = stopped_flow_batch(v.negated(), target, mu1.positions,
                                             0.0, horizon, tol)
    if np.any(np.isnan(back_hits)):
        bad = int(np.flatnonzero(np.isnan(back_hits))[0])
        raise ConditionFailure(mu1.positions[bad], "target", horizon)

    hits = np.concatenate([fwd_pts[fwd_hits > 0], back_pts[back_hits > 0],
                           mu0.positions[fwd_hits == 0],
                           mu1.positions[back_hits == 0]])
    lo = hits.min(axis=0)
    hi = hits.max(axis=0)
    # inflate so entry points sit at positive depth, then clip inside omega
    shrunk = omega.shrink(margin / 2)
    slo, shi = shrunk.bounding_box()
    pad = margin / 4
    lo = np.maximum(lo - pad, slo)
    hi = np.minimum(hi + pad, shi)
    span = hi - lo
    fix = span <= 1e-9
    lo[fix] -= 1e-6
    hi[fix] += 1e-6
    omega0 = Region.box(lo, hi)
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, omega.dim)
    if not np.all(shrunk.contains(corners)):
        raise ValueError(
            "entry points cannot be covered by a box compactly inside the "
            "control region; use a box-shaped control region")
    return GeometricCondition(
        T0star=float(np.max(fwd_hits)), T1star=float(np.max(back_hits)),
        omega0=omega0, margin=float(margin), resolution=len(mu0) + len(mu1))
