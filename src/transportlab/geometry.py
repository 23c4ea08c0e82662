"""Regions, the closed-form flow of the storage cutoff, and the
geometric-condition checker.

A region is an axis-aligned box: the control region omega and every set
the controllers place inside it (omega0, S, S0, omega1) are boxes, and a
box's signed distance, excess, depth and containment are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import TimeField, stopped_flow_batch

__all__ = [
    "Region",
    "cutoff_flow",
    "check_geometric_condition",
    "GeometricCondition",
    "ConditionFailure",
]


class Region:
    """Axis-aligned box [lo, hi]."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float).reshape(-1)
        self.hi = np.asarray(hi, dtype=float).reshape(-1)
        if not np.all(self.hi > self.lo):
            raise ValueError("box must have positive extent")
        self.dim = len(self.lo)
        self._center = 0.5 * (self.lo + self.hi)
        self._half = 0.5 * (self.hi - self.lo)

    @classmethod
    def box(cls, lo, hi):
        return cls(lo, hi)

    # -- geometry -----------------------------------------------------------
    #
    # A box's excess q = |p - c| - h has one short row of d coordinates per
    # point, and a numpy reduction over that axis costs more in call
    # overhead than in arithmetic: the largest excess is taken as d - 1
    # elementwise maxima over columns instead, which is exact in any order.
    # Inside the box (largest excess <= 0) the outside norm is exactly 0,
    # and outside it the depth is 0 either way, so ``contains`` and
    # ``depth`` need the largest excess alone. The outside norm keeps its
    # ``np.add.reduce`` over the axis: a left fold over the columns rounds
    # differently for d >= 3.
    def _box_excess(self, pts):
        """Per-axis excess q of every point over the box, and its largest
        entry per point."""
        q = np.abs(np.atleast_2d(np.asarray(pts, dtype=float))
                   - self._center) - self._half
        most = q[:, 0]
        for a in range(1, self.dim):
            most = np.maximum(most, q[:, a])
        return q, most

    def signed_distance(self, pts):
        """Negative inside, positive outside, zero on the boundary."""
        q, most = self._box_excess(pts)
        outside = np.maximum(q, 0.0)
        return (np.sqrt(np.add.reduce(outside * outside, axis=1))
                + np.minimum(most, 0.0))

    def excess(self, pts):
        """The box's L-infinity signed distance: a point's largest excess
        over the box on any axis. The box grown by r is where it is <= r."""
        return self._box_excess(pts)[1]

    def contains(self, pts):
        return self.excess(pts) <= 0.0

    def depth(self, pts):
        """Distance to the complement: max(-sdf, 0)."""
        return np.maximum(-self.excess(pts), 0.0)

    def shrink(self, r):
        """The box of the points at depth >= r."""
        if r < 0:
            raise ValueError("shrink margin must be nonnegative")
        if r == 0:
            return self
        if np.any(self.hi - self.lo <= 2 * r):
            raise ValueError("shrink margin exceeds the box half-extent")
        return Region.box(self.lo + r, self.hi - r)

    def inradius(self) -> float:
        return float(np.min(self.hi - self.lo) / 2)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": "box", "lo": self.lo.tolist(), "hi": self.hi.tolist()}

    @classmethod
    def from_dict(cls, data) -> "Region":
        kind = data["kind"]
        if kind != "box":
            raise ValueError(f"unknown region kind {kind!r}: the control "
                             "region is a box")
        return cls.box(data["lo"], data["hi"])

    def __repr__(self):
        return f"Region({self.to_dict()})"


def _smootherstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))


def _smootherstep_d(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u ** 2 * (1.0 - u) ** 2, 0.0)


# 1 - S(z) = (1 - z)^3 (6 z^2 + 3 z + 1) for the quintic ramp S, so the
# time 1 / (1 - S) integrates in closed form; _RAMP_ATAN is 27 / (40 sqrt 15)
_SQRT15 = math.sqrt(15.0)
_RAMP_ATAN = 27.0 / (40.0 * _SQRT15)

# bisection passes that invert the time spent on a sloped piece: they
# narrow its bracket to 2^-60 of the piece
_INVERT_PASSES = 60


def _ramp_time(w):
    """G(w), the integral of dz / (1 - S(z)) over [0, w], for w in [0, 1]:
    infinite at 1, and written without cancellation near 0, where G ~ w."""
    with np.errstate(divide="ignore"):
        r = 1.0 / (1.0 - w)
        return (w * (2.0 - w) * r * r / 20.0 + 0.15 * w * r
                - 0.165 * np.log1p(-w) + 0.0825 * np.log1p(w * (3.0 + 6.0 * w))
                + _RAMP_ATAN * np.arctan(_SQRT15 * w / (2.0 + 3.0 * w)))


def cutoff_flow(omega0: Region, k: int, drift):
    """Exact flow map of x' = (1 - S(k depth(x))) b, the storage field
    (``synth.storage_total``) under a constant drift b, for a box omega0
    and the quintic ramp S: ``flow_map(points, t0, t1)`` (see
    ``TimeField``), certifying every row. Run backwards, it is the same map
    for -b.

    A path keeps to its streamline x0 + s b; the cutoff only slows its
    clock, ds/dt = 1 - S(k depth). Along the line the depth in omega0 is
    max(0, min_f (alpha_f + beta_f s)) over the box's 2d faces, linear
    between the crossings of each pair of those lines and of the zero line
    (lines of equal slope, such as the faces of an axis with b_a = 0, do
    not cross). A piece takes the time ds outside omega0, ds / (1 - S(k
    depth)) where it is flat, and [G(k depth_end) - G(k depth_start)] /
    (k beta) where its slope is beta (G is ``_ramp_time``), infinite once
    k depth reaches 1. The map walks the pieces until the duration is used
    up and solves for s on the last one: in closed form, or by bisection
    on a sloped piece. A zero drift returns the points unchanged, and so
    does a point at k depth >= 1."""
    drift = np.asarray(drift, dtype=float).reshape(-1)
    lo, hi = omega0.lo, omega0.hi

    def flow_map(x0, t0, t1):
        x0 = np.array(x0, dtype=np.float64)
        n = len(x0)
        certified = np.ones(n, dtype=bool)
        b, duration = (drift, t1 - t0) if t1 >= t0 else (-drift, t0 - t1)
        if not b.any() or duration == 0 or n == 0:
            return x0, certified
        slope = np.concatenate([b, -b, [0.0]])
        i, j = np.triu_indices(len(slope), 1)
        crossing = slope[i] != slope[j]
        i, j = i[crossing], j[crossing]
        alpha = np.concatenate([x0 - lo, hi - x0, np.zeros((n, 1))], axis=1)
        with np.errstate(all="ignore"):
            cut = (alpha[:, j] - alpha[:, i]) / (slope[i] - slope[j])
            cut = np.sort(np.where(cut > 0, cut, np.inf), axis=1)
            start = np.concatenate([np.zeros((n, 1)), cut], axis=1)
            stop = np.concatenate([cut, np.full((n, 1), np.inf)], axis=1)
            # the face under the depth on each piece, read at its midpoint
            mid = np.where(np.isfinite(stop), 0.5 * (start + stop),
                           start + 1.0)
            faces = alpha[:, None, :-1] + slope[:-1] * mid[..., None]
            face = np.argmin(faces, axis=2)
            inside = np.min(faces, axis=2) > 0
            base = np.take_along_axis(alpha, face, axis=1)
            beta = np.where(inside, slope[face], 0.0)
            w0 = np.clip(k * np.where(inside, base + beta * start, 0.0),
                         0.0, 1.0)
            w1 = np.clip(k * (base + beta * stop), 0.0, 1.0)
            span = stop - start
            cost = np.where(~inside, span, np.where(
                beta == 0, span / (1.0 - _smootherstep(w0)),
                (_ramp_time(w1) - _ramp_time(w0)) / (k * beta)))
            cost[np.isnan(cost)] = np.inf
            spent = np.cumsum(cost, axis=1)
        piece = np.argmax(spent >= duration, axis=1)
        at = (np.arange(n), piece)
        left = duration - np.where(piece > 0, spent[at[0], piece - 1], 0.0)
        s0, a, bt, w = start[at], base[at], beta[at], w0[at]
        s = s0 + np.where(inside[at], left * (1.0 - _smootherstep(w)), left)
        sloped = np.flatnonzero(inside[at] & (bt != 0) & (w < 1.0))
        if sloped.size:
            s_lo, a, bt, left = s0[sloped], a[sloped], bt[sloped], left[sloped]
            g0 = _ramp_time(w[sloped])
            s_hi = stop[at][sloped]
            # an ascending piece ends, at the latest, at depth 1/k
            s_hi = np.where(bt > 0, np.minimum(s_hi, (1.0 / k - a) / bt), s_hi)
            for _ in range(_INVERT_PASSES):
                s_mid = 0.5 * (s_lo + s_hi)
                w_mid = np.clip(k * (a + bt * s_mid), 0.0, 1.0)
                short = (_ramp_time(w_mid) - g0) / (k * bt) < left
                s_lo = np.where(short, s_mid, s_lo)
                s_hi = np.where(short, s_hi, s_mid)
            s[sloped] = 0.5 * (s_lo + s_hi)
        # a point at k depth >= 1 spends its whole duration on its first
        # piece, at s = 0
        return x0 + s[:, None] * b, certified

    return flow_map


# ---------------------------------------------------------------------------
# geometric condition
# ---------------------------------------------------------------------------

@dataclass
class GeometricCondition:
    """The crossing check's result. ``parks`` holds, per side (source along
    v, then target along -v), its stopped flow's ``(hits, entries)``: each
    particle's hit time and entry point, which lies in omega0."""
    T0star: float
    T1star: float
    omega0: Region
    margin: float
    resolution: int
    parks: tuple


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
                              horizon: float, tol: float) -> GeometricCondition:
    """Sampled crossing check: every source particle must reach omega shrunk
    by a margin of a fifth of its inradius forward in time, every target
    particle backward in time.

    Returns the worst hitting times, a compactly included storage box
    omega0 around the entry points and both flows' hits and entries
    (``parks``). Raises ConditionFailure with the first stranded particle
    otherwise. The check certifies the condition at the particle
    resolution only. ``v`` must be affine (carry its ``affine_pair``): both
    flows are ``stopped_flow_batch``'s stopped flows on its exact flow map.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if len(mu0) == 0 or len(mu1) == 0:
        raise ValueError("empty measures cannot satisfy the crossing condition")
    margin = 0.2 * omega.inradius()
    target = omega.shrink(margin)

    parks = []
    for mu, drift, side in ((mu0, v, "source"), (mu1, v.negated(), "target")):
        pts, hits = stopped_flow_batch(drift, target, mu.positions, 0.0,
                                       horizon, tol)
        if np.any(np.isnan(hits)):
            bad = int(np.flatnonzero(np.isnan(hits))[0])
            raise ConditionFailure(mu.positions[bad], side, horizon)
        parks.append((hits, pts))

    entries = np.concatenate([pts for _, pts in parks])
    lo, hi = entries.min(axis=0), entries.max(axis=0)
    # inflate so entry points sit at positive depth, then clip inside omega
    shrunk = omega.shrink(margin / 2)
    pad = margin / 4
    lo = np.maximum(lo - pad, shrunk.lo)
    hi = np.minimum(hi + pad, shrunk.hi)
    span = hi - lo
    fix = span <= 1e-9
    lo[fix] -= 1e-6
    hi[fix] += 1e-6
    omega0 = Region.box(lo, hi)
    if not np.all(shrunk.contains(np.stack([lo, hi]))):
        raise ValueError(
            "entry points cannot be covered by a box compactly inside the "
            "control region; it is too thin for its margins")
    return GeometricCondition(
        T0star=float(np.max(parks[0][0])), T1star=float(np.max(parks[1][0])),
        omega0=omega0, margin=float(margin), resolution=len(mu0) + len(mu1),
        parks=tuple(parks))
