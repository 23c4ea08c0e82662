"""Characteristic flows of time-dependent velocity fields.

Two steppers integrate a batch of particles, all sharing one step:

- Fixed-step RK4 (``_integrate_batch``, ``flow_push``), with the step tied
  to the field's Lipschitz bound (stability step 0.1/max(L, 1)) and to the
  requested tolerance. It serves every field that is only Lipschitz,
  whose kinks defeat an error estimate: the storage and funnel blends
  (signed distances to boxes) and the piecewise-affine moving-cell grid
  field. Fields declared non-Lipschitz (the square-root splitting example)
  fall back to the tolerance step and emit a warning once per field.
- Embedded Dormand-Prince 5(4) with error control (``_dopri``), for fields
  built ``smooth=True``: the scenario drifts (zero, constant, affine,
  radial). ``stopped_flow_batch`` parks each point at its first entry into
  a region (the crossing check and the exact lane's parks), found and
  located on DOPRI5's continuous extension, which it probes at least as
  finely as fixed RK4 steps would. Its first step is ``choose_step``'s, as
  for RK4; the error estimate sets every later one.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .measure import ParticleMeasure, push_forward

__all__ = [
    "TimeField",
    "Trajectory",
    "flow_push",
    "stopped_flow_batch",
    "StoppedPaths",
]


class TimeField:
    """Velocity field w(x, t) with Lipschitz and sup-norm metadata.

    ``fn(points, t)`` maps an ``(N, d)`` array and a scalar time to ``(N, d)``
    velocities. ``control_fn``, when present, evaluates the localized control
    part of the field (total minus ambient); schedule support checks sample
    it. ``smooth`` declares the field C2 in x and t, so an embedded error
    estimate follows the error: stopped flows need it, since they step by
    Dormand-Prince 5(4).
    """

    def __init__(self, fn, dim, lipschitz_bound=0.0, sup_bound=np.inf,
                 label="", control_fn=None, non_lipschitz=False,
                 descriptor=None, smooth=False):
        self._fn = fn
        self.dim = int(dim)
        self.lipschitz_bound = float(lipschitz_bound)
        self.sup_bound = float(sup_bound)
        self.label = label
        self.control_fn = control_fn
        self.non_lipschitz = bool(non_lipschitz)
        self.smooth = bool(smooth)
        self.descriptor = descriptor or {"kind": "opaque", "label": label}
        self._warned = False

    def evaluate(self, points, t):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.asarray(self._fn(pts, float(t)), dtype=np.float64)
        if out.shape != pts.shape:
            raise ValueError(f"field {self.label!r} returned shape {out.shape} "
                             f"for input {pts.shape}")
        return out

    def control_part(self, points, t):
        if self.control_fn is None:
            return np.zeros_like(np.atleast_2d(np.asarray(points, dtype=float)))
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return np.asarray(self.control_fn(pts, float(t)), dtype=np.float64)

    def warn_if_non_lipschitz(self):
        if self.non_lipschitz and not self._warned:
            warnings.warn(f"field {self.label!r} is not Lipschitz; uniqueness of "
                          "characteristics is not guaranteed", stacklevel=3)
            self._warned = True

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, dim):
        return cls(lambda p, t: np.zeros_like(p), dim, 0.0, 0.0, label="zero",
                   descriptor={"kind": "zero"}, smooth=True)

    @classmethod
    def constant(cls, vec):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        return cls(lambda p, t: np.broadcast_to(vec, p.shape).copy(), len(vec),
                   0.0, float(np.linalg.norm(vec)), label="constant",
                   descriptor={"kind": "constant", "value": vec.tolist()},
                   smooth=True)

    @classmethod
    def affine(cls, matrix, offset):
        mat = np.asarray(matrix, dtype=float)
        off = np.asarray(offset, dtype=float).reshape(-1)
        lip = float(np.linalg.norm(mat, 2))
        return cls(lambda p, t: p @ mat.T + off, len(off), lip, np.inf,
                   label="affine",
                   descriptor={"kind": "affine", "matrix": mat.tolist(),
                               "offset": off.tolist()},
                   smooth=True)

    @classmethod
    def radial(cls, center, rate):
        c = np.asarray(center, dtype=float).reshape(-1)
        return cls(lambda p, t: rate * (p - c), len(c), abs(rate), np.inf,
                   label="radial",
                   descriptor={"kind": "radial", "center": c.tolist(), "rate": rate},
                   smooth=True)

    def negated(self):
        """-w, for reversing autonomous dynamics."""
        return TimeField(lambda p, t: -self._fn(p, t), self.dim,
                         self.lipschitz_bound, self.sup_bound,
                         label=f"-({self.label})",
                         non_lipschitz=self.non_lipschitz,
                         descriptor={"kind": "negated", "inner": self.descriptor},
                         smooth=self.smooth)


# ---------------------------------------------------------------------------
# RK4 stepping
# ---------------------------------------------------------------------------

def choose_step(field: TimeField, tol: float, span: float) -> float:
    if span <= 0:
        return 1.0
    h_tol = max(min(tol, 1.0), 1e-12) ** 0.25
    if field.non_lipschitz:
        h = min(h_tol, 0.05)
    else:
        h = min(h_tol, 0.1 / max(field.lipschitz_bound, 1.0))
    # a whole number of steps up to rounding takes that number, not one more
    steps = max(1, round(span / h))
    if abs(span / h - steps) > 1e-9 * steps:
        steps = math.ceil(span / h)
    return span / steps


def _rk4_advance(field: TimeField, pts, t, h):
    k1 = field.evaluate(pts, t)
    k2 = field.evaluate(pts + 0.5 * h * k1, t + 0.5 * h)
    k3 = field.evaluate(pts + 0.5 * h * k2, t + 0.5 * h)
    k4 = field.evaluate(pts + h * k3, t + h)
    return pts + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _batch_span(pts, t0, t1, tol):
    """Input checks shared by the steppers: the batch as a float array and
    the span t1 - t0."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    span = float(t1) - float(t0)
    if span < 0:
        raise ValueError("t1 must be >= t0 (negate the field to go backward)")
    return np.array(np.atleast_2d(pts), dtype=np.float64), span


def _check_finite(new, pts, t, ids=None):
    """Raise, naming the first particle, if a row of ``new`` is not finite;
    ``ids`` maps rows to particle numbers (default: the row itself)."""
    finite = np.isfinite(new).all(axis=1)
    if not np.all(finite):
        bad = int(np.flatnonzero(~finite)[0])
        particle = bad if ids is None else int(ids[bad])
        raise FloatingPointError(
            f"non-finite field value near particle {particle} "
            f"(position {pts[bad].tolist()}) at time {t:.6g}")


def _integrate_batch(field: TimeField, pts, t0, t1, tol, observer=None):
    pts, span = _batch_span(pts, t0, t1, tol)
    if span == 0 or pts.shape[0] == 0:
        return pts
    field.warn_if_non_lipschitz()
    h = choose_step(field, tol, span)
    steps = int(round(span / h))
    t = float(t0)
    for k in range(steps):
        new = _rk4_advance(field, pts, t, h)
        _check_finite(new, pts, t + h)
        t = t0 + (k + 1) * h
        if observer is not None:
            observer(pts, new, t - h, t)
        pts = new
    return pts


# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, Table
# II.5.2): stage nodes, the stage rows, the fifth-order weights (the row of
# the seventh stage, so that stage is the next step's first: FSAL) and the
# embedded fourth-order weights
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((),
         (1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))
# step-size controller: safety factor, and the largest and smallest factor
# one step may change h by
_DP_SAFETY, _DP_GROW, _DP_SHRINK = 0.9, 5.0, 0.2


def _combine(pts, h, weights, stages):
    out = pts.copy()
    for w, k in zip(weights, stages):
        if w:
            out += (h * w) * k
    return out


# weights of the last coefficient of DOPRI5's fourth-order continuous
# extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6; Shampine,
# Math. Comp. 46, 1986)
_DP_DENSE = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
             -10690763975 / 1880347072, 701980252875 / 199316789632,
             -1453857185 / 822651844, 69997945 / 29380423)


def _dense_coefficients(y, new, h, stages):
    """``(5, n, d)`` coefficients of the continuous extension of one step
    from ``y`` to ``new``; row 0 is ``y``."""
    ydiff = new - y
    bspl = h * stages[0] - ydiff
    return np.stack([y, ydiff, bspl, ydiff - h * stages[-1] - bspl,
                     _combine(np.zeros_like(y), h, _DP_DENSE, stages)])


def _dense_at(coef, theta):
    """Positions at step fraction ``theta`` on the continuous extension
    with coefficients ``coef``: ``theta`` is a scalar, one fraction per row
    (shape ``(n,)``) or a stack of either (``(m, 1)`` or ``(m, n)``, giving
    ``(m, n, d)`` positions)."""
    th = np.expand_dims(theta, -1)
    y, ydiff, bspl, c3, c4 = coef
    return y + th * (ydiff + (1 - th) * (bspl + th * (c3 + (1 - th) * c4)))


def _dopri(field: TimeField, pts, t0, t1, tol, stop_region=None,
           record=None):
    """Embedded Dormand-Prince 5(4) with one step size for the batch, the
    loop behind ``stopped_flow_batch``. The first step is ``choose_step``'s;
    a step is accepted when every particle's max-norm error estimate is at
    most tol * h / (t1 - t0), so the accepted estimates sum to at most tol
    (local estimates, not the global error). The field must be C2.

    Without ``stop_region`` every point runs to t1. With it, a point inside
    at t0 never moves, and a point whose continuous extension is inside at
    one of an accepted step's probe fractions (``_probe_fractions``) is
    parked at its first entry and leaves the batch; every step also keeps
    each active point's move within ``_step_cap``. ``record``, a list,
    receives ``(start - t0, h, rows, coefficients)`` for each accepted step
    of a stopped flow. Returns ``(endpoints, hit_times, stats)``: a hit
    time is relative to t0, nan for a point never parked; ``stats`` counts
    accepted and rejected steps and gives the first, smallest and largest
    accepted step and the Lipschitz bound that chose the first.
    """
    pts, span = _batch_span(pts, t0, t1, tol)
    stats = {"accepted": 0, "rejected": 0, "h_first": None, "h_min": None,
             "h_max": None, "lipschitz": field.lipschitz_bound}
    hits = np.full(pts.shape[0], np.nan)
    rows = np.arange(pts.shape[0])
    cap = math.inf
    if stop_region is not None:
        inside = stop_region.contains(pts)
        hits[inside] = 0.0
        rows = rows[~inside]
        cap = _step_cap(stop_region)
    if span == 0 or rows.size == 0:
        return pts, hits, stats
    h = choose_step(field, tol, span)
    stats["h_first"] = h
    err_per_time = tol / span
    grow = _DP_GROW
    t = float(t0)
    y = pts[rows]
    k1 = field.evaluate(y, t)
    while t < t1 and rows.size:
        last = t + 1.01 * h >= t1
        if last:
            h = t1 - t
        if t + h == t:
            raise RuntimeError(f"step size underflow at time {t:.6g}: the "
                               f"field {field.label!r} is not smooth enough "
                               "for error control")
        stages = [k1]
        for c, row in zip(_DP_C[1:], _DP_A[1:]):
            stages.append(field.evaluate(_combine(y, h, row, stages),
                                         t + c * h))
        new = _combine(y, h, _DP_B5, stages)
        stages.append(field.evaluate(new, t + h))
        err = _combine(np.zeros_like(y), h, _DP_ERR, stages)
        _check_finite(np.hstack([new, err]), y, t + h, rows)
        err_max = float(np.max(np.abs(err)))
        bound = err_per_time * h
        move = 0.0
        if stop_region is not None:
            move = float(np.sqrt(np.max(np.sum((new - y) ** 2, axis=1))))
        if err_max <= bound and move <= cap:
            if stop_region is not None:
                coef = _dense_coefficients(y, new, h, stages)
                if record is not None:
                    record.append((t - t0, h, rows, coef))
                lo, hi = _entry_bracket(stop_region, coef, new,
                                        _probe_fractions(h, stats["h_first"]))
                entered = hi > 0
                if np.any(entered):
                    theta, pts[rows[entered]] = _locate_entry(
                        stop_region, coef[:, entered], lo[entered],
                        hi[entered])
                    hits[rows[entered]] = (t - t0) + theta * h
                    keep = ~entered
                    rows, new, stages[-1] = (rows[keep], new[keep],
                                             stages[-1][keep])
            t = t1 if last else t + h
            y = new
            k1 = stages[-1]
            stats["accepted"] += 1
            stats["h_min"] = min(h, stats["h_min"] or h)
            stats["h_max"] = max(h, stats["h_max"] or h)
            grow = _DP_GROW
        else:
            stats["rejected"] += 1
            # no growth right after a rejection (HNW II.4)
            grow = 1.0
        # err ~ h^5 against a bound ~ h: the 1/4 power aims at the bound
        fac = (_DP_SAFETY * (bound / err_max) ** 0.25 if err_max > 0
               else grow)
        # and the largest move at the same share of the cap
        fac_cap = _DP_SAFETY * cap / move if move > 0 else math.inf
        h *= min(grow, max(_DP_SHRINK, fac), fac_cap)
    pts[rows] = y
    return pts, hits, stats


def flow_push(field: TimeField, mu: ParticleMeasure, t0: float, t1: float,
              tol: float) -> ParticleMeasure:
    """Push a particle measure through the flow; weights and tags ride along."""
    new_pos = _integrate_batch(field, mu.positions, t0, t1, tol)
    return push_forward(mu, lambda p: new_pos)


# ---------------------------------------------------------------------------
# stopped flow: freeze each trajectory at its first entry into a region
# ---------------------------------------------------------------------------

def stopped_flow_batch(field: TimeField, stop_region, pts, t0: float,
                       horizon: float, tol: float, record: bool = False):
    """Advance a batch along a field built smooth, parking each point at its
    first entry into ``stop_region``.

    The points still active share ``_dopri``'s Dormand-Prince 5(4) steps
    over [t0, t0 + horizon]: each accepted step's local error
    estimate is at most tol * h / horizon, so the estimates along any path
    sum to at most tol (a bound on local estimates, not on the global
    error). The horizon thus sets the error bound per unit time and, with
    ``choose_step``, the first step: a longer horizon tightens both and
    changes the steps taken before the last entry. Two rules serve the stop
    event:

    - No active point moves more than half the region's inradius in one
      step (for a union, its thinnest part's); a step that would is rejected
      and the next one shrunk. However far the error estimate would let
      a step grow, it cannot carry a point over the region.
    - Each accepted step is probed on DOPRI5's fourth-order continuous
      extension at times at most ``choose_step``'s fixed RK4 step apart,
      its endpoint included. A point inside at a probe is parked at its
      first entry, found between that probe and the one before it to
      2^-52 of their distance. Neither costs a field evaluation. A path
      that clips a corner or an edge between two probes is not seen, as
      it was not between two fixed RK4 steps.

    Stepping stops once every point is parked: no step is taken past the
    last entry. Returns ``(endpoints, hit_times)``; a hit time, relative to
    t0, is nan when the point never entered within the horizon. With
    ``record=True`` returns a ``StoppedPaths`` instead, which holds the
    endpoints and hit times, the accepted steps' continuous extensions of
    the points active in them and the step statistics.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if not field.smooth:
        raise ValueError(f"field {field.label!r} is not built smooth; stopped "
                         "flows step by Dormand-Prince error control")
    steps = [] if record else None
    end, hits, stats = _dopri(field, pts, t0, t0 + horizon, tol, stop_region,
                              steps)
    if record:
        return StoppedPaths(end, hits, steps, stats)
    return end, hits


def _step_cap(region):
    """Half the inradius of the thinnest part of ``region``: the farthest
    a stopped flow moves a point in one step."""
    if region.kind == "union":
        return min(_step_cap(part) for part in region.parts)
    return 0.5 * region.inradius()


def _probe_fractions(h, h_probe):
    """Step fractions, ending at 1, at which a stopped flow looks for
    entries in a step of length h: spaced at most ``h_probe`` apart in
    time, ``choose_step``'s fixed RK4 step."""
    m = max(1, math.ceil(h / h_probe - 1e-9))
    return np.arange(1, m + 1) / m


def _first_inside(stop_region, theta, pos):
    """Per column of the step fractions ``theta`` (``(m, n)``), with
    positions ``pos`` (``(m, n, d)``): the row of the first fraction whose
    position is inside ``stop_region``, and whether there is one."""
    inside = stop_region.contains(
        pos.reshape(-1, pos.shape[-1])).reshape(theta.shape)
    return np.argmax(inside, axis=0), inside.any(axis=0)


def _entry_bracket(stop_region, coef, new, fractions):
    """For each row of a step's continuous extension, the fractions
    ``(lo, hi)`` around its first probe inside ``stop_region``: hi is that
    probe's fraction and lo the one before it (0 for the first); hi is 0
    for a row inside at no probe. The probe at fraction 1 is the step's
    endpoint ``new``."""
    theta = np.broadcast_to(fractions[:, None], (len(fractions), len(new)))
    pos = np.concatenate([_dense_at(coef, theta[:-1]), new[None]])
    first, found = _first_inside(stop_region, theta, pos)
    cols = np.arange(len(new))
    lo = np.where(first > 0, theta[first - 1, cols], 0.0)
    hi = np.where(found, theta[first, cols], 0.0)
    return lo, hi


# an entry is located in passes that each cut its bracket into 16 parts and
# keep the first part whose right end is inside: 13 passes narrow the
# bracket to 16^-13 = 2^-52 of its width
_EVENT_PARTS, _EVENT_PASSES = 16, 13


def _locate_entry(stop_region, coef, lo, hi):
    """Step fractions and positions at which continuous extensions enter
    ``stop_region``, given brackets whose ``lo`` fraction is outside and
    ``hi`` fraction inside; each position returned is inside."""
    cols = np.arange(len(lo))
    parts = np.arange(1, _EVENT_PARTS)[:, None] / _EVENT_PARTS
    for _ in range(_EVENT_PASSES):
        theta = lo + parts * (hi - lo)
        first, found = _first_inside(stop_region, theta,
                                     _dense_at(coef, theta))
        # the bracket's right end, the last row, is inside
        theta = np.vstack([theta, hi])
        first = np.where(found, first, len(parts))
        lo = np.where(first > 0, theta[first - 1, cols], lo)
        hi = theta[first, cols]
    return hi, _dense_at(coef, hi)


class StoppedPaths:
    """A recorded stopped flow: its endpoints and hit times (as
    ``stopped_flow_batch`` returns them), for each accepted step its start
    (relative to t0), its length, the rows active in it and their
    continuous extension, and ``stats``, the steps' statistics
    (``_dopri``'s)."""

    def __init__(self, end, hits, steps, stats):
        self.end = end
        self.hits = hits
        self.steps = steps
        self.stats = stats
        self._starts = np.array([step[0] for step in steps])

    def at(self, times):
        """``(n, len(times), d)`` positions at ``times`` (relative to t0,
        nonnegative): on the continuous extension while a point is active,
        its endpoint from its hit time on."""
        out = np.repeat(self.end[:, None, :], len(times), axis=1)
        for m, s in enumerate(times):
            j = np.searchsorted(self._starts, s, side="right") - 1
            if j < 0:
                continue
            start, h, rows, coef = self.steps[j]
            moving = ~(self.hits[rows] <= s)
            out[rows[moving], m] = _dense_at(coef[:, moving], (s - start) / h)
        return out


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Snapshots of a measure along a flow, at increasing times."""

    times: np.ndarray
    states: list
    field_ref: object = None
    meta: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.times) != len(self.states):
            raise ValueError("one state per time required")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("times must be nondecreasing")

    def final(self) -> ParticleMeasure:
        return self.states[-1]

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        names = []
        for k, (t, state) in enumerate(zip(self.times, self.states)):
            name = f"snapshot_{k:04d}.csv"
            state.to_csv(out / name)
            names.append(name)
        manifest = {
            "times": self.times.tolist(),
            "snapshots": names,
            "field": getattr(self.field_ref, "descriptor", None) or str(self.field_ref),
            "mass_checksum": self.states[0].checksum(),
            "meta": self.meta,
        }
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
