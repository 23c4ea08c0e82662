"""Characteristic flows of time-dependent velocity fields.

Two steppers integrate a batch of particles, all sharing one step:

- Fixed-step RK4 (``_integrate_batch``, ``flow_push``, ``stopped_flow_batch``),
  with the step tied to the field's Lipschitz bound (stability step
  0.1/max(L, 1)) and to the requested tolerance. It serves every field that
  is only Lipschitz: the storage and funnel blends and the crossing check
  take signed distances to boxes, whose kinks defeat an error estimate.
  Fields declared non-Lipschitz (the square-root splitting example) fall
  back to the tolerance step and emit a warning once per field.
- Embedded Dormand-Prince 5(4) with error control (``dopri_batch``), for
  smooth fields whose Lipschitz bound is set by a narrow feature most
  particles never cross: the moving-cell grid field, which is C2 through its
  quintic falloff. Its first step is ``choose_step``'s, as for RK4; the
  error estimate sets every later one.

``integrate_batch`` picks between them by the field's construction: a field
built with ``smooth=True`` gets Dormand-Prince, any other fixed-step RK4.
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
    "integrate_flow",
    "flow_push",
    "integrate_batch",
    "dopri_batch",
    "stopped_flow",
    "stopped_flow_batch",
    "weak_residual",
    "GaussianBump",
]


class TimeField:
    """Velocity field w(x, t) with Lipschitz and sup-norm metadata.

    ``fn(points, t)`` maps an ``(N, d)`` array and a scalar time to ``(N, d)``
    velocities. ``control_fn``, when present, evaluates the localized control
    part of the field (total minus ambient); schedule support checks sample
    it. ``smooth`` declares the field C2 in x and t, so an embedded error
    estimate follows the error: ``integrate_batch`` then steps it with
    Dormand-Prince 5(4) instead of fixed-step RK4.
    """

    def __init__(self, fn, dim, lipschitz_bound=0.0, sup_bound=np.inf,
                 support_region=None, time_domain=(0.0, math.inf), label="",
                 control_fn=None, non_lipschitz=False, descriptor=None,
                 smooth=False):
        self._fn = fn
        self.dim = int(dim)
        self.lipschitz_bound = float(lipschitz_bound)
        self.sup_bound = float(sup_bound)
        self.support_region = support_region
        self.time_domain = (float(time_domain[0]), float(time_domain[1]))
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
                   descriptor={"kind": "zero"})

    @classmethod
    def constant(cls, vec):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        return cls(lambda p, t: np.broadcast_to(vec, p.shape).copy(), len(vec),
                   0.0, float(np.linalg.norm(vec)), label="constant",
                   descriptor={"kind": "constant", "value": vec.tolist()})

    @classmethod
    def affine(cls, matrix, offset):
        mat = np.asarray(matrix, dtype=float)
        off = np.asarray(offset, dtype=float).reshape(-1)
        lip = float(np.linalg.norm(mat, 2))
        return cls(lambda p, t: p @ mat.T + off, len(off), lip, np.inf,
                   label="affine",
                   descriptor={"kind": "affine", "matrix": mat.tolist(),
                               "offset": off.tolist()})

    @classmethod
    def radial(cls, center, rate):
        c = np.asarray(center, dtype=float).reshape(-1)
        return cls(lambda p, t: rate * (p - c), len(c), abs(rate), np.inf,
                   label="radial",
                   descriptor={"kind": "radial", "center": c.tolist(), "rate": rate})

    def negated(self):
        """-w, for reversing autonomous dynamics."""
        fld = TimeField(lambda p, t: -self._fn(p, t), self.dim,
                        self.lipschitz_bound, self.sup_bound,
                        self.support_region, self.time_domain,
                        label=f"-({self.label})", non_lipschitz=self.non_lipschitz,
                        descriptor={"kind": "negated", "inner": self.descriptor},
                        smooth=self.smooth)
        return fld


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


def _rk4_partial(field: TimeField, pts, t, h_vec):
    """One RK4 step with a per-point step length, stages evaluated at the
    shared start time (used by event bisection on autonomous fields)."""
    h = np.asarray(h_vec, dtype=float)[:, None]
    k1 = field.evaluate(pts, t)
    k2 = field.evaluate(pts + 0.5 * h * k1, t)
    k3 = field.evaluate(pts + 0.5 * h * k2, t)
    k4 = field.evaluate(pts + h * k3, t)
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


def _check_finite(new, pts, t):
    """Raise, naming the first particle, if a row of ``new`` is not finite."""
    finite = np.isfinite(new).all(axis=1)
    if not np.all(finite):
        bad = int(np.flatnonzero(~finite)[0])
        raise FloatingPointError(
            f"non-finite field value near particle {bad} "
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


def dopri_batch(field: TimeField, pts, t0, t1, tol):
    """Endpoints at t1 of the characteristics through ``pts`` at t0, by
    embedded Dormand-Prince 5(4) with one step size for the whole batch.

    The first step is ``choose_step``'s. A step is accepted when every
    particle's max-norm error estimate (fifth- minus fourth-order solution)
    is at most tol * h / (t1 - t0), so the accepted steps' local error
    estimates sum to at most tol; the fifth-order solution is kept. That
    bounds the local estimates, not the global error: local errors can grow
    along the flow, by up to exp(L (t1 - t0)) for a Lipschitz bound L. The
    field must be smooth (C2 at least) for the estimate to follow the error;
    a field with kinks belongs to the fixed-step ``_integrate_batch``.

    Returns ``(endpoints, stats)``: ``stats`` counts accepted and rejected
    steps and gives the first, smallest and largest accepted step (None
    when no step was taken; the last step is cut to land on t1) and the
    Lipschitz bound that chose the first step.
    """
    pts, span = _batch_span(pts, t0, t1, tol)
    stats = {"accepted": 0, "rejected": 0, "h_first": None, "h_min": None,
             "h_max": None, "lipschitz": field.lipschitz_bound}
    if span == 0 or pts.shape[0] == 0:
        return pts, stats
    h = choose_step(field, tol, span)
    stats["h_first"] = h
    err_per_time = tol / span
    grow = _DP_GROW
    t = float(t0)
    k1 = field.evaluate(pts, t)
    while t < t1:
        last = t + 1.01 * h >= t1
        if last:
            h = t1 - t
        if t + h == t:
            raise RuntimeError(f"step size underflow at time {t:.6g}: the "
                               f"field {field.label!r} is not smooth enough "
                               "for error control")
        stages = [k1]
        for c, row in zip(_DP_C[1:], _DP_A[1:]):
            stages.append(field.evaluate(_combine(pts, h, row, stages),
                                         t + c * h))
        new = _combine(pts, h, _DP_B5, stages)
        stages.append(field.evaluate(new, t + h))
        err = _combine(np.zeros_like(pts), h, _DP_ERR, stages)
        _check_finite(np.hstack([new, err]), pts, t + h)
        err_max = float(np.max(np.abs(err)))
        bound = err_per_time * h
        if err_max <= bound:
            t = t1 if last else t + h
            pts = new
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
        h *= min(grow, max(_DP_SHRINK, fac))
    return pts, stats


def integrate_batch(field: TimeField, pts, t0, t1, tol):
    """Endpoints at t1 of the characteristics through ``pts`` at t0, by the
    stepper the field's construction calls for: ``dopri_batch`` for a field
    built smooth, fixed-step RK4 (``_integrate_batch``) for any other.

    Returns ``(endpoints, stats)``; ``stats`` is ``dopri_batch``'s, or None
    for fixed steps.
    """
    if field.smooth:
        return dopri_batch(field, pts, t0, t1, tol)
    return _integrate_batch(field, pts, t0, t1, tol), None


def integrate_flow(field: TimeField, x0, t0: float, t1: float, tol: float):
    """Endpoint of the characteristic through (x0, t0) at time t1."""
    out = _integrate_batch(field, np.asarray(x0, dtype=float)[None, :], t0, t1, tol)
    return out[0]


def flow_push(field: TimeField, mu: ParticleMeasure, t0: float, t1: float,
              tol: float) -> ParticleMeasure:
    """Push a particle measure through the flow; weights and tags ride along."""
    new_pos = _integrate_batch(field, mu.positions, t0, t1, tol)
    return push_forward(mu, lambda p: new_pos)


# ---------------------------------------------------------------------------
# stopped flow: freeze each trajectory at its first entry into a region
# ---------------------------------------------------------------------------

def stopped_flow_batch(field: TimeField, stop_region, pts, t0: float,
                       horizon: float, tol: float, bisections: int = 40,
                       record: bool = False):
    """Advance a batch, parking each point at first entry into ``stop_region``.

    Returns ``(endpoints, hit_times)`` where a hit time of nan means the
    point never entered the region within the horizon. Entry times are
    located by bisection between the straddling RK4 steps. Stepping stops
    once every point is parked, so a generous horizon costs nothing past the
    last entry. With ``record=True`` also returns the knot times (relative
    to t0) and the recorded per-point polylines (parked points repeat their
    final position); the knots then end at the first step after which no
    point is active, not at the horizon.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    pts = np.array(np.atleast_2d(pts), dtype=np.float64)
    n = pts.shape[0]
    hit_times = np.full(n, np.nan)
    inside0 = stop_region.contains(pts)
    hit_times[inside0] = 0.0

    span = float(horizon)
    h = choose_step(field, tol, span)
    steps = int(round(span / h))
    active = ~inside0
    t = float(t0)
    paths = [pts.copy()] if record else None
    for _ in range(steps):
        if not np.any(active):
            break
        moved = _rk4_advance(field, pts[active], t, h)
        entered_rel = stop_region.contains(moved)
        act_idx = np.flatnonzero(active)
        hit_idx = act_idx[entered_rel]
        if len(hit_idx):
            # bisect all entries of this step together; stage times are
            # taken at the step start (events are detected for
            # time-autonomous fields)
            base = pts[hit_idx]
            lo = np.zeros(len(hit_idx))
            hi = np.full(len(hit_idx), h)
            for _ in range(bisections):
                mid = 0.5 * (lo + hi)
                probe = _rk4_partial(field, base, t, mid)
                inside = stop_region.contains(probe)
                hi = np.where(inside, mid, hi)
                lo = np.where(inside, lo, mid)
            pts[hit_idx] = _rk4_partial(field, base, t, hi)
            hit_times[hit_idx] = (t - t0) + hi
        keep = ~entered_rel
        pts[act_idx[keep]] = moved[keep]
        active[hit_idx] = False
        t += h
        if record:
            paths.append(pts.copy())
    if record:
        knots = t0 + h * np.arange(len(paths))
        return pts, hit_times, knots - t0, np.stack(paths, axis=1)
    return pts, hit_times


def stopped_flow(field: TimeField, stop_region, x0, horizon: float, tol: float):
    """Scalar version: returns (endpoint, hit_time or None)."""
    pts, hits = stopped_flow_batch(field, stop_region,
                                   np.asarray(x0, dtype=float)[None, :],
                                   0.0, horizon, tol)
    hit = None if np.isnan(hits[0]) else float(hits[0])
    return pts[0], hit


# ---------------------------------------------------------------------------
# trajectories and the weak-solution residual
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

    def mass_profile(self):
        return np.array([s.total_mass() for s in self.states])

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


class GaussianBump:
    """Smooth compactly-supported-in-practice test function with analytic gradient."""

    def __init__(self, center, width):
        self.center = np.asarray(center, dtype=float).reshape(-1)
        self.width = float(width)

    def evaluate(self, pts):
        z = (np.atleast_2d(pts) - self.center) / self.width
        return np.exp(-0.5 * np.sum(z * z, axis=1))

    def gradient(self, pts):
        pts = np.atleast_2d(pts)
        z = (pts - self.center) / self.width
        return -self.evaluate(pts)[:, None] * z / self.width


def weak_residual(traj: Trajectory, field: TimeField, test_functions):
    """Continuity-equation defect per test function.

    For each test function the residual is the maximum over interior
    checkpoints of |d/dt ∫ψ dμ − ∫⟨∇ψ, w⟩ dμ| with a central time difference
    and particle-sum integrals.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least 3 snapshots for central differences")
    out = {}
    for idx, psi in enumerate(test_functions):
        ints = np.array([np.sum(s.weights * psi.evaluate(s.positions))
                         for s in traj.states])
        worst = 0.0
        for k in range(1, len(traj.times) - 1):
            dt = traj.times[k + 1] - traj.times[k - 1]
            ddt = (ints[k + 1] - ints[k - 1]) / dt
            state = traj.states[k]
            vel = field.evaluate(state.positions, traj.times[k])
            rhs = np.sum(state.weights *
                         np.sum(psi.gradient(state.positions) * vel, axis=1))
            worst = max(worst, abs(ddt - rhs))
        out[idx] = worst
    return out
