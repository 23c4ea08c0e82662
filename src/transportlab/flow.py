"""Characteristic flows of time-dependent velocity fields.

Integration is fixed-step RK4 with the step tied to the field's Lipschitz
bound (stability step 0.1/max(L, 1)) and to the requested tolerance. Fields
declared non-Lipschitz (the square-root splitting example) fall back to the
tolerance step and emit a warning once per field.
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
    it.
    """

    def __init__(self, fn, dim, lipschitz_bound=0.0, sup_bound=np.inf,
                 support_region=None, time_domain=(0.0, math.inf), label="",
                 control_fn=None, non_lipschitz=False, descriptor=None):
        self._fn = fn
        self.dim = int(dim)
        self.lipschitz_bound = float(lipschitz_bound)
        self.sup_bound = float(sup_bound)
        self.support_region = support_region
        self.time_domain = (float(time_domain[0]), float(time_domain[1]))
        self.label = label
        self.control_fn = control_fn
        self.non_lipschitz = bool(non_lipschitz)
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
                        descriptor={"kind": "negated", "inner": self.descriptor})
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


def _integrate_batch(field: TimeField, pts, t0, t1, tol, observer=None):
    if tol <= 0:
        raise ValueError("tol must be positive")
    span = float(t1) - float(t0)
    if span < 0:
        raise ValueError("t1 must be >= t0 (negate the field to go backward)")
    pts = np.array(np.atleast_2d(pts), dtype=np.float64)
    if span == 0 or pts.shape[0] == 0:
        return pts
    field.warn_if_non_lipschitz()
    h = choose_step(field, tol, span)
    steps = int(round(span / h))
    t = float(t0)
    for k in range(steps):
        new = _rk4_advance(field, pts, t, h)
        if not np.all(np.isfinite(new)):
            bad = int(np.argwhere(~np.isfinite(new).all(axis=1))[0, 0])
            raise FloatingPointError(
                f"non-finite field value near particle {bad} "
                f"(position {pts[bad].tolist()}) at time {t + h:.6g}")
        t = t0 + (k + 1) * h
        if observer is not None:
            observer(pts, new, t - h, t)
        pts = new
    return pts


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
