"""Characteristic flows of time-dependent velocity fields.

``flow_push`` pushes a particle measure through a field. Rows the
field's flow map certifies (``TimeField.flow_map``: the storage field under
a translation drift, the straight-line funnel and their time reversals)
move in closed form; the others are stepped by fixed-step RK4
(``_integrate_batch``), the batch sharing one step tied to the field's
Lipschitz bound (stability step 0.1/max(L, 1)) and to the requested
tolerance. A field with an infinite Lipschitz bound (the square-root
splitting example) falls back to the tolerance step and emits a warning
once per field.

The scenario drifts (zero, constant, affine and their negations) are
affine, x' = Ax + b, and carry their pair (A, b); their exact flow
map exp(t [[A, b], [0, 0]]) is ``_affine_flow``, not a ``flow_map``, so
``flow_push`` steps them. ``stopped_flow_batch`` parks each point at its
first entry into a box. The crossing check runs it once per side, and the
exact lane parks its atoms at those entries. It integrates nothing: a
straight path (A = 0) enters at a slab time, and otherwise it probes that
exact map and locates each entry on it.
"""
from __future__ import annotations

import json
import math
import shutil
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
]


class TimeField:
    """Velocity field w(x, t) with Lipschitz and sup-norm metadata.

    ``fn(points, t)`` maps an ``(N, d)`` array and a scalar time to ``(N, d)``
    velocities. ``ambient``, when given, is the drift this field perturbs:
    ``control_part`` is the total minus the ambient velocity, the localized
    control that schedule support checks sample (zero without an ambient).
    ``affine_pair``, when given, holds the arrays ``(A, b)`` of an
    autonomous affine field w(x) = Ax + b, which ``fn`` must compute:
    stopped flows need it, since they run on its exact flow map.
    ``flow_map``, when given, is the field's flow map in its own clock:
    ``flow_map(points, t0, t1)`` returns the ``(N, d)`` images at t1 of the
    points at t0 (backwards when t1 < t0) and the ``(N,)`` mask of the rows
    whose images are exact. The scenario drifts carry none. An infinite
    ``lipschitz_bound`` declares the field not Lipschitz.
    """

    def __init__(self, fn, dim, lipschitz_bound=0.0, sup_bound=np.inf,
                 label="", ambient=None, descriptor=None, affine_pair=None,
                 flow_map=None):
        self._fn = fn
        self.dim = int(dim)
        self.lipschitz_bound = float(lipschitz_bound)
        self.sup_bound = float(sup_bound)
        self.label = label
        self.ambient = ambient
        self.affine_pair = affine_pair
        self.flow_map = flow_map
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
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if self.ambient is None:
            return np.zeros_like(pts)
        return self.evaluate(pts, t) - self.ambient.evaluate(pts, t)

    def warn_if_non_lipschitz(self):
        if math.isinf(self.lipschitz_bound) and not self._warned:
            warnings.warn(f"field {self.label!r} is not Lipschitz; uniqueness of "
                          "characteristics is not guaranteed", stacklevel=3)
            self._warned = True

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, dim):
        return cls(lambda p, t: np.zeros_like(p), dim, 0.0, 0.0, label="zero",
                   descriptor={"kind": "zero"},
                   affine_pair=(np.zeros((dim, dim)), np.zeros(dim)))

    @classmethod
    def constant(cls, vec):
        vec = np.asarray(vec, dtype=float).reshape(-1)
        return cls(lambda p, t: np.broadcast_to(vec, p.shape).copy(), len(vec),
                   0.0, float(np.linalg.norm(vec)), label="constant",
                   descriptor={"kind": "constant", "value": vec.tolist()},
                   affine_pair=(np.zeros((len(vec), len(vec))), vec))

    @classmethod
    def affine(cls, matrix, offset):
        mat = np.asarray(matrix, dtype=float)
        off = np.asarray(offset, dtype=float).reshape(-1)
        lip = float(np.linalg.norm(mat, 2))
        return cls(lambda p, t: p @ mat.T + off, len(off), lip, np.inf,
                   label="affine",
                   descriptor={"kind": "affine", "matrix": mat.tolist(),
                               "offset": off.tolist()},
                   affine_pair=(mat, off))

    def negated(self):
        """-w, for reversing autonomous dynamics."""
        return TimeField(lambda p, t: -self._fn(p, t), self.dim,
                         self.lipschitz_bound, self.sup_bound,
                         label=f"-({self.label})",
                         descriptor={"kind": "negated", "inner": self.descriptor},
                         affine_pair=None if self.affine_pair is None else (
                             -self.affine_pair[0], -self.affine_pair[1]))

    def reversed(self, duration, offset, kind, label):
        """The time reversal of this field's segment [0, duration], run over
        [offset, offset + duration]: -w(x, duration - (t - offset)) with the
        negated ambient, and this field's flow map run backwards."""
        def clock(t):
            return duration - (t - offset)

        inner = self.flow_map
        return TimeField(
            lambda pts, t: -self.evaluate(pts, clock(t)), self.dim,
            self.lipschitz_bound, self.sup_bound, label=label,
            ambient=None if self.ambient is None else self.ambient.negated(),
            descriptor={"kind": kind, "inner": self.descriptor},
            flow_map=None if inner is None else
            lambda pts, t0, t1: inner(pts, clock(t0), clock(t1)))


# ---------------------------------------------------------------------------
# RK4 stepping
# ---------------------------------------------------------------------------

def choose_step(field: TimeField, tol: float, span: float) -> float:
    if span <= 0:
        return 1.0
    h_tol = max(min(tol, 1.0), 1e-12) ** 0.25
    if math.isinf(field.lipschitz_bound):
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
    """Input checks shared by RK4 and the stopped flow: the batch as a
    float array and the span t1 - t0."""
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


def _integrate_batch(field: TimeField, pts, t0, t1, tol):
    pts, span = _batch_span(pts, t0, t1, tol)
    if span == 0 or pts.shape[0] == 0:
        return pts
    field.warn_if_non_lipschitz()
    h = choose_step(field, tol, span)
    for k in range(int(round(span / h))):
        t = t0 + k * h
        new = _rk4_advance(field, pts, t, h)
        _check_finite(new, pts, t + h)
        pts = new
    return pts


def flow_push(field: TimeField, mu: ParticleMeasure, t0: float, t1: float,
              tol: float):
    """Push a particle measure through the flow from t0 to t1: rows the
    field's flow map certifies move along it, the others by fixed-step RK4
    at ``tol``. Weights and tags ride along. Returns the pushed measure and
    ``{"count": closed, "total": N}``, the rows moved in closed form."""
    pts, _ = _batch_span(mu.positions, t0, t1, tol)
    if field.flow_map is None:
        images, certified = pts, np.zeros(len(pts), dtype=bool)
    else:
        images, certified = field.flow_map(pts, t0, t1)
    stepped = ~certified
    images[stepped] = _integrate_batch(field, pts[stepped], t0, t1, tol)
    return (push_forward(mu, lambda p: images),
            {"count": int(np.sum(certified)), "total": len(mu)})


# ---------------------------------------------------------------------------
# stopped flow: freeze each trajectory at its first entry into a region
# ---------------------------------------------------------------------------

def _affine_flow(pair, x0, times):
    """Positions of the points ``x0`` (``(n, d)``) under the affine field
    x' = Ax + b, ``pair`` = (A, b), at ``times``: one time per point
    (shape ``(n,)``) or a stack of such rows or of shared times (``(m, n)``
    or ``(m, 1)``, giving ``(m, n, d)`` positions).

    The flow map applies the top rows of E = exp(t [[A, b], [0, 0]]) to
    (x0, 1). When A = 0 the series for E stops after one term: x0 + t b.
    Otherwise E is a Taylor series of the matrix over 2^s, squared s times,
    with 2^s bringing every 1-norm to at most 1/2, where the terms after
    the 14th sum to below 2^-53 of the result (Moler & Van Loan, SIAM
    Review 45, 2003)."""
    a, b = pair
    t = np.asarray(times, dtype=np.float64)[..., None]
    if not a.any():
        return x0 + t * b
    d = len(b)
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d], aug[:d, d] = a, b
    m = t[..., None] * aug
    norm = float(np.max(np.sum(np.abs(m), axis=-2), initial=0.0))
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0 else 0
    m = m / 2.0 ** s
    flow = np.eye(d + 1) + m
    term = m
    # an expanding drift may overflow; the caller checks what it uses
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(2, 15):
            term = term @ m / j
            flow = flow + term
        for _ in range(s):
            flow = flow @ flow
        return (flow[..., :d, :d] @ x0[..., None])[..., 0] + flow[..., :d, d]


def _entries(stop_region, pos):
    """Signed distances to ``stop_region`` of positions ``pos``
    (``(m, n, d)``) and, per column, the row of the first one inside (m for
    a column with none)."""
    sd = stop_region.signed_distance(
        pos.reshape(-1, pos.shape[-1])).reshape(pos.shape[:-1])
    inside = sd <= 0
    return sd, np.where(inside.any(axis=0), np.argmax(inside, axis=0),
                        len(sd))


# positions one block of probes evaluates at most: probe times times the
# points still active
_PROBE_BLOCK = 1 << 16


def stopped_flow_batch(field: TimeField, stop_region, pts, t0: float,
                       horizon: float, tol: float):
    """Advance a batch along an affine field, parking each point at its
    first entry into the box ``stop_region``.

    Nothing is integrated: positions are read off the field's exact flow
    map (``_affine_flow``). Under a translation (A = 0), a path is straight
    and enters at a slab time (``_slab_entries``); the few paths the slab
    times cannot settle, and every path of a curved drift, are probed, a
    block of probe times in one map. Probes are
    ``choose_step(field, tol, horizon)`` apart over [t0, t0 + horizon], the
    last at the horizon. A point inside at a probe is parked at its first
    entry, found between that probe and the one before to 2^-52 of their
    distance. No active point moves more than half the box's inradius
    between two probes, so none steps over the box: for A = 0 the spacing
    is at most that cap over |b|; otherwise a block where a point moves
    more than the cap, and at least its distance to the box, is probed
    again that many times finer, as are the blocks after it. A point
    farther away than its move cannot reach the box on that chord, so far
    points flung ever faster by an expanding drift cost no finer probes. A
    path that clips a corner or an edge between two probes is not seen.

    A non-finite position before a point's entry raises
    ``FloatingPointError`` naming the point. Probing stops once every point
    is parked. Returns ``(endpoints, hit_times)``; a hit time, relative to
    t0, is nan when the point never entered within the horizon, and its
    endpoint is then its position at t0 + horizon. A point that starts
    inside hits at 0 and keeps its start bit for bit. The field is
    autonomous: t0 only dates error messages.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    pair = field.affine_pair
    if pair is None:
        raise ValueError(f"field {field.label!r} is not affine; stopped flows "
                         "run on the exact affine flow map")
    x0, _ = _batch_span(pts, t0, t0 + horizon, tol)
    end = x0.copy()
    hits = np.full(x0.shape[0], np.nan)
    dist = stop_region.signed_distance(x0)
    hits[dist <= 0] = 0.0
    rows = np.flatnonzero(dist > 0)
    dist = dist[rows]
    a, b = pair
    if not a.any():
        slab, never = _slab_entries(stop_region, b, x0[rows], horizon)
        found = ~np.isnan(slab)
        idx, gone = rows[found], rows[never]
        hits[idx] = slab[found]
        end[idx] = x0[idx] + slab[found][:, None] * b
        end[gone] = x0[gone] + horizon * b
        _check_finite(end[gone], x0[gone], t0 + horizon, gone)
        keep = ~found & ~never
        rows, dist = rows[keep], dist[keep]
    cap = 0.5 * stop_region.inradius()
    h = choose_step(field, tol, horizon)
    if not a.any() and b.any():
        h = min(h, cap / float(np.linalg.norm(b)))
    t, prev = 0.0, x0[rows]
    while rows.size and t < horizon:
        left = max(1, math.ceil((horizon - t) / h - 1e-9))
        m = min(left, max(1, _PROBE_BLOCK // rows.size))
        times = t + h * np.arange(1, m + 1)
        if m == left:
            times[-1] = horizon
        pos = _affine_flow(pair, x0[rows], times[:, None])
        sd, first = _entries(stop_region, pos)
        probe = np.arange(m)[:, None]
        broken = (probe < first) & ~np.isfinite(pos).all(axis=2)
        if broken.any():
            j = int(np.argmax(broken.any(axis=1)))
            bad = rows[broken[j]]
            _check_finite(pos[j][broken[j]], x0[bad], t0 + times[j], bad)
        if a.any():
            move = np.linalg.norm(np.diff(np.concatenate([prev[None], pos]),
                                          axis=0), axis=2)
            reach = np.concatenate([dist[None], sd[:-1]])
            worst = np.max(move[(probe <= first) & (move >= reach)],
                           initial=0.0)
            if worst > cap:
                h /= math.ceil(worst / cap)
                continue
        entered = first < m
        if np.any(entered):
            f, idx = first[entered], rows[entered]
            lo = np.where(f > 0, times[f - 1], t)
            hits[idx], end[idx] = _locate_entry(stop_region, pair, x0[idx],
                                                lo, times[f])
        keep = ~entered
        t, rows = times[-1], rows[keep]
        prev, dist = pos[-1][keep], sd[-1][keep]
    end[rows] = prev
    return end, hits


def _slab_entries(box, b, x0, horizon):
    """Entry times into ``box`` of the straight paths x0 + t b from points
    outside it, nan where the slab times settle none, and a mask of the
    paths that enter nowhere in (0, horizon].

    A path is within the box's slab along axis a between the times its
    coordinate passes lo_a and hi_a (always or never when b_a = 0). It
    enters the box at the largest of those entry times if that is no later
    than the smallest exit time. The time is stepped up, by its spacing
    and then by twice the last step, until ``box.contains`` the position
    there, so the point returned is inside. A path that starts on a face to
    rounding, or grazes an edge, is left unsettled and not in the mask."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo, t_hi = (box.lo - x0) / b, (box.hi - x0) / b
    still = b == 0
    within = (box.lo <= x0) & (x0 <= box.hi)
    enter = np.where(still, np.where(within, -np.inf, np.inf),
                     np.minimum(t_lo, t_hi)).max(axis=1)
    leave = np.where(still, np.inf, np.maximum(t_lo, t_hi)).min(axis=1)
    last = np.minimum(leave, horizon)
    never = (enter > last) | (leave <= 0)
    hit = np.full(len(x0), np.nan)
    todo = np.flatnonzero(~never & (enter > 0))
    t = enter[todo]
    step = np.spacing(t)
    while todo.size:
        inside = box.contains(x0[todo] + t[:, None] * b)
        hit[todo[inside]] = t[inside]
        out = ~inside
        t, step, todo = t[out] + step[out], 2.0 * step[out], todo[out]
        fits = t <= last[todo]
        t, step, todo = t[fits], step[fits], todo[fits]
    return hit, never


# an entry is located in passes that each cut its bracket into 16 parts and
# keep the first part whose right end is inside: 13 passes narrow the
# bracket to 16^-13 = 2^-52 of its width
_EVENT_PARTS, _EVENT_PASSES = 16, 13


def _locate_entry(stop_region, pair, x0, lo, hi):
    """Times at which the paths from ``x0`` enter ``stop_region`` under the
    affine field with ``pair`` = (A, b), and the positions there, given
    brackets whose ``lo`` time is outside and ``hi`` time inside; each
    position returned is inside."""
    cols = np.arange(len(lo))
    parts = np.arange(1, _EVENT_PARTS)[:, None] / _EVENT_PARTS
    for _ in range(_EVENT_PASSES):
        times = lo + parts * (hi - lo)
        _, first = _entries(stop_region, _affine_flow(pair, x0, times))
        # the bracket's right end, the last row, is inside
        times = np.vstack([times, hi])
        lo = np.where(first > 0, times[first - 1, cols], lo)
        hi = times[first, cols]
    return hi, _affine_flow(pair, x0, hi)


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

    def save(self, out_dir) -> list:
        """Write one CSV per snapshot and the manifest; return the CSV
        paths. A snapshot repeating the one before it copies its bytes."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        names, last = [], None
        for k, state in enumerate(self.states):
            name = f"snapshot_{k:04d}.csv"
            # bit-equal, as -0.0 and 0.0 print differently
            key = (state.positions.tobytes(), state.weights.tobytes(),
                   None if state.tags is None else state.tags.tolist())
            if key == last:
                shutil.copyfile(out / names[-1], out / name)
            else:
                state.to_csv(out / name)
            names.append(name)
            last = key
        manifest = {
            "times": self.times.tolist(),
            "snapshots": names,
            "field": getattr(self.field_ref, "descriptor", None) or str(self.field_ref),
            "mass_checksum": self.states[0].checksum(),
            "meta": self.meta,
        }
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return [out / name for name in names]
