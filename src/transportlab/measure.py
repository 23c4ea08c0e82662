"""Particle representation of compactly supported measures.

A measure is a weighted point cloud: positions ``(N, d)`` and strictly
positive weights ``(N,)``. All operations are pure: they return new values
and never mutate their inputs.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field

import numpy as np

from . import _kernels

__all__ = [
    "ParticleMeasure",
    "DensitySpec",
    "GridPartition",
    "sample",
    "push_forward",
    "quantile_partition",
]


class ParticleMeasure:
    """Weighted point cloud standing for a compactly supported measure:
    positions and weights only (``to_csv`` takes a label per row)."""

    __slots__ = ("dim", "positions", "weights")

    def __init__(self, positions, weights):
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        weights = np.asarray(weights, dtype=np.float64).reshape(-1)
        if positions.shape[0] != weights.shape[0]:
            raise ValueError(
                f"{positions.shape[0]} positions vs {weights.shape[0]} weights")
        if positions.size and not np.all(np.isfinite(positions)):
            bad = int(np.argwhere(~np.isfinite(positions).all(axis=1))[0, 0])
            raise ValueError(f"non-finite coordinate at particle {bad}")
        if weights.size and (not np.all(np.isfinite(weights)) or np.any(weights <= 0.0)):
            bad = int(np.argwhere(~(np.isfinite(weights) & (weights > 0.0)))[0, 0])
            raise ValueError(f"weight at particle {bad} must be positive and finite")
        self.positions = positions
        self.weights = weights
        self.dim = int(positions.shape[1]) if positions.shape[1] else 1
        self.positions.setflags(write=False)
        self.weights.setflags(write=False)

    # -- basic queries ----------------------------------------------------
    def __len__(self):
        return int(self.weights.shape[0])

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def support_bbox(self):
        """(lo, hi) corners of the tightest axis-aligned box holding every particle."""
        if len(self) == 0:
            raise ValueError("empty measure has no support")
        return self.positions.min(axis=0), self.positions.max(axis=0)

    # -- constructive helpers ---------------------------------------------
    def scaled(self, c: float) -> "ParticleMeasure":
        if c <= 0:
            raise ValueError("scale must be positive")
        return ParticleMeasure(self.positions, self.weights * c)

    def subset(self, mask) -> "ParticleMeasure":
        mask = np.asarray(mask, dtype=bool)
        return ParticleMeasure(self.positions[mask], self.weights[mask])

    # -- serialization -----------------------------------------------------
    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.positions).tobytes())
        h.update(np.ascontiguousarray(self.weights).tobytes())
        return h.hexdigest()

    def to_csv(self, path, tags=None) -> None:
        """The bytes ``csv.writer`` writes, one ``%.17g`` format per row;
        the ``tag`` column holds ``tags``, one string per row, or ``""``."""
        head = [f"x_{a + 1}" for a in range(self.dim)] + ["weight", "tag"]
        row = ",".join(["%.17g"] * (self.dim + 1)) + ",%s\r\n"
        tags = [""] * len(self) if tags is None else np.asarray(tags).tolist()
        if len(tags) != len(self):
            raise ValueError(f"{len(tags)} tags for {len(self)} rows")
        cells = {}
        for tag in set(tags):  # each tag as csv.writer writes it after a comma
            buf = io.StringIO()
            csv.writer(buf).writerow(["", tag])
            cells[tag] = buf.getvalue()[1:-2]
        values = np.column_stack([self.positions, self.weights]).tolist()
        with open(path, "w", newline="") as fh:
            fh.write(",".join(head) + "\r\n" + "".join(
                row % (*r, cells[tag]) for r, tag in zip(values, tags)))

    def json_envelope(self) -> dict:
        return {"dim": self.dim, "count": len(self), "total_mass": self.total_mass(),
                "checksum": self.checksum()}

    def save(self, csv_path, json_path=None, copy_of=None) -> None:
        """Write the CSV, or copy ``copy_of``, this measure's CSV written before,
        and the JSON envelope. Copied here, not by the caller, so that
        ``benchmarks/tracer.py`` still times and counts it as ``cli.artifacts``."""
        if copy_of is None:
            self.to_csv(csv_path)
        else:
            shutil.copyfile(copy_of, csv_path)
        if json_path is not None:
            with open(json_path, "w") as fh:
                json.dump(self.json_envelope(), fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# density specifications
# ---------------------------------------------------------------------------

# least share of a truncated Gaussian's mass its box may hold: rejection
# sampling draws about one candidate per point over this share
GAUSSIAN_MASS_FLOOR = 1e-3


@dataclass(frozen=True)
class DensitySpec:
    """Bounded-support density we can sample from.

    kinds: ``uniform_box`` (lo, hi), ``truncated_gaussian`` (mean, sigma, lo,
    hi) and ``mixture`` (components, mix_weights). Every kind is normalized
    over its bounded support by construction.
    """

    kind: str
    dim: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind == "uniform_box":
            lo, hi = self._axes("lo", "hi")
            if not np.all(hi > lo):
                raise ValueError("degenerate box")
        elif self.kind == "truncated_gaussian":
            lo, hi, mean, sigma = self._axes("lo", "hi", "mean", "sigma")
            if not (np.all(hi > lo) and np.all(sigma > 0)):
                raise ValueError("need a non-degenerate box and positive sigma")
            scale = sigma * math.sqrt(2.0)
            mass = math.prod(0.5 * (math.erf(b) - math.erf(a)) for a, b in
                             zip((lo - mean) / scale, (hi - mean) / scale))
            if not mass >= GAUSSIAN_MASS_FLOOR:
                raise ValueError(f"the box holds {mass:.3g} of the Gaussian's "
                                 f"mass, below {GAUSSIAN_MASS_FLOOR:g}")
        elif self.kind == "mixture":
            comps = self.params["components"]
            mw = np.asarray(self.params["mix_weights"], float)
            if (not comps or len(comps) != len(mw)
                    or not np.all(np.isfinite(mw) & (mw > 0))):
                raise ValueError("a mixture needs at least one component and "
                                 "finite positive weights, one per component")
            if any(c.dim != self.dim for c in comps):
                raise ValueError("mixture component dimension mismatch")
        else:
            raise ValueError(f"unknown density kind {self.kind!r}")

    def _axes(self, *keys):
        """The per-axis parameters ``keys``, a scalar broadcast to every
        axis; a ValueError names one that is not finite."""
        axes = [np.broadcast_to(np.asarray(self.params[k], float), (self.dim,))
                for k in keys]
        for key, values in zip(keys, axes):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{self.kind} {key!r} must be finite, got "
                                 f"{self.params[key]!r}")
        return axes

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "uniform_box":
            lo, hi = self._axes("lo", "hi")
            return lo + (hi - lo) * rng.random((count, self.dim))
        if self.kind == "truncated_gaussian":
            lo, hi, mean, sigma = self._axes("lo", "hi", "mean", "sigma")
            out = np.empty((0, self.dim))
            while out.shape[0] < count:
                block = mean + sigma * rng.standard_normal((2 * count + 64, self.dim))
                keep = np.all((block >= lo) & (block <= hi), axis=1)
                out = np.concatenate([out, block[keep]])
            return out[:count]
        if self.kind == "mixture":
            comps = self.params["components"]
            mw = np.asarray(self.params["mix_weights"], float)
            mw = mw / mw.sum()
            idx = rng.choice(len(comps), size=count, p=mw)
            out = np.empty((count, self.dim))
            for ci, comp in enumerate(comps):
                take = idx == ci
                if np.any(take):
                    out[take] = comp.draw(int(take.sum()), rng)
            return out
        raise AssertionError(self.kind)

    @classmethod
    def from_dict(cls, data: dict) -> "DensitySpec":
        if not isinstance(data, dict):
            raise ValueError(f"a density must be a JSON object, got {data!r}")
        data = dict(data)
        kind = data.pop("kind")
        dim = _integer(data.pop("dim"), 1, "a density's 'dim'")
        if kind == "mixture":
            comps, weights = data["components"], data["mix_weights"]
            if not (isinstance(comps, list) and isinstance(weights, list)):
                raise ValueError("a mixture's components and mix_weights "
                                 "must be lists")
            data = {"components": [cls.from_dict(c) for c in comps],
                    "mix_weights": weights}
        return cls(kind, dim, data)


def _integer(value, least: int, what: str) -> int:
    """``value`` if it is an integer >= ``least`` and not a bool; else a
    ValueError that names it ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got "
                         f"{value!r}")
    return value


def sample(spec: DensitySpec, count: int, seed: int) -> ParticleMeasure:
    """``count`` i.i.d. particles of equal weight 1/count; deterministic in seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    pos = spec.draw(count, rng)
    return ParticleMeasure(pos, np.full(count, 1.0 / count))


# ---------------------------------------------------------------------------
# push-forward
# ---------------------------------------------------------------------------

def push_forward(mu: ParticleMeasure, mapping) -> ParticleMeasure:
    """Image measure: positions mapped, weights untouched.

    ``mapping`` takes an ``(N, d)`` array and returns the mapped ``(N, d)``
    array (a pointwise map applied via numpy broadcasting qualifies).
    """
    new_pos = np.asarray(mapping(mu.positions), dtype=np.float64)
    if new_pos.shape != mu.positions.shape:
        raise ValueError("mapping changed the shape of the cloud")
    if not np.all(np.isfinite(new_pos)):
        bad = int(np.argwhere(~np.isfinite(new_pos).all(axis=1))[0, 0])
        raise ValueError(
            f"mapping produced a non-finite image for particle {bad} "
            f"at {mu.positions[bad].tolist()}")
    return ParticleMeasure(new_pos, mu.weights)


# ---------------------------------------------------------------------------
# quantile grid partition
# ---------------------------------------------------------------------------

@dataclass
class GridPartition:
    """Nested quantile mesh of a measure in world coordinates, n cells per
    axis.

    ``walls[0]``, of shape ``(n+1,)``, cuts axis 0 into n slabs of equal
    mass. ``walls[a]``, of shape ``(n,)*a + (n+1,)``, cuts axis a within
    each slab of the earlier axes (a choice of cell on each of them) into n
    cells of equal mass. Every slab's outer walls on axis a are the two
    faces of the mesh's frame (see ``frame``); an interior wall sits
    halfway between the two particles on either side of its mass split. A
    point on an interior wall belongs to the cell above it.
    """

    n: int
    walls: list

    @property
    def dim(self) -> int:
        return len(self.walls)

    def frame(self):
        """Lower and upper corners ``(d,)`` of the box every cell lies in,
        read off the outer walls."""
        return (np.array([w.flat[0] for w in self.walls]),
                np.array([w.flat[-1] for w in self.walls]))

    def cell_of(self, axis, rows, x):
        """Cell of coordinate ``x`` on ``axis`` within the slab ``rows``
        (flat index over the earlier axes), as ``_kernels.row_cell``."""
        return _kernels.row_cell(self.walls[axis].reshape(-1, self.n + 1),
                                 rows, x)

    def locate(self, pts) -> np.ndarray:
        """Flat index of the cell holding each point, axis 0 slowest."""
        rows = np.zeros(len(pts), dtype=np.intp)
        for a in range(self.dim):
            rows = rows * self.n + self.cell_of(a, rows, pts[:, a])
        return rows

    def cells(self):
        """Lower and upper corners ``(n**d, d)`` of every cell, in the
        order of ``locate``."""
        n, d = self.n, self.dim
        lo, hi = np.empty((n ** d, d)), np.empty((n ** d, d))
        for a, w in enumerate(self.walls):
            shape = (n,) * (a + 1) + (1,) * (d - a - 1)
            lo[:, a] = np.broadcast_to(w[..., :-1].reshape(shape), (n,) * d).ravel()
            hi[:, a] = np.broadcast_to(w[..., 1:].reshape(shape), (n,) * d).ravel()
        return lo, hi


def _split(x, w, n, lo, hi):
    """n + 1 walls cutting the weighted coordinates x in [lo, hi] into n
    intervals of equal mass, lo and hi the outer two; raises if one has
    zero width."""
    if len(x) < n:
        raise ValueError(f"a slab holds {len(x)} particles, fewer than its "
                         f"{n} cells")
    order = np.lexsort((np.arange(len(x)), x))
    xs, cum = x[order], np.cumsum(w[order])
    # the last particle below each split, and the first one above it
    idx = np.searchsorted(cum, cum[-1] * (np.arange(1, n) / n - 1e-12))
    idx = np.minimum(idx, len(xs) - 2)
    walls = np.concatenate([[lo], 0.5 * (xs[idx] + xs[idx + 1]), [hi]])
    flat = np.diff(walls) <= 0.0
    if np.any(flat):
        raise ValueError(f"zero-width cell at {walls[1:][flat][0]:.6g}: "
                         "coincident particles hold more than a cell's mass")
    return walls


def _frame(mu: ParticleMeasure):
    """Corners of the cloud's bounding box padded by 2% of its extent on
    each side, an extent floored at 1e-13: the frame of its mesh."""
    lo, hi = mu.support_bbox()
    span = np.maximum(hi - lo, 1e-13)
    origin = lo - 0.02 * span
    return origin, origin + 1.04 * span


def _partition_one(mu: ParticleMeasure, n: int, frame) -> GridPartition:
    """The mesh of ``mu`` whose outer walls are the faces of ``frame``, a
    pair of corners that holds every particle."""
    pos, wts = mu.positions, mu.weights
    part = GridPartition(n=n, walls=[])
    rows = np.zeros(len(mu), dtype=np.intp)     # each particle's slab
    for a, (lo, hi) in enumerate(zip(*frame)):
        table = [_split(pos[rows == r, a], wts[rows == r], n, lo, hi)
                 for r in range(n ** a)]
        part.walls.append(np.reshape(table, (n,) * a + (n + 1,)))
        rows = rows * n + part.cell_of(a, rows, pos[:, a])
    return part


def quantile_partition(mu_src: ParticleMeasure, mu_tgt: ParticleMeasure,
                       n: int) -> tuple[GridPartition, GridPartition]:
    """Nested quantile meshes of source and target in world coordinates,
    n >= 1 cells per axis.

    Each mesh's outer walls are the faces of its cloud's frame, the
    cloud's bounding box padded by 2% of its extent on each side
    (``_frame``), so a mesh fits its cloud wherever it lies. Raises
    ``ValueError`` when a slab cannot be cut into n cells of positive
    width: too few particles, or coincident ones heavier than a cell.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu_src.dim != mu_tgt.dim:
        raise ValueError("source and target differ in dimension")
    return tuple(_partition_one(mu, n, _frame(mu)) for mu in (mu_src, mu_tgt))
