"""Particle representation of compactly supported measures.

A measure is a weighted point cloud: positions ``(N, d)``, strictly positive
weights ``(N,)`` and an optional per-particle string tag (used to mark the
untouched set left aside by the approximate controller). All operations are
pure: they return new values and never mutate their inputs.
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
    """Weighted point cloud standing for a compactly supported measure."""

    __slots__ = ("dim", "positions", "weights", "tags")

    def __init__(self, positions, weights, tags=None):
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
        if tags is not None:
            tags = np.asarray(tags, dtype=object).reshape(-1)
            if tags.shape[0] != weights.shape[0]:
                raise ValueError("tags length mismatch")
        self.tags = tags
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
        return ParticleMeasure(self.positions, self.weights * c, self.tags)

    def with_tags(self, tags) -> "ParticleMeasure":
        return ParticleMeasure(self.positions, self.weights, tags)

    def subset(self, mask) -> "ParticleMeasure":
        mask = np.asarray(mask, dtype=bool)
        tags = self.tags[mask] if self.tags is not None else None
        return ParticleMeasure(self.positions[mask], self.weights[mask], tags)

    def normalized(self) -> "ParticleMeasure":
        return self.scaled(1.0 / self.total_mass())

    def merged_coincident(self) -> "ParticleMeasure":
        """Sum weights of particles sharing a position (compared rounded to
        12 decimals)."""
        key = np.round(self.positions, 12)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inv, self.weights)
        pos = np.zeros_like(uniq)
        # mass-weighted representative keeps exact positions when they agree
        np.add.at(pos, inv, self.positions * self.weights[:, None])
        pos /= w[:, None]
        return ParticleMeasure(pos, w)

    # -- serialization -----------------------------------------------------
    def checksum(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.positions).tobytes())
        h.update(np.ascontiguousarray(self.weights).tobytes())
        return h.hexdigest()

    def to_csv(self, path) -> None:
        """The bytes ``csv.writer`` writes, one ``%.17g`` format per row."""
        head = [f"x_{a + 1}" for a in range(self.dim)] + ["weight", "tag"]
        row = ",".join(["%.17g"] * (self.dim + 1)) + ",%s\r\n"
        tags = self.tags if self.tags is not None else [""] * len(self)
        cells = {}
        for tag in set(tags):  # each tag as csv.writer writes it after a comma
            buf = io.StringIO()
            csv.writer(buf).writerow(["", tag or ""])
            cells[tag] = buf.getvalue()[1:-2]
        values = np.column_stack([self.positions, self.weights]).tolist()
        with open(path, "w", newline="") as fh:
            fh.write(",".join(head) + "\r\n" + "".join(
                row % (*r, cells[tag]) for r, tag in zip(values, tags)))

    @classmethod
    def from_csv(cls, path) -> "ParticleMeasure":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            dim = len([c for c in header if c.startswith("x_")])
            pos, wts, tags = [], [], []
            for row in reader:
                pos.append([float(v) for v in row[:dim]])
                wts.append(float(row[dim]))
                tags.append(row[dim + 1] if len(row) > dim + 1 else "")
        tag_arr = np.array(tags, dtype=object)
        if not any(tags):
            tag_arr = None
        return cls(np.array(pos), np.array(wts), tag_arr)

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
    hi), ``mixture`` (components, mix_weights), ``profile_box`` (lo, hi,
    per-axis polynomial density coefficients, low order first). Every kind is
    normalized over its bounded support by construction.
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
        elif self.kind == "profile_box":
            lo, hi = self._axes("lo", "hi")
            if not np.all(hi > lo):
                raise ValueError("degenerate box")
            for coeffs in self.params["profiles"]:
                grid = np.linspace(0.0, 1.0, 257)
                vals = np.polynomial.polynomial.polyval(grid, np.asarray(coeffs, float))
                if np.any(vals < -1e-12) or np.all(vals <= 0):
                    raise ValueError("profile must be nonnegative with positive mass")
        else:
            raise ValueError(f"unknown density kind {self.kind!r}")

    def _axes(self, *keys):
        """The per-axis parameters ``keys``, a scalar broadcast to every
        axis."""
        return [np.broadcast_to(np.asarray(self.params[k], float), (self.dim,))
                for k in keys]

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
        if self.kind == "profile_box":
            lo, hi = self._axes("lo", "hi")
            out = np.empty((count, self.dim))
            for a in range(self.dim):
                coeffs = np.asarray(self.params["profiles"][a], float)
                grid = np.linspace(0.0, 1.0, 4097)
                pdf = np.maximum(np.polynomial.polynomial.polyval(grid, coeffs), 0.0)
                cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5)])
                cdf /= cdf[-1]
                u = rng.random(count)
                out[:, a] = lo[a] + (hi[a] - lo[a]) * np.interp(u, cdf, grid)
            return out
        raise AssertionError(self.kind)

    @classmethod
    def from_dict(cls, data: dict) -> "DensitySpec":
        if not isinstance(data, dict):
            raise ValueError(f"a density must be a JSON object, got {data!r}")
        data = dict(data)
        kind = data.pop("kind")
        dim = int(data.pop("dim"))
        if kind == "mixture":
            comps = [cls.from_dict(c) for c in data["components"]]
            return cls("mixture", dim, {"components": comps,
                                        "mix_weights": data["mix_weights"]})
        return cls(kind, dim, data)


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
    """Image measure: positions mapped, weights and tags untouched.

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
    return ParticleMeasure(new_pos, mu.weights, mu.tags)


# ---------------------------------------------------------------------------
# quantile grid partition
# ---------------------------------------------------------------------------

@dataclass
class GridPartition:
    """Nested quantile mesh of a measure in the unit box, n cells per axis.

    ``walls[0]``, of shape ``(n+1,)``, cuts axis 0 into n slabs of equal
    mass. ``walls[a]``, of shape ``(n,)*a + (n+1,)``, cuts axis a within
    each slab of the earlier axes (a choice of cell on each of them) into n
    cells of equal mass. The outer walls are 0 and 1; an interior wall sits
    halfway between the two particles on either side of its mass split. A
    point on an interior wall belongs to the cell above it.
    """

    n: int
    walls: list

    @property
    def dim(self) -> int:
        return len(self.walls)

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


def _split(x, w, n):
    """n + 1 walls cutting the weighted coordinates x in [0, 1] into n
    intervals of equal mass; raises if one has zero width."""
    if len(x) < n:
        raise ValueError(f"a slab holds {len(x)} particles, fewer than its "
                         f"{n} cells")
    order = np.lexsort((np.arange(len(x)), x))
    xs, cum = x[order], np.cumsum(w[order])
    # the last particle below each split, and the first one above it
    idx = np.searchsorted(cum, cum[-1] * (np.arange(1, n) / n - 1e-12))
    idx = np.minimum(idx, len(xs) - 2)
    walls = np.concatenate([[0.0], 0.5 * (xs[idx] + xs[idx + 1]), [1.0]])
    flat = np.diff(walls) <= 0.0
    if np.any(flat):
        raise ValueError(f"zero-width cell at {walls[1:][flat][0]:.6g}: "
                         "coincident particles hold more than a cell's mass")
    return walls


def _partition_one(mu: ParticleMeasure, n: int) -> GridPartition:
    pos, wts = mu.positions, mu.weights
    part = GridPartition(n=n, walls=[])
    rows = np.zeros(len(mu), dtype=np.intp)     # each particle's slab
    for a in range(mu.dim):
        table = [_split(pos[rows == r, a], wts[rows == r], n)
                 for r in range(n ** a)]
        part.walls.append(np.reshape(table, (n,) * a + (n + 1,)))
        rows = rows * n + part.cell_of(a, rows, pos[:, a])
    return part


def quantile_partition(mu_src: ParticleMeasure, mu_tgt: ParticleMeasure,
                       n: int) -> tuple[GridPartition, GridPartition]:
    """Nested quantile meshes of source and target, n >= 1 cells per axis.

    Both measures must live in the closed unit box of one dimension
    (callers rescale first). Raises ``ValueError`` when a slab cannot be
    cut into n cells of positive width: too few particles, or coincident
    ones heavier than a cell.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mu_src.dim != mu_tgt.dim:
        raise ValueError("source and target differ in dimension")
    for name, mu in (("source", mu_src), ("target", mu_tgt)):
        lo, hi = mu.support_bbox()
        if np.any(lo < -1e-9) or np.any(hi > 1.0 + 1e-9):
            raise ValueError(f"{name} support must sit inside the unit box")
    return _partition_one(mu_src, n), _partition_one(mu_tgt, n)
