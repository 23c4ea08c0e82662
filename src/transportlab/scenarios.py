"""Scenario files: the experiment inputs the command line consumes.

A scenario bundles the ambient drift, the control region, the two measures
and the numeric parameters. Parsing round-trips: parse -> serialize ->
parse gives an identical value, and resolved defaults are recorded in the
output manifest rather than applied silently.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .flow import TimeField
from .geometry import Region
from .measure import DensitySpec, ParticleMeasure, sample
from .ot import MASS_TOL

__all__ = ["Scenario", "PRESETS", "load_scenario", "random_exact_scenario"]

PARAM_DEFAULTS = {
    "particles": 2000,
    "seed": 0,
    "horizon": 20.0,
    "tol": 1e-6,
    "epsilon": 0.05,
    "n": None,
}
REQUIRED_PARAMS = ("delta",)

NAMED_FIELDS = {
    "unit-right": {"kind": "constant", "value": [1.0, 0.0]},
    "unit-left": {"kind": "constant", "value": [-1.0, 0.0]},
    "half-right": {"kind": "constant", "value": [0.5, 0.0]},
}


def _field_from_dict(desc: dict, dim: int) -> TimeField:
    kind = desc["kind"]
    if kind == "named":
        return _field_from_dict(NAMED_FIELDS[desc["name"]], dim)
    if kind == "zero":
        return TimeField.zero(dim)
    if kind == "constant":
        return TimeField.constant(desc["value"])
    if kind == "affine":
        return TimeField.affine(desc["matrix"], desc["offset"])
    if kind == "radial":
        return TimeField.radial(desc["center"], desc["rate"])
    raise ValueError(f"unknown velocity kind {kind!r}")


@dataclass
class Scenario:
    dim: int
    v: dict
    omega: dict
    mu0: dict
    mu1: dict
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in REQUIRED_PARAMS:
            if key not in self.params:
                raise ValueError(f"scenario is missing required parameter {key!r}")
        merged = dict(PARAM_DEFAULTS)
        merged.update(self.params)
        self.params = merged
        # times and tolerances the controllers divide by or step over
        for key in ("horizon", "tol", "delta", "epsilon"):
            value = self.params[key]
            if not (isinstance(value, (int, float)) and math.isfinite(value)
                    and value > 0):
                raise ValueError(f"scenario parameter {key!r} must be a "
                                 f"positive finite number, got {value!r}")
        # counts and seeds the controllers take as they are ("n" may be
        # null: the controller picks it)
        for key, least in (("particles", 1), ("seed", 0), ("n", 1)):
            value = self.params[key]
            if key == "n" and value is None:
                continue
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < least):
                raise ValueError(f"scenario parameter {key!r} must be an "
                                 f"integer >= {least}, got {value!r}")
        self._check_members()

    def _check_members(self):
        """Fail fast on malformed members, before any flow runs: every
        member in the scenario's dimension, finite drift coefficients, atom
        rows of coordinates and a positive weight, and equal total masses
        (a density has mass 1). Densities are checked unsampled."""
        a, b = self.velocity_field().affine_pair
        if a.shape != (self.dim, self.dim) or b.shape != (self.dim,):
            raise ValueError(f"v ({self.v['kind']}) does not act on "
                             f"{self.dim} coordinates")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError(f"v ({self.v['kind']}) has non-finite "
                             "coefficients")
        dims = {"omega": self.omega_region().dim}
        masses = []
        for which in ("mu0", "mu1"):
            spec = getattr(self, which)
            if "atoms" not in spec:
                dims[which] = DensitySpec.from_dict(spec).dim
                masses.append(1.0)
                continue
            atoms = np.asarray(spec["atoms"], dtype=float)
            if atoms.ndim != 2 or atoms.shape[1] != self.dim + 1 \
                    or not len(atoms):
                raise ValueError(f"{which} atoms must be rows of {self.dim} "
                                 "coordinates and a weight")
            try:
                masses.append(self.measure(which).total_mass())
            except ValueError as exc:
                raise ValueError(f"{which} atoms: {exc}") from exc
        for name, dim in dims.items():
            if dim != self.dim:
                raise ValueError(f"{name} has dimension {dim}, the scenario "
                                 f"{self.dim}")
        if abs(masses[0] - masses[1]) > MASS_TOL * max(*masses, 1.0):
            raise ValueError(f"mu0 and mu1 total masses differ: {masses[0]!r}"
                             f" vs {masses[1]!r}")

    # -- members -------------------------------------------------------------
    def velocity_field(self) -> TimeField:
        return _field_from_dict(self.v, self.dim)

    def omega_region(self) -> Region:
        return Region.from_dict(self.omega)

    def measure(self, which: str) -> ParticleMeasure:
        spec = getattr(self, which)
        if "atoms" in spec:
            atoms = np.asarray(spec["atoms"], dtype=float)
            return ParticleMeasure(atoms[:, :self.dim], atoms[:, self.dim])
        dspec = DensitySpec.from_dict(spec)
        seed = int(self.params["seed"]) + (0 if which == "mu0" else 1)
        return sample(dspec, int(self.params["particles"]), seed)

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> dict:
        return {"dim": self.dim, "v": self.v, "omega": self.omega,
                "mu0": self.mu0, "mu1": self.mu1, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        for name in ("v", "omega", "mu0", "mu1", "params"):
            if not isinstance(data.get(name, {}), dict):
                raise ValueError(f"scenario member {name!r} must be an object, got {data[name]!r}")
        return cls(dim=int(data["dim"]), v=data["v"], omega=data["omega"],
                   mu0=data["mu0"], mu1=data["mu1"],
                   params=dict(data.get("params", {})))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def scenario_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)


def load_scenario(path_or_name) -> Scenario:
    name = str(path_or_name)
    if name in PRESETS:
        return Scenario.from_dict(PRESETS[name]())
    with open(name) as fh:
        return Scenario.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# built-in presets
# ---------------------------------------------------------------------------

def _preset_crossing_blobs() -> dict:
    """Rightward drift through a box control region: the source blob sits
    upstream, the target blob downstream."""
    return {
        "dim": 2,
        "v": {"kind": "constant", "value": [0.5, 0.0]},
        "omega": {"kind": "box", "lo": [2.0, -1.2], "hi": [3.4, 1.4]},
        "mu0": {"kind": "truncated_gaussian", "dim": 2, "mean": [0.5, 0.55],
                "sigma": [0.16, 0.13], "lo": [0.1, 0.25], "hi": [0.9, 0.85]},
        "mu1": {"kind": "truncated_gaussian", "dim": 2, "mean": [4.1, 0.5],
                "sigma": [0.14, 0.14], "lo": [3.75, 0.2], "hi": [4.45, 0.8]},
        "params": {"delta": 1.5, "epsilon": 0.05, "particles": 10000,
                   "seed": 7, "horizon": 16.0, "tol": 1e-6},
    }


def _preset_unit_shift() -> dict:
    """Uniform square onto a displaced copy, already inside the unit box;
    exercises the moving-cell construction head-on."""
    return {
        "dim": 2,
        "v": {"kind": "zero"},
        "omega": {"kind": "box", "lo": [-0.5, -0.5], "hi": [1.5, 1.5]},
        "mu0": {"kind": "uniform_box", "dim": 2, "lo": [0.05, 0.05],
                "hi": [0.55, 0.55]},
        "mu1": {"kind": "uniform_box", "dim": 2, "lo": [0.45, 0.45],
                "hi": [0.95, 0.95]},
        "params": {"delta": 1.0, "epsilon": 0.05, "particles": 50000,
                   "seed": 11, "horizon": 4.0, "tol": 1e-6},
    }


def _preset_two_bump_merge() -> dict:
    """The merging pair: two 1D components onto one (exact lane only)."""
    atoms0 = []
    atoms1 = []
    n = 32
    for k in range(n // 2):
        x = -1.0 + (k + 0.5) * (1.0 / (n // 2))
        atoms0.append([x, 1.0 / n])
        atoms0.append([1.0 + (k + 0.5) * (1.0 / (n // 2)), 1.0 / n])
    for k in range(n):
        atoms1.append([-1.0 + (k + 0.5) * (2.0 / n), 1.0 / n])
    return {
        "dim": 1,
        "v": {"kind": "zero"},
        "omega": {"kind": "box", "lo": [-2.0], "hi": [3.0]},
        "mu0": {"atoms": atoms0},
        "mu1": {"atoms": atoms1},
        "params": {"delta": 1.0, "particles": n, "seed": 3, "horizon": 4.0,
                   "tol": 1e-6},
    }


PRESETS = {
    "figure1": _preset_crossing_blobs,
    "unit-shift": _preset_unit_shift,
    "two-bump-merge": _preset_two_bump_merge,
}


def random_exact_scenario(seed: int, split_kind: str = "plain") -> Scenario:
    """Small random atom scenario satisfying the crossing condition by
    construction: drift points rightward through a box control region.

    split_kind "merge" uses a two-component source and one-component target;
    "split" is the reverse.
    """
    rng = np.random.default_rng(seed)
    speed = rng.uniform(0.4, 1.0)
    n0 = int(rng.integers(8, 24))
    n1 = int(rng.integers(8, 24))

    def cluster(center, spread, count):
        return center + spread * (rng.random((count, 2)) - 0.5)

    if split_kind == "merge":
        half = n0 // 2
        src = np.concatenate([cluster(np.array([0.3, 0.3]), 0.3, half),
                              cluster(np.array([0.5, 0.9]), 0.3, n0 - half)])
        tgt = cluster(np.array([4.0, 0.6]), 0.5, n1)
    elif split_kind == "split":
        src = cluster(np.array([0.4, 0.6]), 0.5, n0)
        half = n1 // 2
        tgt = np.concatenate([cluster(np.array([3.9, 0.3]), 0.3, half),
                              cluster(np.array([4.1, 0.9]), 0.3, n1 - half)])
    else:
        src = cluster(np.array([0.4, 0.6]), 0.7, n0)
        tgt = cluster(np.array([4.0, 0.6]), 0.7, n1)

    atoms0 = [[*p, 1.0 / len(src)] for p in src]
    atoms1 = [[*p, 1.0 / len(tgt)] for p in tgt]
    return Scenario.from_dict({
        "dim": 2,
        "v": {"kind": "constant", "value": [float(speed), 0.0]},
        "omega": {"kind": "box", "lo": [1.6, -0.6], "hi": [2.9, 1.6]},
        "mu0": {"atoms": atoms0},
        "mu1": {"atoms": atoms1},
        "params": {"delta": 0.6, "seed": int(seed), "horizon": 24.0,
                   "tol": 1e-6},
    })
