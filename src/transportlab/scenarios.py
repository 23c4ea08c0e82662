"""Scenario files: the experiment inputs the command line consumes.

A scenario bundles the ambient drift, the control region, the two measures
and the numeric parameters. Parsing round-trips: parse -> serialize ->
parse gives an identical value, and resolved defaults are recorded in the
output manifest rather than applied silently.

The accepted format, one JSON object:

- ``dim``: the dimension d;
- ``v``: the drift, ``{"kind": "zero"}``, ``{"kind": "constant", "value":
  b}`` or ``{"kind": "affine", "matrix": A, "offset": b}`` for
  x' = Ax + b;
- ``omega``: the control region, a box ``{"kind": "box", "lo": lo, "hi":
  hi}``;
- ``mu0``, ``mu1``: each a density (see ``measure.DensitySpec``), whose
  ``lo``, ``hi``, ``mean`` and ``sigma`` are finite, or ``{"atoms":
  rows}``, each row d coordinates and a weight;
- ``params``: ``delta`` (required), and ``particles``, ``seed``,
  ``horizon``, ``tol``, ``epsilon`` and ``n`` (defaults below). ``delta``
  and ``horizon`` must leave the phase times T0 < T1 < ... < T5 distinct
  in floating point.

Any other drift or region kind is an input error.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .flow import TimeField
from .geometry import Region
from .measure import DensitySpec, ParticleMeasure, sample, _integer
from .ot import MASS_TOL

__all__ = ["Scenario", "PRESETS", "load_scenario"]

PARAM_DEFAULTS = {
    "particles": 2000,
    "seed": 0,
    "horizon": 20.0,
    "tol": 1e-6,
    "epsilon": 0.05,
    "n": None,
}
REQUIRED_PARAMS = ("delta",)


def _field_from_dict(desc: dict, dim: int) -> TimeField:
    kind = desc["kind"]
    if kind == "zero":
        return TimeField.zero(dim)
    if kind == "constant":
        return TimeField.constant(desc["value"])
    if kind == "affine":
        return TimeField.affine(desc["matrix"], desc["offset"])
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
        _integer(self.dim, 1, "scenario 'dim'")
        for key in REQUIRED_PARAMS:
            if key not in self.params:
                raise ValueError(f"scenario is missing required parameter {key!r}")
        merged = dict(PARAM_DEFAULTS)
        merged.update(self.params)
        self.params = merged
        # times and tolerances the controllers divide by or step over
        for key in ("horizon", "tol", "delta", "epsilon"):
            value = self.params[key]
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not (math.isfinite(value) and value > 0)):
                raise ValueError(f"scenario parameter {key!r} must be a "
                                 f"positive finite number, got {value!r}")
        # counts and seeds the controllers take as they are ("n" may be
        # null: the controller picks it)
        for key, least in (("particles", 1), ("seed", 0), ("n", 1)):
            if key != "n" or self.params[key] is not None:
                _integer(self.params[key], least, f"scenario parameter {key!r}")
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
        if not isinstance(data, dict):
            raise ValueError(f"a scenario is an object, not {data!r:.40}")
        for name in ("v", "omega", "mu0", "mu1", "params"):
            if not isinstance(data.get(name, {}), dict):
                raise ValueError(f"scenario member {name!r} must be an object, got {data[name]!r}")
        return cls(dim=data["dim"], v=data["v"], omega=data["omega"],
                   mu0=data["mu0"], mu1=data["mu1"],
                   params=dict(data.get("params", {})))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def scenario_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


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

