"""Helpers the tests share: a random exact-lane scenario, a scenario file
writer, a CSV reader and two measure transforms no command needs."""
from __future__ import annotations

import csv
import json

import numpy as np

from transportlab.measure import ParticleMeasure
from transportlab.scenarios import Scenario


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


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario.to_dict(), fh, indent=2, sort_keys=True)


def measure_from_csv(path) -> ParticleMeasure:
    """The positions and weights of a CSV ``ParticleMeasure.to_csv``
    wrote."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        dim = sum(c.startswith("x_") for c in next(reader))
        rows = [[float(v) for v in row[:dim + 1]] for row in reader]
    rows = np.array(rows).reshape(-1, dim + 1)
    return ParticleMeasure(rows[:, :dim], rows[:, dim])


def normalized(mu: ParticleMeasure) -> ParticleMeasure:
    return mu.scaled(1.0 / mu.total_mass())


def merged_coincident(mu: ParticleMeasure) -> ParticleMeasure:
    """Sum weights of particles sharing a position (compared rounded to 12
    decimals)."""
    key = np.round(mu.positions, 12)
    uniq, inv = np.unique(key, axis=0, return_inverse=True)
    w = np.zeros(len(uniq))
    np.add.at(w, inv, mu.weights)
    pos = np.zeros_like(uniq)
    # mass-weighted representative keeps exact positions when they agree
    np.add.at(pos, inv, mu.positions * mu.weights[:, None])
    pos /= w[:, None]
    return ParticleMeasure(pos, w)
