"""Output checks for one `transportlab run`, independent of the program's
own arithmetic where that is the point (W1 is recomputed with scipy)."""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

MASS_TOL = 1e-9
W1_TOL = 1e-9


def read_cloud(path):
    """(positions, weights) of a particle CSV written by the program."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = sum(1 for col in header if col.startswith("x_"))
        rows = [[float(v) for v in row[:dim + 1]] for row in reader]
    arr = np.array(rows, dtype=float).reshape(-1, dim + 1)
    return arr[:, :dim], arr[:, dim]


def merge_coincident(pos, w, decimals=12):
    key = np.round(pos, decimals)
    uniq, inv = np.unique(key, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    merged = np.zeros(len(uniq))
    np.add.at(merged, inv, w)
    return uniq, merged


def exact_w1(pos_a, w_a, pos_b, w_b):
    """Exact W1 between two weighted clouds of equal mass.

    Equal counts with equal weights reduce to an assignment problem;
    anything else is solved as a transportation LP.
    """
    cost = cdist(pos_a, pos_b)
    n, m = cost.shape
    if n == m and np.ptp(w_a) == 0 and np.ptp(w_b) == 0 and w_a[0] == w_b[0]:
        rows, cols = linear_sum_assignment(cost)
        return float(np.sum(cost[rows, cols]) * w_a[0])
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w_a, w_b]),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"W1 LP failed: {res.message}")
    return float(res.fun)


def check_run(out_dir, returncode, expected, mode):
    """Failed checks (empty when the run is correct) and the recomputed W1.

    ``expected`` holds the input's scenario hash, the initial mass and the
    target cloud (positions, weights).
    """
    out = Path(out_dir)
    failures = []
    if returncode != 0:
        return [f"exit code {returncode}"], None
    try:
        report = json.loads((out / "report.json").read_text())
        pos, w = read_cloud(out / "final.csv")
    except (OSError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc}"], None
    if report.get("status") != "ok":
        failures.append(f"status {report.get('status')!r}")
    if report.get("scenario_hash") != expected["scenario_hash"]:
        failures.append("scenario_hash differs from the input's hash")
    if abs(float(np.sum(w)) - expected["mass"]) > MASS_TOL:
        failures.append(f"final mass {np.sum(w)!r} != {expected['mass']!r}")
    tgt_pos, tgt_w = expected["mu1"]
    if mode == "approx":
        w1 = exact_w1(pos, w, tgt_pos, tgt_w)
        reported = float(report["final_w1"]["estimate"])
        if abs(w1 - reported) > W1_TOL:
            failures.append(f"recomputed W1 {w1!r} != reported {reported!r}")
    else:
        merged_pos, merged_w = merge_coincident(pos, w)
        w1 = exact_w1(merged_pos, merged_w, tgt_pos, tgt_w)
        if w1 > W1_TOL:
            failures.append(f"no exact arrival: W1(final, mu1) = {w1!r}")
    return failures, w1
