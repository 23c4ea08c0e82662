"""Kernel probe: fixed synthetic inputs for layers no workload reaches at
the sizes the baseline table quotes (grid eval at n = 8 / 20 / 44, RK4 step
overhead on a small batch, exact OT by assignment and by LP)."""
from __future__ import annotations

import statistics
import time

import numpy as np

# (cells per axis, particles), as in the baseline table
GRID_SIZES = [(8, 2_000), (20, 10_000), (44, 50_000)]
REPEATS = 5


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def grid_tables(n, rng):
    """Moving-cell tables of n x n disjoint inner cells in the unit box, in
    the argument order of ``grid_eval_2d`` after the coordinates."""
    edges = (np.arange(n) + rng.uniform(0.1, 0.2, n)) / n
    cxm, cxp = edges, edges + 0.6 / n
    yedges = (np.arange(n)[None, :] + rng.uniform(0.1, 0.2, (n, n))) / n
    cym, cyp = yedges, yedges + 0.6 / n
    ax, bx = rng.normal(size=n), rng.normal(size=n)
    ay, by = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    gx = np.full(n, 0.15 / n)
    gy = np.full((n, n), 0.15 / n)
    return cxm, cxp, ax, bx, cym, cyp, ay, by, gx, gx, gy, gy


def probe_metrics():
    """Metric name -> (value, unit)."""
    from transportlab import _kernels
    from transportlab.flow import TimeField, choose_step, flow_push
    from transportlab.measure import ParticleMeasure
    from transportlab.ot import wp_discrete

    rng = np.random.default_rng(20171026)
    out = {}
    for n, count in GRID_SIZES:
        tables = grid_tables(n, rng)
        pts = rng.random((count, 2))
        px, py = pts[:, 0].copy(), pts[:, 1].copy()
        secs = _median_time(lambda: _kernels.grid_eval_2d(px, py, *tables))
        out[f"kernels.grid_eval_ns_n{n}"] = (secs / count * 1e9, "ns")

    field = TimeField.constant([1.0, 0.0])
    cloud = ParticleMeasure(rng.random((32, 2)), np.full(32, 1.0 / 32))
    tol, span = 1e-6, 20.0
    steps = round(span / choose_step(field, tol, span))
    secs = _median_time(lambda: flow_push(field, cloud, 0.0, span, tol))
    out["flow.rk4_step_us_32"] = (secs / steps * 1e6, "us")

    def uniform(count):
        return ParticleMeasure(rng.random((count, 2)), np.full(count, 1.0 / count))

    src, tgt = uniform(2_000), uniform(2_000)
    out["ot.assignment_s_2000"] = (_median_time(lambda: wp_discrete(src, tgt), 1), "s")
    src, tgt = uniform(300), uniform(400)
    out["ot.lp_s_300x400"] = (_median_time(lambda: wp_discrete(src, tgt), 1), "s")
    return out
