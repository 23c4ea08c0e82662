"""Tests of the benchmark itself: deterministic inputs, a tracer that leaves
the program as it found it, and spans at every layer of a tiny traced run.

    python3 -m pytest benchmarks/tests -q
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from checks import check_run  # noqa: E402
from run import Bench  # noqa: E402
from tracer import (SPAN_TARGETS, Tracer, phase_breakdown,  # noqa: E402
                    resolve, self_times)
from workloads import WORKLOADS, cluster_scenario  # noqa: E402


def originals():
    out = {}
    for module, dotted, _ in SPAN_TARGETS:
        owner, attr = resolve(module, dotted)
        out[(module, dotted)] = owner.__dict__[attr]
    from transportlab import _kernels
    from transportlab.flow import TimeField
    out["evaluate"] = TimeField.__dict__["evaluate"]
    out["grid_eval_2d"] = _kernels.grid_eval_2d
    out["grid_eval_1d"] = _kernels.grid_eval_1d
    return out


def test_workload_inputs_are_deterministic_in_the_seed(tmp_path):
    assert cluster_scenario(5) == cluster_scenario(5)
    assert cluster_scenario(5) != cluster_scenario(6)
    for workload in WORKLOADS.values():
        def hashes(seed):
            bench = Bench(tmp_path, workload, seed)
            return [inp["scenario_hash"] for inp in bench.inputs]

        assert hashes(11) == hashes(11)
        assert not set(hashes(11)) & set(hashes(12))


def test_tracer_restores_originals():
    before = originals()
    with Tracer():
        assert originals() != before
    assert originals() == before
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert originals() == before


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 1, "parent": None, "name": "controller", "label": "",
         "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "name": "geometry.check", "label": "",
         "start": 0.0, "end": 3.0},
        {"id": 3, "parent": 2, "name": "flow.stopped", "label": "constant",
         "start": 0.5, "end": 2.5},
        {"id": 4, "parent": 1, "name": "flow.push",
         "label": "storage_total_k4", "start": 3.0, "end": 9.0},
    ]
    assert self_times(spans) == {1: 1.0, 2: 1.0, 3: 2.0, 4: 6.0}
    phases, wall = phase_breakdown(spans)
    assert phases == {"geometry_check": 3.0, "storage": 6.0}
    assert wall == 10.0


def test_tiny_traced_run_records_every_layer(tmp_path):
    from transportlab import cli

    argv = ["run", "--out", str(tmp_path / "out"), "--scenario", "figure1",
            "--particles", "300", "--seed-override", "5"]
    with Tracer() as tr, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    names = {s["name"] for s in tr.spans}
    layers = {name.split(".")[0] for name in names}
    assert {"scenarios", "measure", "controller", "geometry", "flow", "ot",
            "synth", "cli"} <= layers
    assert {"flow.push", "flow.stopped", "flow.integrate", "synth.grid",
            "measure.quantile_partition", "ot.wp_discrete",
            "cli.artifacts"} <= names
    assert tr.counts["grid_eval_calls"] > 0
    assert tr.counts["field_evals"] > 0
    phases, wall = phase_breakdown(tr.spans)
    assert {"storage", "funnel", "grid"} <= set(phases)
    assert sum(phases.values()) >= 0.9 * wall

    workload = WORKLOADS["approx-figure1"]
    args = cli.build_parser().parse_args(argv)
    scenario = cli._apply_overrides(cli.load_scenario(args.scenario), args)
    mu1 = scenario.measure("mu1")
    expected = {"scenario_hash": scenario.scenario_hash(), "mass": 1.0,
                "mu1": (mu1.positions, mu1.weights)}
    failures, w1 = check_run(tmp_path / "out", 0, expected, workload.mode)
    assert failures == []
    schedule = tr.controller_results[0].schedule
    assert schedule.max_control_outside(scenario.omega_region(), 1024, 0) == 0.0
