"""In-process tracer for one `transportlab run`.

It wraps public entry points of each module from outside, records a span
around every call (name, start, end, parent, field label) and counts work at
the same boundaries. Nothing under ``src/`` changes: a name is patched where
the caller looks it up, because ``synth`` and ``geometry`` import
``flow_push``, ``stopped_flow_batch`` and ``_integrate_batch`` by name, and
patching only ``transportlab.flow`` would record nothing. Spans stay in
memory until the run ends; every original is restored on exit.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import time

# (module, attribute path inside it, span name)
SPAN_TARGETS = [
    ("transportlab.cli", "load_scenario", "scenarios.load"),
    ("transportlab.scenarios", "sample", "measure.sample"),
    ("transportlab.cli", "approx_controller", "controller"),
    ("transportlab.cli", "exact_controller", "controller"),
    ("transportlab.synth", "check_geometric_condition", "geometry.check"),
    ("transportlab.synth", "weight_eta", "geometry.weight_eta"),
    ("transportlab.synth", "quantile_partition", "measure.quantile_partition"),
    ("transportlab.synth", "wp_discrete", "ot.wp_discrete"),
    ("transportlab.ot", "wp_discrete", "ot.wp_discrete"),
    ("transportlab.synth", "_escalate_exact_funnel", "synth.exact_funnel"),
    ("transportlab.synth", "flow_push", "flow.push"),
    ("transportlab.synth", "stopped_flow_batch", "flow.stopped"),
    ("transportlab.geometry", "stopped_flow_batch", "flow.stopped"),
    ("transportlab.synth", "_integrate_batch_local", "flow.integrate"),
    ("transportlab.synth", "MovingFrameGridField.advect", "synth.grid"),
    ("transportlab.synth", "ControlSchedule.to_json", "cli.artifacts"),
    ("transportlab.flow", "Trajectory.save", "cli.artifacts"),
    ("transportlab.measure", "ParticleMeasure.save", "cli.artifacts"),
]

FLOW_SPANS = ("flow.push", "flow.stopped", "flow.integrate")

# controller phases, keyed by the label of the field handed to the flow layer
LABEL_PHASES = [
    (re.compile(r"^-?\(?storage_total_k\d+\)?$"), "storage"),
    (re.compile(r"^(rev\()?funnel_affine\)?$"), "funnel"),
    (re.compile(r"^grid_(norm|frame_outer)$"), "grid"),
    (re.compile(r"^exact_funnel_k\d+$"), "exact_funnel"),
]

# spans that are phases by name; a flow span with any other label (the bare
# drift) belongs to the geometry check when called from it, else it parks
# atoms along the drift in the exact lane
NAME_PHASES = {
    "synth.grid": "grid",
    "synth.exact_funnel": "exact_funnel",
    "geometry.check": "geometry_check",
    "geometry.weight_eta": "weight_eta",
    "measure.quantile_partition": "quantile_partition",
    "ot.wp_discrete": "wp_discrete",
    "measure.sample": "sample",
}


def resolve(module, dotted):
    """(owner, attribute name) of a patch target."""
    parts = dotted.split(".")
    owner = functools.reduce(getattr, parts[:-1],
                             importlib.import_module(module))
    return owner, parts[-1]


class Tracer:
    """Context manager that patches the targets and records spans."""

    def __init__(self, trace_id="run"):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []
        self._ids = itertools.count(1)
        self._saved = []
        self.controller_results = []
        self.eval_depth = 0
        self.counts = {"field_evals": 0, "points_evaluated": 0,
                       "field_eval_s": 0.0, "grid_eval_calls": 0,
                       "grid_eval_points": 0, "grid_eval_s": 0.0,
                       "wp_max_atoms": 0, "artifact_bytes": 0}

    # -- patching ------------------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        try:
            for module, dotted, name in SPAN_TARGETS:
                owner, attr = resolve(module, dotted)
                self._patch(owner, attr, self._span_wrapper(
                    owner.__dict__[attr], name))
            self._patch_counters()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, original, name):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = getattr(args[0], "label", "") if name in FLOW_SPANS else ""
            span = {"id": next(tracer._ids), "trace": tracer.trace_id,
                    "name": name, "label": label,
                    "parent": tracer._stack[-1]["id"] if tracer._stack else None}
            if name == "ot.wp_discrete":
                tracer.counts["wp_max_atoms"] = max(
                    tracer.counts["wp_max_atoms"], len(args[0]), len(args[1]))
            tracer._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if name == "controller":
                tracer.controller_results.append(result)
            if name == "cli.artifacts":
                tracer.counts["artifact_bytes"] += _bytes_written(args)
            return result

        return wrapper

    def _patch_counters(self):
        from transportlab import _kernels
        from transportlab.flow import TimeField

        tracer = self
        counts = self.counts
        evaluate = TimeField.__dict__["evaluate"]

        @functools.wraps(evaluate)
        def counted_evaluate(field, points, t):
            if tracer.eval_depth:
                return evaluate(field, points, t)
            tracer.eval_depth += 1
            start = time.perf_counter()
            try:
                out = evaluate(field, points, t)
            finally:
                counts["field_eval_s"] += time.perf_counter() - start
                tracer.eval_depth -= 1
            counts["field_evals"] += 1
            counts["points_evaluated"] += out.shape[0]
            return out

        self._patch(TimeField, "evaluate", counted_evaluate)
        for attr in ("grid_eval_2d", "grid_eval_1d"):
            self._patch(_kernels, attr, self._kernel_counter(
                _kernels.__dict__[attr]))

    def _kernel_counter(self, original):
        counts = self.counts

        @functools.wraps(original)
        def counted(px, *rest):
            start = time.perf_counter()
            out = original(px, *rest)
            counts["grid_eval_s"] += time.perf_counter() - start
            counts["grid_eval_calls"] += 1
            counts["grid_eval_points"] += px.shape[0]
            return out

        return counted

    # -- reporting -------------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"trace": self.trace_id, "spans": self.spans,
                       "counts": self.counts}, fh)


def _bytes_written(args):
    from pathlib import Path

    total = 0
    for arg in args[1:]:
        path = Path(arg)
        if path.is_file():
            total += path.stat().st_size
        elif path.is_dir():
            total += sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return total


def phase_of(span, by_id):
    """Controller phase a span's self time is charged to, or None."""
    if span["name"] in FLOW_SPANS:
        for pattern, phase in LABEL_PHASES:
            if pattern.match(span["label"]):
                return phase
        parent = by_id.get(span["parent"])
        if parent is not None and parent["name"] == "geometry.check":
            return "geometry_check"
        return "exact_park"
    return NAME_PHASES.get(span["name"])


def self_times(spans):
    """Span id -> duration minus the time its direct children cover."""
    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = (child_time.get(span["parent"], 0.0)
                                          + span["end"] - span["start"])
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            for s in spans}


def phase_breakdown(spans):
    """Self time per controller phase, plus the controller's own wall time.

    Only spans inside the controller count, so the setup-time sampling of
    the CLI is excluded from the phases.
    """
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    controller = [s for s in spans if s["name"] == "controller"]
    inside = set()
    for span in spans:
        node = span
        while node is not None:
            if node["name"] == "controller":
                inside.add(span["id"])
                break
            node = by_id.get(node["parent"])
    phases = {}
    for span in spans:
        if span["id"] not in inside or span["name"] == "controller":
            continue
        phase = phase_of(span, by_id)
        if phase is not None:
            phases[phase] = phases.get(phase, 0.0) + selfs[span["id"]]
    wall = sum(s["end"] - s["start"] for s in controller)
    return phases, wall
