"""Benchmark for `transportlab run`.

    python3 benchmarks/run.py --workload approx-figure1 --seed 1 --seconds 35 --trace 0
    python3 -m pytest benchmarks/tests -q

Run from the root of a source checkout; the program is imported from its
``src/`` directory, nothing is installed. Scratch output goes to
``.bench_runs/`` in the checkout. Workloads and their inputs are in
``workloads.py``.

``--trace 0`` measures what a user sees. It runs one ``transportlab run``
process per input of the seed, one at a time, repeats that cycle while the
next one fits in ``--seconds`` (at least once), and checks every output.
Separately, it times set-up processes that import the package, load the
scenario and sample both measures. Peak RSS comes from each run's own ``os.wait4`` rusage, because
``RUSAGE_CHILDREN`` keeps a maximum over all earlier children.

``--trace 1`` runs the command for the first input in this process, once
plain and once under the tracer, then the kernel probe, and reports
per-layer numbers: phase self times attributed by field label, counts of
work at each layer boundary, and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the run (source digest, lane, CPU count, library versions and the
problem the program reports it solved). Exits 2 without a result when the
checkout has no ``src/transportlab``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from checks import check_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
# every child is killed once the whole benchmark has run this long
DEADLINE_S = 170.0
CONTROL_PROBES = 4096

SETUP_CODE = """
import sys
from transportlab import cli
args = cli.build_parser().parse_args(sys.argv[1:])
scenario = cli._apply_overrides(cli.load_scenario(args.scenario), args)
scenario.measure("mu0")
scenario.measure("mu1")
"""


class Bench:
    """One benchmark invocation: a workload at a seed, in a checkout."""

    def __init__(self, root: Path, workload, seed: int):
        self.deadline = time.perf_counter() + DEADLINE_S
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_runs" / f"{workload.name}-{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = str(self.work)
        sys.path.insert(0, src)
        self.inputs = []
        for input_seed in workload.input_seeds(seed):
            scenario_path = self.work / f"scenario{input_seed}.json"
            workload.write_inputs(input_seed, scenario_path)
            self.inputs.append(self._expected(input_seed, scenario_path))

    def run_args(self, inp, out_dir) -> list[str]:
        return (["run", "--out", str(out_dir)]
                + self.workload.run_args(inp["seed"], inp["scenario_path"]))

    def _expected(self, input_seed, scenario_path) -> dict:
        """What a correct run on this input must reproduce."""
        from transportlab import cli

        inp = {"seed": input_seed, "scenario_path": scenario_path}
        args = cli.build_parser().parse_args(self.run_args(inp, self.work))
        scenario = cli._apply_overrides(cli.load_scenario(args.scenario), args)
        mu0, mu1 = scenario.measure("mu0"), scenario.measure("mu1")
        inp.update(scenario=scenario, scenario_hash=scenario.scenario_hash(),
                   mass=mu0.total_mass(), particles=len(mu0),
                   mu1=(mu1.positions, mu1.weights))
        return inp

    # -- processes -------------------------------------------------------------
    def spawn(self, argv, log_name):
        """Run one child to completion; (exit code, wall s, peak RSS MB)."""
        with open(self.work / log_name, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(
                max(0.0, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def time_setup(self, index):
        argv = [sys.executable, "-c", SETUP_CODE] + self.run_args(
            self.inputs[0], self.work / f"setup{index}")
        code, wall, _ = self.spawn(argv, f"setup{index}.log")
        if code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
        return wall

    def run_once(self, inp, tag):
        out = self.work / f"out{inp['seed']}_{tag}"
        argv = ([sys.executable, "-m", "transportlab.cli"]
                + self.run_args(inp, out))
        code, wall, rss = self.spawn(argv, f"run{inp['seed']}_{tag}.log")
        failures, w1 = check_run(out, code, inp, self.workload.mode)
        for msg in failures:
            print(f"check failed (input seed {inp['seed']}): {msg}",
                  file=sys.stderr)
        return {"input_seed": inp["seed"], "wall_s": wall, "peak_rss_mb": rss,
                "final_w1": w1, "failures": failures, "out": out}

    # -- stamps ------------------------------------------------------------------
    def stamp(self, out_dirs) -> dict:
        import numpy
        import scipy
        import transportlab

        solved = []
        for out in out_dirs:
            try:
                report = json.loads((Path(out) / "report.json").read_text())
            except (OSError, ValueError):
                report = {}
            solved.append({key: report.get(key)
                           for key in ("grid_n", "storage_k", "funnel_k")})
        return {
            "workload": self.workload.name, "seed": self.seed,
            "held_out_seed": self.workload.held_out_seed,
            "input_seeds": [inp["seed"] for inp in self.inputs],
            "particles": [inp["particles"] for inp in self.inputs],
            "git_sha": git_sha(self.root), "src_sha256": src_digest(self.root),
            "lane": transportlab.active_lane(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "solved": solved,
        }


def git_sha(root):
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def src_digest(root):
    """Digest of every file under src/, so a run names the code it measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(bench: Bench, seconds: float):
    """Times every input once per cycle, and repeats whole cycles while the
    next one still fits in ``seconds``. A metric is the median over cycles
    of the mean over a cycle's inputs, so no single draw sets it."""
    # one untimed set-up first, so the bytecode cache is filled before timing
    bench.time_setup(0)
    setups = [bench.time_setup(i + 1) for i in range(SETUP_REPEATS)]
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append([bench.run_once(inp, len(cycles)) for inp in bench.inputs])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cycles) > seconds:
            break
    runs = [r for cycle in cycles for r in cycle]
    failed = sum(1 for r in runs if r["failures"])

    def per_run(key):
        return statistics.median(
            statistics.fmean(r[key] for r in cycle) for cycle in cycles)

    metrics = {
        "wall_s": (per_run("wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (per_run("peak_rss_mb"), "MB"),
    }
    summary = {"samples": {"wall_s": len(runs), "setup_s": len(setups),
                           "peak_rss_mb": len(runs)},
               "runs": [{key: r[key] for key in ("input_seed", "wall_s",
                                                 "peak_rss_mb")}
                        for r in runs],
               "final_w1": [r["final_w1"] for r in cycles[0]],
               "failed_frac": failed / len(runs)}
    return metrics, summary, len(runs), failed, [r["out"] for r in cycles[0]]


def traced(bench: Bench):
    """Per-layer numbers for the first input: the same command in this
    process untraced and then traced (their difference is the tracing
    overhead), then the kernel probe."""
    from probe import probe_metrics
    from tracer import Tracer, phase_breakdown
    from transportlab import cli

    inp = bench.inputs[0]

    def run_in_process(out):
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(bench.run_args(inp, out))
        return code, time.perf_counter() - start

    plain_code, plain_wall = run_in_process(bench.work / "out_untraced")
    with Tracer(trace_id=f"{bench.workload.name}-{bench.seed}") as tracer:
        code, traced_wall = run_in_process(bench.work / "out_traced")
    tracer.write(bench.work / "spans.json")
    out = bench.work / "out_traced"
    plain_failures, _ = check_run(bench.work / "out_untraced", plain_code,
                                  inp, bench.workload.mode)
    failures, w1 = check_run(out, code, inp, bench.workload.mode)
    outside = 0.0
    if tracer.controller_results:
        outside = tracer.controller_results[0].schedule.max_control_outside(
            inp["scenario"].omega_region(), CONTROL_PROBES, inp["seed"])
        if outside != 0.0:
            failures.append(f"control outside omega: {outside!r}")
    for msg in plain_failures + failures:
        print(f"check failed: {msg}", file=sys.stderr)

    metrics = layer_metrics(tracer, phase_breakdown(tracer.spans))
    metrics.update(probe_metrics())
    metrics["tracing_overhead_s"] = (traced_wall - plain_wall, "s")
    metrics["synth.max_control_outside"] = (outside, "velocity")
    metrics["final_w1"] = (w1 or 0.0, "distance")
    failed = int(bool(plain_failures)) + int(bool(failures))
    metrics["failed_frac"] = (failed / 2, "ratio")
    summary = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall}
    return metrics, summary, 2, failed, [out]


def layer_metrics(tracer, breakdown):
    phases, controller_s = breakdown
    spans = tracer.spans
    counts = tracer.counts

    def total(name, pred=lambda s: True):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and pred(s))

    def count(name, pred=lambda s: True):
        return sum(1 for s in spans if s["name"] == name and pred(s))

    def ratio(a, b):
        return a / b if b else 0.0

    storage_attempts = count("flow.push",
                             lambda s: s["label"].startswith("storage_total_k"))
    funnel_attempts = count("flow.stopped",
                            lambda s: s["label"].startswith("exact_funnel_k"))
    funnel_escalations = count("synth.exact_funnel")
    covered = sum(phases.values())
    return {
        "synth.controller_s": (controller_s, "s"),
        "synth.phase_coverage": (ratio(covered, controller_s), "ratio"),
        "synth.storage_s": (phases.get("storage", 0.0), "s"),
        "synth.storage_attempts": (storage_attempts, "count"),
        "synth.funnel_s": (phases.get("funnel", 0.0), "s"),
        "synth.grid_s": (phases.get("grid", 0.0), "s"),
        "synth.exact_funnel_s": (phases.get("exact_funnel", 0.0), "s"),
        "synth.exact_funnel_attempts": (funnel_attempts, "count"),
        "synth.exact_funnel_useful_ratio":
            (ratio(funnel_escalations, funnel_attempts), "ratio"),
        "synth.exact_park_s": (phases.get("exact_park", 0.0), "s"),
        "flow.field_evals": (counts["field_evals"], "count"),
        "flow.points_evaluated": (counts["points_evaluated"], "count"),
        "flow.ns_per_point": (ratio(counts["field_eval_s"] * 1e9,
                                    counts["points_evaluated"]), "ns"),
        "flow.us_per_eval": (ratio(counts["field_eval_s"] * 1e6,
                                   counts["field_evals"]), "us"),
        "flow.stopped_flow_s": (total("flow.stopped"), "s"),
        "kernels.grid_eval_calls": (counts["grid_eval_calls"], "count"),
        "kernels.grid_eval_ns_per_point": (ratio(counts["grid_eval_s"] * 1e9,
                                                 counts["grid_eval_points"]), "ns"),
        "geometry.check_s": (phases.get("geometry_check", 0.0), "s"),
        "geometry.weight_eta_s": (phases.get("weight_eta", 0.0), "s"),
        "measure.sample_s": (total("measure.sample"), "s"),
        "measure.quantile_partition_s": (phases.get("quantile_partition", 0.0), "s"),
        "ot.wp_discrete_s": (total("ot.wp_discrete"), "s"),
        "ot.wp_discrete_calls": (count("ot.wp_discrete"), "count"),
        "ot.max_atoms": (counts["wp_max_atoms"], "count"),
        "cli.artifacts_s": (total("cli.artifacts"), "s"),
        "cli.artifact_bytes": (counts["artifact_bytes"], "bytes"),
        "scenarios.load_s": (total("scenarios.load"), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "transportlab" / "cli.py").is_file():
        print(f"no transportlab sources under {root / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, summary, attempted, failed, out = traced(bench)
    else:
        metrics, summary, attempted, failed, out = end_to_end(bench, args.seconds)
    samples = summary.get("samples", {})
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={samples.get(name, 1)})")
    print(json.dumps({"stamp": bench.stamp(out), "summary": summary}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
