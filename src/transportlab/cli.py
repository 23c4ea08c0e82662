"""Command-line surface: run controllers, convergence studies, negative-result
demonstrations and the crossing-condition check.

Exit codes: 0 success; 1 malformed input, usage, or an ``--out`` the
command cannot write (``output error:``); 2 crossing-condition failure (the
report carries the counterexample point); 120 when standard output or error
cannot be flushed at the end, as CPython reports it. ``main`` decides the
exit code of every scenario failure; the commands raise. Only ``study``
reports a bad ``--n-list`` itself (``input error:``). A drift that
overflows before a support point enters the control region is malformed
input (``scenario error:``, exit 1).

``main`` returns its exit code, for in-process callers. The command line
(``python -m transportlab.cli`` and the ``transportlab`` script) goes
through ``entry``, which ends the process without the interpreter's
teardown once every output is closed.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .flow import flow_push, TimeField
from .geometry import ConditionFailure
from .measure import ParticleMeasure, quantile_partition
from .ot import w1_bracket, wp_discrete
from .scenarios import Scenario, load_scenario
from .synth import (GridControlField, approx_controller, exact_controller,
                    grid_error_bound, bv_blowup_diagnostic, linear_merge_toy,
                    shear_diagnostic, _plan)


def _write_json(path, payload):
    """Write ``payload`` to ``path``, creating its directory: a command
    makes its ``--out`` directory only when it writes into it."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(out: Path, stem, payload, rows, line):
    """Write ``payload`` to ``<stem>.json`` and ``rows`` to ``<stem>.csv``
    under ``out``, then print each row through the format ``line``."""
    _write_json(out / f"{stem}.json", payload)
    with open(out / f"{stem}.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for row in rows:
        print(line.format(**row))


def _stamp(scenario: Scenario | None, extra=None) -> dict:
    out = {"artifact_version": __version__}
    if scenario is not None:
        out["scenario_hash"] = scenario.scenario_hash()
        out["resolved_params"] = scenario.params
    if extra:
        out.update(extra)
    return out


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    data = scenario.to_dict()
    if getattr(args, "seed_override", None) is not None:
        data["params"]["seed"] = int(args.seed_override)
    if getattr(args, "particles", None) is not None:
        data["params"]["particles"] = int(args.particles)
    return Scenario.from_dict(data)


def cmd_run(args, scenario: Scenario) -> int:
    if args.mode == "approx":
        result = approx_controller(scenario)
    else:
        result = exact_controller(scenario)
    out = Path(args.out)
    report = _stamp(scenario, {"status": "ok", **result.report})
    _write_json(out / "report.json", report)
    result.schedule.to_json(out / "schedule.json")
    snapshots = result.trajectory.save(out / "trajectory")
    result.trajectory.final().save(out / "final.csv", out / "final.json",
                                   copy_of=snapshots[-1])
    w1 = result.report["final_w1"]
    print(f"final W1 estimate: {w1['estimate']:.6g}")
    if not w1.get("epsilon_certified", True):
        print(f"W1 {w1['estimate']:.6g} does not meet epsilon "
              f"{result.report['epsilon']:.6g}", file=sys.stderr)
    return 0


def cmd_check(args, scenario: Scenario) -> int:
    """The controllers' own crossing check, and nothing after it."""
    cond = _plan(scenario).cond
    _write_json(Path(args.out) / "check.json", _stamp(scenario, {
        "status": "ok", "T0star": cond.T0star, "T1star": cond.T1star,
        "omega0": cond.omega0.to_dict(), "margin": cond.margin,
        "resolution": cond.resolution}))
    print(f"T0* = {cond.T0star:.6g}, T1* = {cond.T1star:.6g}")
    return 0


def convergence_study(scenario: Scenario, n_list, out_dir, tol=1e-6) -> list[dict]:
    """Moving-cell convergence: advect the source under the synthesized grid
    field for each n and record the measured W1 against the target sampling,
    the certified bound (``grid_error_bound``) and the sampling error floor,
    all in world units. Each cloud is cut within its own frame, as
    ``approx_controller`` cuts its parked clouds. Both W1 values are exact
    where ``wp_discrete`` solves them, else the certified upper bound of
    ``w1_bracket``. With an ``out_dir``, the rows are written there and
    printed.

    Every mesh is built before any flow runs; an n the particles cannot
    partition (too fine for their count) raises ``ValueError``."""
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    seed = int(scenario.params["seed"])
    # an independent sampling of the target for the noise floor
    resampled = Scenario.from_dict({**scenario.to_dict(),
                                    "params": {**scenario.params,
                                               "seed": seed + 7919}})
    floor = w1_bracket(mu1, resampled.measure("mu1"))["estimate"]

    meshes = [quantile_partition(mu0, mu1, int(n)) for n in n_list]
    rows = []
    for n, (part_src, part_tgt) in zip(n_list, meshes):
        fld = GridControlField(part_src, part_tgt, T=1.0)
        images, closed, _ = fld.flow(mu0.positions, 0.0, 1.0, tol)
        moved = ParticleMeasure(images, mu0.weights)
        rows.append({"n": int(n),
                     "measured_w1": w1_bracket(moved, mu1)["estimate"],
                     "predicted_bound": grid_error_bound(part_tgt, moved,
                                                         closed, mu1),
                     "sample_error": floor})
    if out_dir is not None:
        _write_table(Path(out_dir), "study", _stamp(scenario, {"rows": rows}),
                     rows, "n={n:3d} measured={measured_w1:.4f} "
                     "bound={predicted_bound:.4f} floor={sample_error:.4f}")
    return rows


def cmd_study(args, scenario: Scenario) -> int:
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok]
        if not n_list:
            raise ValueError("empty n list")
        if min(n_list) < 1:
            raise ValueError("every n must be >= 1")
        convergence_study(scenario, n_list, args.out,
                          tol=float(scenario.params["tol"]))
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# negative-result runners
# ---------------------------------------------------------------------------

def sqrt_field_solution(t: float, q: float) -> float:
    """Quantile of the law of uniform(-1, 1) pushed through x' = sqrt(x).

    Mass starting at x0 <= 0 stays put; mass at x0 > 0 moves along
    x0 -> (sqrt(x0) + t/2)^2. The map is monotone, so the q-quantile of the
    time-t law is the image of the q-quantile of the initial law.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile level must lie in (0, 1)")
    if t < 0:
        raise ValueError("t must be nonnegative")
    x0 = -1.0 + 2.0 * q
    if x0 <= 0.0:
        return float(x0)
    return float((np.sqrt(x0) + 0.5 * t) ** 2)


def sqrt_split_errors(counts=(10_000, 100_000), t_end=1.0, tol=1e-8) -> list[dict]:
    """Splitting-field demonstration: advect a stratified discretization of
    the uniform initial profile under the square-root drift and compare with
    the closed-form law at matching quantile levels."""
    rows = []
    for count in counts:
        # stratified mass midpoints of uniform(-1, 1), total mass 2
        levels = (np.arange(count) + 0.5) / count
        pos = (-1.0 + 2.0 * levels)[:, None]
        mu = ParticleMeasure(pos, np.full(count, 2.0 / count))
        fld = TimeField(lambda p, t: np.sqrt(np.maximum(p, 0.0)), 1,
                        lipschitz_bound=math.inf, sup_bound=2.0,
                        label="sqrt-drift", descriptor={"kind": "sqrt"})
        moved, _ = flow_push(fld, mu, 0.0, t_end, tol)
        exact = np.array([sqrt_field_solution(t_end, q) for q in levels])[:, None]
        reference = ParticleMeasure(exact, np.full(count, 2.0 / count))
        rows.append({"count": count,
                     "w1_error": wp_discrete(moved, reference)[0]})
    return rows


def cmd_counterexample(args, scenario) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.name == "bv-merge":
        table = bv_blowup_diagnostic(linear_merge_toy(), pair=(0, 1))
        _write_table(out, "bv_merge", _stamp(None, {"diagnostic": table}),
                     table["rows"],
                     "m={halvings:2d} gap={gap:.3e} integral={integral:.4f}")
        return 0
    if args.name == "sqrt-split":
        rows = sqrt_split_errors()
        _write_table(out, "sqrt_split", _stamp(None, {"rows": rows}), rows,
                     "N={count:7d} W1 error={w1_error:.3e}")
        return 0
    table = shear_diagnostic()
    _write_json(out / "shear.json", _stamp(None, {"diagnostic": table}))
    print(f"max velocity jump across the interior line: "
          f"{table['max_jump']:.4f}")
    return 0


def _scenario_command(sub, name, summary, func):
    """A subcommand taking the options every scenario command shares."""
    cmd = sub.add_parser(name, help=summary)
    cmd.add_argument("--scenario", required=True,
                     help="scenario JSON path or preset name")
    cmd.add_argument("--out", required=True)
    cmd.add_argument("--seed-override", type=int, default=None)
    cmd.add_argument("--particles", type=int, default=None)
    cmd.set_defaults(func=func)
    return cmd


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transportlab",
        description="Steer particle measures with localized velocity controls")
    sub = parser.add_subparsers(dest="command", required=True)

    run = _scenario_command(sub, "run", "synthesize and simulate a full "
                            "schedule", cmd_run)
    run.add_argument("--mode", choices=("approx", "exact"), default="approx")

    study = _scenario_command(sub, "study", "moving-cell convergence study",
                              cmd_study)
    study.add_argument("--n-list", required=True,
                       help="comma-separated cell counts, e.g. 4,8,16")

    ce = sub.add_parser("counterexample",
                        help="negative-result demonstrations")
    ce.add_argument("--name", required=True,
                    choices=("bv-merge", "sqrt-split", "shear"))
    ce.add_argument("--out", required=True)
    ce.set_defaults(func=cmd_counterexample)

    _scenario_command(sub, "check", "crossing-condition check only",
                      cmd_check)
    return parser


def _unusable_out(out: Path) -> str | None:
    """Why no command can write into ``out``, or None: the nearest of
    ``out`` and its ancestors that exists must be a writable directory.
    Creates nothing: a command makes ``out`` only when it writes into it."""
    base = next(p for p in (out, *out.parents) if p.exists())
    if base.is_dir() and os.access(base, os.W_OK | os.X_OK):
        return None
    return f"{base} is not a writable directory"


def _run(args, out: Path) -> int:
    """Load the scenario and run the command on it; a write under ``out``
    that fails raises ``OSError``."""
    scenario = None
    if args.command != "counterexample":
        try:
            scenario = _apply_overrides(load_scenario(args.scenario), args)
        except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 1
    try:
        return args.func(args, scenario)
    except ConditionFailure as exc:
        name = "check.json" if args.command == "check" else "report.json"
        _write_json(out / name, _stamp(scenario, {"status": "condition-failed",
                                                  **exc.to_dict()}))
        print(f"crossing condition failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """Run one command and return its exit code; the process goes on. The
    code is decided here and in ``_run``, in this order: usage, an ``--out``
    no command could write into (before any work), the scenario's load,
    then the command. A ``ConditionFailure`` exits 2 with its report; a
    ``ValueError`` or ``FloatingPointError`` (such as a drift overflowing
    before entry) is a ``scenario error:``, an ``OSError`` an ``output
    error:``. Any other exception is an internal fault and escapes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on misuse
        return 1 if exc.code else 0
    out = Path(args.out)
    try:
        unusable = _unusable_out(out)
        if unusable is None:
            return _run(args, out)
    except OSError as exc:
        unusable = str(exc)
    print(f"output error: {unusable}", file=sys.stderr)
    return 1


def _plain_warning(message, category, filename, lineno, line=None):
    """A warning as one line that names no source file and shows no code,
    so a command's standard error reads the same from any checkout."""
    return f"warning: {message}\n"


def entry(argv=None) -> int:
    """The command line: ``main(argv)``, then the end of the process through
    ``os._exit`` once standard output and error are flushed. Every file a
    command writes is closed by then, so CPython's teardown, which frees
    numpy's and this package's modules one object at a time, would give
    the user nothing. A warning prints as one line, ``warning: <message>``.
    An exception escaping ``main`` takes the normal path (traceback, exit
    1). If a flush fails (a reader closed its pipe), this returns the code,
    and CPython's own finalization reports the lost output and exits
    120."""
    warnings.formatwarning = _plain_warning
    code = main(argv)
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the stream was closed at start
                stream.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())
