"""Command-line surface: run controllers, convergence studies, negative-result
demonstrations and the crossing-condition check.

Exit codes: 0 success, 1 malformed input or usage, 2 crossing-condition
failure (the report carries the counterexample point).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .flow import flow_push, TimeField
from .geometry import ConditionFailure, check_geometric_condition
from .measure import ParticleMeasure, quantile_partition
from .oracle import sqrt_field_solution
from .ot import EXACT_SOLVER_CAP, w1_1d, w1_bracket
from .scenarios import Scenario, load_scenario
from .synth import (GridControlField, approx_controller, exact_controller,
                    grid_error_bound, bv_blowup_diagnostic, linear_merge_toy,
                    shear_diagnostic)


def _write_json(path, payload):
    """Write ``payload`` to ``path``, creating its directory: a command
    makes its ``--out`` directory only when it writes into it."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _load(args, check=None) -> Scenario | None:
    """The scenario ``args.scenario`` with the command-line overrides
    applied, once ``check`` (which may raise ValueError) passes on it; or
    None after printing ``scenario error:``, for the caller to exit 1."""
    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args)
        if check is not None:
            check(scenario)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return None
    return scenario


def _check_runnable(scenario: Scenario, mode: str) -> None:
    # the exact lane solves one transport problem between the atom sets;
    # count them unsampled and refuse a size it cannot solve up front
    if mode == "exact":
        sizes = [len(spec["atoms"]) if "atoms" in spec
                 else int(scenario.params["particles"])
                 for spec in (scenario.mu0, scenario.mu1)]
        if max(sizes) > EXACT_SOLVER_CAP:
            raise ValueError(f"exact mode needs at most {EXACT_SOLVER_CAP}"
                             f" atoms per side, got {sizes[0]} and "
                             f"{sizes[1]}")


def cmd_run(args) -> int:
    scenario = _load(args, lambda s: _check_runnable(s, args.mode))
    if scenario is None:
        return 1
    out = Path(args.out)
    try:
        if args.mode == "approx":
            result = approx_controller(scenario)
        else:
            result = exact_controller(scenario)
    except ConditionFailure as exc:
        _write_json(out / "report.json",
                    _stamp(scenario, {"status": "condition-failed",
                                      **exc.to_dict()}))
        print(f"crossing condition failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # e.g. an omega0 too thin for the storage cutoff's cap
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
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


def cmd_check(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    out = Path(args.out)
    v = scenario.velocity_field()
    omega = scenario.omega_region()
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    try:
        cond = check_geometric_condition(
            v, mu0, mu1, omega, float(scenario.params["horizon"]),
            float(scenario.params["tol"]))
    except ConditionFailure as exc:
        _write_json(out / "check.json",
                    _stamp(scenario, {"status": "condition-failed",
                                      **exc.to_dict()}))
        print(f"crossing condition failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # e.g. entry points no box compactly inside omega can cover
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    _write_json(out / "check.json", _stamp(scenario, {
        "status": "ok", "T0star": cond.T0star, "T1star": cond.T1star,
        "omega0": cond.omega0.to_dict(), "margin": cond.margin,
        "resolution": cond.resolution}))
    print(f"T0* = {cond.T0star:.6g}, T1* = {cond.T1star:.6g}")
    return 0


class MeshError(ValueError):
    """A study n the quantile partition cannot build from the particles."""


def convergence_study(scenario: Scenario, n_list, out_dir, tol=1e-6) -> list[dict]:
    """Moving-cell convergence: advect the source under the synthesized grid
    field for each n and record the measured W1 against the target sampling,
    the certified bound (``grid_error_bound``) and the sampling error floor.
    Both W1 values are exact at or below the exact solver's cap and the
    certified upper bound of ``w1_bracket`` above it.

    Every mesh is built before any flow runs; an n the particles cannot
    partition (too fine for their count) raises ``MeshError``."""
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    seed = int(scenario.params["seed"])
    # joint rescale into the unit box
    lo = np.minimum(mu0.support_bbox()[0], mu1.support_bbox()[0])
    hi = np.maximum(mu0.support_bbox()[1], mu1.support_bbox()[1])
    span = float(np.max(hi - lo)) * 1.02
    origin = lo - 0.01 * np.max(hi - lo)

    def norm(m):
        return ParticleMeasure((m.positions - origin) / span, m.weights)

    mu0n, mu1n = norm(mu0), norm(mu1)
    # an independent sampling of the target for the noise floor
    resampled = Scenario.from_dict({**scenario.to_dict(),
                                    "params": {**scenario.params,
                                               "seed": seed + 7919}})
    mu1n_bis = norm(resampled.measure("mu1"))
    floor = w1_bracket(mu1n, mu1n_bis)["estimate"]

    try:
        meshes = [quantile_partition(mu0n, mu1n, int(n)) for n in n_list]
    except ValueError as exc:
        raise MeshError(str(exc)) from exc
    rows = []
    for n, (part_src, part_tgt) in zip(n_list, meshes):
        fld = GridControlField(part_src, part_tgt, T=1.0)
        images, closed, _ = fld.flow(mu0n.positions, 0.0, 1.0, tol)
        moved = ParticleMeasure(images, mu0n.weights)
        rows.append({"n": int(n),
                     "measured_w1": w1_bracket(moved, mu1n)["estimate"],
                     "predicted_bound": grid_error_bound(part_tgt, moved,
                                                         closed, mu1n),
                     "sample_error": floor})
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "study.csv", "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["n", "measured_w1", "predicted_bound",
                                "sample_error"])
            writer.writeheader()
            writer.writerows(rows)
        _write_json(out / "study.json", _stamp(scenario, {"rows": rows}))
    return rows


def cmd_study(args) -> int:
    scenario = _load(args)
    if scenario is None:
        return 1
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok]
        if not n_list:
            raise ValueError("empty n list")
        if min(n_list) < 1:
            raise ValueError("every n must be >= 1")
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = convergence_study(scenario, n_list, args.out,
                                 tol=float(scenario.params["tol"]))
    except MeshError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    for row in rows:
        print(f"n={row['n']:3d} measured={row['measured_w1']:.4f} "
              f"bound={row['predicted_bound']:.4f} "
              f"floor={row['sample_error']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# negative-result runners
# ---------------------------------------------------------------------------

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
        rows.append({"count": count, "w1_error": w1_1d(moved, reference)})
    return rows


def cmd_counterexample(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.name == "bv-merge":
        toy = linear_merge_toy()
        table = bv_blowup_diagnostic(toy, pair=(0, 1))
        _write_json(out / "bv_merge.json",
                    _stamp(None, {"diagnostic": table}))
        with open(out / "bv_merge.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["halvings", "gap", "integral"])
            writer.writeheader()
            writer.writerows(table["rows"])
        for row in table["rows"]:
            print(f"m={row['halvings']:2d} gap={row['gap']:.3e} "
                  f"integral={row['integral']:.4f}")
        return 0
    if args.name == "sqrt-split":
        rows = sqrt_split_errors()
        _write_json(out / "sqrt_split.json", _stamp(None, {"rows": rows}))
        with open(out / "sqrt_split.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["count", "w1_error"])
            writer.writeheader()
            writer.writerows(rows)
        for row in rows:
            print(f"N={row['count']:7d} W1 error={row['w1_error']:.3e}")
        return 0
    table = shear_diagnostic()
    _write_json(out / "shear.json", _stamp(None, {"diagnostic": table}))
    print(f"max velocity jump across the interior line: "
          f"{table['max_jump']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transportlab",
        description="Steer particle measures with localized velocity controls")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="synthesize and simulate a full schedule")
    run.add_argument("--scenario", required=True,
                     help="scenario JSON path or preset name")
    run.add_argument("--mode", choices=("approx", "exact"), default="approx")
    run.add_argument("--out", required=True)
    run.add_argument("--seed-override", type=int, default=None)
    run.add_argument("--particles", type=int, default=None)
    run.set_defaults(func=cmd_run)

    study = sub.add_parser("study", help="moving-cell convergence study")
    study.add_argument("--scenario", required=True)
    study.add_argument("--n-list", required=True,
                       help="comma-separated cell counts, e.g. 4,8,16")
    study.add_argument("--out", required=True)
    study.add_argument("--seed-override", type=int, default=None)
    study.add_argument("--particles", type=int, default=None)
    study.set_defaults(func=cmd_study)

    ce = sub.add_parser("counterexample",
                        help="negative-result demonstrations")
    ce.add_argument("--name", required=True,
                    choices=("bv-merge", "sqrt-split", "shear"))
    ce.add_argument("--out", required=True)
    ce.set_defaults(func=cmd_counterexample)

    check = sub.add_parser("check", help="crossing-condition check only")
    check.add_argument("--scenario", required=True)
    check.add_argument("--out", required=True)
    check.add_argument("--seed-override", type=int, default=None)
    check.add_argument("--particles", type=int, default=None)
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on misuse
        return 1 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
