"""Command-line contracts: input errors exit 1 before any flow runs,
scenario files round-trip, and the counterexample tables show their
trends."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transportlab
from transportlab import cli, scenarios
from transportlab.scenarios import Scenario, load_scenario

from helpers import random_exact_scenario, save_scenario


def figure1_with(tmp_path, **changes):
    data = load_scenario("figure1").to_dict()
    data["params"]["particles"] = 300
    data.update(changes)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("command", ["run", "check"])
def test_truncated_scenario_is_an_input_error(tmp_path, capsys, command):
    text = figure1_with(tmp_path).read_text()
    path = tmp_path / "truncated.json"
    path.write_text(text[:len(text) // 2])
    assert cli.main([command, "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("scenario error:")


def fails_as_scenario_error(capsys, command, scenario, out, *flags):
    """``command`` on ``scenario`` exits 1 with ``scenario error:`` before
    it creates ``out``; returns the message."""
    argv = [command, "--scenario", str(scenario), "--out", str(out), *flags]
    if command == "study":
        argv += ["--n-list", "3"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error:")
    assert not out.exists()
    return err


@pytest.mark.parametrize("command", ["run", "check", "study"])
@pytest.mark.parametrize("key", ["horizon", "tol", "delta", "epsilon",
                                 "particles"])
@pytest.mark.parametrize("value", [0.0, -0.5, math.inf, math.nan, 0])
def test_nonpositive_or_infinite_parameter_is_an_input_error(
        tmp_path, capsys, command, key, value):
    # caught when the scenario loads: no traceback from the flows, no
    # output directory, and check no longer passes a negative delta. A NaN
    # epsilon used to run on without end, and particles = 0 ended in a
    # traceback from the sampler
    data = load_scenario("figure1").to_dict()
    data["params"][key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    err = fails_as_scenario_error(capsys, command, path, tmp_path / "out")
    assert repr(key) in err


@pytest.mark.parametrize("command", ["run", "check", "study"])
@pytest.mark.parametrize("particles,flags", [
    (2.5, []), (True, []), ("300", []), (300, ["--particles", "0"])])
def test_particles_not_an_integer_above_zero_is_an_input_error(
        tmp_path, capsys, command, particles, flags):
    data = load_scenario("figure1").to_dict()
    data["params"]["particles"] = particles
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    err = fails_as_scenario_error(capsys, command, path, tmp_path / "out",
                                  *flags)
    assert "'particles'" in err


@pytest.mark.parametrize("command", ["run", "check", "study"])
@pytest.mark.parametrize("key,value", [
    ("n", 0), ("n", -3), ("n", "abc"), ("n", 2.7), ("n", True),
    ("seed", "abc"), ("seed", 1.5), ("seed", -1), ("seed", False)])
def test_n_or_seed_not_a_valid_integer_is_an_input_error(
        tmp_path, capsys, command, key, value):
    # n = 0, -3 or "abc" used to raise after storage had run, a string seed
    # raised from the sampler, and n = 2.7 or seed = 1.5 were truncated
    path = figure1_with(tmp_path)
    data = json.loads(path.read_text())
    data["params"][key] = value
    path.write_text(json.dumps(data))
    err = fails_as_scenario_error(capsys, command, path, tmp_path / "out")
    assert repr(key) in err


ATOMS0 = [[0.4, 0.5, 0.5], [0.6, 0.6, 0.5]]
ATOMS1 = [[4.0, 0.5, 0.5], [4.2, 0.6, 0.5]]

UNIT_BOX = {"kind": "uniform_box", "dim": 2, "lo": [0.1, 0.25],
            "hi": [0.9, 0.85]}

MALFORMED_MEMBERS = {
    "drift-3d": {"v": {"kind": "constant", "value": [0.5, 0.0, 0.0]}},
    "drift-nan": {"v": {"kind": "constant", "value": [math.nan, 0.0]}},
    "omega-3d": {"omega": {"kind": "box", "lo": [2.0, -1.2, 0.0],
                           "hi": [3.4, 1.4, 1.0]}},
    "density-3d": {"mu0": {"kind": "uniform_box", "dim": 3,
                           "lo": [0.1, 0.25, 0.0], "hi": [0.9, 0.85, 1.0]}},
    "dim-3": {"dim": 3},
    # a dimension is an integer >= 1, at both levels: null and a mixture's
    # non-list members used to end in a traceback, and 2.7, "2" and a
    # density's 2.5 ran as 2
    "dim-null": {"dim": None},
    "dim-float": {"dim": 2.7},
    "dim-string": {"dim": "2"},
    "density-dim-null": {"mu0": {**UNIT_BOX, "dim": None}},
    "density-dim-float": {"mu0": {**UNIT_BOX, "dim": 2.5}},
    "mixture-components-number": {"mu0": {"kind": "mixture", "dim": 2,
                                          "components": 3,
                                          "mix_weights": [1.0]}},
    "mixture-weights-number": {"mu0": {"kind": "mixture", "dim": 2,
                                       "components": [UNIT_BOX],
                                       "mix_weights": 1.0}},
    # members that are not JSON objects
    "mu0-list": {"mu0": [1, 2]},
    "params-list": {"params": [1]},
    "omega-number": {"omega": 3},
    "drift-string": {"v": "x"},
    "component-number": {"mu0": {"kind": "mixture", "dim": 2,
                                 "components": [1], "mix_weights": [1.0]}},
    "atom-rows-short": {"mu0": {"atoms": [a[:2] for a in ATOMS0]},
                        "mu1": {"atoms": ATOMS1}},
    "atom-weight-negative": {"mu0": {"atoms": [[0.4, 0.5, 1.5],
                                               [0.6, 0.6, -0.5]]},
                             "mu1": {"atoms": ATOMS1}},
    "atom-masses-differ": {"mu0": {"atoms": [[0.4, 0.5, 0.45],
                                             [0.6, 0.6, 0.45]]},
                           "mu1": {"atoms": ATOMS1}},
    # a box holding below 1e-300 of the Gaussian's mass: rejection sampling
    # used to run forever
    "gaussian-far-tail": {"mu0": {"kind": "truncated_gaussian", "dim": 2,
                                  "mean": [0.5, 0.55], "sigma": [0.01, 0.01],
                                  "lo": [0.9, 0.25], "hi": [1.0, 0.85]}},
    # mixtures numpy's sampler used to refuse with a traceback
    "mixture-empty": {"mu0": {"kind": "mixture", "dim": 2,
                              "components": [], "mix_weights": []}},
    "mixture-weight-nan": {"mu0": {"kind": "mixture", "dim": 2,
                                   "components": [UNIT_BOX],
                                   "mix_weights": [math.nan]}},
    # omega is a box and v is zero, constant or affine; other kinds are
    # refused by name (check used to accept a ball omega)
    "omega-ball": {"omega": {"kind": "ball", "center": [2.7, 0.1],
                             "radius": 1.2}},
    "omega-union": {"omega": {"kind": "union", "parts": [
        {"kind": "box", "lo": [2.0, -1.2], "hi": [3.4, 1.4]}]}},
    "drift-radial": {"v": {"kind": "radial", "center": [0.0, 0.0],
                           "rate": 0.5}},
    "drift-named": {"v": {"kind": "named", "name": "half-right"}},
    # a density is a uniform box, a truncated Gaussian or a mixture
    "density-profile-box": {"mu0": {"kind": "profile_box", "dim": 2,
                                    "lo": [0.1, 0.25], "hi": [0.9, 0.85],
                                    "profiles": [[1.0], [0.0, 2.0]]}},
}

# the kind each refused member's message names
REFUSED_KINDS = {"omega-ball": "'ball'", "omega-union": "'union'",
                 "drift-radial": "'radial'", "drift-named": "'named'",
                 "density-profile-box": "unknown density kind 'profile_box'"}


@pytest.mark.parametrize("flags", [["run", "--mode", "approx"],
                                   ["run", "--mode", "exact"], ["check"],
                                   ["study"]],
                         ids=["run-approx", "run-exact", "check", "study"])
@pytest.mark.parametrize("case", list(MALFORMED_MEMBERS))
def test_malformed_member_is_an_input_error(tmp_path, capsys, monkeypatch,
                                            flags, case):
    # every member in the scenario's dimension, a finite drift, atom rows
    # of coordinates and a positive weight, equal masses: checked when the
    # scenario loads, before the crossing check runs. Each used to end in
    # a traceback, or ran a 3D scenario as 2D
    def never(*args, **kwargs):
        raise AssertionError("the crossing check ran on a malformed scenario")

    monkeypatch.setattr(transportlab.synth, "check_geometric_condition",
                        never)
    err = fails_as_scenario_error(capsys, flags[0],
                                  figure1_with(tmp_path,
                                               **MALFORMED_MEMBERS[case]),
                                  tmp_path / "out", *flags[1:])
    assert "Traceback" not in err
    assert REFUSED_KINDS.get(case, "") in err


@pytest.mark.parametrize("command", ["run", "check", "study"])
def test_a_scenario_that_is_not_an_object_is_an_input_error(tmp_path, capsys,
                                                            command):
    # a top-level JSON list used to end in an AttributeError
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps([1, 2]))
    err = fails_as_scenario_error(capsys, command, path, tmp_path / "out")
    assert "object" in err


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "figure1", "--mode", "bogus", "--out", "x"],
    ["run", "--scenario", "figure1"],
    ["counterexample", "--name", "bogus", "--out", "x"],
    ["study", "--scenario", "figure1", "--out", "x"],
    ["bogus"], []])
def test_a_usage_error_exits_1(tmp_path, capsys, monkeypatch, argv):
    # argparse exits 2 on misuse, which here means a crossing-condition
    # failure; a usage error is malformed input. --help still exits 0
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    assert cli.main(["run", "--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("scenario", [load_scenario("figure1"),
                                      load_scenario("two-bump-merge"),
                                      random_exact_scenario(4, "merge")])
def test_scenario_hash_survives_save_and_load(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    back = load_scenario(path)
    assert isinstance(back, Scenario)
    assert back.scenario_hash() == scenario.scenario_hash()


def counterexample(tmp_path, name):
    assert cli.main(["counterexample", "--name", name,
                     "--out", str(tmp_path)]) == 0
    stem = name.replace("-", "_")
    return json.loads((tmp_path / f"{stem}.json").read_text())["diagnostic"]


def test_bv_merge_integral_grows_by_ln2_per_halving(tmp_path):
    # along two merging paths the integral is the variation of log|y - z|,
    # ln 2 per halving of the gap: 0.71, 1.39, 2.10, 2.77, ...
    table = counterexample(tmp_path, "bv-merge")
    rows = table["rows"]
    assert table["merged"] and len(rows) >= 10
    for row in rows:
        assert abs(row["integral"] - row["halvings"] * math.log(2)) < 0.05
    assert (tmp_path / "bv_merge.csv").read_text().count("\n") == len(rows) + 1


def test_shear_jump_and_lipschitz_blowup(tmp_path):
    # the naive full-cell map jumps by 0.75 across the interior column line,
    # so its difference quotient grows tenfold per decade of epsilon
    table = counterexample(tmp_path, "shear")
    assert table["max_jump"] == pytest.approx(0.75, rel=1e-12)
    lips = table["lipschitz_table"]
    assert [row["epsilon"] for row in lips] == [1e-1, 1e-2, 1e-3, 1e-4]
    for coarse, fine in zip(lips, lips[1:]):
        assert fine["lipschitz_estimate"] == pytest.approx(
            10.0 * coarse["lipschitz_estimate"], rel=1e-9)


def test_sqrt_split_error_stays_at_the_rk4_floor(tmp_path):
    # the command's own counts, 10 000 and 100 000 particles: the drift is
    # declared non-Lipschitz, and both errors sit at the RK4 floor
    with pytest.warns(UserWarning, match="not Lipschitz"):
        assert cli.main(["counterexample", "--name", "sqrt-split",
                         "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "sqrt_split.json").read_text())["rows"]
    assert [row["count"] for row in rows] == [10_000, 100_000]
    for row in rows:
        assert 0.0 <= row["w1_error"] <= 1e-8
    lines = (tmp_path / "sqrt_split.csv").read_text().splitlines()
    assert lines[0] == "count,w1_error"
    assert [float(line.split(",")[1]) for line in lines[1:]] == \
        [row["w1_error"] for row in rows]


def test_sqrt_split_warns_in_one_plain_line(tmp_path):
    # the command line prints the non-Lipschitz notice as one line that
    # names no source file and echoes no code, so stderr is the same from
    # any checkout; exit code and stdout are those of the command
    res = subprocess.run(
        [sys.executable, "-m", "transportlab.cli", "counterexample",
         "--name", "sqrt-split", "--out", "out"], cwd=tmp_path,
        env=child_env(), capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ("warning: field 'sqrt-drift' is not Lipschitz; "
                          "uniqueness of characteristics is not guaranteed\n")
    assert ".py" not in res.stderr and "_integrate_batch" not in res.stderr
    assert [line.split()[0] for line in res.stdout.splitlines()] == \
        ["N=", "N="]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
        ["sqrt_split.csv", "sqrt_split.json"]


@pytest.mark.parametrize("width", [1e-6, 1e-5])
def test_thin_omega_is_an_input_error_in_approx_mode(tmp_path, capsys,
                                                     width):
    # omega0 inside a strip this thin needs a storage cutoff index above
    # the cap: at 1e-6 the first index already exceeds it, at 1e-5 none up
    # to it parks enough mass. Both used to end in a traceback. The exact
    # lane parks with stopped flows and needs no cutoff
    path = figure1_with(
        tmp_path, omega={"kind": "box", "lo": [2.0, 0.0],
                         "hi": [2.0 + width, 1.0]},
        mu0={"kind": "uniform_box", "dim": 2, "lo": [0.1, 0.4],
             "hi": [0.2, 0.6]},
        mu1={"kind": "uniform_box", "dim": 2, "lo": [4.0, 0.4],
             "hi": [4.1, 0.6]})
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--mode", "approx",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error:")
    assert "inradius" in err and str(transportlab.synth.STORAGE_K_CAP) in err
    assert not out.exists()
    assert cli.main(["run", "--scenario", str(path), "--mode", "exact",
                     "--out", str(out)]) == 0


def test_check_on_an_omega_too_thin_for_its_margins(tmp_path, capsys):
    # a margin of a fifth of a 1e-9 inradius leaves no box compactly inside
    # omega around the entry points: an input error, and no output
    path = figure1_with(
        tmp_path, omega={"kind": "box", "lo": [2.0, 0.0],
                         "hi": [2.0 + 1e-9, 1.0]},
        mu0={"kind": "uniform_box", "dim": 2, "lo": [0.1, 0.4],
             "hi": [0.2, 0.6]},
        mu1={"kind": "uniform_box", "dim": 2, "lo": [4.0, 0.4],
             "hi": [4.1, 0.6]})
    out = tmp_path / "out"
    assert cli.main(["check", "--scenario", str(path),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "too thin" in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["check"], ["run"],
                                   ["run", "--mode", "exact"]],
                         ids=["check", "run-approx", "run-exact"])
def test_a_drift_overflowing_before_entry_is_a_scenario_error(
        tmp_path, capsys, flags):
    # v = 60 x carries both atoms past the largest float near t = 11.8,
    # within the horizon and before either reaches omega: one line on
    # stderr, no numpy overflow warning (an error under this suite's
    # warning filter), no traceback and no output. Each used to end in a
    # traceback after two overflow warnings
    path = tmp_path / "scenario.json"
    atoms = [[0.5, 0.5, 0.5], [0.6, 0.4, 0.5]]
    path.write_text(json.dumps({
        "dim": 2, "v": {"kind": "affine", "matrix": [[60.0, 0.0],
                                                     [0.0, 60.0]],
                        "offset": [0.0, 0.0]},
        "omega": {"kind": "box", "lo": [-5.0, -5.0], "hi": [-4.0, -4.0]},
        "mu0": {"atoms": atoms}, "mu1": {"atoms": atoms},
        "params": {"delta": 0.6, "seed": 0, "horizon": 20.0, "tol": 1e-6}}))
    out = tmp_path / "out"
    assert cli.main([flags[0], "--scenario", str(path), "--out", str(out),
                     *flags[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: non-finite field value near "
                          "particle 0")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_a_box_with_lo_and_hi_of_different_lengths_is_an_input_error(
        tmp_path, capsys, command):
    # the box used to broadcast them and take its dimension from lo: check
    # passed and run ended in an IndexError traceback
    path = figure1_with(tmp_path, omega={"kind": "box", "lo": [2.0, -1.2],
                                         "hi": [3.4]})
    err = fails_as_scenario_error(capsys, command, path, tmp_path / "out")
    assert "lo and hi have different lengths: 2 and 1" in err


LANES = pytest.mark.parametrize("flags", [["check"], ["run"],
                                          ["run", "--mode", "exact"]],
                                ids=["check", "run-approx", "run-exact"])


@LANES
@pytest.mark.parametrize("bound", ["-Infinity", "1e400", "NaN"])
def test_a_box_bound_that_is_not_finite_is_an_input_error(
        tmp_path, capsys, flags, bound):
    # json reads 1e400 as inf. An infinite bound used to fail the crossing
    # check (exit 2) on a counterexample point that cannot enter, as the
    # box's signed distance was inf - inf = nan; a NaN bound exited 1 and
    # said the box had no extent
    text = figure1_with(tmp_path, omega={
        "kind": "box", "lo": [2.0, "BOUND"], "hi": [3.4, 1.4]}).read_text()
    path = tmp_path / "scenario.json"
    path.write_text(text.replace('"BOUND"', bound))
    err = fails_as_scenario_error(capsys, flags[0], path, tmp_path / "out",
                                  *flags[1:])
    assert err == "scenario error: box bounds must be finite\n"


GAUSSIAN = {"kind": "truncated_gaussian", "dim": 2, "mean": [0.5, 0.55],
            "sigma": [0.16, 0.13], "lo": [0.1, 0.25], "hi": [0.9, 0.85]}


@LANES
@pytest.mark.parametrize("density,key,bound", [
    (GAUSSIAN, "hi", "1e400"), (GAUSSIAN, "lo", "-Infinity"),
    (GAUSSIAN, "mean", "NaN"), (GAUSSIAN, "sigma", "1e400"),
    (UNIT_BOX, "hi", "1e400"),
    ({"kind": "mixture", "dim": 2, "components": [UNIT_BOX],
      "mix_weights": [1.0]}, "lo", "NaN")],
    ids=["gaussian-hi", "gaussian-lo", "gaussian-mean", "gaussian-sigma",
         "box-hi", "mixture-box-lo"])
def test_a_density_parameter_that_is_not_finite_is_an_input_error(
        tmp_path, capsys, flags, density, key, bound):
    # json reads 1e400 as inf. A Gaussian's infinite bound used to pass
    # check and run (W1 0.190) on an unbounded support, and a box's failed
    # only when sampled, at a non-finite coordinate
    spec = json.loads(json.dumps(density))
    box = spec["components"][0] if density["kind"] == "mixture" else spec
    box[key] = [box[key][0], "BOUND"]
    text = figure1_with(tmp_path, mu0=spec).read_text()
    path = tmp_path / "scenario.json"
    path.write_text(text.replace('"BOUND"', bound))
    err = fails_as_scenario_error(capsys, flags[0], path, tmp_path / "out",
                                  *flags[1:])
    assert err.startswith(f"scenario error: {box['kind']} {key!r} must be "
                          "finite, got [")
    assert err.count("\n") == 1 and err.endswith("\n")


@LANES
@pytest.mark.parametrize("delta", [1e-16, 1e300])
def test_phase_times_that_do_not_separate_are_an_input_error(
        tmp_path, capsys, flags, delta):
    # at 1e-16, T1 + delta / 3 rounds to T1, and at 1e300 T4 + T1* to T4:
    # check used to pass, an approximate run to end in a ZeroDivisionError
    # traceback (1e-16) or run the grid strip's RK4 over about 3e299 steps
    # (1e300), and an exact one to refuse a segment of no length
    path = figure1_with(tmp_path)
    data = json.loads(path.read_text())
    data["params"]["delta"] = delta
    path.write_text(json.dumps(data))
    err = fails_as_scenario_error(capsys, flags[0], path, tmp_path / "out",
                                  *flags[1:])
    assert err.startswith(f"scenario error: delta {delta!r} leaves the "
                          "phase times {'T0': 0.0")
    assert err.endswith("not strictly increasing\n")
    assert err.count("\n") == 1


@LANES
@pytest.mark.parametrize("key", ["horizon", "tol", "delta", "epsilon"])
def test_a_bool_time_or_tolerance_is_an_input_error(tmp_path, capsys, flags,
                                                    key):
    # a bool is a Python int: "delta": true used to run as delta = 1
    path = figure1_with(tmp_path)
    data = json.loads(path.read_text())
    data["params"][key] = True
    path.write_text(json.dumps(data))
    err = fails_as_scenario_error(capsys, flags[0], path, tmp_path / "out",
                                  *flags[1:])
    assert f"parameter {key!r} must be a positive finite number, got True" \
        in err


def tag_columns(out):
    """The ``tag`` column of ``final.csv`` and of every snapshot under
    ``out``, each as a list of strings."""
    import csv

    files = [out / "final.csv", *sorted((out / "trajectory").glob("*.csv"))]
    columns = []
    for path in files:
        with open(path, newline="") as fh:
            columns.append([row["tag"] for row in csv.DictReader(fh)])
    return columns


def test_the_tag_column_marks_the_untouched_rows_in_every_file(tmp_path):
    # the approximate lane's untouched set is one row mask: the same rows
    # read "untouched" in the final cloud and in every snapshot, as many
    # as the report counts, and every other row reads ""
    out = tmp_path / "approx"
    assert cli.main(["run", "--scenario", "figure1", "--particles", "1000",
                     "--seed-override", "6", "--out", str(out)]) == 0
    count = json.loads((out / "report.json").read_text())[
        "untouched"]["count_source"]
    columns = tag_columns(out)
    assert len(columns) == 7
    rows = [i for i, tag in enumerate(columns[0]) if tag == "untouched"]
    assert len(rows) == count == 2
    for column in columns:
        assert len(column) == 1000
        assert [i for i, tag in enumerate(column) if tag] == rows
        assert {column[i] for i in rows} == {"untouched"}
    # the exact lane labels no row
    out = tmp_path / "exact"
    assert cli.main(["run", "--scenario", "two-bump-merge", "--mode",
                     "exact", "--out", str(out)]) == 0
    assert all(set(column) == {""} for column in tag_columns(out))


@pytest.mark.parametrize("particles,count", [(["--particles", "300"], 300),
                                             ([], 10000)],
                         ids=["300", "preset"])
def test_the_exact_size_check_samples_nothing(tmp_path, monkeypatch,
                                              particles, count):
    # the solver cap counts the atoms of the clouds it is given: a run
    # samples each measure once, in the controller, and figure1 at its
    # preset size, above the cap but on a line, samples no more
    sizes = []
    sample = scenarios.sample

    def counting(spec, count, seed):
        sizes.append(count)
        return sample(spec, count, seed)

    monkeypatch.setattr(scenarios, "sample", counting)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "figure1", "--mode", "exact",
                     *particles, "--out", str(out)]) == 0
    assert sizes == [count, count]


def test_two_bump_merge_runs_in_approx_mode(tmp_path):
    # the moving-cell mesh is dimension-generic, so the 1D preset runs the
    # approximate lane too, every grid point in closed form
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "two-bump-merge", "--mode",
                     "approx", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["mass_total"] == pytest.approx(1.0, abs=1e-12)
    assert report["closed_form"]["grid"] == {"count": 32, "total": 32}
    assert report["final_w1"]["method"] == "exact"


@pytest.mark.parametrize("preset,meets", [(["two-bump-merge"], True),
                                          (["figure1", "--particles", "300"],
                                           False)])
def test_approx_report_says_whether_w1_meets_epsilon(tmp_path, capsys,
                                                     preset, meets):
    # at or below the exact solver's cap the estimate is the exact W1, and
    # every approximate report says whether it meets epsilon; a miss is
    # one stderr line, and the run still exits 0
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", *preset, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    w1 = report["final_w1"]
    assert w1["method"] == "exact"
    assert w1["epsilon_certified"] is meets
    assert (w1["estimate"] <= report["epsilon"]) is meets
    err = capsys.readouterr().err
    assert ("does not meet epsilon" in err) is not meets


def test_an_epsilon_above_the_cloud_mass_leaves_half_untouched(tmp_path,
                                                               capsys):
    # eps/(2 d Rbar) = 100/(2 * 2 * 18.25) exceeds the unit mass, which once
    # tagged every row untouched and left the grid no cloud; the untouched
    # mass is capped at half the cloud's
    params = {**load_scenario("figure1").params, "epsilon": 100.0,
              "particles": 400}
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(figure1_with(
        tmp_path, params=params)), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    untouched = report["untouched"]
    assert untouched["target_mass"] == pytest.approx(0.5, abs=1e-12)
    assert 100.0 / (4.0 * untouched["rbar"]) > 1.0
    for side in ("source", "target"):
        assert untouched[f"count_{side}"] == 200
    assert report["final_w1"]["epsilon_certified"] is True
    assert report["final_w1"]["estimate"] < 1.0


def test_a_pinned_n_is_the_grid_n(tmp_path):
    # 297 untagged particles would give the default n = 3
    params = {**load_scenario("figure1").params, "particles": 300, "n": 5}
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(figure1_with(
        tmp_path, params=params)), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["grid_n"] == 5


def test_a_pinned_n_too_fine_to_cut_is_a_scenario_error(tmp_path, capsys):
    # a pinned n is never coarsened: 40 cells per slab of about 7 particles
    params = {**load_scenario("figure1").params, "particles": 300, "n": 40}
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(figure1_with(
        tmp_path, params=params)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error:")
    assert "fewer than its 40 cells" in err
    assert not out.exists()


def test_a_default_n_too_fine_for_coincident_atoms_is_coarsened(
        tmp_path, monkeypatch):
    # 40 of 100 atoms share one point, so the parked source cloud holds
    # more than a slab's mass there: its default n = 3 puts two walls on
    # that point, and the controller falls back to n = 2
    tried = []
    partition = transportlab.synth.quantile_partition

    def recording(mu_src, mu_tgt, n):
        tried.append(n)
        return partition(mu_src, mu_tgt, n)

    monkeypatch.setattr(transportlab.synth, "quantile_partition", recording)
    rng = np.random.default_rng(3)

    def atoms(lo, count):
        """``count`` atoms of weight 0.01, uniform in [lo, lo + 0.5]^2."""
        pts = lo + 0.5 * rng.random((count, 2))
        return [[*p, 0.01] for p in pts.tolist()]

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dim": 2, "v": {"kind": "zero"},
        "omega": {"kind": "box", "lo": [-0.5] * 2, "hi": [1.5] * 2},
        "mu0": {"atoms": atoms(0.05, 60) + [[0.3, 0.3, 0.01]] * 40},
        "mu1": {"atoms": atoms(0.45, 100)},
        "params": {"delta": 1.0, "seed": 11, "horizon": 4.0, "tol": 1e-6}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert tried == [3, 2]
    report = json.loads((out / "report.json").read_text())
    assert report["grid_n"] == 2
    assert report["mass_total"] == pytest.approx(1.0, abs=1e-12)
    # the coincident atoms sit on the axis-0 wall cut between two of
    # them, inside its blend strip, so they alone take the strip RK4
    assert report["closed_form"]["grid"] == {"count": 60, "total": 100}


@pytest.mark.parametrize("preset", [["two-bump-merge"],
                                    ["unit-shift", "--particles", "300"],
                                    ["figure1", "--particles", "300"],
                                    ["figure1"], ["unit-shift"]])
def test_every_preset_finishes_in_exact_mode(tmp_path, preset):
    # figure1 at its preset size, 10 000 atoms a side, parks both clouds
    # on lines parallel to one face: their transport is a sort. unit-shift
    # parks 50 000 a side off a line, above the solver's cap: the nested
    # blocks couple them
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", *preset, "--mode", "exact",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["final_w1"]["estimate"] <= 1e-9
    assert report["mass_total"] == pytest.approx(1.0, abs=1e-12)
    assert report["mass_residual"] <= 1e-12


def cluster_scenario(seed):
    """16 source atoms upstream of the control region and 16 target atoms
    downstream, under a rightward drift."""
    rng = np.random.default_rng(seed)
    src = [0.25, 0.45] + 0.3 * rng.random((16, 2))
    tgt = [3.85, 0.45] + 0.3 * rng.random((16, 2))
    return {"dim": 2, "v": {"kind": "constant", "value": [0.7, 0.0]},
            "omega": {"kind": "box", "lo": [1.6, -0.6], "hi": [2.9, 1.6]},
            "mu0": {"atoms": [[x, y, 1 / 16] for x, y in src.tolist()]},
            "mu1": {"atoms": [[x, y, 1 / 16] for x, y in tgt.tolist()]},
            "params": {"delta": 0.6, "seed": seed, "horizon": 24.0,
                       "tol": 1e-6}}


def child_env(**extra):
    """This environment, with the package under test first on the path."""
    src = str(Path(transportlab.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def weighted_3d_scenario(n0, n1):
    """``n0`` source atoms of random weights upstream of a 3D control box
    and ``n1`` target atoms downstream, under a rightward drift: the parks
    lie on a face plane, off a line."""
    rng = np.random.default_rng(n0)

    def atoms(lo, count):
        weights = rng.random(count) + 0.5
        return [[*x, w] for x, w in zip(
            (lo + 0.3 * rng.random((count, 3))).tolist(),
            (weights / weights.sum()).tolist())]

    return {"dim": 3, "v": {"kind": "constant", "value": [0.7, 0.0, 0.0]},
            "omega": {"kind": "box", "lo": [1.6, -0.6, -0.6],
                      "hi": [2.9, 1.6, 1.6]},
            "mu0": {"atoms": atoms([0.25, 0.35, 0.35], n0)},
            "mu1": {"atoms": atoms([3.85, 0.35, 0.35], n1)},
            "params": {"delta": 0.6, "seed": 1, "horizon": 24.0,
                       "tol": 1e-6}}


@pytest.mark.parametrize("case", ["exact", "approx", "exact-weighted",
                                  "exact-weighted-3d"])
def test_run_imports_no_scipy(tmp_path, case):
    # every solve on the run path is the package's own; a stray scipy
    # import would cost about half a second of every run, and numpy.ma
    # (which plain np.unique imports) about 15 ms. The weighted case's
    # parked clouds lie on a line, where unequal weights need no LP; the
    # 3D case's lie off a line, above the solver's cap, and take the
    # nested blocks' corner coupling
    mode = case.split("-")[0]
    path = tmp_path / "scenario.json"
    if case == "exact":
        path.write_text(json.dumps(cluster_scenario(6)))
        scenario = [str(path)]
    elif case == "exact-weighted":
        path.write_text(json.dumps(random_exact_scenario(4, "merge")
                                   .to_dict()))
        scenario = [str(path)]
    elif case == "exact-weighted-3d":
        path.write_text(json.dumps(weighted_3d_scenario(2100, 2600)))
        scenario = [str(path)]
    else:
        scenario = ["figure1", "--particles", "300"]
    argv = (["run", "--scenario"] + scenario
            + ["--mode", mode, "--out", str(tmp_path / "out")])
    code = (
        "import sys\n"
        "from transportlab import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))\n")
    res = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # the exact lane certifies arrival by its coupling's own cost
    assert report["final_w1"]["method"] == (
        "coupling" if mode == "exact" else "exact")
    if case == "exact-weighted-3d":
        assert report["final_w1"]["estimate"] <= 1e-9


def write_inputs(root):
    """The scenario files and the plain file the fresh-process cases read."""
    root.mkdir()
    (root / "cluster.json").write_text(json.dumps(cluster_scenario(6)))
    away = cluster_scenario(6)
    away["v"]["value"] = [-0.7, 0.0]  # the sources drift away from omega
    (root / "away.json").write_text(json.dumps(away))
    text = json.dumps(cluster_scenario(6))
    (root / "truncated.json").write_text(text[:len(text) // 2])
    (root / "taken").write_text("")


# every file a finished run writes, its trajectory included
RUN_FILES = ("report.json", "schedule.json", "final.csv", "final.json",
             "trajectory/manifest.json", "trajectory/snapshot_0000.csv",
             "trajectory/snapshot_0001.csv")


@pytest.mark.parametrize("argv,code,written", [
    (["run", "--scenario", "two-bump-merge", "--mode", "exact"], 0,
     RUN_FILES),
    (["run", "--scenario", "figure1", "--particles", "300", "--mode",
      "approx"], 0, RUN_FILES),
    (["run", "--scenario", "{inputs}/cluster.json", "--mode", "exact"], 0,
     RUN_FILES),
    (["run", "--scenario", "{inputs}/truncated.json"], 1, ()),
    (["check", "--scenario", "figure1", "--out", "{inputs}/taken"], 1, ()),
    (["run", "--scenario", "{inputs}/away.json", "--mode", "exact"], 2,
     ("report.json",)),
    (["counterexample", "--name", "shear"], 0, ("shear.json",)),
    (["--help"], 0, ())],
    ids=["two-bump-merge-exact", "figure1-approx", "cluster-exact",
         "malformed", "unusable-out", "crossing-failure", "shear", "help"])
def test_reruns_write_the_same_bytes(tmp_path, capsys, monkeypatch, argv,
                                     code, written):
    # a command is a function of its inputs: once in this process and once
    # in a fresh one under another hash seed, it exits with the same code,
    # prints the same text and writes the same bytes. Each writes to "out"
    # under its own working directory, so the texts name the same paths
    inputs = tmp_path / "inputs"
    write_inputs(inputs)
    argv = [arg.format(inputs=inputs) for arg in argv]
    if argv[0] != "--help" and "--out" not in argv:
        argv += ["--out", "out"]
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to it
    monkeypatch.chdir(first)
    assert cli.main(argv) == code
    said = capsys.readouterr()
    res = subprocess.run([sys.executable, "-m", "transportlab.cli", *argv],
                         cwd=second, env=child_env(PYTHONHASHSEED="1"),
                         capture_output=True, text=True, timeout=300)
    assert (res.returncode, res.stdout, res.stderr) == (code, said.out,
                                                        said.err)

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file())

    assert files(first) == files(second)
    assert {Path("out", name) for name in written} <= set(files(first))
    if not written:
        assert files(first) == []
    for name in files(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            name
    if code == 2:
        report = json.loads((first / "out" / "report.json").read_text())
        assert report["status"] == "condition-failed"
        assert len(report["counterexample"]) == 2


@pytest.mark.parametrize("command", ["run", "study", "check",
                                     "counterexample"])
@pytest.mark.parametrize("case", ["a-file", "under-a-file", "write-fails"])
def test_an_unusable_out_is_an_output_error(tmp_path, capsys, monkeypatch,
                                            command, case):
    # an --out no command could write into fails before any work; a write
    # that fails anyway exits 1 the same way
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {"a-file": taken, "under-a-file": taken / "out",
           "write-fails": tmp_path / "out"}[case]
    if case == "write-fails":
        # the first file each command writes is a directory already
        first = {"run": "report.json", "study": "study.csv",
                 "check": "check.json", "counterexample": "shear.json"}
        (out / first[command]).mkdir(parents=True)
    else:
        def never(args):
            raise AssertionError(f"{command} ran with an unusable --out")

        monkeypatch.setattr(cli, f"cmd_{command}", never)
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps(cluster_scenario(6)))
    argv = {"run": ["--scenario", str(path), "--mode", "exact"],
            "study": ["--scenario", str(path), "--n-list", "2"],
            "check": ["--scenario", str(path)],
            "counterexample": ["--name", "shear"]}[command]
    assert cli.main([command, *argv, "--out", str(out)]) == 1
    said = capsys.readouterr()
    assert said.err.startswith("output error:")
    if case != "write-fails":
        assert said.out == ""
        assert taken.read_text() == ""


def test_a_lost_flush_still_exits_120(tmp_path):
    # the command line ends its process without teardown, except when the
    # last flush fails: standard output into a pipe whose reader is gone
    # keeps CPython's own report and exit 120. A standard output closed
    # from the start is no error
    argv = [sys.executable, "-m", "transportlab.cli", "counterexample",
            "--name", "shear"]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)  # else print itself raises, exit 1
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run(argv + ["--out", str(tmp_path / "lost")],
                             stdout=write, stderr=subprocess.PIPE, env=env,
                             text=True, timeout=300)
    finally:
        os.close(write)
    assert res.returncode == 120
    assert "BrokenPipeError" in res.stderr
    res = subprocess.run(argv + ["--out", str(tmp_path / "closed")],
                         preexec_fn=lambda: os.close(1),
                         stderr=subprocess.PIPE, env=env, text=True,
                         timeout=300)
    assert (res.returncode, res.stderr) == (0, "")
    assert (tmp_path / "closed" / "shear.json").is_file()
