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
from transportlab.scenarios import (Scenario, load_scenario,
                                    random_exact_scenario)


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

    for module in (cli, transportlab.synth):
        monkeypatch.setattr(module, "check_geometric_condition", never)
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
    scenario.save(path)
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


def test_exact_run_above_the_solver_cap_fails_up_front(tmp_path, capsys,
                                                       monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the exact controller ran above the cap")

    monkeypatch.setattr(cli, "exact_controller", never)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "figure1", "--mode", "exact",
                     "--particles", "2100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "2048" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("particles,draws,code", [(["--particles", "300"],
                                                    2, 0), ([], 0, 1)],
                         ids=["300", "preset"])
def test_the_exact_size_check_samples_nothing(tmp_path, capsys, monkeypatch,
                                              particles, draws, code):
    # the size check counts atoms off the scenario: a run samples each
    # measure once, in the controller, and figure1 at its preset size,
    # above the cap, samples nothing before it exits 1
    sizes = []
    sample = scenarios.sample

    def counting(spec, count, seed):
        sizes.append(count)
        return sample(spec, count, seed)

    monkeypatch.setattr(scenarios, "sample", counting)
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", "figure1", "--mode", "exact",
                     *particles, "--out", str(out)]) == code
    assert len(sizes) == draws, sizes
    if code:
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and "2048" in err
        assert "10000 and 10000" in err


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


@pytest.mark.parametrize("preset", [["two-bump-merge"],
                                    ["unit-shift", "--particles", "300"],
                                    ["figure1", "--particles", "300"]])
def test_every_preset_finishes_in_exact_mode(tmp_path, preset):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", *preset, "--mode", "exact",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["final_w1"]["estimate"] <= 1e-9
    assert report["mass_total"] == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_run_imports_no_scipy(tmp_path, mode):
    # every solve on the run path is the package's own; a stray scipy
    # import would cost about half a second of every run, and numpy.ma
    # (which plain np.unique imports) about 15 ms
    if mode == "exact":
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(cluster_scenario(6)))
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
    src = str(Path(transportlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[]"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    # the exact lane certifies arrival by its coupling's own cost
    assert report["final_w1"]["method"] == (
        "coupling" if mode == "exact" else "exact")


@pytest.mark.parametrize("argv", [
    ["--scenario", "two-bump-merge", "--mode", "exact"],
    ["--scenario", "figure1", "--particles", "300", "--mode", "approx"]],
    ids=["two-bump-merge-exact", "figure1-approx"])
def test_reruns_write_the_same_bytes(tmp_path, argv):
    # a run is a function of its scenario: once in this process and once
    # in a fresh one under another hash seed, every file it writes has the
    # same bytes
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(["run", *argv, "--out", str(first)]) == 0
    src = str(Path(transportlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    res = subprocess.run([sys.executable, "-m", "transportlab.cli", "run",
                          *argv, "--out", str(second)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file())

    assert files(first) == files(second)
    assert len(files(first)) > 4
    for name in files(first):
        assert (first / name).read_bytes() == (second / name).read_bytes(), \
            name
