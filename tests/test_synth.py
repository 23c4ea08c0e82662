import json
import math

import numpy as np
import pytest

from transportlab import cli, synth
from transportlab.flow import (TimeField, _integrate_batch, flow_push,
                               stopped_flow_batch)
from transportlab.geometry import Region, ScalarField, weight_eta
from transportlab.measure import (DensitySpec, ParticleMeasure,
                                  quantile_partition, sample)
from transportlab.ot import wp_discrete
from transportlab.scenarios import Scenario, random_exact_scenario
from transportlab.synth import (_escalate_exact_funnel, _eta_grad_lipschitz,
                                _push_funnel, affine_funnel_total,
                                exact_controller, grid_control)


class TestGridClosedForm:
    """Moving cells are invariant, so ``cell_flow`` is the grid field's
    exact flow on them."""

    T = 0.5

    @pytest.fixture(scope="class")
    def grid(self):
        src = sample(DensitySpec("uniform_box", 2, {"lo": [0, 0], "hi": [1, 1]}),
                     1500, seed=1)
        tgt = sample(DensitySpec("uniform_box", 2,
                                 {"lo": [0.1, 0.3], "hi": [0.7, 0.9]}),
                     1500, seed=2)
        part_src, part_tgt = quantile_partition(src, tgt, 4)
        return grid_control(part_src, part_tgt, self.T)

    def test_corners_reach_their_ends(self, grid):
        starts, ends = grid.corner_pairs()
        inside, images = grid.cell_flow(starts, 0.0, self.T)
        assert np.all(inside)
        assert np.array_equal(images, ends)

    def in_cell_points(self, grid, per_cell=6):
        rng = np.random.default_rng(3)
        pts, cells = [], []
        for k, (lo, hi) in enumerate(grid.source_cells()):
            pts.append(lo + (hi - lo) * rng.random((per_cell, 2)))
            cells.extend([k] * per_cell)
        return np.concatenate(pts), np.array(cells)

    def test_source_cells_land_in_target_cells(self, grid):
        pts, cells = self.in_cell_points(grid)
        inside, images = grid.cell_flow(pts, 0.0, self.T)
        assert np.all(inside)
        targets = grid.target_cells()
        lo = np.array([targets[k][0] for k in cells])
        hi = np.array([targets[k][1] for k in cells])
        assert np.all((lo <= images) & (images <= hi))

    def test_matches_rk4(self, grid):
        pts, _ = self.in_cell_points(grid, per_cell=2)
        # a mid-phase start as well as the whole phase
        mid = _integrate_batch(grid, pts, 0.0, 0.2, 1e-8)
        for start, ta in ((pts, 0.0), (mid, 0.2)):
            inside, images = grid.cell_flow(start, ta, self.T)
            assert np.all(inside)
            ref = _integrate_batch(grid, start, ta, self.T, 1e-8)
            assert np.max(np.abs(images - ref)) < 1e-9

    @staticmethod
    def gap_midpoint(grid, t):
        """Midpoint of the gap between the first two columns at time t,
        where a margin point's nearest column switches."""
        xm, xp, *_ = grid._walls(t)
        return 0.5 * (xp[0] + xm[1])

    def margin_points(self, grid, count=40):
        """Random points outside every cell, after one that sits where the
        gap midpoint passes at mid-phase, so the midpoint crosses it."""
        rng = np.random.default_rng(4)
        pts = rng.random((10 * count, 2))
        inside, _ = grid.cell_flow(pts, 0.0, 0.0)
        crosser = [self.gap_midpoint(grid, 0.5 * self.T), 0.5]
        return np.vstack([crosser, pts[~inside][:count]])

    def test_margin_points_match_finer_rk4(self, grid):
        tol = 1e-7
        finer = TimeField(grid.evaluate, 2, 4.0 * grid.lipschitz_bound,
                          grid.sup_bound)
        pts = self.margin_points(grid)
        mid = _integrate_batch(finer, pts, 0.0, 0.2, tol)
        for start, ta in ((pts, 0.0), (mid, 0.2)):
            images, in_cell, stats = grid.flow(start, ta, self.T, tol)
            assert not np.any(in_cell)
            assert stats["accepted"] >= 1
            ref = _integrate_batch(finer, start, ta, self.T, tol)
            assert np.max(np.abs(images - ref)) <= tol
            # the first point changes sides of the gap midpoint
            before = start[0, 0] - self.gap_midpoint(grid, ta)
            after = ref[0, 0] - self.gap_midpoint(grid, self.T)
            assert before * after < 0

    def test_flow_moves_cell_points_in_closed_form(self, grid):
        pts = np.vstack([self.in_cell_points(grid, per_cell=1)[0],
                         self.margin_points(grid, count=5)])
        images, in_cell, _ = grid.flow(pts, 0.0, self.T, 1e-7)
        inside, cell_images = grid.cell_flow(pts, 0.0, self.T)
        assert np.array_equal(in_cell, inside)
        assert np.array_equal(images[in_cell], cell_images)
        assert in_cell.sum() == len(grid.source_cells())

    def test_points_off_the_cells_are_left_out(self, grid):
        (lo, hi), = grid.source_cells()[:1]
        gap = np.array([[0.5 * lo[0], 0.5 * (lo[1] + hi[1])],
                        [0.5 * (lo[0] + hi[0]), hi[1] + 1e-9],
                        [1.5, 0.5]])
        inside, images = grid.cell_flow(gap, 0.0, self.T)
        assert not np.any(inside)
        assert images.shape == (0, 2)


class TestFunnelClosedForm:
    """Inside omega1 the straight-line funnel is an affine similarity, so
    certified points move in closed form; the others are integrated."""

    omega1 = Region.box([0.0, 0.0], [2.0, 1.5])
    v = TimeField.constant([0.6, 0.2])
    duration, tol = 0.4, 1e-8

    def funnel(self):
        return affine_funnel_total(
            self.v, self.omega1, Region.box([0.2, 0.2], [0.9, 1.2]),
            Region.box([1.4, 0.5], [1.7, 0.8]), self.duration,
            blend_band=0.2)

    def cloud(self, n=60):
        rng = np.random.default_rng(5)
        return ParticleMeasure([0.2, 0.2] + [0.7, 1.0] * rng.random((n, 2)),
                               np.full(n, 1.0 / n))

    def reversed_field(self, fld):
        return TimeField(lambda p, t: -fld.evaluate(p, self.duration - t), 2,
                         fld.lipschitz_bound, fld.sup_bound,
                         label="rev(funnel_affine)")

    def test_forward_and_reversed_match_rk4(self):
        fld = self.funnel()
        mu = self.cloud()
        certified, images = fld.closed_form(mu.positions)
        assert np.all(certified)
        ref = flow_push(fld, mu, 0.0, self.duration, self.tol).positions
        assert np.max(np.abs(images - ref)) < 1e-9

        back, back_images = fld.closed_form(images, reverse=True)
        assert np.all(back)
        assert np.max(np.abs(back_images - mu.positions)) < 1e-12
        rev_ref = _integrate_batch(self.reversed_field(fld), images, 0.0,
                                   self.duration, self.tol)
        assert np.max(np.abs(back_images - rev_ref)) < 1e-9

    def test_uncertified_points_take_rk4(self):
        fld = self.funnel()
        mu = self.cloud(20)
        # one point outside omega1, and one inside it whose start box, the
        # box around c0 with a corner at the point, pokes out of omega1
        pos = mu.positions.copy()
        pos[0] = [-0.1, 0.7]
        pos[1] = [0.3, 1.45]
        mu = ParticleMeasure(pos, mu.weights)
        certified, _ = fld.closed_form(mu.positions)
        assert not certified[0] and not certified[1]
        assert np.all(certified[2:])
        pushed, count = _push_funnel(fld, fld, mu, 0.0, self.duration, self.tol)
        assert count == len(mu) - 2
        ref = flow_push(fld, mu, 0.0, self.duration, self.tol).positions
        assert np.array_equal(pushed.positions[:2], ref[:2])
        assert np.max(np.abs(pushed.positions - ref)) < 1e-9

        rev = self.reversed_field(fld)
        pulled, rev_count = _push_funnel(rev, fld, pushed, 0.0, self.duration,
                                         self.tol, reverse=True)
        assert rev_count == len(mu) - 2
        rev_ref = flow_push(rev, pushed, 0.0, self.duration, self.tol).positions
        assert np.array_equal(pulled.positions[:2], rev_ref[:2])


def test_report_counts_closed_form_moves(tmp_path):
    code = cli.main(["run", "--scenario", "unit-shift", "--mode", "approx",
                     "--particles", "400", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    closed = report["closed_form"]
    assert set(closed) == {"funnel_forward", "funnel_backward", "grid",
                           "funnel_reversed"}
    for entry in closed.values():
        assert set(entry) == {"count", "total"}
        assert 0 <= entry["count"] <= entry["total"] == 400
    assert closed["grid"]["count"] > 0
    grid_flow = report["grid_flow"]
    assert set(grid_flow) == {"accepted", "rejected", "h_first", "h_min",
                              "h_max", "lipschitz"}
    assert grid_flow["accepted"] >= 1
    assert 0.0 < grid_flow["h_min"] <= grid_flow["h_max"]
    assert grid_flow["h_first"] == pytest.approx(
        0.1 / grid_flow["lipschitz"], rel=1e-2)
    # mass is conserved and each side's untouched set is its target mass
    # up to one particle weight
    assert report["mass_total"] == pytest.approx(1.0, abs=1e-12)
    untouched = report["untouched"]
    for side in ("source", "target"):
        assert abs(untouched[f"tagged_mass_{side}"]
                   - untouched["target_mass"]) <= 1.0 / 400
    # n comes from the count of untagged particles the grid phase moves:
    # isqrt(394 // 25) = 3
    grid_count = 400 - untouched["count_source"]
    assert report["grid_n"] == max(3, min(64, math.isqrt(grid_count // 25))) \
        == 3
    assert report["grid_bound"] == synth.grid_error_bound(3)
    assert not {"grid_bound_target", "grid_bound_met"} & set(report)


class TestStudyCli:
    """``transportlab study``: artifacts, exit codes, and the margin
    stepper against RK4 at a finer step."""

    args = ["study", "--scenario", "figure1", "--particles", "300",
            "--n-list", "3,4"]

    @pytest.fixture(scope="class")
    def rows(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("study")
        code = cli.main(self.args + ["--out", str(out)])
        assert code == 0
        with open(out / "study.csv") as fh:
            header = fh.readline().strip().split(",")
            lines = fh.read().strip().splitlines()
        assert header == ["n", "measured_w1", "predicted_bound",
                          "sample_error"]
        assert len(lines) == 2
        with open(out / "study.json") as fh:
            study = json.load(fh)
        assert {"artifact_version", "scenario_hash", "resolved_params",
                "rows"} <= set(study)
        rows = study["rows"]
        assert [row["n"] for row in rows] == [3, 4]
        assert [set(row) for row in rows] == [set(header)] * 2
        return rows

    def test_artifacts(self, rows):
        coarse, fine = rows
        # the finer mesh transports closer to the target, against one
        # sampling floor
        assert 0.0 < fine["measured_w1"] < coarse["measured_w1"]
        assert coarse["sample_error"] == fine["sample_error"]

    def test_table_matches_finer_rk4(self, rows, monkeypatch, tmp_path):
        # the reference moves in-cell points by cell_flow (pinned against
        # RK4 in TestGridClosedForm) and RK4s the margin points at a quarter
        # of the 0.1/L step; n = 3 only, ~10 000 steps on ~260 points
        def rk4_flow(grid, pts, ta, tb, tol):
            images = np.array(pts, dtype=float)
            in_cell, cell_images = grid.cell_flow(images, ta, tb)
            images[in_cell] = cell_images
            finer = TimeField(grid.evaluate, grid.dim,
                              4.0 * grid.lipschitz_bound, grid.sup_bound)
            images[~in_cell] = _integrate_batch(finer, images[~in_cell],
                                                ta, tb, tol)
            return images, in_cell, {}

        monkeypatch.setattr(synth.GridControlField, "flow", rk4_flow)
        scenario = cli._apply_overrides(
            cli.load_scenario("figure1"),
            cli.build_parser().parse_args(self.args + ["--out",
                                                       str(tmp_path)]))
        ref, = cli.convergence_study(scenario, [3], None,
                                     tol=float(scenario.params["tol"]))
        assert abs(rows[0]["measured_w1"] - ref["measured_w1"]) <= 1e-6

    @pytest.mark.parametrize("n_list", ["2", "3,12"])
    @pytest.mark.filterwarnings("ignore:.* has an atom heavier")
    def test_bad_n_is_an_input_error(self, tmp_path, capsys, n_list):
        # n = 2 leaves the inner cells empty; n = 12 is too fine for 300
        # particles, which quantile_partition finds before any flow runs
        code = cli.main(["study", "--scenario", "figure1", "--particles",
                         "300", "--n-list", n_list, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("input error: ")
        assert not (tmp_path / "study.csv").exists()


class TestExactFunnelTimeChange:
    """Ascent lines of eta stay in omega1, where the funnel field is
    k grad(eta), so the gain-k flow is the k = 1 ascent run k times faster,
    and every lane can share that one ascent."""

    omega1 = Region.box([0.0, 0.0], [1.0, 1.0])
    s0 = Region.box([0.55, 0.4], [0.75, 0.6])
    pts = np.array([[0.1, 0.1], [0.2, 0.85], [0.9, 0.15], [0.5, 0.5],
                    [0.3, 0.45]])
    delta, tol = 0.2, 1e-6

    def ascent(self, gain, refine=1.0):
        """gain * grad(eta), stepped by gain * refine times grad(eta)'s
        Lipschitz bound (refine > 1 gives a finer step)."""
        eta, _, _ = weight_eta(self.omega1, self.s0)
        lip = _eta_grad_lipschitz(eta, self.omega1)
        return TimeField(lambda p, t: gain * eta.gradient(p), 2,
                         lipschitz_bound=gain * refine * lip,
                         label=f"gain_k{gain}", smooth=True)

    def funnel(self, lanes):
        return _escalate_exact_funnel(self.omega1, self.s0, lanes, self.tol)

    def test_matches_gain_k_run(self):
        funnels, ascent = self.funnel({"lane": (self.delta, self.pts)})
        k, end, hits, knots, paths = funnels["lane"]
        _, probe_hits = stopped_flow_batch(self.ascent(1), self.s0, self.pts,
                                           0.0, 512.0 * self.delta, self.tol)
        tau = float(np.max(probe_hits))
        assert ascent["tau_max"]["lane"] == tau
        assert k == max(1, 2 ** math.ceil(math.log2(tau / (0.9 * self.delta))))
        assert k > 1
        assert np.all(hits < self.delta)
        assert np.all(self.s0.contains(end))
        assert np.allclose(knots, np.linspace(0.0, self.delta, 33))
        assert np.array_equal(paths[:, 0], self.pts)
        assert np.array_equal(paths[:, -1], end)

        # each run's local error estimates sum to at most tol over its
        # horizon; the gain-k run covers in delta what the k = 1 run covers
        # in k delta of its 512 delta, so at the same tol its bound is
        # 512 / k times looser: a tighter tol lets it match to 1e-9
        ref_end, ref_hits = stopped_flow_batch(self.ascent(k), self.s0,
                                               self.pts, 0.0, self.delta,
                                               1e-3 * self.tol)
        assert np.max(np.abs(end - ref_end)) < 1e-9
        assert np.max(np.abs(hits - ref_hits)) < 1e-9

    def test_matches_a_finer_step(self):
        # an independent reference: fixed-step RK4 at a step 20 times finer
        # than grad(eta)'s Lipschitz bound asks for, run to each hit time,
        # lands on the recorded endpoint, on the boundary of s0
        pts = self.pts[3:]
        funnels, _ = self.funnel({"lane": (self.delta, pts)})
        k, end, hits, _, _ = funnels["lane"]
        fine = self.ascent(1, refine=20.0)
        for x0, e, hit in zip(pts, end, hits):
            ref = _integrate_batch(fine, x0[None], 0.0, k * hit, self.tol)[0]
            assert np.max(np.abs(e - ref)) < 1e-9
            assert abs(self.s0.signed_distance(ref)[0]) < 1e-9

    def test_lane_alone_equals_lane_in_merged_run(self):
        # the second lane parks later, so the merged run takes more steps;
        # the steps it shares differ from the lone lane's, so the lane
        # agrees to the error control, not bit for bit
        alone, alone_run = self.funnel({"a": (self.delta, self.pts[3:])})
        merged, merged_run = self.funnel({"a": (self.delta, self.pts[3:]),
                                          "b": (self.delta, self.pts[:3])})
        assert merged_run["accepted"] > alone_run["accepted"]
        assert abs(merged_run["tau_max"]["a"]
                   - alone_run["tau_max"]["a"]) < 1e-10
        k, end, hits, knots, paths = merged["a"]
        k_alone, end_alone, hits_alone, knots_alone, paths_alone = alone["a"]
        assert k == k_alone and np.array_equal(knots, knots_alone)
        assert np.max(np.abs(end - end_alone)) < 1e-10
        assert np.max(np.abs(hits - hits_alone)) < 1e-10
        assert np.max(np.abs(paths - paths_alone)) < 1e-8

    def test_path_leaving_omega1_raises(self, monkeypatch):
        # an eta whose ascent runs straight out of omega1 into an s0 beyond
        # its right edge
        tilt = ScalarField(lambda p: p[:, 0],
                           lambda p: np.tile([1.0, 0.0], (len(p), 1)))
        monkeypatch.setattr(synth, "weight_eta",
                            lambda omega1, s0: (tilt, 1.0, 1.0))
        s0 = Region.box([1.2, 0.3], [1.4, 0.7])
        with pytest.raises(RuntimeError, match="left omega1"):
            _escalate_exact_funnel(self.omega1, s0,
                                   {"lane": (self.delta, self.pts[3:])},
                                   self.tol)

    def test_start_outside_omega1_raises(self):
        pts = np.vstack([self.pts[3:], [[1.05, 0.5]]])
        with pytest.raises(RuntimeError, match="left omega1"):
            self.funnel({"lane": (0.002, pts)})


def test_storage_knots_follow_a_constant_drift():
    # the exact lane's storage-park knots are x0 + v min(t, tau): the knot
    # that straddles a hit lies on the path, not on a chord to the parked
    # point
    v = np.array([0.7, 0.0])
    region = Region.box([1.6975, 0.4], [2.8025, 0.8])
    pts = np.random.default_rng(6).uniform([0.25, 0.45], [0.55, 0.75],
                                           (16, 2))
    end, hits, knots, paths = synth._stopped_paths(
        TimeField.constant(v), region, pts, 2.1, 1e-6)
    assert np.max(np.abs(hits - (1.6975 - pts[:, 0]) / 0.7)) < 1e-12
    exact = pts[:, None] + np.minimum(knots, hits[:, None])[..., None] * v
    assert np.max(np.abs(paths - exact)) < 1e-12


def on_path_control_outside(schedule, omega):
    """Largest |control| of the witness segments at their own atoms outside
    omega, at every knot time and knot midpoint. Sampled points never come
    within ``match_tol`` of an atom, so ``max_control_outside`` cannot see
    the control where the witness acts."""
    worst = 0.0
    for seg in schedule.segments:
        wf = seg.field
        mids = 0.5 * (wf.knots[:-1] + wf.knots[1:])
        for t in np.concatenate([wf.knots, mids]):
            pos, _ = wf.positions_at(t)
            pos = pos[~omega.contains(pos)]
            if len(pos):
                ctrl = wf.control_part(pos, t)
                worst = max(worst, float(np.max(np.linalg.norm(ctrl, axis=1))))
    return worst


class TestExactControllerContract:
    """Exact lane on a hand-made 3 + 2 atom scenario with unequal weights,
    so the plan splits an atom."""

    scenario = Scenario.from_dict({
        "dim": 2,
        "v": {"kind": "constant", "value": [0.3, 0.0]},
        "omega": {"kind": "box", "lo": [-1.0, -1.0], "hi": [2.0, 2.0]},
        "mu0": {"atoms": [[0.2, 0.3, 0.25], [0.4, 0.5, 0.25],
                          [0.3, 0.6, 0.5]]},
        "mu1": {"atoms": [[0.6, 0.7, 0.5], [0.5, 0.2, 0.5]]},
        "params": {"delta": 1.0, "seed": 0, "horizon": 4.0, "tol": 1e-6},
    })

    def test_contract(self):
        mu0 = self.scenario.measure("mu0")
        mu1 = self.scenario.measure("mu1")
        result = exact_controller(self.scenario)
        traj = result.trajectory

        final = traj.final().merged_coincident()
        assert result.report["final_w1"]["estimate"] <= 1e-9
        assert wp_discrete(final, mu1, p=1)[0] <= 1e-9

        for state in traj.states:
            assert abs(state.total_mass() - mu0.total_mass()) < 1e-12

        plan = traj.plan
        first = result.schedule.segments[0].field.paths
        last = result.schedule.segments[-1].field.paths
        assert np.allclose(first[:, 0], mu0.positions[plan.src_idx], atol=1e-12)
        assert np.allclose(last[:, -1], mu1.positions[plan.tgt_idx], atol=1e-12)

        omega = self.scenario.omega_region()
        assert result.schedule.max_control_outside(omega, 512, seed=0) == 0.0
        assert on_path_control_outside(result.schedule, omega) <= 1e-12

    def test_report_carries_funnel_ascent(self, tmp_path):
        path = tmp_path / "scenario.json"
        self.scenario.save(path)
        code = cli.main(["run", "--scenario", str(path), "--mode", "exact",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        with open(tmp_path / "out" / "report.json") as fh:
            report = json.load(fh)
        ascent = report["funnel_ascent"]
        assert set(ascent) == {"accepted", "rejected", "h_first", "h_min",
                               "h_max", "lipschitz", "tau_max"}
        assert set(ascent["tau_max"]) == {"forward", "backward"}
        # the bound chose the first step and error control the rest, the
        # run reached the last entry, and each lane's gain brings its
        # largest hitting time under 0.9 delta / 3
        bound_step = 0.1 / max(ascent["lipschitz"], 1.0)
        assert 0.0 < ascent["h_first"] <= bound_step * (1 + 1e-9)
        assert ascent["accepted"] >= 1
        assert 0.0 < ascent["h_min"] <= ascent["h_max"]
        assert (ascent["accepted"] * ascent["h_max"]
                >= max(ascent["tau_max"].values()))
        delta = self.scenario.params["delta"]
        for lane, k in report["funnel_k"].items():
            assert ascent["tau_max"][lane] / k <= 0.3 * delta * (1 + 1e-12)


@pytest.mark.parametrize("kind", ["plain", "merge", "split"])
def test_random_exact_scenario_contract(kind):
    scenario = random_exact_scenario(0, kind)
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    result = exact_controller(scenario)
    final = result.trajectory.final().merged_coincident()
    assert result.report["final_w1"]["estimate"] <= 1e-9
    assert wp_discrete(final, mu1, p=1)[0] <= 1e-9
    for state in result.trajectory.states:
        assert abs(state.total_mass() - mu0.total_mass()) < 1e-12
    omega = scenario.omega_region()
    assert result.schedule.max_control_outside(omega, 512, seed=0) == 0.0
    assert on_path_control_outside(result.schedule, omega) <= 1e-12
