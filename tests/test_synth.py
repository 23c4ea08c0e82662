import json
import math

import numpy as np
import pytest

from transportlab import cli, geometry, measure, synth
from transportlab.flow import (TimeField, _affine_flow, _integrate_batch,
                               choose_step, flow_push, stopped_flow_batch)
from transportlab.geometry import Region
from transportlab.measure import (DensitySpec, GridPartition, ParticleMeasure,
                                  push_forward, quantile_partition, sample)
from transportlab.ot import wp_discrete
from transportlab.scenarios import Scenario
from transportlab.synth import (GridControlField, affine_funnel_total,
                                exact_controller)

from helpers import (merged_coincident, normalized, random_exact_scenario,
                     save_scenario)


def unit_box_meshes(src, tgt, n):
    """Quantile meshes of ``src`` and ``tgt``, n cells per axis, both cut
    within the unit box: their outer walls are static."""
    box = (np.zeros(src.dim), np.ones(src.dim))
    return tuple(measure._partition_one(mu, n, box) for mu in (src, tgt))


def square_meshes():
    """Unit-box quantile meshes, 4 cells per axis, of a uniform unit square
    and of a uniform smaller square inside it."""
    src = sample(DensitySpec("uniform_box", 2, {"lo": [0, 0], "hi": [1, 1]}),
                 1500, seed=1)
    tgt = sample(DensitySpec("uniform_box", 2,
                             {"lo": [0.1, 0.3], "hi": [0.7, 0.9]}),
                 1500, seed=2)
    return unit_box_meshes(src, tgt, 4)


class TestGridClosedForm:
    """Within a slab the moving cell walls are characteristics, so ``flow``
    moves every point off the blend strips in closed form; strip points
    take fixed-step RK4 at the moving axis's slope bound."""

    T = 0.5

    @pytest.fixture(scope="class")
    def grid(self):
        return GridControlField(*square_meshes(), self.T)

    @staticmethod
    def subphase(grid, a, refine=1.0):
        """The d-dimensional field of sub-phase a alone, at refine times
        the axis-a slope bound."""
        return TimeField(lambda pts, t: grid._velocity(a, pts, t), grid.dim,
                         refine * grid.slopes[a])

    @classmethod
    def rk4(cls, grid, pts, ta, tb, tol, refine=1.0):
        """Fixed-step RK4 through each sub-phase's d-dimensional field in
        turn, at refine times its slope bound."""
        for a in range(grid.dim):
            lo, hi = max(ta, grid.ends[a]), min(tb, grid.ends[a + 1])
            if hi > lo:
                pts = _integrate_batch(cls.subphase(grid, a, refine), pts,
                                       lo, hi, tol)
        return pts

    def test_duration_must_be_positive(self):
        for T in (0.0, -1.0):
            with pytest.raises(ValueError, match="T must be positive"):
                GridControlField(*square_meshes(), T)

    def test_corners_reach_their_ends(self, grid):
        # sub-phase a carries every slab's walls on axis a, read at the
        # middle of the slab on the earlier axes, from their source to
        # their target positions bit for bit
        n, d = grid.n, grid.dim
        lo, hi = grid.tgt.cells()
        for a in range(d):
            slabs = np.arange(n ** a) * n ** (d - a)
            middle = 0.5 * (lo[slabs] + hi[slabs])
            src = grid.src.walls[a].reshape(-1, n + 1)
            tgt = grid.tgt.walls[a].reshape(-1, n + 1)
            pts = np.repeat(middle, n + 1, axis=0)
            pts[:, a] = src.ravel()
            images, closed, _ = grid.flow(pts, grid.ends[a], grid.ends[a + 1],
                                          1e-8)
            assert np.all(closed)
            assert np.array_equal(images[:, a], tgt.ravel())
            others = np.arange(d) != a
            assert np.array_equal(images[:, others], pts[:, others])

    def in_cell_points(self, grid, per_cell=6):
        """Points at relative coordinates in [0.02, 0.98] of every source
        cell, which keeps them off every blend strip, and those
        coordinates."""
        rng = np.random.default_rng(3)
        lo, hi = grid.src.cells()
        rel = rng.uniform(0.02, 0.98, (len(lo), per_cell, grid.dim))
        pts = lo[:, None] + rel * (hi - lo)[:, None]
        return pts.reshape(-1, grid.dim), rel.reshape(-1, grid.dim)

    def test_source_cells_land_in_target_cells(self, grid):
        pts, rel = self.in_cell_points(grid)
        images, closed, stats = grid.flow(pts, 0.0, self.T, 1e-8)
        assert np.all(closed) and stats["steps"] == 0
        lo, hi = grid.tgt.cells()
        cells = np.repeat(np.arange(len(lo)), 6)
        assert np.array_equal(grid.tgt.locate(images), cells)
        # each point keeps its relative coordinate on every axis
        expect = lo[cells] + rel * (hi - lo)[cells]
        assert np.max(np.abs(images - expect)) < 1e-14

    def test_matches_rk4(self, grid):
        pts, _ = self.in_cell_points(grid, per_cell=2)
        # the whole phase, within one sub-phase, across the sub-phase
        # boundary, and from mid-phase starts
        for ta, tb in ((0.0, self.T), (0.05, 0.2), (0.1, 0.4), (0.3, self.T)):
            start = self.rk4(grid, pts, 0.0, ta, 1e-10)
            images, closed, _ = grid.flow(start, ta, tb, 1e-10)
            assert np.all(closed)
            ref = self.rk4(grid, start, ta, tb, 1e-10)
            assert np.max(np.abs(images - ref)) < 1e-9

    @staticmethod
    def strip_points(grid, count=40):
        """Points at the start of sub-phase 1 inside the blend strips of
        the interior slab walls on axis 0, the first on a wall."""
        rng = np.random.default_rng(4)
        walls = grid.tgt.walls[0]
        widths = np.diff(walls)
        k = rng.integers(1, grid.n, count)
        gamma = synth.STRIP_GAMMA * np.minimum(widths[k - 1], widths[k])
        x = walls[k] + gamma * rng.uniform(-0.95, 0.95, count)
        x[0] = walls[1]
        return np.stack([x, rng.uniform(0.02, 0.98, count)], axis=1)

    def test_strip_points_match_finer_rk4(self, grid):
        tol = 1e-7
        pts = self.strip_points(grid)
        half = grid.ends[1]
        mid = self.rk4(grid, pts, half, 0.4, tol, refine=4.0)
        for start, ta in ((pts, half), (mid, 0.4)):
            images, closed, stats = grid.flow(start, ta, self.T, tol)
            assert not np.any(closed)
            assert stats["lipschitz"] == grid.slopes[1]
            assert stats["h"] == choose_step(self.subphase(grid, 1), tol,
                                             self.T - ta)
            assert stats["steps"] == round((self.T - ta) / stats["h"])
            ref = self.rk4(grid, start, ta, self.T, tol, refine=4.0)
            assert np.max(np.abs(images - ref)) <= tol
            # only the moving axis moved
            assert np.array_equal(images[:, 0], start[:, 0])

    def test_strip_rows_equal_the_d_dimensional_rk4(self, grid):
        # a strip row's earlier coordinates stay frozen, so stepping x_a
        # alone through its own blend is the d-dimensional RK4 at the same
        # step, bit for bit, in 2D and in the last sub-phase of a 3D mesh
        cube = DensitySpec("uniform_box", 3, {"lo": [0] * 3, "hi": [1] * 3})
        grid3 = GridControlField(*quantile_partition(
            sample(cube, 2000, seed=5),
            push_forward(sample(cube, 2000, seed=6), lambda p: p ** 2), 3),
            1.0)
        rng = np.random.default_rng(8)
        for g, pts in ((grid, self.strip_points(grid)),
                       (grid3, rng.random((3000, 3)))):
            a = g.dim - 1
            images, closed, _ = g.flow(pts, g.ends[a], g.ends[a + 1], 1e-7)
            assert np.any(~closed)
            ref = self.rk4(g, pts[~closed], g.ends[a], g.ends[a + 1], 1e-7)
            assert np.array_equal(images[~closed], ref)

    def test_flow_moves_cell_points_in_closed_form(self, grid):
        cell_pts, _ = self.in_cell_points(grid, per_cell=1)
        half = grid.ends[1]
        start = np.vstack([grid.flow(cell_pts, 0.0, half, 1e-7)[0],
                           self.strip_points(grid, count=5)])
        images, closed, _ = grid.flow(start, half, self.T, 1e-7)
        assert np.array_equal(closed, np.arange(len(start)) < len(cell_pts))
        alone, _, _ = grid.flow(start[closed], half, self.T, 1e-7)
        assert np.array_equal(images[closed], alone)

    def test_points_off_the_cells_are_left_out(self, grid):
        # beyond the outer walls the velocity is the wall's own speed, and
        # the unit box's outer walls are static, so such points lie in no
        # cell and stay put
        out = np.array([[-0.2, 1.3], [1.5, -0.1], [2.0, 2.0], [-1e-9, -1e-9]])
        images, closed, stats = grid.flow(out, 0.0, self.T, 1e-7)
        assert np.all(closed) and stats["steps"] == 0
        assert np.array_equal(images, out)
        for t in (0.0, 0.1, 0.25, 0.4, self.T):
            assert not np.any(grid.evaluate(out, t))

    def test_three_dimensional_cells_land_in_target_cells(self):
        cube = DensitySpec("uniform_box", 3, {"lo": [0] * 3, "hi": [1] * 3})
        src, tgt = sample(cube, 2000, seed=5), sample(cube, 2000, seed=6)
        grid = GridControlField(*unit_box_meshes(
            src, push_forward(tgt, lambda p: p ** 2), 3), 1.0)
        pts, rel = self.in_cell_points(grid, per_cell=2)
        images, closed, _ = grid.flow(pts, 0.0, 1.0, 1e-8)
        assert np.all(closed)
        lo, hi = grid.tgt.cells()
        cells = np.repeat(np.arange(len(lo)), 2)
        assert np.max(np.abs(images - lo[cells] - rel * (hi - lo)[cells])) \
            < 1e-14
        # the strips of both earlier axes: the last sub-phase blends up to
        # four slabs; its RK4 is stepped by that axis's slope bound
        moved, closed, stats = grid.flow(src.positions, 0.0, 1.0, 1e-7)
        assert 0 < np.sum(~closed) < 0.05 * len(src)
        assert stats["lipschitz"] == max(grid.slopes[1:])
        assert np.all((moved >= 0.0) & (moved <= 1.0))


class TestGridMovingOuterWalls:
    """On world-coordinate meshes the outer walls of a row move. Beyond
    them the field continues at the outer wall's speed, so it stays
    continuous across the wall, and points there move with the wall."""

    T = 0.5

    @pytest.fixture(scope="class")
    def grid(self):
        part_src, part_tgt = square_meshes()
        # the target mesh shifted and rescaled, as a cloud frame does
        origin, scale = np.array([0.05, -0.03]), np.array([1.1, 0.95])
        world = GridPartition(4, [origin[a] + scale[a] * w
                                  for a, w in enumerate(part_tgt.walls)])
        return GridControlField(part_src, world, self.T)

    def test_field_is_continuous_across_a_moving_outer_wall(self, grid):
        eps = 1e-7
        for a in range(grid.dim):
            t = 0.5 * (grid.ends[a] + grid.ends[a + 1])
            # one point per slab, in the middle of its cell on earlier axes
            rows = np.arange(grid.n ** a)
            pts = np.zeros((len(rows), grid.dim))
            if a:
                walls = grid.tgt.walls[0]
                pts[:, 0] = 0.5 * (walls[:-1] + walls[1:])
            speed = grid._speed[a]
            for side in (0, -1):
                assert np.all(speed[rows, side] != 0.0)
                wall = grid._walls(a, t)[rows, side]
                sign = -1.0 if side == 0 else 1.0
                inside, beyond = pts.copy(), pts.copy()
                inside[:, a] = wall - sign * eps
                beyond[:, a] = wall + sign * eps
                v_in = grid.evaluate(inside, t)[:, a]
                v_out = grid.evaluate(beyond, t)[:, a]
                assert np.max(np.abs(v_out - speed[rows, side])) <= 1e-12
                # a difference quotient within the axis's slope bound
                assert np.max(np.abs(v_out - v_in)) / (2 * eps) \
                    <= grid.slopes[a]

    def test_points_beyond_the_outer_walls_match_fine_rk4(self, grid):
        out = np.array([[-0.2, 0.5], [1.5, 0.4], [0.5, -0.1], [0.4, 1.2],
                        [-0.3, 1.4], [1.6, -0.2]])
        images, closed, stats = grid.flow(out, 0.0, self.T, 1e-8)
        assert np.all(closed) and stats["steps"] == 0
        assert np.all(images != out)
        ref = TestGridClosedForm.rk4(grid, out, 0.0, self.T, 1e-10,
                                     refine=4.0)
        assert np.max(np.abs(images - ref)) <= 1e-12
        # each point keeps its distance to the outer wall it lies beyond
        assert images[0, 0] - out[0, 0] == pytest.approx(
            grid.tgt.walls[0][0] - grid.src.walls[0][0], abs=1e-15)


class TestFunnelClosedForm:
    """Inside omega1 the straight-line funnel is an affine similarity, so
    certified points move in closed form; the others are integrated."""

    omega1 = Region.box([0.0, 0.0], [2.0, 1.5])
    v = TimeField.constant([0.6, 0.2])
    duration, tol = 0.4, 1e-8

    def funnel(self):
        return affine_funnel_total(
            self.v, self.omega1, Region.box([0.2, 0.2], [0.9, 1.2]),
            Region.box([1.4, 0.5], [1.7, 0.8]), (0.0, self.duration),
            blend_band=0.2)

    def cloud(self, n=60):
        rng = np.random.default_rng(5)
        return ParticleMeasure([0.2, 0.2] + [0.7, 1.0] * rng.random((n, 2)),
                               np.full(n, 1.0 / n))

    def reversed_field(self, fld):
        return fld.reversed(self.duration, 0.0, "funnel_reversed",
                            "rev(funnel_affine)")

    def test_forward_and_reversed_match_rk4(self):
        fld = self.funnel()
        mu = self.cloud()
        images, certified = fld.flow_map(mu.positions, 0.0, self.duration)
        assert np.all(certified)
        ref = _integrate_batch(fld, mu.positions, 0.0, self.duration,
                               self.tol)
        assert np.max(np.abs(images - ref)) < 1e-9

        rev = self.reversed_field(fld)
        back_images, back = rev.flow_map(images, 0.0, self.duration)
        assert np.all(back)
        assert np.max(np.abs(back_images - mu.positions)) < 1e-12
        rev_ref = _integrate_batch(rev, images, 0.0, self.duration, self.tol)
        assert np.max(np.abs(back_images - rev_ref)) < 1e-9

    def test_flow_map_composes_and_inverts(self):
        # 0 -> a -> D is 0 -> D, and D -> 0 takes the images back
        fld = self.funnel()
        pts = self.cloud().positions
        whole, certified = fld.flow_map(pts, 0.0, self.duration)
        assert np.all(certified)
        for a in (0.1, 0.2, 0.33):
            half, _ = fld.flow_map(pts, 0.0, a)
            split, _ = fld.flow_map(half, a, self.duration)
            assert np.max(np.abs(split - whole)) <= 1e-12
        back, certified = fld.flow_map(whole, self.duration, 0.0)
        assert np.all(certified)
        assert np.max(np.abs(back - pts)) <= 1e-12

    def test_uncertified_points_take_rk4(self):
        fld = self.funnel()
        mu = self.cloud(20)
        # one point outside omega1, and one inside it whose image under
        # the similarity, 1.55 + 0.386 (1.9 - 0.55) = 2.07, is not
        pos = mu.positions.copy()
        pos[0] = [-0.1, 0.7]
        pos[1] = [1.9, 0.7]
        mu = ParticleMeasure(pos, mu.weights)
        _, certified = fld.flow_map(mu.positions, 0.0, self.duration)
        assert not certified[0] and not certified[1]
        assert np.all(certified[2:])
        pushed, closed = flow_push(fld, mu, 0.0, self.duration, self.tol)
        assert closed == {"count": len(mu) - 2, "total": len(mu)}
        ref = _integrate_batch(fld, mu.positions, 0.0, self.duration,
                               self.tol)
        assert np.array_equal(pushed.positions[:2], ref[:2])
        assert np.max(np.abs(pushed.positions - ref)) < 1e-9

        rev = self.reversed_field(fld)
        pulled, rev_closed = flow_push(rev, pushed, 0.0, self.duration,
                                       self.tol)
        assert rev_closed["count"] == len(mu) - 2
        rev_ref = _integrate_batch(rev, pushed.positions, 0.0, self.duration,
                                   self.tol)
        assert np.array_equal(pulled.positions[:2], rev_ref[:2])

    def test_a_path_inside_omega1_is_certified_per_axis(self):
        # (0.3, 1.45) lies 0.75 above c0 = (0.55, 0.7): the box c(t) +-
        # |x - c(t)| reaches y = -0.05, below omega1, though the point's own
        # path stays inside it. On each axis the path keeps between the
        # centre and its own ends, so the map certifies it, and its image
        # is the field's flow, forward and reversed
        fld = self.funnel()
        pts = np.array([[0.3, 1.45]])
        c0 = np.array([0.55, 0.7])
        reach = np.abs(pts - c0)
        assert not self.omega1.contains(c0 - reach)[0]
        images, certified = fld.flow_map(pts, 0.0, self.duration)
        assert certified[0]
        ref = _integrate_batch(fld, pts, 0.0, self.duration, self.tol)
        assert np.max(np.abs(images - ref)) < self.tol
        rev = self.reversed_field(fld)
        back, certified = rev.flow_map(images, 0.0, self.duration)
        assert certified[0]
        rev_ref = _integrate_batch(rev, images, 0.0, self.duration, self.tol)
        assert np.max(np.abs(back - rev_ref)) < self.tol

    def test_certified_paths_stay_in_omega1(self):
        # the certificate is sound: a certified row's path, read off the
        # similarity at intermediate times, stays in omega1, forward and
        # backward; and it keeps every row the symmetric box c(t) +-
        # |x - c(t)| certified
        fld = self.funnel()
        rng = np.random.default_rng(3)
        pts = rng.uniform([-0.2, -0.2], [2.2, 1.7], (400, 2))
        c0, c1 = np.array([0.55, 0.7]), np.array([1.55, 0.65])
        for t0, t1 in rng.uniform(0.0, self.duration, (12, 2)):
            images, certified = fld.flow_map(pts, t0, t1)
            assert np.any(certified) and not np.all(certified)
            for t in np.linspace(t0, t1, 41):
                mid, _ = fld.flow_map(pts[certified], t0, t)
                assert np.all(self.omega1.contains(mid))
            w0, w1 = geometry._smootherstep(np.array([t0, t1])
                                            / self.duration)
            c_t0, c_t1 = c0 + w0 * (c1 - c0), c0 + w1 * (c1 - c0)
            scale = fld.ratios ** w1 / fld.ratios ** w0
            reach = np.abs(pts - c_t0)
            symmetric = (
                self.omega1.contains(np.minimum(c_t0 - reach,
                                                c_t1 - scale * reach))
                & self.omega1.contains(np.maximum(c_t0 + reach,
                                                  c_t1 + scale * reach)))
            assert np.all(certified[symmetric])

    def test_control_is_the_blended_similarity_minus_the_drift(self):
        # b (drift - v): the similarity's velocity minus v, weighted by the
        # gate b, which falls from 1 on omega1 to 0 off omega1 grown by the
        # band
        fld = self.funnel()
        pts = np.random.default_rng(9).uniform([-0.3, -0.3], [2.3, 1.8],
                                               (400, 2))
        c0 = np.array([0.55, 0.7])
        c1 = np.array([1.55, 0.65])
        b = 1.0 - geometry._smootherstep(
            np.maximum(self.omega1.excess(pts), 0.0) / 0.2)
        assert np.any(b == 0.0) and np.any(b == 1.0)
        for t in np.linspace(0.0, self.duration, 7):
            s = np.array([t / self.duration])
            w = geometry._smootherstep(s)[0]
            wd = geometry._smootherstep_d(s)[0] / self.duration
            drift = wd * ((c1 - c0) + np.log(fld.ratios)
                          * (pts - c0 - w * (c1 - c0)))
            expected = b[:, None] * (drift - self.v.evaluate(pts, t))
            assert np.max(np.abs(fld.control_part(pts, t) - expected)) < 1e-12


def test_storage_control_cancels_the_drift_progressively():
    # (theta_k - 1) v: zero outside omega0, -v at depth 1/k and beyond
    v = TimeField.constant([0.6, 0.2])
    omega0 = Region.box([0.5, 0.5], [1.5, 1.0])
    pts = np.random.default_rng(10).uniform([0.3, 0.3], [1.7, 1.2], (400, 2))
    fld = synth.storage_total(v, omega0, 8)
    theta = 1.0 - geometry._smootherstep(8 * omega0.depth(pts))
    assert np.any(theta == 0.0) and np.any(theta == 1.0)
    expected = (theta - 1.0)[:, None] * v.evaluate(pts, 0.0)
    assert np.max(np.abs(fld.control_part(pts, 0.0) - expected)) < 1e-12
    assert np.all(fld.control_part(pts[~omega0.contains(pts)], 0.0) == 0.0)


def test_report_counts_closed_form_moves(tmp_path):
    code = cli.main(["run", "--scenario", "unit-shift", "--mode", "approx",
                     "--particles", "400", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "report.json") as fh:
        report = json.load(fh)
    closed = report["closed_form"]
    assert set(closed) == {"storage_forward", "storage_backward",
                           "storage_reversed", "funnel_forward",
                           "funnel_backward", "grid", "funnel_reversed"}
    for entry in closed.values():
        assert set(entry) == {"count", "total"}
        assert 0 <= entry["count"] <= entry["total"] == 400
    assert closed["grid"]["count"] > 0
    # the zero drift is a translation: every storage push is a flow map
    for phase in ("forward", "backward", "reversed"):
        assert closed[f"storage_{phase}"]["count"] == 400
    # the strip points' fixed-step RK4: its steps, its step and the
    # axis-slope bound that chose it
    grid_flow = report["grid_flow"]
    assert set(grid_flow) == {"steps", "h", "lipschitz"}
    if grid_flow["steps"]:
        # in 2D only the second of the two sub-phases has strips
        span = 0.5 * (report["times"]["T3"] - report["times"]["T2"])
        assert grid_flow["steps"] * grid_flow["h"] == pytest.approx(span)
        assert grid_flow["h"] <= min(1e-6 ** 0.25, 0.1 / max(
            grid_flow["lipschitz"], 1.0)) * (1 + 1e-9)
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
    # the certificate, in world units, lies between 0 and the unit
    # square's diameter
    assert 0.0 < report["grid_bound"] < math.sqrt(2.0)
    assert not {"grid_bound_target", "grid_bound_met"} & set(report)


class TestStudyCli:
    """``transportlab study``: artifacts, exit codes, and the grid flow
    against RK4 at a finer step."""

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
        # the reference takes every point, strip or not, through each
        # sub-phase's field by RK4 at a quarter of the 0.1/L step; n = 3
        # only, a few hundred steps on 300 points
        def rk4_flow(grid, pts, ta, tb, tol):
            images = TestGridClosedForm.rk4(grid, np.array(pts, dtype=float),
                                            ta, tb, tol, refine=4.0)
            return images, np.zeros(len(images), dtype=bool), {}

        monkeypatch.setattr(synth.GridControlField, "flow", rk4_flow)
        scenario = cli._apply_overrides(
            cli.load_scenario("figure1"),
            cli.build_parser().parse_args(self.args + ["--out",
                                                       str(tmp_path)]))
        ref, = cli.convergence_study(scenario, [3], None,
                                     tol=float(scenario.params["tol"]))
        assert abs(rows[0]["measured_w1"] - ref["measured_w1"]) <= 1e-6

    @pytest.mark.parametrize("n_list", ["0", "3,40"])
    def test_bad_n_is_an_input_error(self, tmp_path, capsys, n_list):
        # n = 0 cells is no mesh; n = 40 asks 7 or 8 particles per column
        # for 40 cells, which quantile_partition finds before any flow runs
        code = cli.main(["study", "--scenario", "figure1", "--particles",
                         "300", "--n-list", n_list, "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("input error: ")
        assert not (tmp_path / "study.csv").exists()


class TestExactFunnelClosedForm:
    """The straight-line funnel on the box ``_cloud_box`` fits to its
    atoms: inside omega1 its flow is a similarity in closed form, so the
    atoms' paths are read off its flow map and nothing is integrated."""

    omega1 = Region.box([0.0, 0.0], [1.0, 1.0])
    s0 = Region.box([0.55, 0.4], [0.75, 0.6])
    pts = np.array([[0.1, 0.1], [0.2, 0.85], [0.9, 0.15], [0.5, 0.5],
                    [0.3, 0.45]])
    v = TimeField.constant([0.6, 0.2])
    delta = 0.2
    times = np.linspace(0.0, delta, 33)

    def funnel(self, pts, clock=(0.0, delta)):
        """The funnel of ``pts`` over ``clock``, and its flow map's images
        of them at the clock's end and their certificates."""
        fld = affine_funnel_total(self.v, self.omega1,
                                  synth._cloud_box(pts, self.omega1), self.s0,
                                  clock, blend_band=0.2)
        return fld, fld.flow_map(pts, *clock)

    def paths(self, fld):
        """``(n, 33, d)`` positions of ``pts`` along the funnel's flow map."""
        return np.stack([fld.flow_map(self.pts, 0.0, t)[0]
                         for t in self.times], axis=1)

    def test_knots_run_from_the_atoms_to_the_image(self):
        # the flow map runs from the atoms at the clock's start to their
        # image in s0 at its end, inside omega1 at every time between
        fld, (end, certified) = self.funnel(self.pts)
        paths = self.paths(fld)
        assert np.max(np.abs(paths[:, 0] - self.pts)) <= 1e-15
        assert np.all(certified)
        assert np.array_equal(paths[:, -1], end)
        # the end of the span is exact: centre c1, scale lam
        cloud = synth._cloud_box(self.pts, self.omega1)
        c0 = 0.5 * (cloud.lo + cloud.hi)
        assert np.array_equal(
            end, 0.5 * (self.s0.lo + self.s0.hi)
            + fld.ratios * (self.pts - c0))
        assert np.all(self.s0.contains(end))
        assert np.all(self.omega1.contains(paths.reshape(-1, 2)))
        # on a shifted clock the funnel is the same field, later
        later, (shifted_end, _) = self.funnel(self.pts,
                                              (0.3, 0.3 + self.delta))
        assert np.array_equal(shifted_end, end)
        assert later.descriptor == fld.descriptor

    def test_matches_rk4(self):
        # an independent reference: the funnel field's RK4 flow from one
        # sampled time to the next
        fld, _ = self.funnel(self.pts)
        ref = [self.pts]
        for a, b in zip(self.times[:-1], self.times[1:]):
            ref.append(_integrate_batch(fld, ref[-1], a, b, 1e-8))
        assert np.max(np.abs(self.paths(fld) - np.stack(ref, axis=1))) < 1e-9

    def test_start_outside_omega1_raises(self):
        pts = np.vstack([self.pts[3:], [[1.05, 0.5]]])
        with pytest.raises(ValueError, match="omega1"):
            self.funnel(pts)

    def test_an_atom_outside_omega1_is_not_certified(self, monkeypatch):
        # a cloud box that leaves out the last atom, outside omega1: the
        # funnel fits, but its closed form cannot certify that atom
        inside = synth._cloud_box(self.pts[3:], self.omega1)
        monkeypatch.setattr(synth, "_cloud_box", lambda pts, omega1: inside)
        pts = np.vstack([self.pts[3:], [[1.05, 0.5]]])
        _, (_, certified) = self.funnel(pts)
        assert certified.tolist() == [True, True, False]


def select_untouched_by_rows(weights, must_tag, depth, target_mass):
    """The untouched set picked one row at a time, shallowest first: the
    reference ``synth._select_untouched`` must match bit for bit."""
    tagged = must_tag.copy()
    mass = float(np.sum(weights[tagged]))
    for idx in np.argsort(depth, kind="stable"):
        if mass >= target_mass - 0.5 * np.max(weights):
            break
        if not tagged[idx]:
            tagged[idx] = True
            mass += weights[idx]
    return tagged


@pytest.mark.parametrize("seed", range(8))
def test_untouched_selection_matches_the_row_loop(seed):
    # depths with many ties, some rows that must be tagged, equal weights
    # on odd seeds; the targets put the threshold on and about each
    # running mass, where one row more or less is decided
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 60))
    weights = (np.full(count, 1.0 / count) if seed % 2
               else rng.random(count) + 0.05)
    depth = rng.integers(0, 5, count) / 4.0
    must = rng.random(count) < 0.2
    mu = ParticleMeasure(np.zeros((count, 1)), weights)
    running = np.cumsum(weights[np.argsort(depth, kind="stable")])
    half = 0.5 * np.max(weights)
    for target in [0.0, 2.0 * running[-1], *running, *(running + half),
                   *np.nextafter(running + half, 0.0)]:
        assert np.array_equal(
            synth._select_untouched(mu, must, depth, target),
            select_untouched_by_rows(weights, must, depth, target))


def test_storage_knots_follow_a_constant_drift():
    # the exact lane's park positions are x0 + v min(t, tau): a time just
    # past a hit lies on the path, not on a chord to the parked point
    v = np.array([0.7, 0.0])
    region = Region.box([1.6975, 0.4], [2.8025, 0.8])
    pts = np.random.default_rng(6).uniform([0.25, 0.45], [0.55, 0.75],
                                           (16, 2))
    fld = TimeField.constant(v)
    _, hits = stopped_flow_batch(fld, region, pts, 0.0, 2.1, 1e-6)
    assert np.max(np.abs(hits - (1.6975 - pts[:, 0]) / 0.7)) < 1e-12
    park = synth._park_witness(fld, fld.affine_pair, pts, hits, lambda t: t,
                               {"kind": "stopped_drift"})
    for t in np.concatenate([np.linspace(0.0, 2.1, 33), hits + 1e-3]):
        exact = pts + np.minimum(t, hits)[:, None] * v
        assert np.max(np.abs(park.position(t) - exact)) < 1e-12


def test_witness_check_sees_control_before_a_hit():
    # park atoms that declare twice the drift's velocity before their hits
    # carry a control of |v| outside omega. The check reads it off the
    # atoms' closed forms, as the field evaluated at the atoms gives it
    v = np.array([0.7, 0.0])
    omega = Region.box([1.6975, 0.4], [2.8025, 0.8])
    pts = np.random.default_rng(7).uniform([0.25, 0.45], [0.55, 0.75],
                                           (16, 2))
    fld = TimeField.constant(v)
    _, hits = stopped_flow_batch(fld, omega, pts, 0.0, 2.1, 1e-6)
    park = synth._park_witness(fld, fld.affine_pair, pts, hits, lambda t: t,
                               {"kind": "stopped_drift"})
    velocity = park.velocity
    park.velocity = lambda t: 2.0 * velocity(t)
    schedule = synth.ControlSchedule([
        synth.ControlSegment(0.0, 2.1, park, "storage")])
    times = np.linspace(0.0, 2.1, 33)
    evaluated = 0.0
    for t in times:
        pos = park.position(t)
        ctrl = park.control_part(pos[~omega.contains(pos)], t)
        evaluated = max(evaluated, float(np.max(np.linalg.norm(ctrl, axis=1),
                                                initial=0.0)))
    assert evaluated == pytest.approx(0.7, rel=1e-15)
    assert synth.witness_control_outside(schedule, omega, times) == evaluated


def assert_localized(result, omega):
    """No control outside omega: at sampled points, and at the witnesses'
    own atoms at every snapshot time and at 65 times across each segment.
    Sampled points never come within ``match_tol`` of an atom, so
    ``max_control_outside`` cannot see the control where a witness acts."""
    schedule = result.schedule
    assert schedule.max_control_outside(omega, 512, seed=0) == 0.0
    assert result.report["witness_control_outside"] == 0.0
    times = np.concatenate([np.linspace(seg.t_start, seg.t_end, 65)
                            for seg in schedule.segments])
    assert synth.witness_control_outside(schedule, omega, times) == 0.0


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

        final = merged_coincident(traj.final())
        assert result.report["final_w1"]["estimate"] <= 1e-9
        assert wp_discrete(final, mu1, p=1)[0] <= 1e-9

        for state in traj.states:
            assert abs(state.total_mass() - mu0.total_mass()) < 1e-12

        plan = result.plan
        segments = result.schedule.segments
        first = segments[0].field.position(0.0)
        last = segments[-1].field.position(segments[-1].t_end)
        assert np.allclose(first, mu0.positions[plan.src_idx], atol=1e-12)
        assert np.allclose(last, mu1.positions[plan.tgt_idx], atol=1e-12)
        # three witnesses: the park, the geodesic over [T1, T4] and the
        # target side's park replayed
        kinds = [seg.field.descriptor["kind"] for seg in segments]
        assert kinds == ["stopped_drift", "geodesic",
                         "stopped_drift_reversed"]
        assert all(isinstance(seg.field, synth.ParticleWitnessField)
                   for seg in segments)
        times = result.report["times"]
        assert [(seg.t_start, seg.t_end) for seg in segments] == [
            (0.0, times["T1"]), (times["T1"], times["T4"]),
            (times["T4"], times["T5"])]
        assert_localized(result, self.scenario.omega_region())

    def test_makes_only_the_crossing_checks_two_stopped_flows(
            self, monkeypatch):
        # the lane parks at the crossing check's entries, so its two flows
        # are the only ones
        calls = []

        def counting(original):
            def wrapper(*args, **kwargs):
                calls.append(args[0].label)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(synth, "stopped_flow_batch",
                            counting(synth.stopped_flow_batch))
        monkeypatch.setattr(geometry, "stopped_flow_batch",
                            counting(geometry.stopped_flow_batch))
        exact_controller(self.scenario)
        assert len(calls) == 2, calls

    def test_report_carries_no_funnel(self, tmp_path):
        # the lane funnels nothing, so its report names no funnel and no set
        # but omega0, and its schedule holds the three witnesses
        path = tmp_path / "scenario.json"
        save_scenario(self.scenario, path)
        code = cli.main(["run", "--scenario", str(path), "--mode", "exact",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        with open(tmp_path / "out" / "report.json") as fh:
            report = json.load(fh)
        assert not {"funnel", "funnel_ascent", "funnel_k"} & set(report)
        assert set(report["regions"]) == {"omega0"}
        with open(tmp_path / "out" / "schedule.json") as fh:
            schedule = json.load(fh)
        assert [seg["field"]["kind"] for seg in schedule["segments"]] == [
            "stopped_drift", "geodesic", "stopped_drift_reversed"]


def test_exact_lane_on_a_long_omega():
    # omega is 4 times longer than wide and mu0 spans omega0 along it: 1% of
    # the parked cloud's extent outgrows the room the approximate lane's
    # omega1 leaves past omega0, so the box a funnel would contract has its
    # pad cut to fit. The exact lane funnels nothing and arrives
    scenario = Scenario.from_dict({
        "dim": 2,
        "v": {"kind": "constant", "value": [0.0, 0.3]},
        "omega": {"kind": "box", "lo": [0.0, 0.0], "hi": [12.0, 3.0]},
        "mu0": {"atoms": [[0.5, 0.5, 0.25], [4.0, 0.6, 0.25],
                          [11.5, 0.5, 0.5]]},
        "mu1": {"atoms": [[0.6, 2.2, 0.5], [11.0, 2.3, 0.5]]},
        "params": {"delta": 1.0, "seed": 0, "horizon": 4.0, "tol": 1e-6},
    })
    mu0 = scenario.measure("mu0")
    plan = synth._plan(scenario)
    omega1 = synth._place_sets(plan.omega, plan.cond.omega0)[2]
    parked = plan.cond.parks[0][1]
    room = parked[0, 0] - omega1.lo[0]
    assert 0.0 < room < 0.01 * (11.5 - 0.5)
    box = synth._cloud_box(parked, omega1)
    assert box.lo[0] == parked[0, 0] - 0.99 * room
    assert np.all(omega1.contains(np.stack([box.lo, box.hi])))
    result = exact_controller(scenario)
    assert result.report["final_w1"]["estimate"] <= 1e-9
    for state in result.trajectory.states:
        assert abs(state.total_mass() - mu0.total_mass()) < 1e-12
    assert_localized(result, scenario.omega_region())


@pytest.mark.parametrize("kind", ["plain", "merge", "split"])
def test_random_exact_scenario_contract(kind):
    scenario = random_exact_scenario(0, kind)
    mu0 = scenario.measure("mu0")
    mu1 = scenario.measure("mu1")
    result = exact_controller(scenario)
    final = merged_coincident(result.trajectory.final())
    assert result.report["final_w1"]["estimate"] <= 1e-9
    assert wp_discrete(final, mu1, p=1)[0] <= 1e-9
    for state in result.trajectory.states:
        assert abs(state.total_mass() - mu0.total_mass()) < 1e-12
    assert_localized(result, scenario.omega_region())


def cluster_scenario(seed):
    """16 + 16 equal-weight atoms, one per cell of a 4 x 4 grid on each
    side, upstream and downstream of omega under a rightward drift."""
    rng = np.random.default_rng(seed)
    cells = np.stack(np.meshgrid(np.arange(4), np.arange(4), indexing="ij"),
                     axis=-1).reshape(-1, 2)

    def atoms(center):
        pts = np.asarray(center) - 0.15 + 0.075 * (cells + rng.random((16, 2)))
        return [[*p, 1.0 / 16] for p in pts.tolist()]

    return Scenario.from_dict({
        "dim": 2, "v": {"kind": "constant", "value": [0.7, 0.0]},
        "omega": {"kind": "box", "lo": [1.6, -0.6], "hi": [2.9, 1.6]},
        "mu0": {"atoms": atoms([0.4, 0.6])},
        "mu1": {"atoms": atoms([4.0, 0.6])},
        "params": {"delta": 0.6, "seed": seed, "horizon": 24.0,
                   "tol": 1e-6}})


def test_witness_velocities_replay_the_paths():
    # the plan is a permutation. On every segment the witness's velocity at
    # its atoms is the central difference of their positions, away from a
    # park's hit, where an atom stops. The last snapshot is the target
    scenario = cluster_scenario(8)
    result = exact_controller(scenario)
    traj = result.trajectory
    plan = result.plan
    assert sorted(plan.src_idx) == sorted(plan.tgt_idx) == list(range(16))
    for seg in result.schedule.segments:
        fld = seg.field
        h = 1e-6 * (seg.t_end - seg.t_start)
        checked = 0
        for t in np.linspace(seg.t_start, seg.t_end, 17)[1:-1]:
            diff = (fld.position(t + h) - fld.position(t - h)) / (2.0 * h)
            # leave out an atom that stops between t - h and t + h
            keep = (fld.velocity(t - h).any(axis=1)
                    == fld.velocity(t + h).any(axis=1))
            assert np.max(np.abs(diff - fld.velocity(t))[keep],
                          initial=0.0) < 1e-6
            checked += int(np.sum(keep))
        assert checked >= 15 * 16 - 16
    assert np.max(np.abs(traj.final().positions - scenario.measure(
        "mu1").positions[plan.tgt_idx])) < 1e-12


def test_a_split_atom_cannot_be_replayed():
    # the LP plan splits a source atom over several targets; the split
    # entries share a position until the geodesic, where the witness
    # returns one velocity per position and cannot send them apart: the
    # witness is not a flow
    scenario = random_exact_scenario(0, "plain")
    result = exact_controller(scenario)
    plan = result.plan
    src, counts = np.unique(plan.src_idx, return_counts=True)
    assert np.any(counts > 1)
    geodesic = result.schedule.segments[1]
    t1, t4 = geodesic.t_start, geodesic.t_end
    pos, ends = geodesic.field.position(t1), geodesic.field.position(t4)
    worst = 0.0
    for atom in src[counts > 1]:
        rows = np.flatnonzero(plan.src_idx == atom)
        assert np.array_equal(pos[rows], np.repeat(pos[rows[:1]], len(rows),
                                                   axis=0))
        got = geodesic.field.evaluate(pos[rows], t1)
        assert np.array_equal(got, np.repeat(got[:1], len(rows), axis=0))
        # that one velocity is the first entry's: it carries every split
        # entry to the first one's target, away from the others'
        assert np.array_equal(got[0], geodesic.field.velocity(t1)[rows[0]])
        miss = np.linalg.norm(pos[rows] + (t4 - t1) * got - ends[rows],
                              axis=1)
        assert miss[0] < 1e-12 and np.min(miss[1:]) > 1e-6
        worst = max(worst, float(np.max(miss)))
    assert worst > 0.05


def test_three_dimensional_approx_run():
    scenario = Scenario.from_dict({
        "dim": 3, "v": {"kind": "zero"},
        "omega": {"kind": "box", "lo": [-0.5] * 3, "hi": [1.5] * 3},
        "mu0": {"kind": "uniform_box", "dim": 3, "lo": [0.05] * 3,
                "hi": [0.55] * 3},
        "mu1": {"kind": "uniform_box", "dim": 3, "lo": [0.45] * 3,
                "hi": [0.95] * 3},
        "params": {"delta": 1.0, "particles": 800, "seed": 11,
                   "horizon": 4.0, "tol": 1e-6}})
    result = synth.approx_controller(scenario)
    report = result.report
    # 793 particles are left untagged, and the cube root of 793 // 25 = 31
    # rounds down to 3
    assert report["grid_n"] == 3
    assert report["closed_form"]["grid"]["count"] >= 0.95 * 800
    for state in result.trajectory.states:
        assert state.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert result.schedule.max_control_outside(
        scenario.omega_region(), 1024, seed=0) == 0.0
    assert report["final_w1"]["estimate"] < report["epsilon"]


def test_grid_bound_certifies_the_grid_phase(monkeypatch):
    # the certificate is at least the exact W1, in world units, between
    # the grid phase's image and its target
    seen = []

    def recording(mesh, moved, closed, target):
        bound = grid_error_bound(mesh, moved, closed, target)
        seen.append((bound, moved, closed, target))
        return bound

    grid_error_bound = synth.grid_error_bound
    monkeypatch.setattr(synth, "grid_error_bound", recording)
    preset = cli.load_scenario("figure1")
    for particles in (600, 1000):
        scenario = Scenario.from_dict({
            **preset.to_dict(),
            "params": {**preset.params, "particles": particles, "seed": 6}})
        report = synth.approx_controller(scenario).report
        (bound, moved, closed, target), = seen
        seen.clear()
        assert report["grid_bound"] == bound
        assert np.mean(closed) >= 0.98
        exact, _ = wp_discrete(normalized(moved), normalized(target))
        assert 0.0 < exact <= bound


def test_every_approx_control_is_total_minus_drift():
    # each segment's control is its total velocity minus the scenario's
    # drift, which vanishes exactly outside omega
    preset = cli.load_scenario("figure1")
    scenario = Scenario.from_dict({**preset.to_dict(),
                                   "params": {**preset.params,
                                              "particles": 300}})
    v = scenario.velocity_field()
    omega = scenario.omega_region()
    schedule = synth.approx_controller(scenario).schedule
    lo, hi = omega.lo, omega.hi
    pts = np.random.default_rng(0).uniform(2 * lo - hi, 2 * hi - lo,
                                           (512, omega.dim))
    for seg in schedule.segments:
        for t in np.linspace(seg.t_start, seg.t_end, 5):
            assert np.array_equal(seg.field.control_part(pts, t),
                                  seg.field.evaluate(pts, t)
                                  - v.evaluate(pts, t))
    assert schedule.max_control_outside(omega, 1024, seed=0) == 0.0


def test_approx_run_under_a_rotating_drift():
    # an affine drift has no finite sup_bound of its own; the plan bounds
    # its speed at the corners of the box holding omega and both supports
    # grown by 1, where |Ax + b| is largest, so every Lipschitz bound and
    # step stays finite
    preset = cli.load_scenario("figure1")
    scenario = Scenario.from_dict({
        **preset.to_dict(),
        "v": {"kind": "affine", "matrix": [[0.0, 0.03], [-0.03, 0.0]],
              "offset": [0.5, 0.0]},
        "params": {**preset.params, "particles": 300}})
    plan = synth._plan(scenario)
    assert not math.isfinite(scenario.velocity_field().sup_bound)
    omega = scenario.omega_region()
    boxes = (plan.mu0.support_bbox(), plan.mu1.support_bbox(),
             (omega.lo, omega.hi))
    lo = np.min([b[0] for b in boxes], axis=0) - 1.0
    hi = np.max([b[1] for b in boxes], axis=0) + 1.0
    pts = np.random.default_rng(0).uniform(lo, hi, (2000, 2))
    speeds = np.linalg.norm(plan.v.evaluate(pts, 0.0), axis=1)
    assert np.max(speeds) <= plan.v.sup_bound < math.inf
    result = synth.approx_controller(scenario)
    for seg in result.schedule.segments:
        assert math.isfinite(seg.field.lipschitz_bound)
    for state in result.trajectory.states:
        assert state.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(state.positions))
    assert result.schedule.max_control_outside(
        scenario.omega_region(), 1024, seed=0) == 0.0


def test_both_lanes_share_one_plan():
    scenario = random_exact_scenario(0, "plain")
    plan = synth._plan(scenario)
    approx = synth.approx_controller(scenario).report
    exact = exact_controller(scenario).report
    for key in ("times", "T0star", "T1star"):
        assert approx[key] == exact[key]
    assert exact["regions"] == {"omega0": approx["regions"]["omega0"]}
    assert approx["times"] == plan.times
    assert plan.t_back == max(exact["T1star"], 1e-3)


def swapped(pair):
    """``{"forward": b, "backward": a}`` for ``{"forward": a, "backward":
    b}``."""
    return {"forward": pair["backward"], "backward": pair["forward"]}


@pytest.mark.parametrize("preset, particles", [("figure1", 600),
                                               ("unit-shift", 2000)])
def test_the_target_side_is_the_source_side_of_the_mirror(monkeypatch,
                                                         preset, particles):
    # the mirror steers mu1 to mu0 under -v: its source side is the
    # original's target side bit for bit and the other way round, so every
    # per-side report entry swaps. The measures go in as atoms, because
    # each sampled density draws with its own seed
    data = cli.load_scenario(preset).to_dict()
    data["params"]["particles"] = particles
    sampled = Scenario.from_dict(data)
    for which in ("mu0", "mu1"):
        mu = sampled.measure(which)
        data[which] = {"atoms": np.column_stack([mu.positions,
                                                 mu.weights]).tolist()}
    v = data["v"]
    mirror = {**data, "mu0": data["mu1"], "mu1": data["mu0"],
              "v": v if v["kind"] == "zero" else
              {"kind": "constant", "value": [-b for b in v["value"]]}}
    sides = []
    side = synth._approx_side

    def recording(*args):
        sides.append(side(*args))
        return sides[-1]

    monkeypatch.setattr(synth, "_approx_side", recording)
    report = synth.approx_controller(Scenario.from_dict(data)).report
    mirrored = synth.approx_controller(Scenario.from_dict(mirror)).report
    source, target, mirror_source, mirror_target = sides
    for ours, theirs in ((source, mirror_target), (target, mirror_source)):
        (_, k, parked, tag, funnel, funnelled, cf_store, cf_funnel) = ours
        assert theirs[1] == k and theirs[6:] == (cf_store, cf_funnel)
        assert np.array_equal(theirs[2].positions, parked.positions)
        assert np.array_equal(theirs[3], tag)
        assert np.array_equal(theirs[4].ratios, funnel.ratios)
        assert np.array_equal(theirs[5].positions, funnelled.positions)
    assert (mirrored["T0star"], mirrored["T1star"]) == (report["T1star"],
                                                        report["T0star"])
    assert mirrored["storage_k"] == swapped(report["storage_k"])
    assert mirrored["funnel"]["forward_ratios"] == \
        report["funnel"]["backward_ratios"]
    assert mirrored["funnel"]["backward_ratios"] == \
        report["funnel"]["forward_ratios"]
    counts, theirs = report["untouched"], mirrored["untouched"]
    assert (theirs["count_source"], theirs["count_target"]) == (
        counts["count_target"], counts["count_source"])
    for kind in ("storage", "funnel"):
        assert [mirrored["closed_form"][f"{kind}_{lane}"]
                for lane in ("forward", "backward")] == [
            report["closed_form"][f"{kind}_{lane}"]
            for lane in ("backward", "forward")]
    assert mirrored["regions"] == report["regions"]


def exact_case(case):
    """figure1 at 500 particles, the cluster scenario of seed 6, or
    figure1's measures and omega at 200 particles under the rotating
    drift."""
    if case == "cluster-6":
        return cluster_scenario(6)
    preset = cli.load_scenario("figure1")
    particles, changes = {"figure1-500": (500, {}),
                          "rotating-200": (200, {"v": ROTATING})}[case]
    return Scenario.from_dict({
        **preset.to_dict(), **changes,
        "params": {**preset.params, "particles": particles}})


@pytest.mark.parametrize("case", ["figure1-500", "cluster-6"])
def test_snapshots_lie_on_the_exact_paths(case):
    # each snapshot is read off the segment that ends at or after its time:
    # a park entry is the drift's exact map at min(t, hit) on the park's
    # clock, and a geodesic entry the chord between the two sides' parks
    scenario = exact_case(case)
    result = exact_controller(scenario)
    traj, coupling = result.trajectory, result.plan
    plan = synth._plan(scenario)
    t1, t4, t5 = (plan.times[key] for key in ("T1", "T4", "T5"))
    src = plan.mu0.positions[coupling.src_idx]
    tgt = plan.mu1.positions[coupling.tgt_idx]
    (hits1, parked1), (hits5, parked5) = plan.cond.parks
    start, end = parked1[coupling.src_idx], parked5[coupling.tgt_idx]
    assert traj.times[0] == 0.0 and {t1, t4, t5} <= set(traj.times)

    for t, state in zip(traj.times, traj.states):
        if t <= t1:
            expect = _affine_flow(plan.v.affine_pair, src,
                                  np.minimum(t, hits1[coupling.src_idx]))
        elif t <= t4:
            lam = (t - t1) / (t4 - t1)
            expect = (1.0 - lam) * start + lam * end
        else:
            expect = _affine_flow(plan.v_back.affine_pair, tgt,
                                  np.minimum(t5 - t, hits5[coupling.tgt_idx]))
        assert np.max(np.abs(state.positions - expect)) <= 1e-12, t
    assert np.array_equal(traj.final().positions, tgt)


@pytest.mark.parametrize("case", ["cluster-6", "figure1-500",
                                  "rotating-200"])
def test_the_exact_lane_parks_at_the_crossing_checks_entries(case):
    # the crossing check's parks are its two stopped flows' hits and
    # entries, bit for bit; they lie in omega0 and end by T0* (T1*), and a
    # particle that starts inside keeps its start. The geodesic runs from
    # the one side's entries to the other's, and the witnesses park at
    # those hits
    scenario = exact_case(case)
    result = exact_controller(scenario)
    plan, coupling = synth._plan(scenario), result.plan
    cond = plan.cond
    target = plan.omega.shrink(cond.margin)
    park, geodesic, replay = result.schedule.segments
    sides = ((plan.mu0, plan.v, cond.T0star, coupling.src_idx,
              park.field.position(geodesic.t_start), geodesic.t_start),
             # before the segment every atom's park clock is past its hit
             (plan.mu1, plan.v_back, cond.T1star, coupling.tgt_idx,
              replay.field.position(geodesic.t_end), geodesic.t_end))
    for (hits, entries), (mu, drift, star, idx, parked, t) in zip(
            cond.parks, sides):
        ends, own = stopped_flow_batch(drift, target, mu.positions, 0.0,
                                       float(plan.params["horizon"]),
                                       float(plan.params["tol"]))
        assert np.array_equal(entries, ends)
        assert np.array_equal(hits, own)
        assert np.all(cond.omega0.contains(entries))
        assert np.max(hits) == star
        start = hits == 0
        assert np.array_equal(entries[start], mu.positions[start])
        assert np.array_equal(geodesic.field.position(t), entries[idx])
        assert np.array_equal(parked, _affine_flow(
            drift.affine_pair, mu.positions[idx], hits[idx]))


@pytest.mark.parametrize("case", ["cluster-6", "figure1-500",
                                  "rotating-200"])
def test_the_geodesic_stays_in_omega0(case):
    # both sides park in the box omega0, so the straight paths between
    # the parks stay in it: every snapshot over [T1, T4], and the geodesic
    # at 65 times across it
    scenario = exact_case(case)
    result = exact_controller(scenario)
    omega0 = synth._plan(scenario).cond.omega0
    geodesic = result.schedule.segments[1]
    t1, t4 = geodesic.t_start, geodesic.t_end
    traj = result.trajectory
    inside = [t for t in traj.times if t1 <= t <= t4]
    assert len(inside) >= 3
    for t, state in zip(traj.times, traj.states):
        if t1 <= t <= t4:
            assert np.all(omega0.contains(state.positions)), t
    for t in np.linspace(t1, t4, 65):
        assert np.all(omega0.contains(geodesic.field.position(t))), t


@pytest.mark.parametrize("case", ["cluster-6", "figure1-500",
                                  "rotating-200"])
def test_final_w1_is_the_couplings_own_cost(case):
    # the report's final W1 is the coupling's cost between the final atoms
    # and their targets, an upper bound that reads 0 at exact arrival; an
    # exact solve on the merged final cloud agrees
    scenario = exact_case(case)
    result = exact_controller(scenario)
    coupling, final = result.plan, result.trajectory.final()
    mu1 = scenario.measure("mu1")
    miss = np.linalg.norm(final.positions - mu1.positions[coupling.tgt_idx],
                          axis=1)
    w1 = result.report["final_w1"]
    assert w1 == {"estimate": float(coupling.mass @ miss),
                  "method": "coupling"}
    assert w1["estimate"] <= 1e-12
    assert wp_discrete(merged_coincident(final), mu1, p=1)[0] <= 1e-9


def weighted_inside_scenario(n0, n1):
    """``n0`` source and ``n1`` target atoms of random weights, all inside
    the control region under no drift: they park where they start, off a
    line, and unequal counts and weights take the transportation LP."""
    rng = np.random.default_rng(n0 + n1)

    def atoms(count):
        weights = rng.random(count) + 0.5
        return [[*x, w] for x, w in zip(rng.random((count, 2)).tolist(),
                                        (weights / weights.sum()).tolist())]

    return Scenario.from_dict({
        "dim": 2, "v": {"kind": "zero"},
        "omega": {"kind": "box", "lo": [-0.5, -0.5], "hi": [1.5, 1.5]},
        "mu0": {"atoms": atoms(n0)}, "mu1": {"atoms": atoms(n1)},
        "params": {"delta": 1.0, "seed": 0, "horizon": 4.0, "tol": 1e-6}})


@pytest.mark.parametrize("case,method", [
    ("two-bump-merge", "line"), ("unit-shift-300", "assignment"),
    ("unit-shift-3000", "block"), ("weighted-40x55", "transportation-lp")])
def test_every_coupling_route_reports_its_mass_residual(case, method):
    # the report's mass_residual is the largest gap between the coupling's
    # row (column) sums and mu0's (mu1's) weights, on each route: the sort
    # on a line, the assignment, the nested blocks above the solver's cap
    # (unit-shift parks where it starts, off a line) and the LP
    if case == "weighted-40x55":
        scenario = weighted_inside_scenario(40, 55)
    elif case == "two-bump-merge":
        scenario = cli.load_scenario(case)
    else:
        preset = cli.load_scenario("unit-shift")
        scenario = Scenario.from_dict({**preset.to_dict(), "params": {
            **preset.params, "particles": int(case.split("-")[-1])}})
    result = exact_controller(scenario)
    plan = result.plan
    assert plan.method == method
    row = np.bincount(plan.src_idx, plan.mass, len(plan.source))
    col = np.bincount(plan.tgt_idx, plan.mass, len(plan.target))
    assert result.report["mass_residual"] == max(
        np.max(np.abs(row - scenario.measure("mu0").weights)),
        np.max(np.abs(col - scenario.measure("mu1").weights)))
    assert result.report["mass_residual"] <= 1e-12


def test_the_approximate_lane_has_no_coupling():
    result = synth.approx_controller(cli.load_scenario("two-bump-merge"))
    assert result.plan is None
    assert "mass_residual" not in result.report


def test_the_gate_core_holds_every_grid_phase_path():
    # figure1's drift and omega between two uniform boxes at epsilon = 20:
    # half the mass stays untouched, and many rows lie beyond the faces of
    # the source cloud's frame, where they move rigidly with the faces. The
    # gate's hull, and so its core, holds every row at the phase's start
    # and at every sub-phase end, so the grid's own flow is the gated
    # field's
    preset = cli.load_scenario("figure1")
    scenario = Scenario.from_dict({
        **preset.to_dict(),
        "mu0": {"kind": "uniform_box", "dim": 2, "lo": [0.1, 0.25],
                "hi": [0.9, 0.85]},
        "mu1": {"kind": "uniform_box", "dim": 2, "lo": [3.75, 0.2],
                "hi": [4.45, 0.8]},
        "params": {**preset.params, "epsilon": 20.0, "particles": 400,
                   "seed": 1}})
    result = synth.approx_controller(scenario)
    seg = result.schedule.segments[2]
    gated, grid = seg.field, seg.field.inner
    start = result.trajectory.states[2]
    frame = Region.box([w.min() for w in grid.src.walls],
                       [w.max() for w in grid.src.walls])
    assert np.sum(~frame.contains(start.positions)) > 100
    # the hull the gate core grows by its band, to rounding: its extreme
    # rows lie on its faces
    band = gated.descriptor["band"] - 1e-12
    hull = Region.box(gated.gate_core.lo + band, gated.gate_core.hi - band)
    tol = float(scenario.params["tol"])
    for end in grid.ends:
        moved, _, _ = gated.advect(start, seg.t_start, seg.t_start + end, tol)
        assert np.all(hull.contains(moved.positions))
        assert np.all(gated.gate_core.contains(moved.positions))
    moved, _, _ = gated.advect(start, seg.t_start, seg.t_end, tol)
    assert np.array_equal(moved.positions,
                          result.trajectory.states[3].positions)
    assert result.schedule.max_control_outside(scenario.omega_region(), 4096,
                                               0) == 0.0


def test_exact_witness_control_vanishes_under_a_rotating_drift():
    # under a curved drift a park's atoms move on arcs. Each moves at the
    # drift itself before its hit, so the witness's control at its atoms
    # outside omega is exactly 0, and arrival stays exact
    preset = cli.load_scenario("figure1")
    scenario = Scenario.from_dict({
        **preset.to_dict(),
        "v": {"kind": "affine", "matrix": [[0.0, 0.03], [-0.03, 0.0]],
              "offset": [0.5, 0.0]},
        "params": {**preset.params, "particles": 200}})
    result = exact_controller(scenario)
    assert result.report["final_w1"]["estimate"] <= 1e-9
    assert_localized(result, scenario.omega_region())


class TestStorageFlowMap:
    """Under a translation drift the storage field theta_k v carries its
    exact flow map (``geometry.cutoff_flow``): a time change along straight
    streamlines, against which RK4 only approximates the kinks of the box
    depth."""

    K, T = 8, 4.0

    @staticmethod
    def setup(dim, drift, k=K):
        omega0 = Region.box(-0.5 * np.ones(dim), 0.8 * np.ones(dim))
        v = TimeField.constant(drift)
        return omega0, v, synth.storage_total(v, omega0, k)

    @staticmethod
    def starts(omega0, drift, k, rng):
        """Points upstream, on the boundary, inside near the faces, about
        to exit, and parked at k depth >= 1 (the last four rows)."""
        dim = len(drift)
        b = np.asarray(drift, dtype=float)
        lo, hi = omega0.lo, omega0.hi
        up = rng.uniform(lo, hi, (30, dim)) - 2.0 * b
        face = rng.uniform(lo, hi, (10, dim))
        face[:, 0] = lo[0]
        shallow = rng.uniform(lo + 0.02, lo + 0.06, (10, dim))
        centre = 0.5 * (lo + hi)
        exiting = (centre + rng.uniform(0.85, 0.95, (10, 1))
                   * 0.5 * (hi - lo) * np.sign(b))
        parked = centre + rng.uniform(-0.1, 0.1, (4, dim))
        pts = np.concatenate([up, face, shallow, exiting, parked])
        assert np.all(k * omega0.depth(parked) >= 1.0)
        return pts

    @pytest.mark.parametrize("drift", [[0.7], [-0.7], [0.5, 0.0],
                                       [0.4, -0.3], [0.3, 0.2, -0.25],
                                       [0.0, 0.0, 0.6]],
                             ids=["1d", "1d-back", "2d-axis", "2d-oblique",
                                  "3d-oblique", "3d-axis"])
    def test_matches_fine_rk4(self, drift):
        rng = np.random.default_rng(len(drift))
        omega0, v, fld = self.setup(len(drift), drift)
        assert fld.flow_map is not None
        pts = self.starts(omega0, drift, self.K, rng)
        mu = ParticleMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
        got = flow_push(fld, mu, 0.0, self.T, 1e-6)[0].positions
        plain = TimeField(fld.evaluate, fld.dim, fld.lipschitz_bound,
                          fld.sup_bound)
        ref = _integrate_batch(plain, pts, 0.0, self.T, 1e-12)
        assert np.max(np.abs(got - ref)) <= 1e-6
        # the parked points do not move at all
        assert np.array_equal(got[-4:], pts[-4:])
        # nobody leaves its streamline
        b = np.asarray(drift)
        off = (got - pts) - ((got - pts) @ b / (b @ b))[:, None] * b
        assert np.max(np.abs(off)) < 1e-12

    @pytest.mark.parametrize("drift", [[0.4, -0.3], [0.5, 0.0],
                                       [0.3, 0.2, -0.25]])
    def test_reversal_and_semigroup(self, drift):
        # the backward lane's storage on -v followed by its reversal, the
        # storage on v for as long, returns every point; and the map
        # composes over split durations
        rng = np.random.default_rng(7)
        omega0, v, fld = self.setup(len(drift), drift)
        back = synth.storage_total(v.negated(), omega0, self.K)
        pts = self.starts(omega0, drift, self.K, rng)
        there, _ = back.flow_map(pts, 0.0, self.T)
        assert np.max(np.abs(fld.flow_map(there, 0.0, self.T)[0] - pts)) \
            <= 1e-12
        whole, _ = fld.flow_map(pts, 0.0, self.T)
        split, _ = fld.flow_map(fld.flow_map(pts, 0.0, 1.3)[0], 1.3, self.T)
        assert np.max(np.abs(split - whole)) <= 1e-12
        # run backwards, the map undoes itself
        undone, _ = fld.flow_map(whole, self.T, 0.0)
        assert np.max(np.abs(undone - pts)) <= 1e-12

    @pytest.mark.parametrize("offset, duration", [(2.7, 4.0), (0.1, 0.3),
                                                  (13.25, 1.0 / 3.0)])
    def test_reversed_storage_is_the_forward_map(self, offset, duration):
        # the reversal of the backward lane's storage on -v is theta_k v:
        # its map is the forward storage field's, bit for bit
        rng = np.random.default_rng(8)
        drift = [0.4, -0.3]
        omega0, v, fld = self.setup(2, drift)
        back = synth.storage_total(v.negated(), omega0, self.K)
        rev = back.reversed(duration, offset, "storage_reversed",
                            f"-({back.label})")
        pts = self.starts(omega0, drift, self.K, rng)
        t0, t1 = offset, offset + duration
        got, certified = rev.flow_map(pts, t0, t1)
        want, _ = fld.flow_map(pts, t0, t1)
        assert np.all(certified)
        assert np.array_equal(got, want)

    def test_zero_drift_is_the_identity(self):
        rng = np.random.default_rng(3)
        omega0 = Region.box([-0.5, -0.5], [1.5, 1.5])
        pts = rng.uniform(-1.0, 2.0, (200, 2))
        mu = ParticleMeasure(pts, np.full(200, 1.0 / 200))
        for v in (TimeField.zero(2), TimeField.constant([0.0, 0.0])):
            fld = synth.storage_total(v, omega0, 4)
            assert fld.flow_map is not None
            assert np.array_equal(
                flow_push(fld, mu, 0.0, 5.0, 1e-6)[0].positions, pts)

    def test_curved_drift_keeps_rk4(self):
        # A != 0 has curved streamlines: no flow map, and the push is the
        # fixed-step RK4 of the field, bit for bit
        mat, off = np.array([[0.0, 0.2], [-0.2, 0.0]]), np.array([0.5, 0.0])
        v = TimeField(lambda p, t: p @ mat.T + off, 2, 0.2, sup_bound=1.0,
                      affine_pair=(mat, off))
        omega0 = Region.box([0.0, -0.5], [1.0, 0.5])
        fld = synth.storage_total(v, omega0, 8)
        assert fld.flow_map is None
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, (50, 2))
        mu = ParticleMeasure(pts, np.full(50, 0.02))
        pushed, closed = flow_push(fld, mu, 0.0, 2.0, 1e-6)
        assert closed == {"count": 0, "total": 50}
        assert np.array_equal(pushed.positions,
                              _integrate_batch(fld, pts, 0.0, 2.0, 1e-6))

    def test_unit_shift_at_preset_size(self, tmp_path, monkeypatch):
        # zero drift at 50 000 particles: the storage phases return the
        # particles unchanged, and the run finishes certified
        scenario = cli.load_scenario("unit-shift")
        result = synth.approx_controller(scenario)
        states = result.trajectory.states
        assert np.array_equal(states[1].positions, states[0].positions)
        assert result.report["final_w1"]["epsilon_certified"]
        closed = result.report["closed_form"]
        assert closed["storage_forward"]["count"] == 50_000
        self.assert_storage_and_funnels_closed(closed)
        # so snapshot 1 repeats snapshot 0, and snapshot 5 repeats
        # snapshot 4: four of the six states are formatted
        formatted = []
        to_csv = ParticleMeasure.to_csv

        def counting(state, path, tags=None):
            formatted.append(path.name)
            to_csv(state, path, tags)

        monkeypatch.setattr(ParticleMeasure, "to_csv", counting)
        paths = result.trajectory.save(tmp_path)
        assert formatted == [paths[k].name for k in (0, 2, 3, 4)]
        for k in (1, 5):
            assert paths[k].read_bytes() == paths[k - 1].read_bytes()

    @pytest.mark.parametrize("preset", ["figure1", "two-bump-merge"])
    def test_presets_move_storage_and_funnels_in_closed_form(self, preset):
        # with unit-shift above, every preset at its own size
        result = synth.approx_controller(cli.load_scenario(preset))
        self.assert_storage_and_funnels_closed(result.report["closed_form"])

    @staticmethod
    def assert_storage_and_funnels_closed(closed):
        for kind in ("storage", "funnel"):
            for lane in ("forward", "backward", "reversed"):
                entry = closed[f"{kind}_{lane}"]
                assert entry["count"] == entry["total"] > 0


@pytest.mark.parametrize("dim,count", [(1, 300), (2, 300), (3, 300),
                                       (2, 1500)],
                         ids=["1", "2", "3", "2-1500"])
def test_witness_matches_the_per_query_loop(dim, count):
    # the blocked witness against the per-query loop: the nearest atom,
    # the first among ties, where it lies within match_tol; queries at the
    # atoms, just inside and just outside the tolerance, and far away. The
    # atoms run on straight lines through three random points each, and
    # atoms 3, 7 and 100..149 meet at t = 0.5. At 1 500 atoms a block
    # holds 43 queries, so the meeting atoms' queries straddle two blocks
    rng = np.random.default_rng(dim)
    paths = rng.random((count, 3, dim))
    paths[[7, *range(100, 150)], 1] = paths[3, 1]

    def leg(t):
        return int(t >= 0.5)

    def position(t):
        j = leg(t)
        lam = (t - 0.5 * j) / 0.5
        return (1 - lam) * paths[:, j] + lam * paths[:, j + 1]

    def velocity(t):
        j = leg(t)
        return (paths[:, j + 1] - paths[:, j]) / 0.5

    fld = synth.ParticleWitnessField(position, velocity, 1.0,
                                     TimeField.constant(np.ones(dim)), "w",
                                     {"kind": "w"})
    step = np.zeros(dim)
    step[0] = 1.0
    for t in (0.0, 0.3, 0.5, 0.99):
        pos, vel = position(t), velocity(t)
        queries = np.concatenate([pos, pos + 0.9e-9 * step,
                                  pos - 1.2e-9 * step, rng.random((200, dim))])
        ref = np.full_like(queries, np.nan)
        for q in range(len(queries)):
            d = np.linalg.norm(pos - queries[q], axis=1)
            e = int(np.argmin(d))
            if d[e] <= fld.match_tol:
                ref[q] = vel[e]
        got = fld._witness(queries, t)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.isnan(got[-200:]).all()
        assert not np.isnan(got[:2 * count]).any()


# ---------------------------------------------------------------------------
# gated fields: one box ramp localizes every Lipschitz phase
# ---------------------------------------------------------------------------

ROTATING = {"kind": "affine", "matrix": [[0.0, 0.03], [-0.03, 0.0]],
            "offset": [0.5, 0.0]}


def gated_run(name, mode, particles=None, **changes):
    """A run of the preset ``name`` with ``changes``, and every gated field
    it built with the interval its own clock runs over: each storage field
    (every cutoff index tried) and each funnel as synth builds them, and
    the grid gate off the schedule."""
    data = cli.load_scenario(name).to_dict()
    if particles is not None:
        data["params"]["particles"] = particles
    scenario = Scenario.from_dict({**data, **changes})
    built = []

    def recording(build, clock):
        def record(*args):
            built.append((build(*args), clock(args)))
            return built[-1][0]
        return record

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "storage_total", recording(
            synth.storage_total, lambda args: (0.0, 1.0)))
        mp.setattr(synth, "affine_funnel_total", recording(
            synth.affine_funnel_total, lambda args: args[4]))
        controller = (synth.approx_controller if mode == "approx"
                      else exact_controller)
        result = controller(scenario)
    built += [(seg.field, (seg.t_start, seg.t_end))
              for seg in result.schedule.segments
              if isinstance(seg.field, synth.MovingFrameGridField)]
    return scenario, result, built


@pytest.fixture(scope="module")
def approx_runs():
    return {name: gated_run(name, "approx", particles)
            for name, particles in (("figure1", 2000), ("unit-shift", 2000),
                                    ("two-bump-merge", None))}


def support(field):
    """The box off which a gated field's control is zero: its region grown
    by its reach."""
    return field.region.lo - field.reach, field.region.hi + field.reach


def largest_ratio(field, clock, seed):
    """The largest finite-difference ratio |w(x) - w(y)| / |x - y| of the
    field over 20 000 random pairs 1e-6 apart, around its support box
    (grown by a tenth of its extent), at 7 times inside ``clock``."""
    lo, hi = support(field)
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo),
                    (20000, field.dim))
    step = rng.standard_normal(x.shape)
    y = x + 1e-6 * step / np.linalg.norm(step, axis=1, keepdims=True)
    gap = np.linalg.norm(y - x, axis=1)
    return max(float(np.max(np.linalg.norm(
        field.evaluate(x, t) - field.evaluate(y, t), axis=1) / gap))
        for t in np.linspace(*clock, 9)[1:-1])


@pytest.mark.parametrize("name", ["figure1", "unit-shift"])
def test_funnels_and_the_grid_gate_hold_their_lipschitz_bounds(approx_runs,
                                                               name):
    _, _, built = approx_runs[name]
    kinds = [f.descriptor["kind"] for f, _ in built]
    assert kinds.count("funnel_affine") == 2 and kinds.count("grid_frame") == 1
    for seed, (field, clock) in enumerate(built):
        if field.descriptor["kind"] != "storage":
            assert largest_ratio(field, clock, seed) <= field.lipschitz_bound


def test_storage_holds_its_lipschitz_bound_under_a_rotating_drift():
    # the tightest of the gated bounds: the finite-difference ratio comes
    # within about a tenth of it
    _, _, built = gated_run("figure1", "approx", 1000, v=ROTATING)
    stores = [(f, clock) for f, clock in built
              if f.descriptor["kind"] == "storage"]
    assert len(stores) >= 2
    for seed, (field, clock) in enumerate(stores):
        ratio = largest_ratio(field, clock, seed)
        assert 0.5 * field.lipschitz_bound < ratio <= field.lipschitz_bound


@pytest.mark.parametrize("case", ["figure1", "unit-shift", "two-bump-merge",
                                  "figure1-exact", "unit-shift-exact",
                                  "two-bump-merge-exact"])
def test_every_gated_field_lives_in_omega(approx_runs, case):
    # localized by construction: omega0, omega1 grown by the blend band and
    # the gate core grown by its band lie inside omega, box in box, on
    # every preset in approximate mode. The exact lane builds no gated
    # field: its witnesses' control vanishes outside omega at their atoms
    name, exact, _ = case.partition("-exact")
    if exact:
        scenario, result, built = gated_run(name, "exact", min(
            500, cli.load_scenario(name).params["particles"]))
        assert built == []
        assert_localized(result, scenario.omega_region())
        return
    scenario, _, built = approx_runs[name]
    omega = scenario.omega_region()
    kinds = {f.descriptor["kind"] for f, _ in built}
    assert kinds == {"storage", "funnel_affine", "grid_frame"}
    assert sum(f.descriptor["kind"] == "funnel_affine"
               for f, _ in built) == 2
    for field, _ in built:
        assert np.all(omega.contains(np.stack(support(field))))


def test_gated_field_is_exact_on_both_plateaus():
    # g = S((reach - excess) / width) on a box's L-infinity excess: exactly
    # 0 at excess >= reach, the grown box's corners included, and exactly
    # 1 at excess <= reach - width
    region = Region.box([0.0, 0.0], [2.0, 1.0])
    v = TimeField.constant([1.0, -0.5])
    fld = synth.GatedField(
        v, region, 0.25, 0.125,
        lambda pts, t: np.broadcast_to([0.0, 2.0], pts.shape), 0.0, 2.0)
    lo, hi = support(fld)
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"),
                       axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(3)
    pts = np.concatenate([corners, rng.uniform(lo - 1.0, hi + 1.0,
                                               (4000, 2))])
    excess = region.excess(pts)
    off = excess >= 0.25
    assert np.all(off[:4]) and np.all(excess[:4] == 0.25)
    assert np.array_equal(fld.evaluate(pts[off], 0.0),
                          v.evaluate(pts[off], 0.0))
    core = excess <= 0.125
    assert np.any(core) and np.all(fld.evaluate(pts[core], 0.0)
                                   == [0.0, 2.0])
    band = ~off & ~core
    assert np.any(fld.control_part(pts[band], 0.0) != 0.0)
    # just outside the grown box, at its corners and faces
    outward = corners + 1e-9 * np.sign(corners - 0.5 * (lo + hi))
    faces = np.array([[1.0, hi[1] + 1e-12], [lo[0] - 1e-12, 0.5]])
    for near in (outward, faces):
        assert np.all(fld.control_part(near, 0.0) == 0.0)
    assert fld.lipschitz_bound == 1.875 * (2.0 + v.sup_bound) / 0.125
    assert fld.sup_bound == 2.0 + v.sup_bound
