import json
import math

import numpy as np
import pytest

from transportlab import cli
from transportlab.flow import (TimeField, _integrate_batch, flow_push,
                               stopped_flow_batch)
from transportlab.geometry import Region, weight_eta
from transportlab.measure import (DensitySpec, ParticleMeasure,
                                  quantile_partition, sample)
from transportlab.ot import wp_discrete
from transportlab.scenarios import Scenario
from transportlab.synth import (_blend_factor, _escalate_exact_funnel,
                                _eta_grad_lipschitz, _layer_max_grad,
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
        closed = json.load(fh)["closed_form"]
    assert set(closed) == {"funnel_forward", "funnel_backward", "grid",
                           "funnel_reversed"}
    for entry in closed.values():
        assert set(entry) == {"count", "total"}
        assert 0 <= entry["count"] <= entry["total"] == 400
    assert closed["grid"]["count"] > 0


class TestExactFunnelTimeChange:
    """Inside omega1 the funnel field is k grad(eta), so its gain-k flow is
    the k = 1 flow run k times faster."""

    omega1 = Region.box([0.0, 0.0], [1.0, 1.0])
    s0 = Region.box([0.55, 0.4], [0.75, 0.6])
    v = TimeField.constant([0.7, 0.0])
    pts = np.array([[0.1, 0.1], [0.2, 0.85], [0.9, 0.15], [0.5, 0.5],
                    [0.3, 0.45]])
    delta, tol, band = 0.2, 1e-6, 0.05

    def gain_field(self, k):
        """The funnel field at gain k, built directly with the gain-k step
        bound (the reference the time change must reproduce)."""
        eta, _, kappa1 = weight_eta(self.omega1, self.s0)
        blend = _blend_factor(self.omega1, self.band)
        lip = (k * _eta_grad_lipschitz(eta, self.omega1)
               + (k * _layer_max_grad(eta, self.omega1, self.band)
                  + self.v.sup_bound) * 1.875 / self.band)

        def total(p, t):
            b = blend(p)[:, None]
            return b * (k * eta.gradient(p)) + (1.0 - b) * self.v.evaluate(p, t)

        return TimeField(total, 2, lipschitz_bound=lip,
                         sup_bound=k * kappa1 + self.v.sup_bound,
                         label=f"gain_k{k}")

    def test_matches_gain_k_run(self):
        k, end, hits, knots, paths = _escalate_exact_funnel(
            self.v, self.omega1, self.s0, self.delta, self.pts, self.tol,
            self.band)
        _, probe_hits = stopped_flow_batch(self.gain_field(1), self.s0,
                                           self.pts, 0.0, 8.0, self.tol)
        tau = float(np.max(probe_hits))
        assert k == max(1, 2 ** math.ceil(math.log2(tau / (0.9 * self.delta))))
        assert k > 1
        assert np.all(hits < self.delta)
        assert np.all(self.s0.contains(end))
        assert np.allclose(knots, np.linspace(0.0, self.delta, 33))
        assert np.array_equal(paths[:, 0], self.pts)
        assert np.array_equal(paths[:, -1], end)

        ref_end, ref_hits = stopped_flow_batch(self.gain_field(k), self.s0,
                                               self.pts, 0.0, self.delta,
                                               self.tol)
        assert np.max(np.abs(end - ref_end)) < 1e-9
        assert np.max(np.abs(hits - ref_hits)) < 1e-9


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
