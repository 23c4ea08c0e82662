import math

import numpy as np
import pytest

from transportlab.flow import (GaussianBump, TimeField, Trajectory,
                               _integrate_batch, flow_push,
                               integrate_flow, stopped_flow,
                               stopped_flow_batch, weak_residual)
from transportlab.geometry import Region
from transportlab.measure import DensitySpec, ParticleMeasure, sample
from transportlab.ot import wp_discrete


def sqrt_drift():
    return TimeField(lambda p, t: np.sqrt(np.maximum(p, 0.0)), 1,
                     sup_bound=2.0, non_lipschitz=True, label="sqrt")


class TestIntegrateFlow:
    def test_zero_field(self):
        out = integrate_flow(TimeField.zero(2), [0.3, 0.7], 0.0, 5.0, 1e-6)
        assert np.allclose(out, [0.3, 0.7])

    def test_constant_field(self):
        out = integrate_flow(TimeField.constant([2.0, -1.0]), [0.0, 0.0],
                             0.0, 1.0, 1e-9)
        assert np.allclose(out, [2.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("span,tol", [(1.0, 1e-6), (2.5, 1e-8),
                                          (0.3, 1e-2)])
    def test_step_count(self, span, tol):
        # constant field: L = 0, so the step is min(tol^(1/4), 0.1) before
        # rounding to a whole number of steps over the span t1 - t0
        h = min(tol ** 0.25, 0.1)
        t0, t1 = 1.0, 1.0 + span
        times = []
        out = _integrate_batch(TimeField.constant([1.0, 0.5]), [[0.0, 0.0]],
                               t0, t1, tol,
                               observer=lambda a, b, ta, tb: times.append(tb))
        assert len(times) == math.ceil((t1 - t0) / h)
        assert times[-1] == pytest.approx(t1, abs=1e-12)
        assert np.allclose(out, [[span, 0.5 * span]], atol=1e-12)

    def test_sqrt_drift_closed_form(self):
        # separable dynamics: x(t) = (sqrt(x0) + t/2)^2, so 1 -> 2.25 at t = 1
        with pytest.warns(UserWarning):
            out = integrate_flow(sqrt_drift(), [1.0], 0.0, 1.0, 1e-10)
        assert abs(out[0] - 2.25) < 1e-8

    def test_semigroup(self):
        fld = TimeField.affine([[0.0, -1.0], [1.0, 0.0]], [0.1, 0.0])
        tol = 1e-8
        direct = integrate_flow(fld, [1.0, 0.0], 0.0, 2.0, tol)
        half = integrate_flow(fld, [1.0, 0.0], 0.0, 1.0, tol)
        two = integrate_flow(fld, half, 1.0, 2.0, tol)
        assert np.linalg.norm(direct - two) < 10 * tol

    def test_reversibility(self):
        fld = TimeField.affine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.2])
        tol = 1e-8
        fwd = integrate_flow(fld, [0.5, -0.25], 0.0, 1.5, tol)
        back = integrate_flow(fld.negated(), fwd, 0.0, 1.5, tol)
        assert np.linalg.norm(back - np.array([0.5, -0.25])) < 100 * tol

    def test_nonfinite_field_reports_location(self):
        fld = TimeField(lambda p, t: np.sqrt(p), 1, sup_bound=np.inf)
        with pytest.raises(FloatingPointError, match="particle 0"):
            integrate_flow(fld, [-1.0], 0.0, 1.0, 1e-6)


class TestFlowPush:
    def test_no_time_elapsed(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 50, seed=0)
        out = flow_push(TimeField.constant([1.0, 0.0]), mu, 1.0, 1.0, 1e-6)
        assert np.array_equal(out.positions, mu.positions)

    def test_empty_measure_takes_no_steps(self):
        calls = []

        def fn(p, t):
            calls.append(t)
            return np.ones_like(p)

        out = flow_push(TimeField(fn, 2, 1.0, 1.0), ParticleMeasure(
            np.zeros((0, 2)), np.zeros(0)), 0.0, 5.0, 1e-8)
        assert out.positions.shape == (0, 2)
        assert calls == []

    def test_mass_and_tags_ride_along(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 60, seed=1)
        mu = mu.with_tags(np.array(["a"] * 60, dtype=object))
        out = flow_push(TimeField.constant([0.5, 0.5]), mu, 0.0, 2.0, 1e-6)
        assert out.total_mass() == mu.total_mass()
        assert list(out.tags) == list(mu.tags)

    def test_contraction_estimate_random_fields(self):
        # flows of a Lipschitz field expand W1 at most like e^(2 L t)
        rng = np.random.default_rng(7)
        for _ in range(10):
            mat = rng.standard_normal((2, 2))
            fld = TimeField.affine(mat, rng.standard_normal(2))
            mu = ParticleMeasure(rng.standard_normal((20, 2)),
                                 np.full(20, 1 / 20))
            nu = ParticleMeasure(rng.standard_normal((20, 2)),
                                 np.full(20, 1 / 20))
            t = 0.4
            before, _ = wp_discrete(mu, nu, 1)
            after, _ = wp_discrete(flow_push(fld, mu, 0, t, 1e-8),
                                   flow_push(fld, nu, 0, t, 1e-8), 1)
            assert after <= np.exp(2 * fld.lipschitz_bound * t) * before * (1 + 1e-3)

    def test_sqrt_split_law(self):
        # uniform(-1,1) advected through the square-root drift lands within
        # W1 distance 5e-3 of the closed-form law at ten thousand particles
        from transportlab.cli import sqrt_split_errors
        rows = sqrt_split_errors(counts=(10_000,), tol=1e-8)
        assert rows[0]["w1_error"] <= 5e-3


class TestStoppedFlow:
    def test_already_inside(self):
        region = Region.box([0, 0], [1, 1])
        end, hit = stopped_flow(TimeField.constant([1.0, 0.0]), region,
                                [0.5, 0.5], 4.0, 1e-6)
        assert hit == 0.0 and np.allclose(end, [0.5, 0.5])

    def test_never_hit(self):
        region = Region.box([5, 5], [6, 6])
        end, hit = stopped_flow(TimeField.zero(2), region, [0.0, 0.0],
                                3.0, 1e-6)
        assert hit is None and np.allclose(end, [0, 0])

    def test_linear_hit_time(self):
        region = Region.box([1.0, -10.0], [20.0, 10.0])
        tol = 1e-6
        end, hit = stopped_flow(TimeField.constant([1.0, 0.0]), region,
                                [0.0, 0.0], 4.0, tol)
        assert abs(hit - 1.0) < 1e-4
        assert np.allclose(end, [1.0, 0.0], atol=1e-4)

    def test_batch_matches_scalar(self):
        region = Region.ball([2.0, 0.0], 0.5)
        fld = TimeField.constant([1.0, 0.0])
        pts = np.array([[0.0, 0.0], [0.5, 0.1], [0.0, 5.0]])
        ends, hits = stopped_flow_batch(fld, region, pts, 0.0, 6.0, 1e-6)
        assert np.isnan(hits[2])
        for i in range(2):
            end_i, hit_i = stopped_flow(fld, region, pts[i], 6.0, 1e-6)
            assert abs(hits[i] - hit_i) < 1e-9
            assert np.allclose(ends[i], end_i)

    def test_recorded_paths_consistent(self):
        region = Region.box([1.0, -1.0], [3.0, 1.0])
        fld = TimeField.constant([1.0, 0.0])
        pts = np.array([[0.0, 0.0], [-0.5, 0.2]])
        # tol 2^-16 gives the step 1/16, which divides both horizons below,
        # so the two runs take identical steps
        tol = 2.0 ** -16
        ends, hits, knots, paths = stopped_flow_batch(
            fld, region, pts, 0.0, 3.0, tol, record=True)
        assert paths.shape[0] == 2 and paths.shape[1] == len(knots)
        assert np.allclose(paths[:, -1], ends)
        # position frozen after the hit
        for e in range(2):
            after = knots >= hits[e] + 1e-9
            assert np.allclose(paths[e, after], ends[e])
        # stepping stops within one step of the last entry
        step = knots[1] - knots[0]
        assert np.max(hits) <= knots[-1] <= np.max(hits) + step
        # so a longer horizon changes nothing
        ends_long, hits_long = stopped_flow_batch(fld, region, pts, 0.0, 30.0,
                                                  tol)
        assert np.array_equal(ends_long, ends)
        assert np.array_equal(hits_long, hits)


class TestWeakResidual:
    @staticmethod
    def make_traj(field, mu, times, tol=1e-8):
        states = [mu]
        for a, b in zip(times[:-1], times[1:]):
            states.append(flow_push(field, states[-1], a, b, tol))
        return Trajectory(np.asarray(times), states, field_ref=field)

    def test_zero_field_zero_residual(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 100, seed=2)
        fld = TimeField.zero(2)
        traj = self.make_traj(fld, mu, np.linspace(0, 1, 9))
        res = weak_residual(traj, fld, [GaussianBump([0.5, 0.5], 0.3)])
        assert max(res.values()) < 1e-12

    def test_constant_field_second_order(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 200, seed=3)
        fld = TimeField.constant([0.7, -0.3])
        bump = GaussianBump([0.6, 0.4], 0.5)
        res_coarse = weak_residual(
            self.make_traj(fld, mu, np.linspace(0, 0.8, 9)), fld, [bump])
        res_fine = weak_residual(
            self.make_traj(fld, mu, np.linspace(0, 0.8, 17)), fld, [bump])
        assert res_fine[0] < res_coarse[0] / 3.0  # ~ second order

    def test_too_few_snapshots(self):
        mu = sample(DensitySpec("uniform_box", 1,
                                {"lo": [0.0], "hi": [1.0]}), 10, seed=4)
        traj = Trajectory(np.array([0.0, 1.0]), [mu, mu])
        with pytest.raises(ValueError):
            weak_residual(traj, TimeField.zero(1), [GaussianBump([0.5], 0.2)])


class TestTrajectory:
    def test_mass_constant(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 64, seed=5)
        fld = TimeField.affine([[0.0, 0.5], [-0.5, 0.0]], [0.0, 0.0])
        times = np.linspace(0, 1, 6)
        traj = TestWeakResidual.make_traj(fld, mu, times)
        assert np.allclose(traj.mass_profile(), mu.total_mass())

    def test_save_layout(self, tmp_path):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 16, seed=6)
        traj = Trajectory(np.array([0.0, 0.5]), [mu, mu], field_ref="test")
        traj.save(tmp_path / "traj")
        assert (tmp_path / "traj" / "manifest.json").exists()
        assert (tmp_path / "traj" / "snapshot_0000.csv").exists()
        back = ParticleMeasure.from_csv(tmp_path / "traj" / "snapshot_0001.csv")
        assert np.allclose(back.positions, mu.positions)
