import math

import numpy as np
import pytest
from scipy.linalg import expm

from transportlab.flow import (TimeField, Trajectory, _dopri,
                               _integrate_batch, choose_step, flow_push,
                               stopped_flow_batch)
from transportlab.geometry import Region
from transportlab.measure import DensitySpec, ParticleMeasure, sample
from transportlab.ot import wp_discrete


def sqrt_drift():
    return TimeField(lambda p, t: np.sqrt(np.maximum(p, 0.0)), 1,
                     sup_bound=2.0, non_lipschitz=True, label="sqrt")


class TestIntegrateFlow:
    """Fixed-step RK4 (``_integrate_batch``), here on one-row batches."""

    def test_zero_field(self):
        out = _integrate_batch(TimeField.zero(2), [[0.3, 0.7]], 0.0, 5.0, 1e-6)
        assert np.allclose(out, [[0.3, 0.7]])

    def test_constant_field(self):
        out = _integrate_batch(TimeField.constant([2.0, -1.0]), [[0.0, 0.0]],
                               0.0, 1.0, 1e-9)
        assert np.allclose(out, [[2.0, -1.0]], atol=1e-12)

    @pytest.mark.parametrize("span,tol", [(1.0, 1e-6), (2.5, 1e-8),
                                          (0.3, 1e-2)])
    def test_step_count(self, span, tol):
        # constant field: L = 0, so the step is min(tol^(1/4), 0.1) before
        # rounding to a whole number of steps over the span t1 - t0; a span
        # within 1e-9 (relative) above a whole number of steps takes that
        # number
        h = min(tol ** 0.25, 0.1)
        t0, t1 = 1.0, 1.0 + span
        times = self.step_ends(t0, t1, tol)
        assert len(times) == math.ceil((t1 - t0) / h * (1.0 - 1e-9))
        assert times[-1] == pytest.approx(t1, abs=1e-12)

    @staticmethod
    def step_ends(t0, t1, tol):
        times = []
        out = _integrate_batch(TimeField.constant([1.0, 0.5]), [[0.0, 0.0]],
                               t0, t1, tol,
                               observer=lambda a, b, ta, tb: times.append(tb))
        assert np.allclose(out, [[t1 - t0, 0.5 * (t1 - t0)]], atol=1e-12)
        return times

    def test_rounded_whole_span_takes_no_extra_step(self):
        # 1.3 - 1.0 is 0.30000000000000004, three steps of 0.1 up to rounding
        assert (1.3 - 1.0) / 0.1 > 3.0
        assert len(self.step_ends(1.0, 1.3, 1e-2)) == 3
        assert choose_step(TimeField.constant([1.0]), 1e-2, 1.3 - 1.0) \
            == pytest.approx(0.1, rel=1e-12)
        # a span just past the rounding window still takes one more step
        assert len(self.step_ends(1.0, 1.3 + 1e-6, 1e-2)) == 4

    def test_sqrt_drift_closed_form(self):
        # separable dynamics: x(t) = (sqrt(x0) + t/2)^2, so 1 -> 2.25 at t = 1
        with pytest.warns(UserWarning):
            out = _integrate_batch(sqrt_drift(), [[1.0]], 0.0, 1.0, 1e-10)
        assert abs(out[0, 0] - 2.25) < 1e-8

    def test_semigroup(self):
        fld = TimeField.affine([[0.0, -1.0], [1.0, 0.0]], [0.1, 0.0])
        tol = 1e-8
        direct = _integrate_batch(fld, [[1.0, 0.0]], 0.0, 2.0, tol)
        half = _integrate_batch(fld, [[1.0, 0.0]], 0.0, 1.0, tol)
        two = _integrate_batch(fld, half, 1.0, 2.0, tol)
        assert np.linalg.norm(direct - two) < 10 * tol

    def test_reversibility(self):
        fld = TimeField.affine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.2])
        tol = 1e-8
        fwd = _integrate_batch(fld, [[0.5, -0.25]], 0.0, 1.5, tol)
        back = _integrate_batch(fld.negated(), fwd, 0.0, 1.5, tol)
        assert np.linalg.norm(back - np.array([[0.5, -0.25]])) < 100 * tol

    def test_nonfinite_field_reports_location(self):
        fld = TimeField(lambda p, t: np.sqrt(p), 1, sup_bound=np.inf)
        with pytest.raises(FloatingPointError, match="particle 0"):
            _integrate_batch(fld, [[-1.0]], 0.0, 1.0, 1e-6)


def dopri_to_end(field, pts, t0, t1, tol):
    """``_dopri`` run to t1 with no stop region: endpoints and statistics."""
    end, _, stats = _dopri(field, pts, t0, t1, tol)
    return end, stats


class TestDopri:
    """Embedded Dormand-Prince 5(4) with one step for the batch (``_dopri``,
    the loop stopped flows run on), here run to a fixed end time."""

    @staticmethod
    def counted(field):
        calls = []
        evaluate = field.evaluate

        def fn(p, t):
            calls.append(t)
            return evaluate(p, t)

        return TimeField(fn, field.dim, field.lipschitz_bound,
                         field.sup_bound), calls

    def test_affine_matches_expm(self):
        # an expanding spiral with an offset: x(t) = e^{At} x0 + (e^{At} - I)
        # A^{-1} b, read off the exponential of the augmented matrix
        mat = np.array([[0.3, -1.0], [1.0, 0.3]])
        off = np.array([0.2, -0.1])
        aug = np.zeros((3, 3))
        aug[:2, :2], aug[:2, 2] = mat, off
        pts = np.random.default_rng(0).standard_normal((12, 2))
        t0, t1, tol = 0.5, 3.0, 1e-8
        out, stats = dopri_to_end(TimeField.affine(mat, off), pts, t0, t1, tol)
        flow_map = expm(aug * (t1 - t0))
        exact = pts @ flow_map[:2, :2].T + flow_map[:2, 2]
        assert np.max(np.abs(out - exact)) <= tol
        assert stats["accepted"] >= 2
        assert stats["h_first"] == choose_step(TimeField.affine(mat, off),
                                               tol, t1 - t0)
        assert stats["h_min"] <= stats["h_max"]

    def test_sharp_switch_is_resolved_by_rejections(self):
        # x' = tanh((t - 1)/w) x turns from contraction to expansion within
        # w = 0.01, far inside steps grown on the calm stretch before it:
        # only rejected steps keep the error within tol. Exact flow:
        # x0 exp(w [log cosh((t - 1)/w)] from t0 to t1)
        w = 0.01
        fld = TimeField(lambda p, t: np.tanh((t - 1.0) / w) * p, 1,
                        lipschitz_bound=1.0)
        pts = np.array([[1.0], [-0.5], [2.0]])
        t0, t1, tol = 0.0, 2.5, 1e-6

        def log_cosh(z):
            return np.logaddexp(z, -z) - math.log(2.0)

        out, stats = dopri_to_end(fld, pts, t0, t1, tol)
        exact = pts * np.exp(w * (log_cosh((t1 - 1.0) / w)
                                  - log_cosh((t0 - 1.0) / w)))
        assert np.max(np.abs(out - exact)) <= tol
        assert stats["rejected"] >= 1
        assert stats["h_min"] < stats["h_first"] < stats["h_max"]

    def test_constant_field_one_step(self):
        # the whole span fits in choose_step's first step: one accepted step
        # of seven stages
        fld, calls = self.counted(TimeField.constant([1.0, -0.5]))
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        out, stats = dopri_to_end(fld, pts, 1.0, 1.05, 1e-4)
        assert stats["accepted"] == 1 and stats["rejected"] == 0
        assert len(calls) == 7
        assert np.allclose(out, pts + [0.05, -0.025], atol=1e-15)
        assert stats["h_first"] == stats["h_min"] == stats["h_max"] \
            == pytest.approx(0.05, rel=1e-12)

    def test_last_stage_is_reused(self):
        # FSAL: one evaluation to start, then six per attempted step
        fld, calls = self.counted(TimeField.radial([0.3, 0.1], -2.0))
        pts = np.random.default_rng(1).random((5, 2))
        _, stats = dopri_to_end(fld, pts, 0.0, 2.0, 1e-6)
        steps = stats["accepted"] + stats["rejected"]
        assert steps > 1
        assert len(calls) == 1 + 6 * steps

    def test_empty_batch_evaluates_nothing(self):
        fld, calls = self.counted(TimeField.constant([1.0, 0.0]))
        out, stats = dopri_to_end(fld, np.zeros((0, 2)), 0.0, 5.0, 1e-8)
        assert out.shape == (0, 2)
        assert calls == []
        assert stats["accepted"] == stats["rejected"] == 0

    def test_nonfinite_field_reports_particle(self):
        fld = TimeField(lambda p, t: np.sqrt(p), 1, sup_bound=np.inf)
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="particle 1 "):
            dopri_to_end(fld, [[1.0], [-1.0], [2.0]], 0.0, 1.0, 1e-6)

    def test_input_checks(self):
        fld = TimeField.constant([1.0])
        with pytest.raises(ValueError, match="tol"):
            dopri_to_end(fld, [[0.0]], 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="t1 must be >= t0"):
            dopri_to_end(fld, [[0.0]], 1.0, 0.0, 1e-6)

    def test_construction_picks_the_stepper(self):
        # stopped flows step by Dormand-Prince and accept only fields built
        # smooth: the scenario drifts are, and negation keeps the flag
        rate, centre = -2.0, [0.3, 0.1]
        smooth = TimeField(lambda p, t: rate * (p - centre), 2, abs(rate),
                           smooth=True)
        assert smooth.negated().smooth
        for built in (TimeField.zero(2), TimeField.constant([1.0, 0.0]),
                      TimeField.affine(np.eye(2), [0.0, 1.0]),
                      TimeField.radial(centre, rate)):
            assert built.smooth and built.negated().smooth
        plain = TimeField(lambda p, t: rate * (p - centre), 2, abs(rate))
        assert not plain.smooth and not plain.negated().smooth


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
        end, hit = stopped_flow_batch(TimeField.constant([1.0, 0.0]), region,
                                      [[0.5, 0.5]], 0.0, 4.0, 1e-6)
        assert hit[0] == 0.0 and np.array_equal(end, [[0.5, 0.5]])

    def test_never_hit(self):
        region = Region.box([5, 5], [6, 6])
        end, hit = stopped_flow_batch(TimeField.zero(2), region, [[0.0, 0.0]],
                                      0.0, 3.0, 1e-6)
        assert np.isnan(hit[0]) and np.array_equal(end, [[0.0, 0.0]])

    def test_linear_hit_time(self):
        # x' = (1, 0) into the ball of radius 1/2 about (2, 0): a point at
        # height y enters at x = 2 - sqrt(1/4 - y^2); one point misses it
        region = Region.ball([2.0, 0.0], 0.5)
        fld = TimeField.constant([1.0, 0.0])
        pts = np.array([[0.0, 0.0], [0.5, 0.1], [0.0, 5.0]])
        ends, hits = stopped_flow_batch(fld, region, pts, 1.0, 6.0, 1e-6)
        entry = 2.0 - np.sqrt(0.25 - pts[:2, 1] ** 2)
        assert np.max(np.abs(hits[:2] - (entry - pts[:2, 0]))) < 1e-12
        assert np.max(np.abs(ends[:2, 0] - entry)) < 1e-12
        assert np.array_equal(ends[:2, 1], pts[:2, 1])
        assert np.isnan(hits[2])
        assert np.allclose(ends[2], [6.0, 5.0], atol=1e-12)

    def test_batch_matches_scalar(self):
        # each point alone takes its own steps, which the batch shares, so
        # they agree to the error control, not bit for bit
        region = Region.ball([0.0, 0.0], 0.3)
        fld = TimeField.radial([0.1, -0.1], -0.8)
        pts = np.array([[1.0, 0.5], [-2.0, 0.2], [0.4, -1.5]])
        tol = 1e-9
        ends, hits = stopped_flow_batch(fld, region, pts, 0.0, 10.0, tol)
        for i in range(3):
            end_i, hit_i = stopped_flow_batch(fld, region, pts[i:i + 1], 0.0,
                                              10.0, tol)
            assert abs(hits[i] - hit_i[0]) < tol
            assert np.max(np.abs(ends[i] - end_i[0])) < tol

    @pytest.mark.parametrize("union", [False, True])
    def test_thin_box_is_not_stepped_over(self, union):
        # error control lets a constant field's step grow by 5x per step;
        # only the cap of half the inradius keeps the 0.02-thick box from
        # being jumped, also when a union with a wide box off the path sets
        # the region's inradius
        region = thin = Region.box([30.0, -1.0], [30.02, 1.0])
        if union:
            region = Region.union(Region.box([0.0, 10.0], [4.0, 14.0]), thin)
        fld = TimeField.constant([1.0, 0.0])
        pts = np.array([[0.0, 0.0], [0.0, 0.5]])
        path = stopped_flow_batch(fld, region, pts, 0.0, 100.0, 1e-6,
                                  record=True)
        # the hit time sums some 6 700 steps
        assert np.max(np.abs(path.hits - 30.0)) < 1e-10
        assert np.allclose(path.end, [[30.0, 0.0], [30.0, 0.5]], atol=1e-10)
        moves = [h for _, h, _, _ in path.steps]
        assert max(moves) <= 0.5 * thin.inradius()

    def test_radial_hit_time(self):
        # x' = r (x - c) with r < 0 takes a point at distance d0 from c to
        # the ball of radius R < d0 about c at time log(R / d0) / r
        centre, rate, radius = np.array([0.3, -0.2]), -0.7, 0.25
        dirs = np.array([[1.0, 0.0], [0.6, 0.8], [-0.28, 0.96]])
        d0 = np.array([0.4, 1.5, 3.0])
        pts = centre + d0[:, None] * dirs
        ends, hits = stopped_flow_batch(TimeField.radial(centre, rate),
                                        Region.ball(centre, radius), pts, 0.0,
                                        20.0, 1e-6)
        assert np.max(np.abs(hits - np.log(radius / d0) / rate)) < 1e-8
        assert np.max(np.abs(ends - (centre + radius * dirs))) < 1e-8

    def test_rejects_a_field_not_built_smooth(self):
        region = Region.box([1.0, -1.0], [2.0, 1.0])
        kinked = TimeField(lambda p, t: np.abs(p), 2, 1.0, label="kinked")
        with pytest.raises(ValueError, match="kinked"):
            stopped_flow_batch(kinked, region, [[0.0, 0.0]], 0.0, 1.0, 1e-6)

    def test_recorded_paths_consistent(self):
        region = Region.box([1.0, -1.0], [3.0, 1.0])
        v = np.array([1.0, 0.0])
        fld = TimeField.constant(v)
        pts = np.array([[0.0, 0.0], [-0.5, 0.2]])
        tol = 1e-6
        path = stopped_flow_batch(fld, region, pts, 0.0, 3.0, tol,
                                  record=True)
        ends, hits = path.end, path.hits
        plain_ends, plain_hits = stopped_flow_batch(fld, region, pts, 0.0,
                                                    3.0, tol)
        assert np.array_equal(ends, plain_ends)
        assert np.array_equal(hits, plain_hits)
        times = np.linspace(0.0, 3.0, 41)
        paths = path.at(times)
        assert paths.shape == (2, len(times), 2)
        # x0 + v min(t, hit) under a constant field, frozen after the hit
        exact = pts[:, None] + np.minimum(times, hits[:, None])[..., None] * v
        assert np.max(np.abs(paths - exact)) < 1e-12
        assert np.array_equal(paths[:, 0], pts)
        assert np.array_equal(paths[:, -1], ends)
        # stepping stops at the step of the last entry
        start, h, rows, _ = path.steps[-1]
        assert start < np.max(hits) <= start + h
        assert np.array_equal(rows, [1])
        # a ten times longer horizon tightens the error bound per unit time
        # and changes the first step, hence the steps; a constant field is
        # integrated exactly by any step, so the results agree to rounding
        long = stopped_flow_batch(fld, region, pts, 0.0, 30.0, tol,
                                  record=True)
        assert long.stats["h_first"] != path.stats["h_first"]
        assert np.max(np.abs(long.end - ends)) < 1e-12
        assert np.max(np.abs(long.hits - hits)) < 1e-12

    def test_clipped_corner_is_seen(self):
        # drift (1, 1) along x - y = 7.5 crosses the corner of [1, 9]^2 on
        # a 0.71-long chord, from (8.5, 1) at time 1 - y0 to (9, 1.5). The
        # cap (half the inradius, 2) lets a step move 2, so step ends alone
        # miss the chord in most phases; the probes on the continuous
        # extension see it in every one
        region = Region.box([1.0, 1.0], [9.0, 9.0])
        y0 = -np.linspace(0.5, 8.0, 16)
        pts = np.column_stack([y0 + 7.5, y0])
        ends, hits = stopped_flow_batch(TimeField.constant([1.0, 1.0]),
                                        region, pts, 0.0, 40.0, 1e-6)
        assert np.max(np.abs(hits - (1.0 - y0))) < 1e-10
        assert np.allclose(ends, [8.5, 1.0], atol=1e-10)


class TestTrajectory:
    @staticmethod
    def make_traj(field, mu, times, tol=1e-8):
        states = [mu]
        for a, b in zip(times[:-1], times[1:]):
            states.append(flow_push(field, states[-1], a, b, tol))
        return Trajectory(np.asarray(times), states, field_ref=field)

    def test_mass_constant(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 64, seed=5)
        fld = TimeField.affine([[0.0, 0.5], [-0.5, 0.0]], [0.0, 0.0])
        times = np.linspace(0, 1, 6)
        traj = self.make_traj(fld, mu, times)
        assert len(traj.states) == len(times)
        for state in traj.states:
            assert state.total_mass() == pytest.approx(mu.total_mass(),
                                                       rel=1e-12)

    def test_save_layout(self, tmp_path):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 16, seed=6)
        traj = Trajectory(np.array([0.0, 0.5]), [mu, mu], field_ref="test")
        traj.save(tmp_path / "traj")
        assert (tmp_path / "traj" / "manifest.json").exists()
        assert (tmp_path / "traj" / "snapshot_0000.csv").exists()
        back = ParticleMeasure.from_csv(tmp_path / "traj" / "snapshot_0001.csv")
        assert np.allclose(back.positions, mu.positions)
