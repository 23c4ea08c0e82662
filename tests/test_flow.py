import math

import numpy as np
import pytest
from scipy.linalg import expm

from transportlab import flow, synth
from transportlab.flow import (TimeField, Trajectory, _integrate_batch,
                               choose_step, flow_push, stopped_flow_batch)
from transportlab.geometry import Region
from transportlab.measure import DensitySpec, ParticleMeasure, sample
from transportlab.ot import wp_discrete


def isotropic(centre, rate):
    """x' = rate (x - centre), an isotropic affine drift about centre."""
    centre = np.asarray(centre, dtype=float)
    return TimeField.affine(rate * np.eye(len(centre)), -rate * centre)


def settle_nothing(monkeypatch):
    """Make the stopped flow's slab times settle no path, so that every
    entry is found by the probes and the bisection."""
    monkeypatch.setattr(flow, "_slab_entries", lambda box, b, x0, horizon: (
        np.full(len(x0), np.nan), np.zeros(len(x0), dtype=bool)))


def sqrt_drift():
    return TimeField(lambda p, t: np.sqrt(np.maximum(p, 0.0)), 1,
                     lipschitz_bound=math.inf, sup_bound=2.0, label="sqrt")


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
        """The end time of each RK4 step: a step's fourth evaluation of the
        field is at its end."""
        drift = TimeField.constant([1.0, 0.5])
        times = []

        def fn(pts, t):
            times.append(t)
            return drift.evaluate(pts, t)

        out = _integrate_batch(TimeField(fn, 2, 0.0, drift.sup_bound),
                               [[0.0, 0.0]], t0, t1, tol)
        assert np.allclose(out, [[t1 - t0, 0.5 * (t1 - t0)]], atol=1e-12)
        assert len(times) % 4 == 0
        return times[3::4]

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

    def test_infinite_lipschitz_bound_takes_the_tolerance_step(self):
        # h = min(tol^(1/4), 0.05), and the bound carries over to the
        # negated and reversed fields
        for fld in (sqrt_drift(), sqrt_drift().negated(),
                    sqrt_drift().reversed(1.0, 0.0, "rev", "rev")):
            assert choose_step(fld, 1e-8, 1.0) == pytest.approx(0.01)
            assert choose_step(fld, 1e-2, 1.0) == pytest.approx(0.05)

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
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="particle 0"):
            _integrate_batch(fld, [[-1.0]], 0.0, 1.0, 1e-6)


class TestFlowPush:
    def test_no_time_elapsed(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 50, seed=0)
        out, _ = flow_push(TimeField.constant([1.0, 0.0]), mu, 1.0, 1.0, 1e-6)
        assert np.array_equal(out.positions, mu.positions)

    def test_empty_measure_takes_no_steps(self):
        calls = []

        def fn(p, t):
            calls.append(t)
            return np.ones_like(p)

        out, closed = flow_push(TimeField(fn, 2, 1.0, 1.0), ParticleMeasure(
            np.zeros((0, 2)), np.zeros(0)), 0.0, 5.0, 1e-8)
        assert out.positions.shape == (0, 2)
        assert calls == []
        assert closed == {"count": 0, "total": 0}

    def test_mass_and_tags_ride_along(self):
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 60, seed=1)
        mu = mu.with_tags(np.array(["a"] * 60, dtype=object))
        out, _ = flow_push(TimeField.constant([0.5, 0.5]), mu, 0.0, 2.0, 1e-6)
        assert out.total_mass() == mu.total_mass()
        assert list(out.tags) == list(mu.tags)

    def test_certified_rows_keep_their_images(self):
        # the flow map's certified rows are kept as it gives them; only the
        # others are stepped, exactly as RK4 steps them on their own
        drift = TimeField.constant([0.5, -0.25])
        seen = []

        def flow_map(pts, t0, t1):
            seen.append((t0, t1))
            return np.full_like(pts, 7.0), pts[:, 0] > 0.5

        fld = TimeField(drift.evaluate, 2, 0.0, drift.sup_bound,
                        flow_map=flow_map)
        mu = sample(DensitySpec("uniform_box", 2,
                                {"lo": [0, 0], "hi": [1, 1]}), 40, seed=2)
        out, closed = flow_push(fld, mu, 0.5, 2.0, 1e-6)
        assert seen == [(0.5, 2.0)]
        mapped = mu.positions[:, 0] > 0.5
        assert closed == {"count": int(np.sum(mapped)), "total": 40}
        assert np.all(out.positions[mapped] == 7.0)
        assert np.array_equal(out.positions[~mapped], _integrate_batch(
            fld, mu.positions[~mapped], 0.5, 2.0, 1e-6))

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
            after, _ = wp_discrete(flow_push(fld, mu, 0, t, 1e-8)[0],
                                   flow_push(fld, nu, 0, t, 1e-8)[0], 1)
            assert after <= np.exp(2 * fld.lipschitz_bound * t) * before * (1 + 1e-3)

    def test_sqrt_split_law(self):
        # uniform(-1,1) advected through the square-root drift lands on the
        # closed-form law at ten thousand particles, to the RK4 floor
        from transportlab.cli import sqrt_split_errors
        with pytest.warns(UserWarning, match="not Lipschitz"):
            rows = sqrt_split_errors(counts=(10_000,), tol=1e-8)
        assert rows[0]["w1_error"] <= 1e-8


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
        # x' = (1, 0) into the box [2, 3] x [-1/2, 1/2]: a point at height
        # |y| <= 1/2 enters at x = 2; one point misses it
        region = Region.box([2.0, -0.5], [3.0, 0.5])
        fld = TimeField.constant([1.0, 0.0])
        pts = np.array([[0.0, 0.0], [0.5, 0.1], [0.0, 5.0]])
        ends, hits = stopped_flow_batch(fld, region, pts, 1.0, 6.0, 1e-6)
        entry = np.full(2, 2.0)
        assert np.max(np.abs(hits[:2] - (entry - pts[:2, 0]))) < 1e-12
        assert np.max(np.abs(ends[:2, 0] - entry)) < 1e-12
        assert np.array_equal(ends[:2, 1], pts[:2, 1])
        assert np.isnan(hits[2])
        assert np.allclose(ends[2], [6.0, 5.0], atol=1e-12)

    def test_batch_matches_scalar(self):
        # each point alone is probed in other blocks than in the batch; the
        # entries located on the exact map agree to rounding
        region = Region.box([-0.3, -0.3], [0.3, 0.3])
        fld = isotropic([0.1, -0.1], -0.8)
        pts = np.array([[1.0, 0.5], [-2.0, 0.2], [0.4, -1.5]])
        tol = 1e-9
        ends, hits = stopped_flow_batch(fld, region, pts, 0.0, 10.0, tol)
        for i in range(3):
            end_i, hit_i = stopped_flow_batch(fld, region, pts[i:i + 1], 0.0,
                                              10.0, tol)
            assert abs(hits[i] - hit_i[0]) < 1e-12
            assert np.max(np.abs(ends[i] - end_i[0])) < 1e-12

    # choose_step's probe spacing for tol 1e-6 over a horizon of 100
    H = 100.0 / 3163

    @pytest.mark.parametrize("probed,lo,hi", [
        (False, 30.0, 30.02), (True, 30.0, 30.02),
        (True, 949.3 * H, 949.9 * H)],
        ids=["False", "True", "between-probes"])
    def test_thin_box_is_not_stepped_over(self, probed, lo, hi, monkeypatch):
        # the slab times find the entry into a box thinner than the probe
        # spacing; when they settle nothing, only the cap of half the
        # inradius keeps the box from falling between two probes (the last
        # case lies strictly between the probes at 949 H and 950 H)
        assert choose_step(TimeField.constant([1.0, 0.0]), 1e-6, 100.0) \
            == pytest.approx(self.H, rel=1e-12)
        if probed:
            settle_nothing(monkeypatch)
        region = Region.box([lo, -1.0], [hi, 1.0])
        fld = TimeField.constant([1.0, 0.0])
        pts = np.array([[0.0, 0.0], [0.0, 0.5]])
        ends, hits = stopped_flow_batch(fld, region, pts, 0.0, 100.0, 1e-6)
        assert np.max(np.abs(hits - lo)) < 1e-12
        assert np.allclose(ends, [[lo, 0.0], [lo, 0.5]], atol=1e-12)

    def test_radial_hit_time(self):
        # x' = r (x - c) with r < 0 scales x0 - c by e^{rt}: it takes a point
        # outside the box of half-widths h about c into it at time
        # log(min_a h_a / |x0_a - c_a|) / r
        centre, rate = np.array([0.3, -0.2]), -0.7
        half = np.array([0.25, 0.15])
        offsets = np.array([[0.4, 0.1], [0.9, 1.2], [-0.84, 2.88]])
        pts = centre + offsets
        ends, hits = stopped_flow_batch(
            isotropic(centre, rate),
            Region.box(centre - half, centre + half), pts, 0.0, 20.0, 1e-6)
        scale = np.min(half / np.abs(offsets), axis=1)
        assert np.max(np.abs(hits - np.log(scale) / rate)) < 1e-12
        assert np.max(np.abs(ends - (centre + scale[:, None] * offsets))) \
            < 1e-12

    def test_recorded_paths_consistent(self):
        # the exact lane's park: the stopped flow's hit times and endpoints,
        # and a witness whose positions are x0 + v min(t, hit) under a
        # constant field, moving at v before the hit and at 0 after it
        region = Region.box([1.0, -1.0], [3.0, 1.0])
        v = np.array([1.0, 0.0])
        fld = TimeField.constant(v)
        pts = np.array([[0.0, 0.0], [-0.5, 0.2]])
        tol = 1e-6
        ends, hits = stopped_flow_batch(fld, region, pts, 0.0, 3.0, tol)
        park = synth._park_witness(fld, fld.affine_pair, pts, hits,
                                   lambda t: t, {"kind": "stopped_drift"})
        times = np.append(np.linspace(0.0, 3.0, 33), hits)
        for t in times:
            exact = pts + np.minimum(t, hits)[:, None] * v
            assert np.max(np.abs(park.position(t) - exact)) < 1e-12
            assert np.array_equal(park.velocity(t),
                                  np.where((t < hits)[:, None], v, 0.0))
        assert np.array_equal(park.position(0.0), pts)
        assert np.array_equal(park.position(3.0), ends)
        # a ten times longer horizon probes at other times; the entries
        # found on the exact map agree to rounding
        long_ends, long_hits = stopped_flow_batch(fld, region, pts, 0.0, 30.0,
                                                  tol)
        assert np.max(np.abs(long_ends - ends)) < 1e-12
        assert np.max(np.abs(long_hits - hits)) < 1e-12

    def test_rejects_a_field_without_an_affine_pair(self):
        # a plain TimeField carries no (A, b), even when its fn is affine:
        # the stopped flow has no exact map to read
        region = Region.box([1.0, -1.0], [2.0, 1.0])
        plain = TimeField(lambda p, t: p + 1.0, 2, 1.0, label="plain")
        assert plain.affine_pair is None
        assert plain.negated().affine_pair is None
        for fld in (plain, plain.negated()):
            with pytest.raises(ValueError, match="plain"):
                stopped_flow_batch(fld, region, [[0.0, 0.0]], 0.0, 1.0, 1e-6)

    def test_input_checks(self):
        fld = TimeField.constant([1.0])
        region = Region.box([1.0], [2.0])
        with pytest.raises(ValueError, match="tol"):
            stopped_flow_batch(fld, region, [[0.0]], 0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="horizon"):
            stopped_flow_batch(fld, region, [[0.0]], 0.0, 0.0, 1e-6)

    def test_construction_records_the_affine_pair(self):
        # each scenario drift records the (A, b) its fn computes, and
        # negation negates both
        mat = np.array([[0.3, -1.0], [1.0, 0.3]])
        off = np.array([0.2, -0.1])
        cases = [(TimeField.zero(2), np.zeros((2, 2)), np.zeros(2)),
                 (TimeField.constant([1.0, -0.5]), np.zeros((2, 2)),
                  np.array([1.0, -0.5])),
                 (TimeField.affine(mat, off), mat, off)]
        pts = np.random.default_rng(2).standard_normal((7, 2))
        for built, a, b in cases:
            for fld, sign in ((built, 1.0), (built.negated(), -1.0)):
                got_a, got_b = fld.affine_pair
                assert np.array_equal(got_a, sign * a)
                assert np.array_equal(got_b, sign * b)
                assert np.allclose(fld.evaluate(pts, 0.0),
                                   pts @ got_a.T + got_b, atol=1e-15)

    def test_evaluates_no_field(self, monkeypatch):
        # stopped flows read the exact map: no field evaluation, on any
        # drift, in either direction, or on an empty batch
        calls = []
        evaluate = TimeField.evaluate

        def counted(field, points, t):
            calls.append(field.label)
            return evaluate(field, points, t)

        monkeypatch.setattr(TimeField, "evaluate", counted)
        region = Region.box([-0.3, -0.3], [0.3, 0.3])
        pts = np.array([[1.0, 0.5], [-2.0, 0.2], [0.4, -1.5]])
        for fld in (TimeField.constant([1.0, 0.0]),
                    isotropic([0.1, -0.1], -0.8),
                    TimeField.affine([[-0.3, 1.0], [-1.0, -0.3]], [0.0, 0.1])):
            for f in (fld, fld.negated()):
                stopped_flow_batch(f, region, pts, 0.0, 10.0, 1e-6)
        ends, hits = stopped_flow_batch(TimeField.constant([1.0, 0.0]),
                                        region, np.zeros((0, 2)), 0.0, 5.0,
                                        1e-8)
        assert ends.shape == (0, 2) and hits.shape == (0,)
        assert calls == []

    def test_overflow_reports_particle(self):
        # an expanding drift x' = 2x carries particle 1 past the largest
        # float near t = 125, within the horizon and before any entry; the
        # others stay finite
        region = Region.box([-6.0, -1.0], [-4.0, 1.0])
        pts = np.array([[0.1, 0.0], [1e200, 0.0], [0.2, 0.0]])
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="particle 1 "):
            stopped_flow_batch(isotropic([0.0, 0.0], 2.0), region,
                               pts, 0.0, 200.0, 1e-6)

    def test_expanding_drift_is_probed_finer(self):
        # x' = x moves (1, 0) about 0.95 between probes choose_step apart
        # by the time it reaches a box 0.02 thick at x = 30; re-probing the
        # block finer, down to the cap, finds the entry at log 30
        region = Region.box([30.0, -1.0], [30.02, 1.0])
        ends, hits = stopped_flow_batch(isotropic([0.0, 0.0], 1.0),
                                        region, [[1.0, 0.0]], 0.0, 10.0, 1e-6)
        assert abs(hits[0] - math.log(30.0)) < 1e-12
        assert np.allclose(ends, [[30.0, 0.0]], rtol=0, atol=1e-12)

    def test_far_points_cost_no_finer_probes(self, monkeypatch):
        # x' = x carries (1, 0) into the box [2.5, 3.5] x [-0.5, 0.5] at
        # t = log 2.5, while (0, 1) runs up the y axis to e^60: its moves
        # outgrow the cap but never its distance to the box, so the probes
        # stay coarse
        calls = []
        affine_flow = flow._affine_flow

        def counted(*args):
            calls.append(1)
            assert len(calls) < 100, "the probes kept getting finer"
            return affine_flow(*args)

        monkeypatch.setattr(flow, "_affine_flow", counted)
        pts = np.array([[1.0, 0.0], [0.0, 1.0]])
        ends, hits = stopped_flow_batch(isotropic([0.0, 0.0], 1.0),
                                        Region.box([2.5, -0.5], [3.5, 0.5]),
                                        pts, 0.0, 60.0, 1e-6)
        assert abs(hits[0] - math.log(2.5)) < 1e-12
        assert np.isnan(hits[1])
        assert np.allclose(ends[1], [0.0, math.exp(60.0)], rtol=1e-12, atol=0)

    def test_spiral_matches_expm(self):
        # an expanding spiral with an offset carries points from near its
        # fixed point into a box: the hit points and the park's positions
        # are e^{At} x0 + (e^{At} - I) A^{-1} b, read off scipy's
        # exponential of the augmented matrix
        mat = np.array([[0.3, -1.0], [1.0, 0.3]])
        off = np.array([0.2, -0.1])
        aug = np.zeros((3, 3))
        aug[:2, :2], aug[:2, 2] = mat, off
        fixed = -np.linalg.solve(mat, off)
        pts = fixed + 0.3 * np.random.default_rng(0).standard_normal((12, 2))
        region = Region.box(fixed + [1.0, -6.0], fixed + [6.0, 6.0])

        def exact(x0, t):
            flow_map = expm(aug * t)
            return flow_map[:2, :2] @ x0 + flow_map[:2, 2]

        fld = TimeField.affine(mat, off)
        ends, hits = stopped_flow_batch(fld, region, pts, 0.0, 25.0, 1e-6)
        park = synth._park_witness(fld, fld.affine_pair, pts, hits,
                                   lambda t: t, {"kind": "stopped_drift"})
        probes = np.linspace(0.0, 25.0, 33)
        paths = np.stack([park.position(t) for t in probes], axis=1)
        assert np.all(hits > 0) and np.all(region.contains(ends))
        for i, x0 in enumerate(pts):
            assert np.max(np.abs(ends[i] - exact(x0, hits[i]))) <= 1e-12
            # outside at every sampled time before the hit and just before it
            times = np.append(np.linspace(0.0, hits[i], 400)[:-1],
                              hits[i] - 1e-9)
            before = np.array([exact(x0, t) for t in times])
            assert np.all(region.signed_distance(before) > 0)
            for k, t in enumerate(probes):
                assert np.max(np.abs(paths[i, k]
                                     - exact(x0, min(t, hits[i])))) <= 1e-12

    def test_clipped_corner_is_seen(self):
        # drift (1, 1) along x - y = 7.5 crosses the corner of [1, 9]^2 on
        # a 0.71-long chord, from (8.5, 1) at time 1 - y0 to (9, 1.5). The
        # cap (half the inradius, 2) would let probes move 2 apart and miss
        # the chord in most phases; probes choose_step apart see it in
        # every one
        region = Region.box([1.0, 1.0], [9.0, 9.0])
        y0 = -np.linspace(0.5, 8.0, 16)
        pts = np.column_stack([y0 + 7.5, y0])
        ends, hits = stopped_flow_batch(TimeField.constant([1.0, 1.0]),
                                        region, pts, 0.0, 40.0, 1e-6)
        assert np.max(np.abs(hits - (1.0 - y0))) < 1e-10
        assert np.allclose(ends, [8.5, 1.0], atol=1e-10)


    @pytest.mark.parametrize("drift", [[1.0, 0.7], [-0.3, 0.9], [1.0, 0.0],
                                       [0.0, -1.0], [0.0, 0.0],
                                       [0.4, -0.2, 0.3], [0.0, 0.5, 0.0]])
    def test_slab_entries_match_the_probes(self, drift, monkeypatch):
        # a box under a translation takes its entries at slab times, with
        # no probe; with the slab times settling nothing, the same box takes
        # the probes and the bisection. On oblique, axis-aligned and zero
        # drifts the hits agree to rounding, and every point parked is
        # inside
        dim = len(drift)
        box = Region.box(np.full(dim, 1.0), np.full(dim, 2.5))
        fld = TimeField.constant(drift)
        pts = np.random.default_rng(dim).uniform(-3.0, 6.0, (300, dim))
        probes = []
        affine_flow = flow._affine_flow
        monkeypatch.setattr(flow, "_affine_flow",
                            lambda *a: probes.append(1) or affine_flow(*a))
        ends, hits = stopped_flow_batch(fld, box, pts, 0.0, 10.0, 1e-6)
        assert probes == []
        settle_nothing(monkeypatch)
        ref_ends, ref_hits = stopped_flow_batch(fld, box, pts, 0.0, 10.0,
                                                1e-6)
        assert probes
        found = ~np.isnan(hits)
        assert np.array_equal(found, ~np.isnan(ref_hits))
        assert np.any(hits[found] == 0.0) and np.any(~found)
        if any(drift):
            assert np.any(hits[found] > 0.0)
        assert np.max(np.abs(hits[found] - ref_hits[found]),
                      initial=0.0) <= 1e-12
        assert np.max(np.abs(ends - ref_ends)) <= 1e-12
        assert np.all(box.contains(ends[found]))


class TestTrajectory:
    @staticmethod
    def make_traj(field, mu, times, tol=1e-8):
        states = [mu]
        for a, b in zip(times[:-1], times[1:]):
            states.append(flow_push(field, states[-1], a, b, tol)[0])
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

    @pytest.mark.parametrize("case", ["repeat", "signed-zero"])
    def test_save_formats_each_distinct_state_once(self, tmp_path,
                                                   monkeypatch, case):
        # a snapshot with the position and weight bits and the tags of the
        # one before it is a copy of that file; -0.0 prints unlike 0.0, so
        # a state whose only change is a signed zero is formatted
        pos = np.array([[0.0, 0.25], [0.5, 1.0 / 3.0], [0.75, 0.125]])
        a = ParticleMeasure(pos, np.full(3, 1.0 / 3.0))
        if case == "repeat":
            b = ParticleMeasure(pos + 0.5, a.weights, ["", "untouched", ""])
            states = [a, ParticleMeasure(pos.copy(), a.weights.copy()), b, b,
                      b.with_tags(None)]
            distinct = [True, False, True, False, True]
        else:
            flipped = pos.copy()
            flipped[0, 0] = -0.0
            states = [a, ParticleMeasure(flipped, a.weights)]
            distinct = [True, True]
        for k, state in enumerate(states):
            state.to_csv(tmp_path / f"ref_{k}.csv")
        formatted = []
        to_csv = ParticleMeasure.to_csv

        def counting(state, path):
            formatted.append(path.name)
            to_csv(state, path)

        monkeypatch.setattr(ParticleMeasure, "to_csv", counting)
        paths = Trajectory(np.arange(len(states)), states).save(
            tmp_path / "traj")
        assert formatted == [p.name for p, new in zip(paths, distinct) if new]
        for k, path in enumerate(paths):
            assert path.read_bytes() == (tmp_path / f"ref_{k}.csv").read_bytes()
        if case == "signed-zero":
            assert paths[0].read_bytes() != paths[1].read_bytes()
