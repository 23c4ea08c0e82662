import json

import numpy as np
import pytest

from transportlab import cli, geometry

from transportlab.flow import TimeField
from transportlab.geometry import (ConditionFailure, Region,
                                   check_geometric_condition, cutoff_flow)
from transportlab.measure import DensitySpec, ParticleMeasure, sample
from transportlab.synth import storage_total


class TestRegion:
    def test_membership_matches_signed_distance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(500, 2))
        region = Region.box([-1, 0], [1, 1])
        sd = region.signed_distance(pts)
        assert np.array_equal(region.contains(pts), sd <= 0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_distances_bitwise_equal_the_reference(self, dim):
        # the box takes its largest excess without a reduction over the
        # coordinate axis and its depth without the outside norm; every
        # value must still be the reference formula's, bit for bit
        rng = np.random.default_rng(dim)
        lo = rng.uniform(-1.0, 0.0, dim)
        hi = lo + rng.uniform(0.3, 2.0, dim)
        box = Region.box(lo, hi)
        corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"),
                           axis=-1).reshape(-1, dim)
        faces = lo + (hi - lo) * rng.random((200, dim))
        axis = rng.integers(0, dim, 200)
        faces[np.arange(200), axis] = np.where(rng.random(200) < 0.5,
                                               lo[axis], hi[axis])
        pts = np.concatenate([
            lo + (hi - lo) * rng.random((300, dim)),          # inside
            lo - 1.0 + (hi - lo + 2.0) * rng.random((300, dim)),
            corners, faces,
            rng.choice([-1.0, 1.0], (50, dim)) * 1e6 * rng.random((50, dim)),
            0.5 * (lo + hi)[None]])

        def bits(x):
            return np.asarray(x, dtype=np.float64).tobytes()

        q = np.abs(pts - 0.5 * (lo + hi)) - 0.5 * (hi - lo)
        sd = (np.linalg.norm(np.maximum(q, 0.0), axis=1)
              + np.minimum(np.max(q, axis=1), 0.0))
        assert bits(box.signed_distance(pts)) == bits(sd)
        assert np.array_equal(box.contains(pts), sd <= 0.0)
        assert bits(box.depth(pts)) == bits(np.maximum(-sd, 0.0))
        assert bits(box.depth(pts)) == bits(
            np.maximum(-box.signed_distance(pts), 0.0))

    def test_box_distance_exact(self):
        box = Region.box([0, 0], [2, 1])
        assert np.isclose(box.signed_distance([[3.0, 0.5]])[0], 1.0)
        assert np.isclose(box.signed_distance([[3.0, 2.0]])[0], np.sqrt(2))
        assert np.isclose(box.signed_distance([[1.0, 0.5]])[0], -0.5)

    def test_shrink_contained(self):
        rng = np.random.default_rng(1)
        region = Region.box([0, 0], [2, 1])
        small = region.shrink(0.2)
        pts = region.lo + (region.hi - region.lo) * rng.random((2000, 2))
        inside_small = small.contains(pts)
        assert np.all(region.contains(pts[inside_small]))
        assert np.all(region.depth(pts[inside_small]) >= 0.2 - 1e-15)

    def test_shrink_too_much(self):
        with pytest.raises(ValueError):
            Region.box([0, 0], [1, 1]).shrink(0.5)

    def test_roundtrip_dict(self):
        region = Region.box([0, 0], [1, 2])
        assert region.to_dict() == {"kind": "box", "lo": [0.0, 0.0],
                                    "hi": [1.0, 2.0]}
        back = Region.from_dict(region.to_dict())
        assert back.to_dict() == region.to_dict()

    def test_inradius(self):
        assert Region.box([0, 0], [4, 2]).inradius() == 1.0


def cutoff_theta(omega0, k):
    """The storage cutoff theta_k, read off the storage field of a unit
    drift: its total velocity is theta_k times the drift."""
    field = storage_total(TimeField.constant([1.0, 0.0]), omega0, k)
    return lambda pts: field.evaluate(pts, 0.0)[:, 0]


class TestCutoff:
    def test_plateaus_exact(self):
        omega0 = Region.box([0, 0], [1, 1])
        theta = cutoff_theta(omega0, k=4)
        outside = np.array([[1.5, 0.5], [-0.2, 0.3], [0.0, 0.0]])
        assert np.allclose(theta(outside), 1.0)
        deep = np.array([[0.5, 0.5], [0.3, 0.5]])
        assert np.allclose(theta(deep), 0.0)

    def test_monotone_and_smooth_along_ray(self):
        omega0 = Region.box([0, 0], [1, 1])
        k = 8
        theta = cutoff_theta(omega0, k)
        xs = np.linspace(0.0, 1.0 / k, 300)
        # ray entering through the middle of the left face
        pts = np.stack([xs, np.full_like(xs, 0.5)], axis=1)
        vals = theta(pts)
        assert np.all(np.diff(vals) <= 1e-12)
        # C1: finite-difference derivative has no jumps
        dv = np.diff(vals) / np.diff(xs)
        assert np.max(np.abs(np.diff(dv))) < 1.875 * k * (xs[1] - xs[0]) * 40

    def test_band_property(self):
        omega0 = Region.box([-1.0, -1.0], [1.0, 1.0])
        k = 5
        theta = cutoff_theta(omega0, k)
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1.5, 1.5, size=(4000, 2))
        vals = theta(pts)
        depth = omega0.depth(pts)
        outside_band = (depth <= 0) | (depth >= 1.0 / k)
        assert np.allclose((vals * (1 - vals))[outside_band], 0.0)

    def test_band_must_fit(self):
        with pytest.raises(ValueError):
            cutoff_theta(Region.box([-0.1, -0.1], [0.1, 0.1]), k=5)


def bisect_clock(k, a, beta, g0, left, lo, hi):
    """The 60-pass bisection in s that inverted a sloped piece's clock
    before ``geometry._invert_clock``, with its signature: the reference
    the Newton iteration must match."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        w = np.clip(k * (a + beta * mid), 0.0, 1.0)
        short = (geometry._ramp_time(w) - g0) / (k * beta) < left
        lo = np.where(short, mid, lo)
        hi = np.where(short, hi, mid)
    return 0.5 * (lo + hi)


def there_and_back(flow_map, pts, duration):
    """The images of ``pts`` after ``duration``, and theirs after the map
    runs back as long."""
    images, certified = flow_map(pts, 0.0, duration)
    back, returned = flow_map(images, duration, 0.0)
    assert certified.all() and returned.all()
    return images, back


def by_bisection(monkeypatch, run, *args):
    """``run(*args)`` with the reference bisection inverting the clock."""
    with monkeypatch.context() as patch:
        patch.setattr(geometry, "_invert_clock", bisect_clock)
        return run(*args)


class TestCutoffFlow:
    """The storage flow map's clock, inverted by bracketed Newton, against
    the bisection it replaced."""

    # a box like figure1's storage box, and figure1's drift among others
    OMEGA0 = Region.box([2.2, 0.2], [2.45, 0.9])
    DRIFTS = ([0.5, 0.0], [0.0, -0.7], [0.5, 0.2], [-0.3, 0.45])
    DURATIONS = (1e-4, 0.05, 0.3, 1.0, 3.0, 10.0)

    def rows(self, k, rng):
        """Random rows in and around omega0, and rows near each face, at
        most half the ramp's depth 1/k inside, which end on flat and
        descending pieces at every k."""
        lo, hi = self.OMEGA0.lo, self.OMEGA0.hi
        spread = rng.uniform(lo - 0.7, hi + 0.4, (2000, 2))
        along = rng.uniform(lo, hi, (50, 2))
        inset = min(0.5 / k, 0.05)
        near = [np.column_stack([np.full(50, edge[0]), along[:, 1]])
                for edge in (lo + inset, hi - inset)]
        near += [np.column_stack([along[:, 0], np.full(50, edge[1])])
                 for edge in (lo + inset, hi - inset)]
        return np.concatenate([spread, *near])

    def piece_kinds(self, images, drift, k):
        """Kinds of the pieces the moving rows end on, read off the depth
        just downstream of each image."""
        depth = self.OMEGA0.depth(images)
        moving = (depth > 0) & (k * depth < 1)
        ahead = self.OMEGA0.depth(images + 1e-9 * np.asarray(drift))
        change = (ahead - depth)[moving]
        return {name for name, seen in (("ascending", change > 0),
                                        ("flat", change == 0),
                                        ("descending", change < 0))
                if seen.any()}

    @pytest.mark.parametrize("k", [1, 4, 16, 256, 4096])
    def test_matches_the_bisection_and_runs_back(self, k, monkeypatch):
        # every coordinate agrees with the bisection to 1e-12 relative, and
        # the map run backwards returns each start as closely as with the
        # bisection, up to the rounding of its image magnified by 1 / (1 -
        # S(k depth)) there, where the clock runs slowest. Rows whose path
        # nears depth 1/k come back only to about 1e-8 either way: the time
        # of such a piece is a difference of large values of G
        pts = self.rows(k, np.random.default_rng(k))
        deep = k * self.OMEGA0.depth(pts) >= 1
        assert deep.any() == (k >= 16)
        kinds = set()
        for drift in self.DRIFTS:
            flow_map = cutoff_flow(self.OMEGA0, k, drift)
            for duration in self.DURATIONS:
                images, back = there_and_back(flow_map, pts, duration)
                reference, ref_back = by_bisection(
                    monkeypatch, there_and_back, flow_map, pts, duration)
                assert np.all(np.abs(images - reference)
                              <= 1e-12 * np.abs(reference))
                # rows at k depth >= 1 stay put
                assert np.array_equal(images[deep], pts[deep])
                assert np.array_equal(back[deep], pts[deep])
                rate = 1.0 - geometry._smootherstep(
                    k * self.OMEGA0.depth(images[~deep]))
                slack = 16 * np.finfo(float).eps * np.abs(pts).max() / rate
                missed = np.abs(back - pts).max(axis=1)[~deep]
                ref_missed = np.abs(ref_back - pts).max(axis=1)[~deep]
                assert np.all(missed <= ref_missed + slack)
                kinds |= self.piece_kinds(images, drift, k)
        assert kinds == {"ascending", "flat", "descending"}

    @pytest.mark.parametrize("k, omega0", [
        (4, Region.box([2.2, -0.5], [3.0, 1.6])), (16, OMEGA0),
        (4096, OMEGA0)], ids=["4-wide", "16", "4096"])
    def test_first_order_guess_past_the_pole(self, k, omega0, monkeypatch):
        # rows that enter omega0 under figure1's drift and ascend from
        # depth 0 towards depth 1/k, where G has its pole, for so long that
        # the first-order guess of the ramp depth, k beta left, is at or
        # past 1
        rng = np.random.default_rng(k)
        drift = np.array([0.5, 0.0])
        lo = omega0.lo
        pts = np.column_stack([lo[0] - rng.uniform(0.0, 0.1, 2000),
                               rng.uniform(0.3, 0.8, 2000)])
        flow_map = cutoff_flow(omega0, k, drift)
        for duration in (1.0, 3.0):
            left = duration - (lo[0] - pts[:, 0]) / drift[0]
            assert np.all(k * drift[0] * left >= 1.0)
            images, _ = flow_map(pts, 0.0, duration)
            reference, _ = by_bisection(monkeypatch, flow_map, pts, 0.0,
                                        duration)
            assert np.all(np.abs(images - reference)
                          <= 1e-12 * np.abs(reference))
            depth = k * omega0.depth(images)
            assert np.all((depth > 0) & (depth < 1))


def cloud(points):
    points = np.atleast_2d(points)
    return ParticleMeasure(points, np.full(len(points), 1.0 / len(points)))


class TestGeometricCondition:
    def test_supports_already_inside(self):
        omega = Region.box([0, 0], [4, 4])
        mu0 = cloud([[1.0, 1.0], [2.0, 2.0]])
        mu1 = cloud([[3.0, 3.0]])
        cond = check_geometric_condition(TimeField.constant([1.0, 0.0]),
                                         mu0, mu1, omega, 5.0, 1e-6)
        assert cond.T0star == 0.0 and cond.T1star == 0.0
        assert np.all(cond.omega0.contains(mu0.positions))

    def test_linear_motion_hit_window(self):
        omega = Region.box([2.0, -3.0], [3.0, 3.0])
        mu0 = sample(DensitySpec("uniform_box", 2,
                                 {"lo": [0, 0], "hi": [1, 1]}), 400, seed=1)
        mu1 = cloud([[4.0, 0.0]])
        cond = check_geometric_condition(TimeField.constant([1.0, 0.0]),
                                         mu0, mu1, omega, 6.0, 1e-6)
        assert 1.0 <= cond.T0star <= 3.0
        assert cond.T1star > 0

    def test_counterexample_returned(self):
        omega = Region.box([2.0, 0.0], [3.0, 1.0])
        mu0 = cloud([[0.5, 0.5], [0.0, 0.25]])
        mu1 = cloud([[2.5, 0.5]])
        with pytest.raises(ConditionFailure) as err:
            check_geometric_condition(TimeField.constant([-1.0, 0.0]),
                                      mu0, mu1, omega, 5.0, 1e-6)
        assert err.value.side == "source"
        assert err.value.to_dict()["counterexample"] in ([0.5, 0.5], [0.0, 0.25])

    def test_monotone_in_horizon(self):
        omega = Region.box([2.0, -2.0], [3.0, 2.0])
        mu0 = cloud([[0.0, 0.0], [0.5, 0.5]])
        mu1 = cloud([[3.5, 0.0]])
        v = TimeField.constant([1.0, 0.0])
        c1 = check_geometric_condition(v, mu0, mu1, omega, 5.0, 1e-6)
        c2 = check_geometric_condition(v, mu0, mu1, omega, 9.0, 1e-6)
        assert abs(c1.T0star - c2.T0star) < 1e-6
        assert abs(c1.T1star - c2.T1star) < 1e-6

    def test_empty_measure_rejected(self):
        omega = Region.box([0, 0], [1, 1])
        mu = cloud([[0.5, 0.5]])
        empty = ParticleMeasure(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            check_geometric_condition(TimeField.zero(2), empty, mu, omega,
                                      1.0, 1e-6)


@pytest.mark.parametrize("drift, code", [(0.7, 0), (-0.7, 2)])
def test_cli_check_exit_codes(tmp_path, drift, code):
    # two 4 x 4 clusters either side of omega: a drift toward omega carries
    # both to it, one away from it strands the source cluster
    rng = np.random.default_rng(3)
    side = (np.arange(16) // 4, np.arange(16) % 4)
    cell = 0.3 / 4

    def cluster(x, y):
        grid = np.column_stack(side) * cell + rng.random((16, 2)) * cell
        return [[float(a), float(b), 1.0 / 16]
                for a, b in grid + [x - 0.15, y - 0.15]]

    scenario = {"dim": 2, "v": {"kind": "constant", "value": [drift, 0.0]},
                "omega": {"kind": "box", "lo": [1.6, -0.6], "hi": [2.9, 1.6]},
                "mu0": {"atoms": cluster(0.4, 0.6)},
                "mu1": {"atoms": cluster(4.0, 0.6)},
                "params": {"delta": 0.6, "seed": 0, "horizon": 24.0,
                           "tol": 1e-6}}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "out"
    assert cli.main(["check", "--scenario", str(path), "--out", str(out)]) \
        == code
    report = json.loads((out / "check.json").read_text())
    if code == 0:
        assert report["status"] == "ok"
        # omega shrunk by a fifth of its inradius 0.65 spans x in
        # [1.73, 2.77]: the last source atom enters it at (1.73 - x) / 0.7,
        # the last target atom backward at (x - 2.77) / 0.7
        x0 = min(atom[0] for atom in scenario["mu0"]["atoms"])
        x1 = max(atom[0] for atom in scenario["mu1"]["atoms"])
        assert abs(report["T0star"] - (1.73 - x0) / 0.7) < 1e-9
        assert abs(report["T1star"] - (x1 - 2.77) / 0.7) < 1e-9
    else:
        assert report["status"] == "condition-failed"
        assert report["side"] == "source"
        # both controllers run the same check first and stop there, on the
        # same counterexample
        failure = {key: report[key]
                   for key in ("counterexample", "side", "horizon")}
        for mode in ("exact", "approx"):
            run_out = tmp_path / f"run_{mode}"
            assert cli.main(["run", "--scenario", str(path), "--mode", mode,
                             "--out", str(run_out)]) == 2
            report = json.loads((run_out / "report.json").read_text())
            assert report["status"] == "condition-failed"
            assert {key: report[key] for key in failure} == failure
