import json

import numpy as np
import pytest

from transportlab import cli

from transportlab.flow import TimeField
from transportlab.geometry import (ConditionFailure, Region,
                                   check_geometric_condition, cutoff_theta)
from transportlab.measure import DensitySpec, ParticleMeasure, sample


class TestRegion:
    def test_membership_matches_signed_distance(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(500, 2))
        for region in (Region.box([-1, 0], [1, 1]),
                       Region.ball([0.0, 0.5], 0.7),
                       Region.union(Region.box([-1, 0], [0, 1]),
                                    Region.ball([0.5, 0.5], 0.4))):
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
        ball = Region.ball(0.5 * (lo + hi), 0.4)
        union = Region.union(box, ball, Region.box(lo - 0.5, lo + 0.1))

        def bits(x):
            return np.asarray(x, dtype=np.float64).tobytes()

        def reference(region):
            if region.kind == "box":
                c = 0.5 * (region.lo + region.hi)
                h = 0.5 * (region.hi - region.lo)
                q = np.abs(pts - c) - h
                return (np.linalg.norm(np.maximum(q, 0.0), axis=1)
                        + np.minimum(np.max(q, axis=1), 0.0))
            if region.kind == "ball":
                return (np.linalg.norm(pts - region.center, axis=1)
                        - region.radius)
            return np.min([reference(p) for p in region.parts], axis=0)

        for region in (box, ball, union):
            sd = reference(region)
            assert bits(region.signed_distance(pts)) == bits(sd)
            assert np.array_equal(region.contains(pts), sd <= 0.0)
            assert bits(region.depth(pts)) == bits(np.maximum(-sd, 0.0))
            assert bits(region.depth(pts)) == bits(
                np.maximum(-region.signed_distance(pts), 0.0))

    def test_box_distance_exact(self):
        box = Region.box([0, 0], [2, 1])
        assert np.isclose(box.signed_distance([[3.0, 0.5]])[0], 1.0)
        assert np.isclose(box.signed_distance([[3.0, 2.0]])[0], np.sqrt(2))
        assert np.isclose(box.signed_distance([[1.0, 0.5]])[0], -0.5)

    def test_shrink_contained(self):
        rng = np.random.default_rng(1)
        for region in (Region.box([0, 0], [2, 1]), Region.ball([0, 0], 1.5),
                       Region.union(Region.box([0, 0], [1, 1]),
                                    Region.ball([2.0, 0.5], 0.8))):
            small = region.shrink(0.2)
            lo, hi = region.bounding_box()
            pts = lo + (hi - lo) * rng.random((2000, 2))
            inside_small = small.contains(pts)
            assert np.all(region.contains(pts[inside_small]))

    def test_shrink_too_much(self):
        with pytest.raises(ValueError):
            Region.box([0, 0], [1, 1]).shrink(0.5)

    def test_roundtrip_dict(self):
        region = Region.union(Region.box([0, 0], [1, 2]),
                              Region.ball([3, 3], 0.5))
        back = Region.from_dict(region.to_dict())
        assert back.to_dict() == region.to_dict()

    def test_inradius(self):
        assert Region.box([0, 0], [4, 2]).inradius() == 1.0
        assert Region.ball([0, 0], 0.75).inradius() == 0.75


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
        omega0 = Region.ball([0.0, 0.0], 1.0)
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
            cutoff_theta(Region.ball([0, 0], 0.1), k=5)


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
        # both controllers run the same check first and stop there
        for mode in ("exact", "approx"):
            run_out = tmp_path / f"run_{mode}"
            assert cli.main(["run", "--scenario", str(path), "--mode", mode,
                             "--out", str(run_out)]) == 2
            report = json.loads((run_out / "report.json").read_text())
            assert report["status"] == "condition-failed"
            assert report["side"] == "source"
