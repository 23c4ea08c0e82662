import json

import numpy as np
import pytest

from transportlab import cli

from transportlab.flow import TimeField
from transportlab.geometry import (ConditionFailure, Region, _box_eta,
                                   check_geometric_condition, cutoff_theta,
                                   weight_eta)
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
        assert np.allclose(theta.evaluate(outside), 1.0)
        deep = np.array([[0.5, 0.5], [0.3, 0.5]])
        assert np.allclose(theta.evaluate(deep), 0.0)

    def test_monotone_and_smooth_along_ray(self):
        omega0 = Region.box([0, 0], [1, 1])
        k = 8
        theta = cutoff_theta(omega0, k)
        xs = np.linspace(0.0, 1.0 / k, 300)
        # ray entering through the middle of the left face
        pts = np.stack([xs, np.full_like(xs, 0.5)], axis=1)
        vals = theta.evaluate(pts)
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
        vals = theta.evaluate(pts)
        depth = omega0.depth(pts)
        outside_band = (depth <= 0) | (depth >= 1.0 / k)
        assert np.allclose((vals * (1 - vals))[outside_band], 0.0)

    def test_band_must_fit(self):
        with pytest.raises(ValueError):
            cutoff_theta(Region.ball([0, 0], 0.1), k=5)


def box_bump_per_axis(omega1, peak, pts):
    """Reference for ``_box_eta``'s bump and its gradient: one axis at a
    time, with the product of the other factors taken directly."""
    lo, hi = omega1.lo, omega1.hi
    ext = hi - lo
    u_c = np.clip((np.asarray(peak, dtype=float) - lo) / ext, 1e-3, 1 - 1e-3)
    lam = u_c / (1.0 - u_c)
    vals, ders = [], []
    for a in range(len(lo)):
        u = np.clip((pts[:, a] - lo[a]) / ext[a], 0.0, 1.0)
        denom = u + lam[a] * (1.0 - u)
        s = u / denom
        vals.append(4.0 * s * (1.0 - s))
        ders.append(4.0 * (1.0 - 2.0 * s) * (lam[a] / denom ** 2) / ext[a])
    vals = np.array(vals)
    grad = np.stack([ders[a] * np.prod(np.delete(vals, a, axis=0), axis=0)
                     for a in range(len(lo))], axis=1)
    return np.prod(vals, axis=0), grad


class TestWeightEta:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_box_eta_matches_per_axis_bump(self, dim):
        omega1 = Region.box(-0.5 * np.arange(1, dim + 1), np.full(dim, 1.5))
        peak = np.full(dim, 0.4)
        eta = _box_eta(omega1, peak)
        rng = np.random.default_rng(dim)
        # some points outside omega1, where a factor clips to 0
        pts = rng.uniform(-0.7, 1.7, size=(300, dim))
        b, gb = box_bump_per_axis(omega1, peak, pts)
        value, grad = b * b, (2.0 * b)[:, None] * gb
        if dim < 3:
            # in 1D and 2D both forms do the same operations in the same order
            assert np.array_equal(eta.evaluate(pts), value)
            assert np.array_equal(eta.gradient(pts), grad)
        else:
            assert np.allclose(eta.evaluate(pts), value, rtol=1e-14, atol=0)
            assert np.allclose(eta.gradient(pts), grad, rtol=1e-14, atol=0)

    def test_concentric_ball_oracle(self):
        omega1 = Region.ball([0.5, 0.5], 1.0)
        s0 = Region.ball([0.5, 0.5], 0.25)
        eta, k0, k1 = weight_eta(omega1, s0, per_axis=256)
        # |grad| = 2 |x - c| ranges over [2 r, 2 R] on the annulus
        assert abs(k0 - 0.5) < 0.05
        assert abs(k1 - 2.0) < 0.05
        boundary = np.array([[1.5, 0.5], [0.5, -0.5]])
        assert np.allclose(eta.evaluate(boundary), 0.0, atol=1e-9)

    def test_box_boundary_zero_and_positive_inside(self):
        omega1 = Region.box([0, 0], [2, 1])
        s0 = Region.box([0.8, 0.3], [1.2, 0.7])
        eta, k0, k1 = weight_eta(omega1, s0)
        assert k0 > 1e-6 and k1 > k0
        edge = np.array([[0.0, 0.5], [2.0, 0.3], [1.0, 0.0], [1.7, 1.0]])
        assert np.allclose(eta.evaluate(edge), 0.0, atol=1e-12)
        rng = np.random.default_rng(3)
        interior = np.stack([rng.uniform(0.05, 1.95, 500),
                             rng.uniform(0.05, 0.95, 500)], axis=1)
        assert np.all(eta.evaluate(interior) > 0)

    def test_gradient_matches_fd_relative(self):
        omega1 = Region.box([0, 0], [2, 1])
        s0 = Region.box([0.7, 0.35], [1.3, 0.65])
        eta, _, _ = weight_eta(omega1, s0)
        rng = np.random.default_rng(4)
        pts = np.stack([rng.uniform(0.2, 1.8, 200),
                        rng.uniform(0.1, 0.9, 200)], axis=1)
        grad = eta.gradient(pts)
        eps = 1e-6
        for a in range(2):
            shift = np.zeros(2)
            shift[a] = eps
            fd = (eta.evaluate(pts + shift) - eta.evaluate(pts - shift)) / (2 * eps)
            denom = np.maximum(np.abs(grad[:, a]), 1e-3)
            assert np.max(np.abs(grad[:, a] - fd) / denom) < 1e-5

    def test_ascent_reaches_inner_region(self):
        omega1 = Region.box([0, 0], [2, 1])
        s0 = Region.box([1.2, 0.2], [1.7, 0.6])
        eta, _, _ = weight_eta(omega1, s0)
        rng = np.random.default_rng(5)
        seeds = np.stack([rng.uniform(0.1, 1.9, 200),
                          rng.uniform(0.05, 0.95, 200)], axis=1)
        pts = seeds.copy()
        for _ in range(4000):
            grad = eta.gradient(pts)
            norm = np.linalg.norm(grad, axis=1, keepdims=True)
            done = s0.contains(pts)
            step = 0.004 * grad / np.maximum(norm, 1e-12)
            pts = np.where(done[:, None], pts, pts + step)
        assert np.all(s0.contains(pts))

    def test_translation_covariance(self):
        omega1 = Region.box([0, 0], [2, 1])
        s0 = Region.box([0.8, 0.3], [1.2, 0.7])
        eta, _, _ = weight_eta(omega1, s0)
        shift = np.array([3.0, -2.0])
        eta2, _, _ = weight_eta(Region.box(omega1.lo + shift, omega1.hi + shift),
                                Region.box(s0.lo + shift, s0.hi + shift))
        pts = np.array([[0.4, 0.5], [1.5, 0.15], [1.0, 0.5]])
        assert np.allclose(eta.evaluate(pts), eta2.evaluate(pts + shift))

    def test_critical_point_detected(self):
        # quadratic ball weight peaks at the ball center; an inner region
        # placed elsewhere leaves the critical point exposed
        omega1 = Region.ball([0.0, 0.0], 1.0)
        s0 = Region.ball([0.6, 0.0], 0.15)
        with pytest.raises(ValueError, match="critical point"):
            weight_eta(omega1, s0)


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
