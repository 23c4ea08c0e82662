import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab.measure import DensitySpec, ParticleMeasure, sample
from transportlab.oracle import brute_force_wp, two_bump_quantile_w1
from transportlab.ot import subsampled_w1, w1_1d, wp_discrete


def atoms(positions, weights=None):
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if weights is None:
        weights = np.full(len(positions), 1.0 / len(positions))
    return ParticleMeasure(positions, weights)


def random_cloud(rng, count, dim=2, weighted=False):
    pos = rng.standard_normal((count, dim))
    if weighted:
        w = rng.random(count) + 0.1
        return ParticleMeasure(pos, w / w.sum())
    return ParticleMeasure(pos, np.full(count, 1.0 / count))


class TestW11d:
    def test_identical(self):
        mu = atoms([[0.1], [0.5], [0.9]])
        assert w1_1d(mu, mu) == 0.0

    def test_two_diracs(self):
        assert np.isclose(w1_1d(atoms([[0.0]]), atoms([[1.0]])), 1.0)

    def test_two_bump_pair_converges(self):
        # sampled two-bump vs one-bump approaches the quantile-calculus value
        left = DensitySpec("uniform_box", 1, {"lo": [-1.0], "hi": [0.0]})
        right = DensitySpec("uniform_box", 1, {"lo": [1.0], "hi": [2.0]})
        mu0_spec = DensitySpec("mixture", 1, {"components": [left, right],
                                              "mix_weights": [1, 1]})
        mu1_spec = DensitySpec("uniform_box", 1, {"lo": [-1.0], "hi": [1.0]})
        mu0 = sample(mu0_spec, 40_000, seed=1)
        mu1 = sample(mu1_spec, 40_000, seed=2)
        assert abs(w1_1d(mu0, mu1) - two_bump_quantile_w1()) < 0.02

    def test_mass_mismatch_reports_totals(self):
        with pytest.raises(ValueError, match="0.5"):
            w1_1d(atoms([[0.0]], [1.0]), atoms([[1.0]], [0.5]))

    def test_needs_dim_one(self):
        with pytest.raises(ValueError):
            w1_1d(atoms([[0.0, 0.0]]), atoms([[1.0, 1.0]]))


class TestWpDiscrete:
    def test_identical_atoms_zero(self):
        mu = atoms([[0.0, 0.0], [1.0, 1.0]])
        dist, plan = wp_discrete(mu, mu, p=1)
        assert dist == 0.0
        assert np.array_equal(plan.src_idx, plan.tgt_idx)

    def test_translation_pair(self):
        mu = atoms([[0.0], [1.0]])
        nu = atoms([[2.0], [3.0]])
        dist, plan = wp_discrete(mu, nu, p=1)
        assert np.isclose(dist, 2.0)
        assert np.array_equal(np.sort(plan.tgt_idx[np.argsort(plan.src_idx)]),
                              [0, 1])

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_enumeration(self, p, dim):
        rng = np.random.default_rng(42 + p + dim)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            mu = random_cloud(rng, n, dim)
            nu = random_cloud(rng, n, dim)
            dist, _ = wp_discrete(mu, nu, p)
            assert abs(dist - brute_force_wp(mu, nu, p)) < 1e-10

    def test_weighted_instances_lp(self):
        rng = np.random.default_rng(3)
        mu = random_cloud(rng, 6, weighted=True)
        nu = random_cloud(rng, 9, weighted=True)
        dist, plan = wp_discrete(mu, nu, p=2)
        plan.validate()
        assert plan.method == "transportation-lp"
        assert plan.dual_gap > -1e-9
        r, c = plan.marginal_residuals()
        assert max(r, c) <= 1e-10

    def test_mass_rescaling_law(self):
        rng = np.random.default_rng(4)
        mu = random_cloud(rng, 8)
        nu = random_cloud(rng, 8)
        base1, _ = wp_discrete(mu, nu, 1)
        base2, _ = wp_discrete(mu, nu, 2)
        for c in (0.5, 2.0):
            d1, _ = wp_discrete(mu.scaled(c), nu.scaled(c), 1)
            d2, _ = wp_discrete(mu.scaled(c), nu.scaled(c), 2)
            assert np.isclose(d1, c * base1, rtol=1e-9)
            assert np.isclose(d2, np.sqrt(c) * base2, rtol=1e-9)

    def test_agrees_with_1d_quantile_route(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = random_cloud(rng, int(rng.integers(2, 40)), dim=1)
            nu = random_cloud(rng, int(rng.integers(2, 40)), dim=1,
                              weighted=True)
            nu = nu.scaled(mu.total_mass() / nu.total_mass())
            dist, _ = wp_discrete(mu, nu, 1)
            assert abs(dist - w1_1d(mu, nu)) < 1e-9

    def test_cap_enforced(self):
        rng = np.random.default_rng(6)
        mu = random_cloud(rng, 40)
        nu = random_cloud(rng, 40)
        with pytest.raises(ValueError, match="subsample"):
            wp_discrete(mu, nu, 1, cap=30)

    def test_plan_csv_and_report(self, tmp_path):
        rng = np.random.default_rng(7)
        mu = random_cloud(rng, 5)
        nu = random_cloud(rng, 5)
        dist, plan = wp_discrete(mu, nu, 1)
        plan.to_csv(tmp_path / "plan.csv")
        plan.report_json(tmp_path / "plan.json")
        rows = (tmp_path / "plan.csv").read_text().strip().splitlines()
        assert rows[0] == "i,j,mass,cost_contribution"
        assert len(rows) == 6
        rep = plan.report()
        assert rep["method"] == "assignment"
        assert np.isclose(rep["distance"], dist)


class TestInequalitySuite:
    """Standard Wasserstein comparison inequalities on exact values."""

    def test_unit_box_diameter_bound(self):
        rng = np.random.default_rng(11)
        mu = ParticleMeasure(rng.random((6, 2)), np.full(6, 1 / 6))
        nu = ParticleMeasure(rng.random((6, 2)), np.full(6, 1 / 6))
        w1v, _ = wp_discrete(mu, nu, 1)
        w2v, _ = wp_discrete(mu, nu, 2)
        # atoms in the unit box: diam <= sqrt(2), so W2 <= 2^(1/4) W1^(1/2)
        assert w2v <= 2 ** 0.25 * np.sqrt(w1v) + 1e-9


class TestSubsampledW1:
    def test_exact_below_cap(self):
        rng = np.random.default_rng(12)
        mu, nu = random_cloud(rng, 30), random_cloud(rng, 30)
        rep = subsampled_w1(mu, nu, cap=100, seed=0)
        exact, _ = wp_discrete(mu, nu, 1)
        assert rep["method"] == "exact"
        assert np.isclose(rep["estimate"], exact)

    def test_subsample_above_cap(self):
        rng = np.random.default_rng(13)
        mu = random_cloud(rng, 900)
        nu = ParticleMeasure(mu.positions + np.array([1.0, 0.0]), mu.weights)
        rep = subsampled_w1(mu, nu, cap=250, seed=0, batches=2)
        assert rep["method"] == "subsample-250"
        assert abs(rep["estimate"] - 1.0) < 0.15
        # a standard-normal cloud at 250 atoms has a noise floor well below
        # the unit displacement being measured
        assert rep["noise_floor"] < 0.5 * rep["estimate"]


# metric axioms, cross-checked against the enumeration oracle
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31), st.sampled_from([1, 2]))
def test_metric_axioms(seed, p):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    mu = ParticleMeasure(rng.standard_normal((n, 2)), np.full(n, 1 / n))
    nu = ParticleMeasure(rng.standard_normal((n, 2)), np.full(n, 1 / n))
    ka = ParticleMeasure(rng.standard_normal((n, 2)), np.full(n, 1 / n))
    dmn, _ = wp_discrete(mu, nu, p)
    dnm, _ = wp_discrete(nu, mu, p)
    assert abs(dmn - dnm) < 1e-10
    dzero, _ = wp_discrete(mu, mu, p)
    assert dzero < 1e-12
    dmk, _ = wp_discrete(mu, ka, p)
    dnk, _ = wp_discrete(nu, ka, p)
    assert dmk <= dmn + dnk + 1e-9
