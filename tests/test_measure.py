import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab.geometry import Region
from transportlab.measure import (DensitySpec, ParticleMeasure, push_forward,
                                  quantile_partition, sample)


def unit_square_spec():
    return DensitySpec("uniform_box", 2, {"lo": [0.0, 0.0], "hi": [1.0, 1.0]})


class TestSampling:
    def test_four_particles_unit_square(self):
        mu = sample(unit_square_spec(), 4, seed=7)
        assert len(mu) == 4
        assert np.allclose(mu.weights, 0.25)
        assert np.all((mu.positions > 0) & (mu.positions < 1))

    def test_single_particle(self):
        mu = sample(unit_square_spec(), 1, seed=0)
        assert len(mu) == 1 and mu.weights[0] == 1.0

    def test_deterministic_in_seed(self):
        a = sample(unit_square_spec(), 50, seed=3)
        b = sample(unit_square_spec(), 50, seed=3)
        assert np.array_equal(a.positions, b.positions)

    def test_empirical_cdf_close_to_uniform(self):
        # Kolmogorov distance of the empirical CDF against F(x) = x; the
        # 0.02 budget sits well above the Dvoretzky-Kiefer-Wolfowitz scale
        # sqrt(log(2/alpha)/(2n)) ~ 0.014 at alpha = 1e-3
        spec = DensitySpec("uniform_box", 1, {"lo": [0.0], "hi": [1.0]})
        mu = sample(spec, 10_000, seed=11)
        xs = np.sort(mu.positions[:, 0])
        ecdf = np.arange(1, len(xs) + 1) / len(xs)
        assert np.max(np.abs(ecdf - xs)) < 0.02

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            sample(unit_square_spec(), 0, seed=0)

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            DensitySpec("uniform_box", 2, {"lo": [0.0, 0.0], "hi": [1.0, 0.0]})
        with pytest.raises(ValueError):
            DensitySpec("truncated_gaussian", 1,
                        {"mean": [0.0], "sigma": [-1.0], "lo": [0.0], "hi": [1.0]})

    def test_profile_box_matches_polynomial_density(self):
        spec = DensitySpec("profile_box", 1, {"lo": [0.0], "hi": [1.0],
                                              "profiles": [[0.0, 2.0]]})
        mu = sample(spec, 20_000, seed=5)
        # density 2x on (0,1): CDF x^2, median at sqrt(1/2)
        med = np.median(mu.positions[:, 0])
        assert abs(med - np.sqrt(0.5)) < 0.02

    def test_mixture_component_masses(self):
        left = DensitySpec("uniform_box", 1, {"lo": [-1.0], "hi": [0.0]})
        right = DensitySpec("uniform_box", 1, {"lo": [1.0], "hi": [2.0]})
        spec = DensitySpec("mixture", 1,
                           {"components": [left, right], "mix_weights": [1, 1]})
        mu = sample(spec, 20_000, seed=9)
        frac = np.mean(mu.positions[:, 0] < 0.5)
        assert abs(frac - 0.5) < 0.02


class TestPushForward:
    def test_identity(self):
        mu = sample(unit_square_spec(), 20, seed=1)
        out = push_forward(mu, lambda p: p)
        assert np.array_equal(out.positions, mu.positions)
        assert np.array_equal(out.weights, mu.weights)

    def test_translation_shifts_bbox(self):
        mu = sample(unit_square_spec(), 200, seed=2)
        c = np.array([3.0, -1.0])
        out = push_forward(mu, lambda p: p + c)
        lo0, hi0 = mu.support_bbox()
        lo1, hi1 = out.support_bbox()
        assert np.allclose(lo1, lo0 + c) and np.allclose(hi1, hi0 + c)
        assert out.total_mass() == mu.total_mass()

    def test_sqrt_split_image_window(self):
        # x -> (sqrt(x) + t/2)^2 at t = 1 maps (0, 1) into (0.25, 2.25)
        spec = DensitySpec("uniform_box", 1, {"lo": [0.0], "hi": [1.0]})
        mu = sample(spec, 500, seed=4)
        out = push_forward(mu, lambda p: (np.sqrt(p) + 0.5) ** 2)
        assert np.all(out.positions > 0.25) and np.all(out.positions < 2.25)

    def test_composition(self):
        mu = sample(unit_square_spec(), 64, seed=8)
        f = lambda p: 2.0 * p + 1.0
        g = lambda p: p[:, ::-1] * np.array([1.0, -1.0])
        once = push_forward(mu, lambda p: g(f(p)))
        twice = push_forward(push_forward(mu, f), g)
        assert np.array_equal(once.positions, twice.positions)

    def test_non_finite_image_names_particle(self):
        mu = ParticleMeasure([[0.0], [4.0]], [0.5, 0.5])
        with pytest.raises(ValueError, match="particle 0"):
            push_forward(mu, lambda p: np.where(p == 0.0, np.inf, p))


class TestMeasureBasics:
    def test_scaling_mass_not_bbox(self):
        mu = sample(unit_square_spec(), 40, seed=12)
        scaled = mu.scaled(2.5)
        assert np.isclose(scaled.total_mass(), 2.5 * mu.total_mass())
        assert np.array_equal(scaled.support_bbox()[0], mu.support_bbox()[0])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            ParticleMeasure([[0.0]], [0.0])
        with pytest.raises(ValueError):
            ParticleMeasure([[np.nan]], [1.0])

    def test_csv_json_roundtrip(self, tmp_path):
        mu = sample(unit_square_spec(), 25, seed=13).with_tags(
            np.array(["untouched" if i % 5 == 0 else "" for i in range(25)],
                     dtype=object))
        path = tmp_path / "cloud.csv"
        mu.save(path, tmp_path / "cloud.json")
        back = ParticleMeasure.from_csv(path)
        assert np.allclose(back.positions, mu.positions)
        assert np.allclose(back.weights, mu.weights)
        assert list(back.tags) == list(mu.tags)
        assert back.checksum() == mu.checksum()
        env = mu.json_envelope()
        assert env["count"] == 25 and env["dim"] == 2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_csv_bytes_match_the_csv_module(self, tmp_path, dim):
        # the one-format-per-row writer against csv.writer with a cell per
        # value, on extreme magnitudes, -0.0, a subnormal and tags that
        # csv must quote
        import csv

        rng = np.random.default_rng(dim)
        pos = rng.standard_normal((200, dim)) * 10.0 ** rng.integers(
            -300, 300, (200, dim))
        pos[0, 0], pos[1, 0] = -0.0, 1e-320
        tags = rng.choice(["", "untouched", "a,b", 'q"x', "l\nm", None], 200)
        for mu in (ParticleMeasure(pos, rng.random(200) + 0.1),
                   ParticleMeasure(pos, rng.random(200) + 0.1, tags)):
            with open(tmp_path / "ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"x_{a + 1}" for a in range(dim)]
                                + ["weight", "tag"])
                for row, w, tag in zip(mu.positions, mu.weights,
                                       mu.tags if mu.tags is not None
                                       else [""] * 200):
                    writer.writerow([f"{v:.17g}" for v in row]
                                    + [f"{w:.17g}", tag or ""])
            mu.to_csv(tmp_path / "got.csv")
            assert ((tmp_path / "got.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes())

def uniform_quantiles_oracle(lo, hi, n):
    """Closed-form column breakpoints of the uniform density on a box."""
    return lo + (hi - lo) * np.arange(n + 1) / n


class TestQuantilePartition:
    def test_uniform_closed_form(self):
        mu = sample(unit_square_spec(), 60_000, seed=21)
        nu = sample(unit_square_spec(), 60_000, seed=22)
        src, _ = quantile_partition(mu, nu, 4)
        oracle = uniform_quantiles_oracle(0.0, 1.0, 4)
        assert src.walls[0].shape == (5,) and src.walls[1].shape == (4, 5)
        # the outer walls are the unit box's; within every column the
        # uniform law's y-quantiles are the column breakpoints too
        assert np.array_equal(src.walls[0][[0, -1]], [0.0, 1.0])
        assert np.allclose(src.walls[0], oracle, atol=0.02)
        for i in range(4):
            assert np.array_equal(src.walls[1][i, [0, -1]], [0.0, 1.0])
            assert np.allclose(src.walls[1][i], oracle, atol=0.03)

    def test_strip_and_cell_masses(self):
        # in any dimension, columns carry 1/n and cells 1/n^d of the mass,
        # each within a particle weight per nesting level
        n = 5
        for dim in (1, 2, 3):
            spec = DensitySpec("uniform_box", dim, {"lo": [0.0] * dim,
                                                    "hi": [1.0] * dim})
            mu = sample(spec, 20_000, seed=23)
            src, _ = quantile_partition(mu, mu, n)
            w_max = mu.weights.max()
            cells = src.locate(mu.positions)
            columns = np.bincount(cells // n ** (dim - 1), mu.weights, n)
            assert np.max(np.abs(columns - 1 / n)) <= w_max
            masses = np.bincount(cells, mu.weights, n ** dim)
            assert np.max(np.abs(masses - 1 / n ** dim)) <= dim * w_max
            # every particle lies in the cell locate names
            lo, hi = src.cells()
            assert np.all((lo[cells] <= mu.positions)
                          & (mu.positions <= hi[cells]))

    def test_symmetric_measure_symmetric_partition(self):
        mu = sample(unit_square_spec(), 40_000, seed=27)
        mirrored = push_forward(mu, lambda p: np.stack(
            [1.0 - p[:, 0], p[:, 1]], axis=1))
        a, _ = quantile_partition(mu, mu, 4)
        b, _ = quantile_partition(mirrored, mirrored, 4)
        assert np.allclose(a.walls[0], (1.0 - b.walls[0])[::-1], atol=0.02)

    def test_small_n_rejected(self):
        mu = sample(unit_square_spec(), 1000, seed=1)
        with pytest.raises(ValueError, match="n must be >= 1"):
            quantile_partition(mu, mu, 0)
        one, _ = quantile_partition(mu, mu, 1)
        assert np.array_equal(one.walls[1], [[0.0, 1.0]])

    def test_out_of_box_rejected(self):
        mu = sample(unit_square_spec(), 1000, seed=1)
        shifted = push_forward(mu, lambda p: p + 2.0)
        with pytest.raises(ValueError):
            quantile_partition(shifted, shifted, 4)

    def test_zero_width_cell_raises(self):
        # coincident atoms heavier than a cell put two splits between the
        # same pair of particles, and too many cells leave one empty
        rng = np.random.default_rng(0)
        pos = np.concatenate([rng.random((1_000, 2)),
                              np.full((200, 2), [0.51, 0.52])])
        mu = ParticleMeasure(pos, np.full(1_200, 1 / 1_200))
        assert len(quantile_partition(mu, mu, 2)) == 2
        with pytest.raises(ValueError, match="zero-width cell"):
            quantile_partition(mu, mu, 4)
        sparse = sample(unit_square_spec(), 300, seed=2)
        with pytest.raises(ValueError, match="fewer than its 40 cells"):
            quantile_partition(sparse, sparse, 40)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_push_forward_composes(seed):
    rng = np.random.default_rng(seed)
    mu = ParticleMeasure(rng.standard_normal((17, 2)), np.full(17, 1 / 17))
    mat = rng.standard_normal((2, 2))
    off = rng.standard_normal(2)
    f = lambda p: p @ mat.T + off
    g = lambda p: 0.5 * p - 1.0
    assert np.allclose(push_forward(push_forward(mu, f), g).positions,
                       push_forward(mu, lambda p: g(f(p))).positions)
