import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab.geometry import Region
from transportlab.measure import (DensitySpec, ParticleMeasure, push_forward,
                                  quantile_partition, sample)

from helpers import measure_from_csv


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
        # the CSV carries the row labels it is given; reading it back gives
        # the measure, positions and weights, bit for bit
        import csv

        mu = sample(unit_square_spec(), 25, seed=13)
        tags = ["untouched" if i % 5 == 0 else "" for i in range(25)]
        path = tmp_path / "cloud.csv"
        mu.to_csv(path, tags)
        mu.save(tmp_path / "copy.csv", tmp_path / "cloud.json", copy_of=path)
        back = measure_from_csv(tmp_path / "copy.csv")
        assert np.array_equal(back.positions, mu.positions)
        assert np.array_equal(back.weights, mu.weights)
        with open(path, newline="") as fh:
            assert [row["tag"] for row in csv.DictReader(fh)] == tags
        assert back.checksum() == mu.checksum()
        env = mu.json_envelope()
        assert env["count"] == 25 and env["dim"] == 2

    @pytest.mark.parametrize("count", [24, 26])
    def test_csv_wants_one_tag_per_row(self, tmp_path, count):
        # a short or long tag list would misalign the tag column
        mu = sample(unit_square_spec(), 25, seed=13)
        with pytest.raises(ValueError, match=f"{count} tags for 25 rows"):
            mu.to_csv(tmp_path / "cloud.csv", [""] * count)

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
        labels = rng.choice(["", "untouched", "a,b", 'q"x', "l\nm"], 200)
        for tags in (None, labels):
            mu = ParticleMeasure(pos, rng.random(200) + 0.1)
            with open(tmp_path / "ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"x_{a + 1}" for a in range(dim)]
                                + ["weight", "tag"])
                for row, w, tag in zip(mu.positions, mu.weights,
                                       [""] * 200 if tags is None else tags):
                    writer.writerow([f"{v:.17g}" for v in row]
                                    + [f"{w:.17g}", tag])
            mu.to_csv(tmp_path / "got.csv", tags)
            assert ((tmp_path / "got.csv").read_bytes()
                    == (tmp_path / "ref.csv").read_bytes())

def uniform_quantiles_oracle(lo, hi, n):
    """Closed-form column breakpoints of the uniform density on a box."""
    return lo + (hi - lo) * np.arange(n + 1) / n


def padded_box(mu):
    """The bounding box of ``mu`` padded by 2% of its extent on each side."""
    lo, hi = mu.support_bbox()
    origin = lo - 0.02 * (hi - lo)
    return origin, origin + 1.04 * (hi - lo)


class TestQuantilePartition:
    def test_uniform_closed_form(self):
        mu = sample(unit_square_spec(), 60_000, seed=21)
        nu = sample(unit_square_spec(), 60_000, seed=22)
        src, _ = quantile_partition(mu, nu, 4)
        oracle = uniform_quantiles_oracle(0.0, 1.0, 4)
        assert src.walls[0].shape == (5,) and src.walls[1].shape == (4, 5)
        # the outer walls are the cloud's bounding box padded by 2% of its
        # extent on each side; within every column the uniform law's
        # y-quantiles are the column breakpoints too
        lo, hi = padded_box(mu)
        assert np.array_equal(src.frame()[0], lo)
        assert np.array_equal(src.frame()[1], hi)
        assert np.array_equal(src.walls[0][[0, -1]], [lo[0], hi[0]])
        assert np.allclose(src.walls[0][1:-1], oracle[1:-1], atol=0.02)
        for i in range(4):
            assert np.array_equal(src.walls[1][i, [0, -1]], [lo[1], hi[1]])
            assert np.allclose(src.walls[1][i, 1:-1], oracle[1:-1],
                               atol=0.03)

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
        lo, hi = padded_box(mu)
        assert np.array_equal(one.walls[1], [[lo[1], hi[1]]])

    def test_a_shifted_cloud_is_cut_where_it_lies(self):
        # each mesh is cut in world coordinates within its own cloud's
        # frame, so shifting the cloud shifts every wall with it
        mu = sample(unit_square_spec(), 1000, seed=1)
        shifted = push_forward(mu, lambda p: p + [2.0, -3.0])
        a, _ = quantile_partition(mu, mu, 4)
        b, _ = quantile_partition(shifted, shifted, 4)
        for axis, offset in enumerate((2.0, -3.0)):
            assert np.allclose(b.walls[axis], a.walls[axis] + offset,
                               rtol=0.0, atol=1e-14)
        assert np.array_equal(b.locate(shifted.positions),
                              a.locate(mu.positions))

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
