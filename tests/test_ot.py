import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transportlab.measure import DensitySpec, ParticleMeasure, sample
from transportlab import _kernels, cli, ot, synth
from transportlab.ot import w1_bracket, wp_discrete

from oracles import brute_force_wp, two_bump_quantile_w1


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
    """W1 between measures on the real line, by ``wp_discrete``'s line
    route."""

    def test_identical(self):
        mu = atoms([[0.1], [0.5], [0.9]])
        assert wp_discrete(mu, mu)[0] == 0.0

    def test_two_diracs(self):
        assert np.isclose(wp_discrete(atoms([[0.0]]), atoms([[1.0]]))[0], 1.0)

    def test_two_bump_pair_converges(self):
        # sampled two-bump vs one-bump approaches the quantile-calculus value
        left = DensitySpec("uniform_box", 1, {"lo": [-1.0], "hi": [0.0]})
        right = DensitySpec("uniform_box", 1, {"lo": [1.0], "hi": [2.0]})
        mu0_spec = DensitySpec("mixture", 1, {"components": [left, right],
                                              "mix_weights": [1, 1]})
        mu1_spec = DensitySpec("uniform_box", 1, {"lo": [-1.0], "hi": [1.0]})
        # 40 000 atoms a side, far above the cap: a line needs no matrix
        mu0 = sample(mu0_spec, 40_000, seed=1)
        mu1 = sample(mu1_spec, 40_000, seed=2)
        dist, plan = wp_discrete(mu0, mu1)
        assert plan.method == "line"
        assert abs(dist - two_bump_quantile_w1()) < 0.02

    def test_mass_mismatch_reports_totals(self):
        with pytest.raises(ValueError, match="0.5"):
            wp_discrete(atoms([[0.0]], [1.0]), atoms([[1.0]], [0.5]))

    def test_needs_dim_one(self):
        # a measure on the line against one in the plane is refused with
        # both dimensions named, in either order
        line, plane = atoms([[0.0], [1.0]]), atoms([[0.0, 0.0], [1.0, 1.0]])
        for solve in (wp_discrete, w1_bracket):
            with pytest.raises(ValueError, match="dimensions: 1 and 2"):
                solve(line, plane)
            with pytest.raises(ValueError, match="dimensions: 2 and 1"):
                solve(plane, line)


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
        assert plan.method == "line"
        assert np.isclose(plan.distance(), dist)
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
        # the line route's corner coupling against the transportation LP
        rng = np.random.default_rng(5)
        for _ in range(20):
            mu = random_cloud(rng, int(rng.integers(2, 40)), dim=1)
            nu = random_cloud(rng, int(rng.integers(2, 40)), dim=1,
                              weighted=True)
            nu = nu.scaled(mu.total_mass() / nu.total_mass())
            dist, plan = wp_discrete(mu, nu, 1)
            assert plan.method == "line"
            assert abs(dist - ot._transportation_plan(mu, nu, 1).distance()
                       ) < 1e-9

    def test_cap_enforced(self):
        rng = np.random.default_rng(6)
        mu = random_cloud(rng, 40)
        nu = random_cloud(rng, 40)
        with pytest.raises(ValueError, match="subsample"):
            wp_discrete(mu, nu, 1, cap=30)

    def test_refusal_off_a_line_keeps_its_message(self):
        # 3D clouds of unequal counts and weights, off a line above the
        # cap: the refusal is the one callers catch, and still a ValueError
        rng = np.random.default_rng(7)
        mu = random_cloud(rng, 2100, dim=3, weighted=True)
        nu = random_cloud(rng, 2600, dim=3, weighted=True)
        with pytest.raises(ot.SolverCapError) as info:
            wp_discrete(mu, nu, 2)
        assert isinstance(info.value, ValueError)
        assert str(info.value) == (
            "instance size 2100x2600 exceeds the exact-solver cap 2048; "
            "bracket W1 with w1_bracket, or subsample both sides first")

    def test_repeated_atoms_end_each_search_at_once(self, scans):
        # every position twice: each row ties at zero with two columns, and
        # the solver must end each search at the free one in one scan
        rng = np.random.default_rng(8)
        pos = rng.random((1000, 2))
        mu = atoms(np.concatenate([pos, pos]))
        dist, plan = wp_discrete(mu, mu, p=1)
        assert scans.scans <= 1000
        assert dist == 0.0
        assert np.array_equal(np.sort(plan.tgt_idx), np.arange(2000))


def warm_start_clouds(kind, n, rng):
    """Two n-point clouds of a kind the warm start is tested on."""
    if kind == "uniform":
        return rng.random((n, 2)), rng.random((n, 2))
    if kind == "clustered":
        centers = rng.random((4, 2))
        return tuple(centers[rng.integers(0, 4, n)]
                     + 0.01 * rng.standard_normal((n, 2)) for _ in range(2))
    if kind == "shifted":
        return rng.random((n, 2)), rng.random((n, 2)) + 0.1
    if kind == "squared":
        return rng.random((n, 2)), rng.random((n, 2)) ** 2
    # collinear: both clouds on the line x = 0.5, as the exact lane parks
    return tuple(np.column_stack([np.full(n, 0.5), rng.random(n) + shift])
                 for shift in (0.0, 0.3))


class TestWarmStart:
    """The assignment's starts: a coarse level of a third of the points
    above ``COARSE_POINTS``, and the column reduction at or below it or
    where a point repeats. ``wp_discrete`` sends clouds on a line to the
    monotone coupling instead."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("n", [100, 129, 300, 1000])
    @pytest.mark.parametrize("kind", ["uniform", "clustered", "shifted",
                                      "squared", "collinear"])
    def test_cost_matches_scipy(self, kind, n, p):
        from scipy.optimize import linear_sum_assignment

        a, b = warm_start_clouds(kind, n, np.random.default_rng(n))
        cost = ot._distances(a, b, p)
        cols, _ = ot._assignment(a, b, p)
        assert np.array_equal(np.sort(cols), np.arange(n))
        rows, ref_cols = linear_sum_assignment(cost)
        ref = cost[rows, ref_cols].sum()
        assert abs(cost[np.arange(n), cols].sum() - ref) <= 1e-12 * ref

    def test_coarse_level_halves_the_scans(self, scans):
        # shifted uniform clouds under W1: from the column reduction about
        # half the rows are free and each grows a long tree; the coarse
        # level's scans are counted too
        a, b = warm_start_clouds("shifted", 1000, np.random.default_rng(21))
        cold, _ = _kernels.assignment(ot._distances(a, b, 1))
        alone = scans.scans
        warm, _ = ot._assignment(a, b, 1)
        assert scans.scans - alone < alone / 2
        assert np.array_equal(warm, cold)

    def test_clustered_squared_cost_known_bound(self, scans):
        # four tight clusters with unequal counts under p = 2: the coarse
        # start once took 38 931 scans where the column reduction alone
        # takes 27 536; built directly at every level, it takes 24 011. The
        # bound records today's count so that the case cannot grow unseen
        a, b = warm_start_clouds("clustered", 1000,
                                 np.random.default_rng(1000))
        cold, _ = _kernels.assignment(ot._distances(a, b, 2))
        alone = scans.scans
        warm, _ = ot._assignment(a, b, 2)
        assert alone == 27_536
        assert scans.scans - alone <= 24_011
        cost = ot._distances(a, b, 2)
        assert cost[np.arange(1000), warm].sum() == pytest.approx(
            cost[np.arange(1000), cold].sum(), rel=1e-12)

    def test_collinear_clouds_take_the_chain(self, scans, monkeypatch):
        # a cloud on a line and a shuffled, shifted copy under p = 2, as
        # the exact lane parks them: the monotone coupling pairs the k-th
        # of each side, with no cost matrix and no search
        def never(*args):
            raise AssertionError("a cost matrix was built")

        monkeypatch.setattr(ot, "_distances", never)
        rng = np.random.default_rng(6)
        y = rng.random(500)
        shifted = rng.permutation(y + 0.3 + 0.01 * rng.random(500))
        dist, plan = wp_discrete(atoms(np.column_stack([np.full(500, 0.5), y])),
                                 atoms(np.column_stack([np.full(500, 0.5),
                                                        shifted])), p=2)
        assert plan.method == "line" and scans.scans == 0
        monotone = np.empty(500, dtype=np.int64)
        monotone[np.argsort(y)] = np.argsort(shifted)
        assert np.array_equal(plan.src_idx, np.arange(500))
        assert np.array_equal(plan.tgt_idx, monotone)

    def test_clouds_off_a_line_leave_the_chain(self, scans, monkeypatch):
        # off a line no monotone coupling is built: at or below
        # COARSE_POINTS the solve starts from the column reduction and
        # scans exactly as the kernel does alone
        def never(*args):
            raise AssertionError("a line plan was built")

        a, b = warm_start_clouds("uniform", 100, np.random.default_rng(5))
        cols, _ = _kernels.assignment(ot._distances(a, b, 2), ties=False)
        alone = scans.scans
        monkeypatch.setattr(ot, "_line_plan", never)
        _, plan = wp_discrete(atoms(a), atoms(b), p=2)
        assert plan.method == "assignment"
        assert scans.scans == 2 * alone > 0
        assert np.array_equal(plan.tgt_idx, cols)

    def test_one_start_state_per_level(self, monkeypatch):
        # a 2D solve above COARSE_POINTS builds only the start it takes at
        # each level: the column reduction at 111 points, then the coarse
        # duals at 333 and at 1 000, and nothing beside them
        built = []

        class Counting(_kernels._ShortestPaths):
            def __init__(self, cost, v=None):
                built.append((cost.shape[1], v is None))
                super().__init__(cost, v)

        monkeypatch.setattr(_kernels, "_ShortestPaths", Counting)
        a, b = warm_start_clouds("uniform", 1000, np.random.default_rng(4))
        ot._assignment(a, b, 1)
        assert built == [(111, True), (333, False), (1000, False)]

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("side", [8, 12])
    def test_exact_ties_between_distinct_points(self, side, p):
        # an integer lattice against itself shifted by one cell: no point
        # repeats, so no tie test runs, yet costs tie exactly everywhere.
        # 64 points start from the column reduction, 144 from a coarse level
        from scipy.optimize import linear_sum_assignment

        axis = np.arange(side, dtype=float)
        a = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        b = a + [1.0, 0.0]
        assert not (ot._repeats(a) or ot._repeats(b))
        cost = ot._distances(a, b, p)
        cols, _ = ot._assignment(a, b, p)
        assert np.array_equal(np.sort(cols), np.arange(side * side))
        rows, ref_cols = linear_sum_assignment(cost)
        ref = cost[rows, ref_cols].sum()
        assert abs(cost[np.arange(side * side), cols].sum() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("twice", ["source", "target"])
    def test_repeated_points_match_scipy(self, twice, p):
        # one cloud holds each of its points twice: the column reduction
        # with the tie test, against a cloud of distinct points
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(9)
        pos = rng.random((150, 2))
        a, b = np.concatenate([pos, pos]), rng.random((300, 2))
        if twice == "target":
            a, b = b, a
        cost = ot._distances(a, b, p)
        cols, _ = ot._assignment(a, b, p)
        assert np.array_equal(np.sort(cols), np.arange(300))
        rows, ref_cols = linear_sum_assignment(cost)
        ref = cost[rows, ref_cols].sum()
        assert abs(cost[np.arange(300), cols].sum() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("seed", [6, 7])
    def test_figure1_final_w1_matches_scipy(self, tmp_path, seed):
        # the approximate lane's exact W1(final, mu1) at 1 000 particles,
        # against scipy's assignment on the same clouds
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        args = cli.build_parser().parse_args(
            ["run", "--scenario", "figure1", "--out", str(tmp_path),
             "--seed-override", str(seed), "--particles", "1000"])
        scenario = cli._apply_overrides(cli.load_scenario("figure1"), args)
        result = synth.approx_controller(scenario)
        cost = cdist(result.trajectory.final().positions,
                     scenario.measure("mu1").positions)
        rows, cols = linear_sum_assignment(cost)
        ref = cost[rows, cols].sum() / 1000
        got = result.report["final_w1"]
        assert got["method"] == "exact"
        assert abs(got["estimate"] - ref) <= 1e-12 * ref


def on_a_line(rng, count, direction, offset=0.0):
    """``count`` points on the line through ``offset`` along ``direction``,
    in random order."""
    return np.asarray(offset) + rng.random(count)[:, None] * direction


class TestLineRoute:
    """Clouds on parallel lines take the monotone coupling: its cost
    against scipy's assignment or LP, in shuffled order."""

    DIRECTIONS = {1: [1.0], 2: [np.cos(0.7), np.sin(0.7)],
                  3: [0.48, -0.6, 0.64]}

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equal_weights_match_scipy(self, dim, p):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(10 * dim + p)
        d = np.array(self.DIRECTIONS[dim])
        a = on_a_line(rng, 300, d)
        b = on_a_line(rng, 300, 2.0 * d, offset=0.4 * d)
        dist, plan = wp_discrete(atoms(a), atoms(b), p)
        assert plan.method == "line"
        cost = ot._distances(a, b, p)
        rows, cols = linear_sum_assignment(cost)
        ref = (cost[rows, cols].sum() / 300) ** (1 / p)
        assert abs(dist - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("counts", [(30, 45), (40, 40)])
    def test_unequal_weights_match_the_lp(self, counts, dim, p):
        rng = np.random.default_rng(100 * dim + 10 * p + counts[1])
        d = np.array(self.DIRECTIONS[dim])
        wa, wb = (rng.random(count) + 0.1 for count in counts)
        mu = ParticleMeasure(on_a_line(rng, counts[0], d), wa / wa.sum())
        nu = ParticleMeasure(on_a_line(rng, counts[1], d, offset=d),
                             wb / wb.sum())
        dist, plan = wp_discrete(mu, nu, p)
        assert plan.method == "line"
        plan.validate()
        assert plan.mass.min() > 1e-14 * max(mu.weights.max(),
                                             nu.weights.max())
        order = np.lexsort((plan.tgt_idx, plan.src_idx))
        assert np.array_equal(order, np.arange(len(order)))
        ref = ot._transportation_plan(mu, nu, p).distance()
        assert abs(dist - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [1, 2])
    def test_parallel_lines_apart_take_the_line_route(self, p):
        # two vertical lines 1.6e-12 of the extent apart, the second
        # shifted along them, as the exact lane parks figure1's clouds
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(18)
        a = np.column_stack([np.full(400, 0.5), rng.random(400)])
        b = np.column_stack([np.full(400, 0.5 + 1.6e-12),
                             0.3 + rng.random(400)])
        assert ot._principal_chain(a, b) is not None
        dist, plan = wp_discrete(atoms(a), atoms(b), p)
        assert plan.method == "line"
        cost = ot._distances(a, b, p)
        rows, cols = linear_sum_assignment(cost)
        ref = (cost[rows, cols].sum() / 400) ** (1 / p)
        assert abs(dist - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("p", [1, 2])
    def test_a_point_off_the_line_takes_the_solver(self, p):
        # one point 1e-6 of the extent off the line: the assignment
        # solves it, and still agrees with scipy
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(19)
        d = np.array(self.DIRECTIONS[2])
        a = on_a_line(rng, 200, d)
        b = on_a_line(rng, 200, d, offset=0.2 * d)
        b[7] += 1e-6 * np.array([-d[1], d[0]])
        assert ot._principal_chain(a, b) is None
        dist, plan = wp_discrete(atoms(a), atoms(b), p)
        assert plan.method == "assignment"
        cost = ot._distances(a, b, p)
        rows, cols = linear_sum_assignment(cost)
        ref = (cost[rows, cols].sum() / 200) ** (1 / p)
        assert abs(dist - ref) <= 1e-12 * ref

    def test_parks_rounding_their_mean_take_the_line_route(self):
        # two 10 000-atom clouds on vertical lines at x = 2.14 and 3.26, as
        # the exact lane parks figure1: each cloud's mean x rounds off its
        # line by more than the tolerance, but the range of its own x is 0
        rng = np.random.default_rng(21)
        a, b = (np.column_stack([np.full(10000, x),
                                 rng.uniform(0.2, 0.8, 10000)])
                for x in (2.14, 3.26))
        assert np.max(np.abs(a - a.mean(axis=0))[:, 0]) > 0.0
        assert ot._principal_chain(a, b) is not None
        dist, plan = wp_discrete(atoms(a), atoms(b), 2)
        assert plan.method == "line"
        gaps = np.sort(a[:, 1]) - np.sort(b[:, 1])
        assert dist == pytest.approx(np.sqrt(1.12 ** 2 + np.mean(gaps ** 2)),
                                     rel=1e-12)

    def test_no_cap_on_a_line(self):
        # far above the cap, a line still solves; off it, the cap holds
        rng = np.random.default_rng(20)
        a = on_a_line(rng, 5000, np.array([0.0, 1.0]))
        b = on_a_line(rng, 5000, np.array([0.0, 1.0]), offset=[1.0, 0.0])
        dist, plan = wp_discrete(atoms(a), atoms(b), 2, cap=100)
        assert plan.method == "line" and len(plan.mass) == 5000
        b = b.copy()
        b[0, 0] += 0.5
        with pytest.raises(ValueError, match="cap 100"):
            wp_discrete(atoms(a), atoms(b), 2, cap=100)


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


class TestW1Bracket:
    def test_exact_at_or_below_cap(self):
        rng = np.random.default_rng(12)
        mu, nu = random_cloud(rng, 30), random_cloud(rng, 30)
        exact, _ = wp_discrete(mu, nu, 1)
        assert w1_bracket(mu, nu, cap=30) == {"estimate": exact,
                                              "method": "exact"}

    def test_unit_shift_is_bracketed_exactly(self):
        # both bounds of a translation are its length: the x projection
        # gives it, and the blocks pair each point with its own image
        rng = np.random.default_rng(13)
        mu = random_cloud(rng, 900)
        nu = ParticleMeasure(mu.positions + np.array([1.0, 0.0]), mu.weights)
        rep = w1_bracket(mu, nu, cap=250)
        assert rep["method"] == "bracket"
        assert rep["estimate"] == rep["upper"]
        assert rep["lower"] == pytest.approx(1.0, rel=1e-12)
        assert rep["upper"] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("count,dim,shift", [(300, 2, 0.1),
                                                 (800, 2, 0.0),
                                                 (1500, 2, 0.0),
                                                 (600, 3, 0.1)])
    def test_brackets_the_exact_value(self, count, dim, shift):
        # two samples of one law, or of two shifted ones; mass 2
        rng = np.random.default_rng(count + dim)
        mu = ParticleMeasure(rng.random((count, dim)),
                             np.full(count, 2.0 / count))
        nu = ParticleMeasure(rng.random((count, dim)) + shift,
                             np.full(count, 2.0 / count))
        exact, _ = wp_discrete(mu, nu, 1)
        rep = w1_bracket(mu, nu, cap=100)
        assert rep["method"] == "bracket"
        assert rep["lower"] <= exact * (1 + 1e-12)
        assert exact <= rep["upper"] * (1 + 1e-12)

    def test_one_dimension_is_exact(self):
        # 1D clouds always lie on a line, so they take wp_discrete's sort
        # above the cap and never reach the bracket
        rng = np.random.default_rng(14)
        mu = random_cloud(rng, 5000, dim=1)
        nu = ParticleMeasure(rng.exponential(size=(5000, 1)), mu.weights)
        exact, _ = wp_discrete(mu, nu, 1)
        assert w1_bracket(mu, nu) == {"estimate": exact, "method": "exact"}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_collinear_clouds_are_exact_above_the_cap(self, dim):
        rng = np.random.default_rng(40 + dim)
        d = np.array(TestLineRoute.DIRECTIONS[dim])
        mu = atoms(on_a_line(rng, 600, d))
        nu = atoms(on_a_line(rng, 600, d, offset=np.roll(d, 1)))
        exact, plan = wp_discrete(mu, nu, 1, cap=100)
        assert plan.method == "line"
        assert w1_bracket(mu, nu, cap=100) == {"estimate": exact,
                                               "method": "exact"}

    def test_unequal_weights_take_the_corner_coupling(self, monkeypatch):
        rng = np.random.default_rng(15)
        mu = random_cloud(rng, 120, weighted=True)
        nu = random_cloud(rng, 150, weighted=True)
        exact, _ = wp_discrete(mu, nu, 1)

        def never(cost):
            raise AssertionError("unequal weights reached the assignment")

        monkeypatch.setattr(_kernels, "assignment", never)
        rep = w1_bracket(mu, nu, cap=50)
        assert rep["lower"] <= exact * (1 + 1e-12)
        assert exact <= rep["upper"] * (1 + 1e-12)


class TestBlockPlan:
    """The nested-block coupling that stands in for an optimal plan off a
    line above the cap."""

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_is_a_coupling(self, p, weighted):
        rng = np.random.default_rng(30 + p)
        mu = random_cloud(rng, 300, dim=3, weighted=weighted)
        nu = random_cloud(rng, 360 if weighted else 300, dim=3,
                          weighted=weighted)
        plan = ot._block_plan(mu, nu, p)
        plan.validate()
        assert plan.method == "block" and plan.p == p
        assert plan.cost() >= wp_discrete(mu, nu, p)[0] ** p * (1 - 1e-12)

    @pytest.mark.parametrize("dim,p", [(2, 1), (2, 2), (3, 2)])
    def test_equal_weights_match_each_block_optimally(self, dim, p):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(dim + 10 * p)
        mu, nu = random_cloud(rng, 900, dim), random_cloud(rng, 900, dim)
        plan = ot._block_plan(mu, nu, p)
        assert np.array_equal(plan.src_idx, np.arange(900))
        per_axis = max(1, round((900 / ot.BLOCK_POINTS) ** (1 / dim)))
        oa, bounds = ot._block_order(mu.positions, per_axis)
        ob, _ = ot._block_order(nu.positions, per_axis)
        assert len(bounds) > 2
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            a, b = oa[lo:hi], ob[lo:hi]
            rows, cols = linear_sum_assignment(
                ot._distances(mu.positions[a], nu.positions[b], p))
            assert np.array_equal(plan.tgt_idx[a[rows]], b[cols])

    def test_unequal_weights_drop_slivers(self):
        # one cloud twice, its weights nudged by an ulp up and down: the
        # corner coupling along the shared block order then cuts slivers
        # where the two cumulative sums all but meet, about 1e-16 near the
        # total mass, and keeps none. Each atom then pairs with itself
        # alone, at cost 0
        rng = np.random.default_rng(33)
        mu = random_cloud(rng, 2100, dim=3, weighted=True)
        w = mu.weights.copy()
        w[::2], w[1::2] = np.nextafter(w[::2], 1), np.nextafter(w[1::2], 0)
        nu = ParticleMeasure(mu.positions, w)
        floor = 1e-14 * mu.total_mass()
        assert _kernels.quantile_coupling(mu.weights, w)[2].min() <= floor
        plan = ot._block_plan(mu, nu, 2)
        plan.validate()
        assert plan.mass.min() > floor
        assert len(plan.mass) == 2100
        assert np.array_equal(plan.src_idx, plan.tgt_idx)
        assert plan.cost() == 0.0


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
