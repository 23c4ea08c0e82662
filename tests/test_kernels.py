import numpy as np
import pytest

from transportlab import _kernels


def row_tables(rng, n):
    """Sorted, disjoint (n, n) lower and upper cell walls, as the grid
    field's tables are."""
    walls = np.sort(rng.random((n, 2 * n)), axis=1)
    return walls[:, 0::2], walls[:, 1::2]


class TestRowSearch:
    """The flattened search must equal the per-row counting it replaced."""

    @pytest.mark.parametrize("n", [3, 6, 20, 44])
    def test_matches_row_counting(self, n):
        rng = np.random.default_rng(n)
        cym, cyp = row_tables(rng, n)
        count = 2000
        rows = rng.integers(0, n, count)
        py = rng.uniform(-0.2, 1.2, count)
        # ties: points exactly on upper and lower walls of their row
        ties = rng.integers(0, n, count // 4)
        py[: count // 4] = cyp[rows[: count // 4], ties]
        py[count // 4: count // 2] = cym[rows[count // 4: count // 2], ties]
        left = _kernels.row_search(cyp, rows, py)
        right = _kernels.row_search(cym, rows, py, side="right")
        assert np.array_equal(left, np.sum(cyp[rows] < py[:, None], axis=1))
        assert np.array_equal(right, np.sum(cym[rows] <= py[:, None], axis=1))

    def test_grid_eval_matches_per_row_reference(self):
        rng = np.random.default_rng(7)
        for n in (3, 6, 20):
            cols = np.sort(rng.random(2 * n))
            cxm, cxp = cols[0::2], cols[1::2]
            cym, cyp = row_tables(rng, n)
            ax, bx = rng.normal(size=n), rng.normal(size=n)
            ay, by = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            gxm, gxp = rng.uniform(0.001, 0.05, (2, n))
            gym, gyp = rng.uniform(0.001, 0.05, (2, n, n))
            count = 1000
            px = rng.uniform(-0.1, 1.1, count)
            py = rng.uniform(-0.1, 1.1, count)
            py[:200] = cyp.ravel()[rng.integers(0, n * n, 200)]
            py[200:400] = cym.ravel()[rng.integers(0, n * n, 200)]
            px[400:500] = cxp[rng.integers(0, n, 100)]
            args = (cxm, cxp, ax, bx, cym, cyp, ay, by, gxm, gxp, gym, gyp)
            assert np.array_equal(_kernels.grid_eval_2d(px, py, *args),
                                  reference_grid_eval_2d(px, py, *args))


def reference_grid_eval_2d(px, py, cxm, cxp, ax, bx, cym, cyp, ay, by,
                           gxm, gxp, gym, gyp):
    """The O(N n) form of grid_eval_2d: gathers each point's whole row of
    the cell tables and counts the cells below it."""
    n = cxm.shape[0]
    i, sx = _kernels._nearest_column(px, cxm, cxp, gxm, gxp)
    cym_i = cym[i]
    cyp_i = cyp[i]
    j = np.sum(cyp_i < py[:, None], axis=1)
    j = np.minimum(j, n - 1)
    has_prev = j > 0
    jm = np.maximum(j - 1, 0)
    rows = np.arange(len(px))
    d_here = np.maximum(cym_i[rows, j] - py, 0.0)
    d_prev = np.where(has_prev, py - cyp_i[rows, jm], np.inf)
    j = np.where(has_prev & (d_prev < d_here), jm, j)
    below = py < cym_i[rows, j]
    above = py > cyp_i[rows, j]
    dy = np.where(below, cym_i[rows, j] - py,
                  np.where(above, py - cyp_i[rows, j], 0.0))
    my = np.where(below, gym[i, j], np.where(above, gyp[i, j], 1.0))
    s = sx * _kernels._falloff(dy, my)
    out = np.empty((px.shape[0], 2))
    out[:, 0] = s * (ax[i] * px + bx[i])
    out[:, 1] = s * (ay[i, j] * py + by[i, j])
    return out


def test_grid_eval_1d_matches_per_point_reference():
    # each point's cell in its own row, affine there, and beyond the row's
    # outer walls the outer cell's value at the wall; points on walls go to
    # the cell above
    rng = np.random.default_rng(9)
    rows_n, n = 7, 5
    walls = np.sort(rng.random((rows_n, n + 1)), axis=1)
    alpha, beta = rng.normal(size=(2, rows_n, n))
    rows = rng.integers(0, rows_n, 500)
    px = rng.uniform(-0.1, 1.1, 500)
    px[:100] = walls[rows[:100], rng.integers(0, n + 1, 100)]
    assert np.any(px < walls[rows, 0]) and np.any(px > walls[rows, -1])
    expect = np.zeros(500)
    for k, (r, x) in enumerate(zip(rows, px)):
        c = min(max(int(np.sum(walls[r] <= x)) - 1, 0), n - 1)
        x = min(max(x, walls[r, 0]), walls[r, -1])
        expect[k] = alpha[r, c] * x + beta[r, c]
    assert np.array_equal(_kernels.grid_eval_1d(px, rows, walls, alpha, beta),
                          expect)


class TestAssignment:
    """The shortest-augmenting-path solver against scipy's."""

    @staticmethod
    def clouds(rng, n, kind):
        if kind == "uniform":
            return rng.random((n, 2)), rng.random((n, 2))
        # a few tight clusters: many near-equal costs between them
        centers = rng.random((4, 2))
        return tuple(centers[rng.integers(0, 4, n)]
                     + 0.01 * rng.standard_normal((n, 2)) for _ in range(2))

    @pytest.mark.parametrize("n", [1, 2, 16, 300, 1000])
    @pytest.mark.parametrize("kind", ["uniform", "clustered"])
    def test_optimal_cost_matches_scipy(self, n, kind):
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        a, b = self.clouds(np.random.default_rng(n), n, kind)
        for cost in (cdist(a, b), cdist(a, b, "sqeuclidean")):
            cols, _ = _kernels.assignment(cost)
            assert np.array_equal(np.sort(cols), np.arange(n))
            rows, ref_cols = linear_sum_assignment(cost)
            ref = cost[rows, ref_cols].sum()
            assert abs(cost[np.arange(n), cols].sum() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("n", [1, 5, 41])
    def test_stack_matches_scipy_per_matrix(self, n):
        # the lockstep loop: matrices finish after different numbers of
        # scans, and every third one is all ties (a cloud against itself)
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(n)
        a, b = rng.random((2, 60, n, 2))
        b[::3] = a[::3]
        cost = np.stack([cdist(x, y) for x, y in zip(a, b)])
        cols = _kernels.assignment(cost)
        assert cols.shape == (60, n)
        for c, got in zip(cost, cols):
            assert np.array_equal(np.sort(got), np.arange(n))
            rows, ref_cols = linear_sum_assignment(c)
            ref = c[rows, ref_cols].sum()
            assert abs(c[np.arange(n), got].sum() - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("kind", ["uniform", "clustered"])
    def test_search_from_chain_duals_matches_scipy(self, kind):
        # the chain's duals off a line are poor; the search still ends at
        # the optimum from them
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        a, b = self.clouds(np.random.default_rng(5), 300, kind)
        cost = cdist(a, b, "sqeuclidean")
        duals = _kernels._chain_duals(cost, np.argsort(a[:, 0]),
                                      np.argsort(b[:, 0]))
        paths = _kernels._ShortestPaths(cost[None], duals[None])
        paths.solve_one()
        cols = paths.col4row[0]
        assert np.array_equal(np.sort(cols), np.arange(300))
        rows, ref_cols = linear_sum_assignment(cost)
        ref = cost[rows, ref_cols].sum()
        assert abs(cost[np.arange(300), cols].sum() - ref) <= 1e-12 * ref

    def test_chain_solves_clouds_on_a_line(self, scans):
        # a cloud and a shifted, shuffled copy on one line, under the
        # squared distance as the exact lane's plan: the sorted chain's
        # duals are optimal and no search runs
        rng = np.random.default_rng(6)
        a = rng.random(500)
        b = rng.permutation(a + 0.3 + 0.01 * rng.random(500))
        cost = (a[:, None] - b[None, :]) ** 2
        cols, _ = _kernels.assignment(
            cost, [lambda: _kernels._chain_duals(cost, np.argsort(a),
                                                 np.argsort(b))])
        assert scans.scans == 0
        monotone = np.empty(500, dtype=np.int64)
        monotone[np.argsort(a)] = np.argsort(b)
        assert np.array_equal(cols, monotone)

    def test_poor_chain_leaves_the_column_reduction(self, scans):
        # off a line the chain's duals have a lower dual objective than the
        # column reduction's, so the solve ignores them and scans exactly as
        # without
        rng = np.random.default_rng(5)
        a, b = rng.random((2, 300, 2))
        cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        cols, _ = _kernels.assignment(cost)
        alone = scans.scans
        chained, _ = _kernels.assignment(
            cost, [lambda: _kernels._chain_duals(cost, np.argsort(a[:, 0]),
                                                 np.argsort(b[:, 0]))])
        assert scans.scans == 2 * alone > 0
        assert np.array_equal(chained, cols)

    def test_single_loop_scans_as_the_lockstep_loop(self, scans):
        # the single loop rebuilds each search's path from its scan log,
        # where the lockstep loop tracks predecessors at every scan: both
        # must settle the same columns, flip the same paths and so scan
        # equally often, on random, tied and self-distance costs
        rng = np.random.default_rng(12)
        for trial in range(200):
            n = int(rng.integers(2, 61))
            if trial % 3 == 0:
                cost = rng.random((n, n))
            elif trial % 3 == 1:
                cost = rng.integers(0, 4, (n, n)).astype(float)
            else:
                a = rng.random((n, 2))
                cost = np.sqrt(((a[:, None, :] - a[None, :, :]) ** 2)
                               .sum(axis=2))
            before = scans.scans
            single, _ = _kernels.assignment(cost)
            alone = scans.scans - before
            stacked = _kernels.assignment(cost[None])[0]
            assert np.array_equal(single, stacked)
            assert scans.scans - before == 2 * alone
            # the single loop moves the duals from its log, the lockstep
            # loop from the masked columns: bitwise the same duals
            one = _kernels._ShortestPaths(cost[None])
            one.solve_one()
            both = _kernels._ShortestPaths(cost[None])
            both.solve_lockstep()
            assert np.array_equal(one.u, both.u)
            assert np.array_equal(one.v, both.v)

    def test_ties_end_at_a_free_column(self, scans):
        # every column ties at every scan: the column reduction matches one
        # row, and taking a free column among the ties ends each of the
        # other rows' searches after one scan
        cols, _ = _kernels.assignment(np.zeros((1000, 1000)))
        assert scans.scans == 999
        assert np.array_equal(np.sort(cols), np.arange(1000))

    def test_rejects_non_square_and_non_finite(self):
        with pytest.raises(ValueError, match="square"):
            _kernels.assignment(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            _kernels.assignment(np.array([[0.0, np.inf], [1.0, 0.0]]))
