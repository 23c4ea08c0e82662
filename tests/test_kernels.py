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
    # each point's cell in its own row, affine there, zero beyond the
    # row's outer walls; points on walls go to the cell above
    rng = np.random.default_rng(9)
    rows_n, n = 7, 5
    walls = np.sort(rng.random((rows_n, n + 1)), axis=1)
    alpha, beta = rng.normal(size=(2, rows_n, n))
    rows = rng.integers(0, rows_n, 500)
    px = rng.uniform(-0.1, 1.1, 500)
    px[:100] = walls[rows[:100], rng.integers(0, n + 1, 100)]
    expect = np.zeros(500)
    for k, (r, x) in enumerate(zip(rows, px)):
        if walls[r, 0] <= x <= walls[r, -1]:
            c = min(int(np.sum(walls[r] <= x)) - 1, n - 1)
            expect[k] = alpha[r, c] * x + beta[r, c]
    assert np.array_equal(_kernels.grid_eval_1d(px, rows, walls, alpha, beta),
                          expect)
