import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from transportlab.cli import sqrt_field_solution
from transportlab.measure import ParticleMeasure

import oracles
from oracles import brute_force_wp, two_bump_quantile_w1


def atoms(positions):
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    return ParticleMeasure(positions, np.full(len(positions),
                                              1.0 / len(positions)))


class TestBruteForce:
    def test_single_pair(self):
        assert np.isclose(brute_force_wp(atoms([[0.0, 0.0]]),
                                         atoms([[3.0, 4.0]]), p=1), 5.0)

    def test_identical(self):
        mu = atoms([[0.0, 1.0], [2.0, 2.0]])
        assert brute_force_wp(mu, mu, p=2) == 0.0

    def test_rejects_large(self):
        mu = atoms(np.random.default_rng(0).random((9, 2)))
        with pytest.raises(ValueError):
            brute_force_wp(mu, mu)

    def test_beats_every_permutation(self):
        rng = np.random.default_rng(1)
        mu = atoms(rng.random((5, 2)))
        nu = atoms(rng.random((5, 2)))
        best = brute_force_wp(mu, nu, p=1)
        # any particular matching is only an upper bound
        ident = np.mean(np.linalg.norm(mu.positions - nu.positions, axis=1))
        assert best <= ident + 1e-12


class TestSqrtFieldSolution:
    def test_initial_time_is_uniform_quantile(self):
        for q in (0.1, 0.5, 0.9):
            assert np.isclose(sqrt_field_solution(0.0, q), 2 * q - 1)

    def test_right_endpoint(self):
        # the image of x0 = 1 at t = 1 sits at (1/2 + 1)^2
        assert np.isclose(sqrt_field_solution(1.0, 1.0 - 1e-12), 2.25)

    def test_median_of_positive_part(self):
        t = 0.7
        q = 0.75  # x0 = 0.5
        assert np.isclose(sqrt_field_solution(t, q),
                          (np.sqrt(0.5) + t / 2) ** 2)

    def test_negative_part_stays(self):
        assert sqrt_field_solution(2.0, 0.25) == -0.5

    def test_monotone_in_q(self):
        qs = np.linspace(0.01, 0.99, 37)
        vals = [sqrt_field_solution(0.8, q) for q in qs]
        assert np.all(np.diff(vals) >= 0)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            sqrt_field_solution(1.0, 0.0)
        with pytest.raises(ValueError):
            sqrt_field_solution(1.0, 1.0)


class TestTwoBump:
    def test_value(self):
        assert np.isclose(two_bump_quantile_w1(), 0.5)

    def test_matches_direct_quantile_integral(self):
        # midpoint-quantile atoms of both laws, fed to an independent sum
        n = 200_000
        q = (np.arange(n) + 0.5) / n
        two = np.where(q < 0.5, -1 + 2 * q, 2 * q)
        one = 2 * q - 1
        assert abs(np.mean(np.abs(two - one)) - two_bump_quantile_w1()) < 1e-5


def test_oracle_module_is_independent():
    # the oracles import numpy and the standard library only, nothing of the
    # package they check
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level
            imported.add(node.module)
    assert imported
    assert {name.split(".")[0] for name in imported} <= (
        {"numpy"} | set(sys.stdlib_module_names))
