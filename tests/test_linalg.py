"""Perron solver and the two Gaussian-elimination paths."""

from fractions import Fraction as F

import numpy as np
import pytest

from feedback_centrality import ConvergenceError, DomainError, SingularMatrixError
from feedback_centrality import linalg
from feedback_centrality.linalg import (
    DENSE_EIG_LIMIT,
    gauss_rational,
    perron_triple,
    perron_value,
    solve_refined,
)
from .oracles import dominant_eig


def random_irreducible(rng, n):
    """Non-negative matrix with a full covering cycle, hence irreducible."""
    a = np.where(rng.random((n, n)) < 0.4, rng.uniform(0.2, 3.0, (n, n)), 0.0)
    for i in range(n):
        a[(i + 1) % n, i] = rng.uniform(0.2, 3.0)
    return a


def cycle(n, w=2.0):
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = w
    return a


def power_triple(a, monkeypatch):
    """perron_triple forced onto shifted power iteration at any size."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "DENSE_EIG_LIMIT", 0)
        return perron_triple(a)


class TestPerron:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    def test_matches_dense_eig(self, seed, n):
        rng = np.random.default_rng(seed)
        a = random_irreducible(rng, n)
        x, y, lam = perron_triple(a)
        xo, yo, lamo = dominant_eig(a)
        assert lam == pytest.approx(lamo, rel=1e-10)
        np.testing.assert_allclose(x, xo, atol=1e-8)
        np.testing.assert_allclose(y, yo, atol=1e-8)

    def test_residuals_are_tiny(self):
        rng = np.random.default_rng(99)
        a = random_irreducible(rng, 9)
        x, y, lam = perron_triple(a)
        assert np.max(np.abs(a @ x - lam * x)) < 1e-9
        assert np.max(np.abs(a.T @ y - lam * y)) < 1e-9

    @pytest.mark.parametrize("n", [DENSE_EIG_LIMIT + 1, 40, 64])
    def test_power_path_matches_dense_eig(self, n):
        rng = np.random.default_rng(n)
        a = random_irreducible(rng, n)
        x, y, lam = perron_triple(a)
        xo, yo, lamo = dominant_eig(a)
        assert lam == pytest.approx(lamo, rel=1e-10)
        np.testing.assert_allclose(x, xo, atol=1e-8)
        np.testing.assert_allclose(y, yo, atol=1e-8)

    @pytest.mark.parametrize("n", range(1, DENSE_EIG_LIMIT + 1))
    def test_eig_path_agrees_with_power_iteration(self, n, monkeypatch):
        rng = np.random.default_rng(100 + n)
        for a in (random_irreducible(rng, n), cycle(n)):
            x, y, lam = perron_triple(a)
            xp, yp, lamp = power_triple(a, monkeypatch)
            assert lam == pytest.approx(lamp, rel=1e-10)
            np.testing.assert_allclose(x, xp, atol=1e-8)
            np.testing.assert_allclose(y, yp, atol=1e-8)

    def test_periodic_matrix_converges(self):
        # a pure cycle has several eigenvalues on the spectral circle; the
        # solver must still separate the Perron one, by largest real part on
        # the eig path and by the diagonal shift on the power path
        for n in (10, DENSE_EIG_LIMIT + 8):
            x, y, lam = perron_triple(cycle(n))
            assert lam == pytest.approx(2.0, rel=1e-10)
            np.testing.assert_allclose(x, np.full(n, 1 / n), atol=1e-9)

    def test_badly_scaled_two_cycle(self):
        # lambda = sqrt(1e-20 * 1e20) = 1; shifted power iteration needs far
        # more than its step cap here, one dense eigensolve does not
        x, y, lam = perron_triple(np.array([[0.0, 1e20], [1e-20, 0.0]]))
        assert lam == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(x, [1.0, 1e-20], rtol=1e-12)
        np.testing.assert_allclose(y, [1e-20, 1.0], rtol=1e-12)

    def test_underflowing_two_cycle_raises(self):
        # lambda = 1 again, but dense eig loses the 1e-300 * 1e300 product
        # and returns a Perron vector with a zero entry
        with pytest.raises(ConvergenceError, match="zero or non-finite"):
            perron_triple(np.array([[0.0, 1e300], [1e-300, 0.0]]))

    def test_zero_matrix(self):
        x, y, lam = perron_triple(np.zeros((3, 3)))
        assert lam == 0.0
        np.testing.assert_allclose(x, np.full(3, 1 / 3))

    def test_rejects_negative_and_nonsquare(self):
        with pytest.raises(DomainError):
            perron_triple(np.array([[-1.0]]))
        with pytest.raises(DomainError):
            perron_triple(np.zeros((2, 3)))

    def test_perron_value_shortcut(self):
        a = np.array([[0.0, 1.0], [4.0, 0.0]])
        assert perron_value(a) == pytest.approx(2.0, rel=1e-10)


class TestSolveRefined:
    @pytest.mark.parametrize("seed", range(8))
    def test_solves_well_conditioned_systems(self, seed):
        rng = np.random.default_rng(seed)
        n = 10
        a = rng.uniform(-1, 1, (n, n)) + n * np.eye(n)
        x_true = rng.uniform(-2, 2, n)
        x = solve_refined(a, a @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-12)

    def test_refinement_beats_raw_residual(self):
        rng = np.random.default_rng(5)
        n = 40
        a = rng.uniform(0, 1, (n, n)) + 0.1 * np.eye(n)
        b = rng.uniform(0, 1, n)
        x = solve_refined(a, b)
        assert np.max(np.abs(a @ x - b)) < 1e-10

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_refined(a, np.ones(2))


class TestGaussRational:
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_solutions(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        a = [[F(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            a[i][i] += F(7)  # keep it nonsingular
        x_true = [F(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n)]
        b = [sum(a[i][j] * x_true[j] for j in range(n)) for i in range(n)]
        x = gauss_rational(a, b)
        assert x == x_true

    def test_pivoting_handles_zero_leading_entry(self):
        a = [[F(0), F(1)], [F(1), F(0)]]
        assert gauss_rational(a, [F(3), F(5)]) == [F(5), F(3)]

    def test_singular_raises(self):
        a = [[F(1), F(2)], [F(2), F(4)]]
        with pytest.raises(SingularMatrixError):
            gauss_rational(a, [F(1), F(1)])

    def test_agrees_with_float_solver(self):
        rng = np.random.default_rng(3)
        n = 5
        a = [[F(int(rng.integers(1, 9)), int(rng.integers(1, 3))) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            a[i][i] += F(11)
        b = [F(int(rng.integers(-5, 6))) for _ in range(n)]
        exact = gauss_rational(a, b)
        approx = solve_refined(
            np.array([[float(v) for v in row] for row in a]),
            np.array([float(v) for v in b]),
        )
        np.testing.assert_allclose([float(v) for v in exact], approx, rtol=1e-12)
