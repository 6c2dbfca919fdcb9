"""Perron solver, the refined float solve and exact rational elimination."""

import re
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from feedback_centrality import (
    ConvergenceError,
    DomainError,
    Graph,
    Mode,
    SingularMatrixError,
    pagerank,
    principal_eigenvalue,
)
from feedback_centrality import linalg
from feedback_centrality.linalg import (
    DENSE_EIG_LIMIT,
    gauss_rational,
    perron_triple,
    solve_refined,
)
from .oracles import dominant_eig, fraction_gauss


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


@st.composite
def rational_systems(draw):
    """Square rational systems with n = 1..12: negative entries, zeros (so
    leading pivots are often zero and force row swaps), some rows
    integer-only, and sometimes a row that is a combination of two others."""
    n = draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-9, 9), min_size=n * n + n, max_size=n * n + n))
    dens = draw(st.lists(st.integers(1, 12), min_size=n * n + n, max_size=n * n + n))
    integer_rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cells = [F(p, q) for p, q in zip(nums, dens)]
    a = [
        [F(p.numerator) if integer_rows[i] else p for p in cells[i * n : i * n + n]]
        for i in range(n)
    ]
    if n >= 3 and draw(st.integers(0, 3)) == 0:
        i, j, k = draw(st.permutations(range(n)))[:3]
        s, t = cells[n * n], cells[n * n + 1]
        a[k] = [s * u + t * v for u, v in zip(a[i], a[j])]
    return a, cells[n * n :]


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
        # every entry type the solver accepts; a float converts exactly
        for entry, b, x in (
            (int, 5, F(5)),
            (F, F(5, 7), F(5, 7)),
            (float, 0.1, F(0.1)),
            (str, "5/7", F(5, 7)),
        ):
            a = [[entry(0), entry(1)], [entry(1), entry(0)]]
            assert gauss_rational(a, [entry(3), b]) == [x, F(3)]

    def test_singular_raises(self):
        for entry in (int, F, float, str):
            a = [[entry(1), entry(2)], [entry(2), entry(4)]]
            with pytest.raises(SingularMatrixError):
                gauss_rational(a, [entry(1), entry(1)])

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[F(1), F(2)]], [F(1)]),
            ([[F(1), F(2)], [F(3)]], [F(1), F(1)]),
            ([[F(1), F(0)], [F(0), F(1)]], [F(1)]),
        ],
        ids=["not-square", "ragged", "short-rhs"],
    )
    def test_mismatched_dimensions_raise(self, a, b):
        with pytest.raises(DomainError, match="dimensions"):
            gauss_rational(a, b)

    @given(rational_systems())
    @settings(max_examples=150, deadline=None)
    @example(([[F(0), F(2)], [F(-3, 2), F(1)]], [F(1), F(-1)]))  # zero leading pivot
    @example(([[F(0), F(0), F(1)], [F(0), F(1), F(1)], [F(1), F(1), F(1)]],
              [F(1), F(2), F(3)]))  # a swap in every column
    @example(([[F(2), F(-4)], [F(-1), F(2)]], [F(1), F(1)]))  # rank-deficient
    @example(([[F(3), F(5)], [F(7), F(-2)]], [F(4), F(0)]))  # integer rows
    def test_matches_fraction_elimination(self, system):
        a, b = system
        try:
            expected = fraction_gauss(a, b)
        except SingularMatrixError as exc:
            with pytest.raises(SingularMatrixError, match=str(exc)):
                gauss_rational(a, b)
            return
        assert gauss_rational(a, b) == expected

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


class TestRarelyReachedPaths:
    """Guards that no other test runs, each reached through a public entry."""

    def test_stalled_power_iteration_reports_its_change(self, monkeypatch):
        # a 33-node cycle is past DENSE_EIG_LIMIT; unequal weights make its
        # Perron vector non-uniform, so three steps cannot converge
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", 3)
        n = DENSE_EIG_LIMIT + 1
        g = Graph.build(
            [(f"v{i}", 1.0) for i in range(n)],
            [(f"v{i}", f"v{(i + 1) % n}", float(i + 1)) for i in range(n)],
            Mode.FLOAT,
        )
        with pytest.raises(ConvergenceError, match="after 3 steps") as exc:
            principal_eigenvalue(g)
        assert exc.value.residual > 0
        assert f"(achieved relative change {exc.value.residual:.3e})" in str(exc.value)

    def test_stalled_power_iteration_states_its_change_once(self, monkeypatch):
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", 3)
        n = DENSE_EIG_LIMIT + 1
        with pytest.raises(ConvergenceError) as exc:
            perron_triple(cycle(n) + np.diag(np.arange(n, dtype=float)))
        change = f"{exc.value.residual:.3e}"
        assert str(exc.value).count(change) == 1
        assert str(exc.value) == (
            f"power iteration stalled after 3 steps (achieved relative change {change})"
        )

    @pytest.mark.filterwarnings("error")
    def test_perron_value_beyond_float_range_is_refused_without_a_warning(self):
        # the column sums and the Rayleigh quotient overflowed with two warnings
        a = np.array([[1.7e308, 1.7e308], [1.7e308, 0.0]])
        with pytest.raises(ConvergenceError, match="^Perron eigenvalue is not finite: inf$"):
            perron_triple(a)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "weight,chord,shift", [(1.7e308, True, "inf"), (1e308, False, "1.000e+308")]
    )
    def test_power_shift_beyond_half_the_float_range_is_refused(self, weight, chord, shift):
        # an iterate of A + sI sums to up to 2s; an infinite shift (a chord
        # doubles a column sum) or one whose double overflows ran all
        # POWER_MAX_ITER steps on nan, with warnings
        a = cycle(DENSE_EIG_LIMIT + 1, weight)
        a[5, 0] = weight if chord else 0.0
        message = f"power iteration shift {shift} exceeds half the float range"
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            perron_triple(a)

    def test_float_solve_past_the_dense_limit_is_a_domain_error(self):
        n = linalg.DENSE_SOLVE_LIMIT + 1
        g = Graph.build([(f"v{i}", 1.0) for i in range(n)], (), Mode.FLOAT)
        with pytest.raises(DomainError, match=f"limited to {n - 1} unknowns, got {n}"):
            pagerank(g, 0.5)
