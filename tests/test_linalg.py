"""Perron solver, the refined float solve and exact rational elimination."""

import random
from fractions import Fraction as F
from math import isqrt

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from feedback_centrality import (
    ConvergenceError,
    DomainError,
    Family,
    GeneratorSpec,
    Graph,
    Mode,
    SingularMatrixError,
    adjacency_matrix,
    generate,
    pagerank,
    principal_eigenvalue,
    strongly_connected_components,
)
from feedback_centrality import linalg
from feedback_centrality.linalg import (
    DENSE_EIG_LIMIT,
    DIXON_MAX_N,
    DIXON_MIN_N,
    DIXON_PRIMES,
    gauss_rational,
    perron_triple,
    solve_refined,
)
from .oracles import dominant_eig, fraction_gauss, stepwise_power_vector


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


def float_large_shaped(rng, n, density):
    """A random Hamiltonian cycle plus either each other edge with
    probability 0.2 or 7 random out-edges per node, weights in [0.25, 3]."""
    perm = rng.permutation(n)
    if density == "dense":
        mask = rng.random((n, n)) < 0.2
    else:
        mask = np.zeros((n, n), dtype=bool)
        for u in range(n):
            mask[u, rng.choice(n, size=7, replace=False)] = True
    mask[perm, np.roll(perm, -1)] = True
    src, dst = np.nonzero(mask)
    a = np.zeros((n, n))
    a[dst, src] = np.round(rng.uniform(0.25, 3.0, len(src)), 4)
    return a


def weighted_cycle(rng, n):
    """A cycle with unequal weights: shifted power iteration converges slowly."""
    a = np.zeros((n, n))
    a[np.roll(np.arange(n), -1), np.arange(n)] = rng.uniform(0.5, 2.0, n)
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

    def test_small_path_is_accurate_on_the_generated_corpora(self):
        # every component of more than one node that the axiom generator
        # draws (3 to 25 nodes): relative residuals on both sides, and entries
        # against the oracle's dense eigendecomposition
        checked = 0
        for family in Family:
            for seed in range(40):
                g = generate(GeneratorSpec(family, seed=seed))
                for comp in strongly_connected_components(g).components:
                    if len(comp) == 1:
                        continue
                    a = adjacency_matrix(g, comp)
                    x, y, lam = perron_triple(a)
                    xo, yo, _lamo = dominant_eig(a)
                    for m, v, vo in ((a, x, xo), (a.T, y, yo)):
                        assert np.abs(m @ v - lam * v).max() <= 1e-13 * lam * v.max()
                        np.testing.assert_allclose(v, vo, rtol=1e-10, atol=0)
                    checked += 1
        assert checked > 250

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


_BLOCKED_CASES = {
    **{
        f"{n}-{density}": (float_large_shaped, n, density)
        for n, density in (
            (DENSE_EIG_LIMIT + 1, "dense"), (DENSE_EIG_LIMIT + 1, "sparse"), (50, "dense"),
            (50, "sparse"), (200, "dense"), (200, "sparse"), (500, "sparse"),
        )
    },
    **{f"cycle-{n}": (weighted_cycle, n) for n in (DENSE_EIG_LIMIT + 1, 48, 64)},
}


class TestBlockedPowerIteration:
    """The power path, which normalizes and tests once per POWER_BLOCK
    steps, against power iteration tested after every step and against
    dense eig."""

    @pytest.mark.parametrize("case", [*_BLOCKED_CASES, "cycle-1e308"])
    def test_agrees_with_stepwise_iteration_and_dense_eig(self, case):
        if case == "cycle-1e308":  # runs on A/max(A)
            a = cycle(DENSE_EIG_LIMIT + 1, 1e308)
        else:
            make, *args = _BLOCKED_CASES[case]
            a = make(np.random.default_rng([*_BLOCKED_CASES].index(case)), *args)
        x, y, lam = perron_triple(a)
        scale = a.max()
        b = a / scale
        xs, change_x = stepwise_power_vector(
            b, b.sum(axis=0).max(), linalg.POWER_TOL, linalg.POWER_MAX_ITER
        )
        ys, change_y = stepwise_power_vector(
            b.T, b.sum(axis=1).max(), linalg.POWER_TOL, linalg.POWER_MAX_ITER
        )
        assert max(change_x, change_y) <= linalg.POWER_TOL
        xo, yo, lamo = dominant_eig(b)
        for vx, vy, vlam in ((xs, ys, float(ys @ (b @ xs)) / float(ys @ xs)), (xo, yo, lamo)):
            np.testing.assert_allclose(x, vx, rtol=0, atol=1e-10)
            np.testing.assert_allclose(y, vy, rtol=0, atol=1e-10)
            assert lam == pytest.approx(scale * vlam, rel=1e-12)
        # one more step on B = (A + sI)/(2s) barely moves either vector.  The
        # stopping test bounds the change of the last step only; on a cycle
        # the subdominant modes rotate, so the next change can be a little
        # larger (1.1 * POWER_TOL on 64-node cycles, stepwise or blocked)
        for m, v in ((b, x), (b.T, y)):
            shift = m.sum(axis=0).max()
            step = (m + shift * np.eye(len(m))) / (2 * shift) @ v
            step /= step.sum()
            assert np.abs(step - v).max() <= 2 * linalg.POWER_TOL * step.max()

    @pytest.mark.parametrize("cap", [3, 13])
    def test_stops_after_exactly_the_step_cap(self, cap, monkeypatch):
        # neither cap is a multiple of POWER_BLOCK; the change reported is
        # that of step cap, not of the end of its block
        assert cap % linalg.POWER_BLOCK
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", cap)
        n = DENSE_EIG_LIMIT + 1
        a = cycle(n) + np.diag(np.arange(n, dtype=float))
        with pytest.raises(ConvergenceError) as exc:
            perron_triple(a)
        shift = a.sum(axis=0).max()
        change = {k: stepwise_power_vector(a, shift, 0.0, k)[1] for k in (cap - 1, cap, cap + 1)}
        assert exc.value.residual == pytest.approx(change[cap], rel=1e-9)
        assert exc.value.residual != pytest.approx(change[cap - 1], rel=1e-3)
        assert exc.value.residual != pytest.approx(change[cap + 1], rel=1e-3)
        shown = f"{exc.value.residual:.3e}"
        assert str(exc.value) == (
            f"power iteration stalled after {cap} steps (achieved relative change {shown})"
        )


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


@st.composite
def crossover_systems(draw):
    """Square rational systems with DIXON_MIN_N - 2 .. DIXON_MIN_N + 8
    unknowns, drawn from a seed: sparse ones shaped like I - alpha M (ones on
    the diagonal), half-full and full ones, and sometimes a row that is a
    combination of two others."""
    n = draw(st.integers(DIXON_MIN_N - 2, DIXON_MIN_N + 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))

    def cell():
        return F(rng.randint(-9, 9), rng.randint(1, 12))

    a = [[cell() if rng.random() < density else F(0) for _ in range(n)] for _ in range(n)]
    if density < 0.5:
        for i in range(n):
            a[i][i] = F(1)
    if draw(st.integers(0, 3)) == 0:
        i, j, k = rng.sample(range(n), 3)
        s, t = cell(), cell()
        a[k] = [s * u + t * v for u, v in zip(a[i], a[j])]
    return a, [cell() for _ in range(n)]


def dense_system(n, seed):
    """A full rational system with a dominant diagonal, hence nonsingular."""
    rng = random.Random(seed)
    a = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] += 9 * n
    return a, [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]


def solve_or_refusal(solve, a, b):
    """The solution, or the text of the ``SingularMatrixError`` refusing it."""
    try:
        return solve(a, b)
    except SingularMatrixError as exc:
        return str(exc)


#: (entry type, right-hand side, solution) for each entry type the solver
#: accepts
ENTRY_TYPES = (
    (int, 5, F(5)),
    (F, F(5, 7), F(5, 7)),
    (float, 0.1, F(0.1)),
    (str, "5/7", F(5, 7)),
)


def refuse_bareiss(m):
    raise AssertionError("Bareiss elimination ran")


def refuse_dixon(m):
    raise AssertionError("p-adic lifting ran")


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
        for entry, b, x in ENTRY_TYPES:
            a = [[entry(0), entry(1)], [entry(1), entry(0)]]
            assert gauss_rational(a, [entry(3), b]) == [x, F(3)]

    def test_entry_types_past_the_crossover(self):
        # the anti-diagonal matrix has a zero leading entry in every column
        # but the last
        n = DIXON_MIN_N + 1
        for entry, b, x in ENTRY_TYPES:
            a = [[entry(int(i + j == n - 1)) for j in range(n)] for i in range(n)]
            assert gauss_rational(a, [entry(3)] * (n - 1) + [b]) == [x] + [F(3)] * (n - 1)

    def test_singular_raises(self):
        for entry in (int, F, float, str):
            a = [[entry(1), entry(2)], [entry(2), entry(4)]]
            with pytest.raises(SingularMatrixError):
                gauss_rational(a, [entry(1), entry(1)])

    def test_singular_past_the_crossover_raises(self):
        # the second row is twice the first; the rest is the identity
        n = DIXON_MIN_N + 1
        for entry in (int, F, float, str):
            a = [[entry(int(i == j)) for j in range(n)] for i in range(n)]
            a[0][1], a[1][0], a[1][1] = entry(2), entry(2), entry(4)
            with pytest.raises(SingularMatrixError, match="^no pivot in column 1$"):
                gauss_rational(a, [entry(1)] * n)

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

    @given(crossover_systems())
    @settings(max_examples=8, deadline=None)
    def test_matches_fraction_elimination_across_the_crossover(self, system):
        # the oracle, and the Bareiss path the same system takes when the
        # lifting threshold lies above it
        a, b = system
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "DIXON_MIN_N", len(a) + 1)
            bareiss = solve_or_refusal(gauss_rational, a, b)
        got = solve_or_refusal(gauss_rational, a, b)
        assert got == solve_or_refusal(fraction_gauss, a, b)
        assert got == bareiss

    def test_rank_deficient_system_past_the_crossover_names_the_oracles_column(self):
        a, b = dense_system(DIXON_MIN_N + 4, seed=5)
        a[-3] = [2 * u - F(1, 3) * v for u, v in zip(a[1], a[4])]
        refusal = solve_or_refusal(fraction_gauss, a, b)
        assert refusal.startswith("no pivot in column ")
        assert solve_or_refusal(gauss_rational, a, b) == refusal

    def test_unlucky_first_prime_is_still_exact(self, monkeypatch):
        # A = L U with L unit lower triangular and U upper triangular with
        # diagonal (p, 1, ..., 1), so det A = p: singular modulo the first
        # prime only, and lifting must answer through the second
        n, p = DIXON_MIN_N + 2, DIXON_PRIMES[0]
        rng = random.Random(7)
        lower = [[rng.randint(-3, 3) if j < i else int(i == j) for j in range(n)]
                 for i in range(n)]
        upper = [[rng.randint(-3, 3) if j > i else int(i == j) for j in range(n)]
                 for i in range(n)]
        upper[0][0] = p
        a = [[F(sum(lower[i][k] * upper[k][j] for k in range(n))) for j in range(n)]
             for i in range(n)]
        b = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        monkeypatch.setattr(linalg, "_bareiss", refuse_bareiss)
        assert gauss_rational(a, b) == fraction_gauss(a, b)

    def test_dixon_primes_keep_int64_arithmetic_exact(self):
        for p in DIXON_PRIMES:
            assert 2 < p < 2**26
            assert all(p % d for d in range(2, isqrt(p) + 1)), p
        p = max(DIXON_PRIMES)
        assert DIXON_MAX_N * p * p < 2**63 <= (DIXON_MAX_N + 1) * p * p
        assert DIXON_MIN_N <= DIXON_MAX_N

    def test_system_past_the_size_limit_takes_bareiss(self, monkeypatch):
        a, b = dense_system(DIXON_MIN_N + 1, seed=2)
        monkeypatch.setattr(linalg, "DIXON_MAX_N", DIXON_MIN_N)
        monkeypatch.setattr(linalg, "_dixon", refuse_dixon)
        assert gauss_rational(a, b) == fraction_gauss(a, b)

    def test_lifting_without_a_verified_answer_falls_back_to_bareiss(self, monkeypatch):
        # no reconstruction is ever accepted, so lifting runs to the
        # Hadamard bound and gives up
        a, b = dense_system(DIXON_MIN_N + 1, seed=3)
        monkeypatch.setattr(linalg, "_common_denominator", lambda x, modulus: None)
        assert gauss_rational(a, b) == fraction_gauss(a, b)

    def test_int64_wraparound_cannot_escape(self, monkeypatch):
        # with p near 2**31 a digit C r mod p sums products near 2**62 and
        # wraps in int64; the exact check refuses every wrong candidate
        a, b = dense_system(DIXON_MIN_N + 1, seed=4)
        calls = []
        bareiss = linalg._bareiss
        monkeypatch.setattr(linalg, "DIXON_PRIMES", (2**31 - 1,))
        monkeypatch.setattr(linalg, "_bareiss", lambda m: calls.append(1) or bareiss(m))
        assert gauss_rational(a, b) == fraction_gauss(a, b)
        assert calls == [1]


class TestRarelyReachedPaths:
    """Guards that no other test runs, each reached through a public entry."""

    def test_stalled_power_iteration_reports_its_change(self, monkeypatch):
        # a cycle one node past DENSE_EIG_LIMIT; unequal weights make its
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
    def test_power_iteration_beyond_half_the_float_range_runs_on_a_rescaled_matrix(self):
        # an iterate of A + sI sums to up to 2s; a shift whose double
        # overflows ran all POWER_MAX_ITER steps on nan with warnings, and
        # was then refused as beyond half the float range
        n = DENSE_EIG_LIMIT + 1
        x, y, lam = perron_triple(cycle(n, 1e308))
        assert lam == 1e308
        assert np.array_equal(x, np.full(n, 1 / n)) and np.array_equal(y, x)
        # the chord v0 -> v5 makes the shift infinite, yet the Perron value
        # 1.0226 * 1.7e308 is a float
        a = cycle(n, 1.7e308)
        a[5, 0] = 1.7e308
        lam = perron_triple(a)[2]
        assert lam == pytest.approx(1.7e308 * max(abs(np.linalg.eigvals(a / 1.7e308))), rel=1e-12)
        # a loop at v0 instead: 1.0815 * 1.7e308 is not
        a[5, 0], a[0, 0] = 0.0, 1.7e308
        with pytest.raises(ConvergenceError, match="^Perron eigenvalue is not finite: inf$"):
            perron_triple(a)

    def test_float_solve_past_the_dense_limit_is_a_domain_error(self):
        n = linalg.DENSE_SOLVE_LIMIT + 1
        g = Graph.build([(f"v{i}", 1.0) for i in range(n)], (), Mode.FLOAT)
        with pytest.raises(DomainError, match=f"limited to {n - 1} unknowns, got {n}"):
            pagerank(g, 0.5)
