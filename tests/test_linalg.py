"""Perron solver, the refined float solve and exact rational elimination."""

import itertools
import random
import tracemalloc
import weakref
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
    GraphFormatError,
    Mode,
    SingularMatrixError,
    adjacency_matrix,
    generate,
    pagerank,
    principal_eigenvalue,
    spectral_data,
    strongly_connected_components,
)
from feedback_centrality import graph, linalg
from feedback_centrality.graph import delete_edge, in_flow
from feedback_centrality.linalg import (
    DENSE_EIG_LIMIT,
    DIXON_MAX_N,
    DIXON_MIN_N,
    DIXON_PRIMES,
    edge_power_route,
    gauss_rational,
    perron_triple,
    solve_refined,
)
from .oracles import dominant_eig, fraction_gauss, stepwise_power_vector
from .strategies import HARD_SPECTRA, float_large_shaped, random_irreducible, weighted_cycle


def cycle(n, w=2.0):
    a = np.zeros((n, n))
    for i in range(n):
        a[(i + 1) % n, i] = w
    return a


def power_shift(a):
    """The power path's shift: the mean column sum."""
    return a.sum() / len(a)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [5e-310, 1e-320])
    @pytest.mark.parametrize("n", [2, 3, 30, DENSE_EIG_LIMIT + 1, 50])
    def test_cycle_of_subnormal_weight(self, n, w):
        # up to DENSE_EIG_LIMIT the eigensolve on the subnormal matrix gave a
        # Perron vector with a zero entry; past it the Rayleigh quotient's
        # products, about w/n**2, underflowed and put lambda 17% (41 nodes)
        # and 24% (50 nodes) off w at 1e-320
        x, y, lam = perron_triple(cycle(n, w))
        assert lam == w
        np.testing.assert_allclose(x, np.full(n, 1 / n), rtol=1e-12)
        np.testing.assert_allclose(y, np.full(n, 1 / n), rtol=1e-12)

    @pytest.mark.parametrize("n", [7, DENSE_EIG_LIMIT + 5])
    def test_matrix_of_tiny_entries_runs_on_a_rescaled_matrix(self, n):
        # its largest entry lies below n**2 times the smallest normal float,
        # so it runs on A/max(A), as does the matrix times 2**1070 in the
        # same bits, and both give the same Perron data up to that factor
        tiny = np.ldexp(random_irreducible(np.random.default_rng(n), n), -1070)
        x, y, lam = perron_triple(tiny)
        xl, yl, laml = perron_triple(np.ldexp(tiny, 1070))
        np.testing.assert_allclose(x, xl, rtol=1e-12)
        np.testing.assert_allclose(y, yl, rtol=1e-12)
        assert lam == pytest.approx(np.ldexp(laml, -1070), rel=1e-12)

    def test_zero_matrix(self):
        x, y, lam = perron_triple(np.zeros((3, 3)))
        assert lam == 0.0
        np.testing.assert_allclose(x, np.full(3, 1 / 3))

    def test_rejects_negative_and_nonsquare(self):
        with pytest.raises(DomainError):
            perron_triple(np.array([[-1.0]]))
        with pytest.raises(DomainError):
            perron_triple(np.zeros((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "bad, text", [(np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "negative")]
    )
    @pytest.mark.parametrize("n", [2, DENSE_EIG_LIMIT + 1])
    def test_non_finite_entry_is_refused_at_once(self, n, bad, text, monkeypatch):
        # the 41-node matrix with nan ran all POWER_MAX_ITER steps and stalled,
        # the 2-node one failed in the dense eigensolve
        def ran(*_args):
            raise AssertionError("a Perron path ran")

        monkeypatch.setattr(linalg, "_bordered_vectors", ran)
        monkeypatch.setattr(linalg, "_power_vector", ran)
        a = cycle(n)
        a[1, 1] = bad
        with pytest.raises(DomainError, match=f"^matrix has {text} entries$"):
            perron_triple(a)

    def test_double_top_eigenvalue_makes_the_bordered_system_singular(self):
        with pytest.raises(ConvergenceError, match="^dense eigensolve failed: Singular matrix$"):
            perron_triple(np.eye(2))


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
        sigma = power_shift(b)
        xs, change_x = stepwise_power_vector(b, sigma, linalg.POWER_TOL, linalg.POWER_MAX_ITER)
        ys, change_y = stepwise_power_vector(b.T, sigma, linalg.POWER_TOL, linalg.POWER_MAX_ITER)
        assert max(change_x, change_y) <= linalg.POWER_TOL
        xo, yo, lamo = dominant_eig(b)
        for vx, vy, vlam in ((xs, ys, float(ys @ (b @ xs)) / float(ys @ xs)), (xo, yo, lamo)):
            np.testing.assert_allclose(x, vx, rtol=0, atol=1e-10)
            np.testing.assert_allclose(y, vy, rtol=0, atol=1e-10)
            assert lam == pytest.approx(scale * vlam, rel=1e-12)
        # one more step on A + sigma*I barely moves either vector.  The
        # stopping test bounds the change of the last step only; on a cycle
        # the subdominant modes rotate, so the next change can be a little
        # larger (1.1 * POWER_TOL on 64-node cycles, stepwise or blocked)
        for m, v in ((b, x), (b.T, y)):
            step = m @ v + sigma * v
            step /= step.sum()
            assert np.abs(step - v).max() <= 2 * linalg.POWER_TOL * step.max()

    @pytest.mark.parametrize("case", [c for c in _BLOCKED_CASES if not c.startswith("cycle")])
    def test_float_large_shapes_converge_within_72_steps(self, case, monkeypatch):
        # each vector takes 48-72 steps; with the largest column sum as shift
        # it took 56-136, more than 72 on six of these seven
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", 72)
        make, *args = _BLOCKED_CASES[case]
        a = make(np.random.default_rng([*_BLOCKED_CASES].index(case)), *args)
        x, y, lam = perron_triple(a)
        xo, yo, lamo = dominant_eig(a)
        np.testing.assert_allclose(x, xo, rtol=0, atol=1e-10)
        np.testing.assert_allclose(y, yo, rtol=0, atol=1e-10)
        assert lam == pytest.approx(lamo, rel=1e-12)

    def test_out_hub_converges_within_512_steps(self, monkeypatch):
        # one node's out-edges weigh 10**4 times the rest: its column sum, the
        # old shift, sits far above lambda, which took 17 776 and 4864 steps
        # for the two vectors and left the right one 1.0e-9 off
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", 512)
        a = float_large_shaped(np.random.default_rng(60), 60, "sparse")
        a[:, 0] *= 1e4
        x, y, lam = perron_triple(a)
        xo, yo, lamo = dominant_eig(a)
        for v, vo in ((x, xo), (y, yo)):
            assert np.abs(v - vo).max() <= 1e-10 * vo.max()
        assert lam == pytest.approx(lamo, rel=1e-12)

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
        change = {
            k: stepwise_power_vector(a, power_shift(a), 0.0, k)[1] for k in (cap - 1, cap, cap + 1)
        }
        assert exc.value.residual == pytest.approx(change[cap], rel=1e-9)
        assert exc.value.residual != pytest.approx(change[cap - 1], rel=1e-3)
        assert exc.value.residual != pytest.approx(change[cap + 1], rel=1e-3)
        shown = f"{exc.value.residual:.3e}"
        assert str(exc.value) == (
            f"power iteration stalled after {cap} steps (achieved relative change {shown})"
        )


def graph_of(a, rng, mode=Mode.FLOAT):
    """The graph with adjacency a (a[i, j] the weight of v<j> -> v<i>), its
    nodes and edges listed in a random order, so that Tarjan's component
    order is not node order."""
    dst, src = np.nonzero(a)
    edges = [(f"v{j}", f"v{i}", mode_weight(a[i, j], mode)) for i, j in zip(dst, src)]
    return Graph.build(
        [(f"v{i}", mode_weight(1.0, mode)) for i in rng.permutation(len(a))],
        [edges[k] for k in rng.permutation(len(edges))],
        mode,
    )


def mode_weight(w, mode):
    return float(w) if mode is Mode.FLOAT else F(float(w))


def routed_pass(g, monkeypatch, edges):
    """The spectral pass of g with every component past DENSE_EIG_LIMIT on
    the edge route (``edges``) or on the dense one."""
    with monkeypatch.context() as m:
        m.setattr(linalg, "edge_power_route", lambda n, _m: edges and n > DENSE_EIG_LIMIT)
        return graph._perron_pass(g)


def assert_routes_agree(g, monkeypatch, eig_atol=1e-10):
    """Both routes give every component the same Perron data to rounding,
    and both match dense eig within ``eig_atol`` times the largest entry."""
    edge, dense = routed_pass(g, monkeypatch, True), routed_pass(g, monkeypatch, False)
    assert edge.components == dense.components
    for k, comp in enumerate(edge.components):
        xo, yo, lamo = dominant_eig(adjacency_matrix(g, comp))
        for v, vd, vo in (
            (edge.right_vectors[k], dense.right_vectors[k], xo),
            (edge.left_vectors[k], dense.left_vectors[k], yo),
        ):
            assert np.abs(v - vd).max() <= 1e-14 * vd.max()
            assert np.abs(v - vo).max() <= eig_atol * vo.max()
        assert edge.values[k] == pytest.approx(dense.values[k], rel=1e-14)
        assert edge.values[k] == pytest.approx(lamo, rel=1e-12)
    return edge


#: the fewest nodes of an edge-route ring
RING_N = next(n for n in itertools.count(DENSE_EIG_LIMIT + 1) if edge_power_route(n, n))


class TestEdgeRoute:
    """Power iteration on a component's edge list, against the dense route
    and dense eig."""

    @pytest.mark.parametrize("n", [300, 500])
    def test_float_large_shaped_component(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        a = float_large_shaped(rng, n, "sparse")
        assert edge_power_route(n, np.count_nonzero(a))
        g = graph_of(a, rng)
        with monkeypatch.context() as m:
            m.setattr(linalg, "perron_triple", None)  # no dense route
            data = graph._perron_pass(g)
        assert data.components == strongly_connected_components(g).components
        assert len(data.components) == 1
        assert_routes_agree(g, monkeypatch)

    def test_large_component_beside_others(self, monkeypatch):
        # a 300-node sparse component feeding a 45-node dense one, a loop and
        # a loop-free node, listed shuffled: each component's vectors follow
        # Tarjan's order of its nodes
        rng = np.random.default_rng(345)
        a = np.zeros((347, 347))
        a[:300, :300] = float_large_shaped(rng, 300, "sparse")
        a[300:345, 300:345] = random_irreducible(rng, 45)
        a[300 + rng.integers(0, 45, 20), rng.integers(0, 300, 20)] = 1.5
        a[345, 345] = 2.5
        a[346, 0] = 1.0
        g = graph_of(a, rng)
        data = assert_routes_agree(g, monkeypatch)
        sizes = sorted(len(c) for c in data.components)
        assert sizes == [1, 1, 45, 300]
        big = next(c for c in data.components if len(c) == 300)
        assert big != sorted(big, key=g.node_ids.index)

    def test_rational_component(self, monkeypatch):
        # each exact weight converts to the float the float graph holds, so
        # both modes iterate on the same entries
        rng = np.random.default_rng(300)
        a = float_large_shaped(rng, 300, "sparse")
        state = rng.bit_generator.state
        exact = graph_of(a, rng, Mode.RATIONAL)
        rng.bit_generator.state = state
        data = routed_pass(exact, monkeypatch, True)
        floats = routed_pass(graph_of(a, rng), monkeypatch, True)
        assert data.values == floats.values
        assert np.array_equal(data.right_vectors[0], floats.right_vectors[0])
        assert np.array_equal(data.left_vectors[0], floats.left_vectors[0])

    def test_rational_weight_beyond_float_range_is_named_alike(self, monkeypatch):
        rng = np.random.default_rng(301)
        g = graph_of(float_large_shaped(rng, 300, "sparse"), rng, Mode.RATIONAL)
        u, v, _w = next(g.edges())
        g = delete_edge(g, u, v)
        g.add_edge(u, v, F(10) ** 400)
        texts = set()
        for edges in (True, False):
            with pytest.raises(GraphFormatError) as exc:
                routed_pass(g, monkeypatch, edges)
            texts.add(str(exc.value))
        assert texts == {f"weight of edge {u!r} -> {v!r} does not fit in a float"}

    def test_ring(self, monkeypatch):
        # every ring from RING_N nodes on takes the edge route; unequal
        # weights make it need about 10**5 steps per vector, and the stopping
        # test, which bounds the last step's change, leaves it about 1e-10
        # off dense eig on either route
        rng = np.random.default_rng(RING_N)
        assert not edge_power_route(RING_N - 1, RING_N - 1)
        g = graph_of(weighted_cycle(rng, RING_N), rng)
        assert_routes_agree(g, monkeypatch, eig_atol=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [1e308, 5e307, 1e-320])
    def test_ring_near_the_ends_of_the_float_range(self, w, monkeypatch):
        # the range rule runs both routes on A/max(A), for the largest entry
        # at or above the float maximum over 2n and below n**2 times the
        # smallest normal float alike
        g = graph_of(cycle(RING_N, w), np.random.default_rng(0))
        for edges in (True, False):
            data = routed_pass(g, monkeypatch, edges)
            assert data.values[0] == pytest.approx(w, rel=1e-15)
            for v in (data.right_vectors[0], data.left_vectors[0]):
                np.testing.assert_allclose(v, np.full(RING_N, 1 / RING_N), rtol=1e-14)

    def test_routes_take_the_same_steps(self, monkeypatch):
        taken = []  # steps per vector
        power_vector = linalg._power_vector

        def counted(step, n):
            def count(x):
                taken[-1] += 1
                return step(x)

            taken.append(0)
            return power_vector(count, n)

        monkeypatch.setattr(linalg, "_power_vector", counted)
        rng = np.random.default_rng(500)
        g = graph_of(float_large_shaped(rng, 500, "sparse"), rng)
        steps = {}
        for edges in (True, False):
            taken.clear()
            routed_pass(g, monkeypatch, edges)
            steps[edges] = list(taken)
        assert steps[True] == steps[False]
        assert len(steps[True]) == 2 and max(steps[True]) <= 72

    @pytest.mark.parametrize("cap", [3, 13])
    def test_routes_stall_alike(self, cap, monkeypatch):
        monkeypatch.setattr(linalg, "POWER_MAX_ITER", cap)
        rng = np.random.default_rng(RING_N)
        g = graph_of(weighted_cycle(rng, RING_N), rng)
        stalls = []
        for edges in (True, False):
            with pytest.raises(ConvergenceError) as exc:
                routed_pass(g, monkeypatch, edges)
            stalls.append(exc.value)
        edge, dense = stalls
        assert str(edge) == str(dense)
        assert str(edge).startswith(f"power iteration stalled after {cap} steps")
        assert edge.residual == pytest.approx(dense.residual, rel=1e-9)

    def test_dense_route_frees_the_edge_arrays_before_its_solve(self, monkeypatch):
        # a component out of node order gets copies of the edge arrays, 1.2 MB
        # at n = 500, 20% dense: none of them may live through the dense solve
        rng = np.random.default_rng(200)
        a = float_large_shaped(rng, 200, "dense")
        assert not edge_power_route(200, np.count_nonzero(a))
        g = graph_of(a, rng)
        assert strongly_connected_components(g).components[0] != g.node_ids
        refs = []
        order_edges, solve = graph._order_edges, linalg.perron_triple

        def recorded(*args):
            edges = order_edges(*args)
            refs.extend(weakref.ref(array) for array in edges[:3])
            return edges

        def checked(a):
            assert [ref() is None for ref in refs] == [True] * 3
            return solve(a)

        monkeypatch.setattr(graph, "_order_edges", recorded)
        monkeypatch.setattr(linalg, "perron_triple", checked)
        data = spectral_data(g)
        assert [len(c) for c in data.components] == [200]

    def test_spectral_pass_builds_no_square_matrix(self):
        # a 4096-node graph of out-degree about 4 with a Hamiltonian cycle:
        # the dense route built and scaled 4096 x 4096 arrays, 128 MB each
        n = 4096
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        edges = {(int(u), int(v)) for u, v in zip(perm, np.roll(perm, -1))}
        edges |= {(u, int(v)) for u in range(n) for v in rng.choice(n, 3, replace=False)}
        weights = rng.uniform(0.25, 3, len(edges)).tolist()
        g = Graph.build(
            [(f"v{i}", 1.0) for i in range(n)],
            [(f"v{u}", f"v{v}", w) for (u, v), w in zip(edges, weights)],
            Mode.FLOAT,
        )
        tracemalloc.start()
        try:
            data = spectral_data(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(c) for c in data.components] == [n]
        assert peak < 8 * n * n / 4
        x = dict(zip(data.components[0], data.right_vectors[0].tolist()))
        a_x = in_flow(g, x, distributed=False)
        worst = max(abs(a_x[v] - data.lam * x[v]) for v in x)
        assert worst <= 1e-10 * data.lam * max(x.values())


class TestHardSpectra:
    """Both routes on the seeded hard-spectrum corpus, against each other and
    against dense eig."""

    @pytest.mark.parametrize("shape", list(HARD_SPECTRA))
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=5, derandomize=True, deadline=None)
    def test_routes_agree_with_each_other_and_dense_eig(self, shape, seed):
        rng = np.random.default_rng(seed)
        g = graph_of(HARD_SPECTRA[shape](rng), rng)
        with pytest.MonkeyPatch.context() as m:
            assert_routes_agree(g, m, eig_atol=1e-9 if "cycle" in shape else 1e-10)


#: Powers of two that keep float_large_shaped's entries, 0.25 to 3, inside
#: the range rule at up to 300 nodes.
SCALE_EXPONENTS = (-900, -40, 3, 40, 900)


class TestRangeRule:
    """A matrix whose largest entry lies in range runs as it is given: times
    a power of two, it gives the same vectors bit for bit and its Perron
    value times that power exactly."""

    @staticmethod
    def assert_scaled_alike(run, a, ndim):
        """run(a * 2**k) for each k of SCALE_EXPONENTS against run(a), the
        power path's shifts taken of the given entries, as an ``ndim`` array."""
        seen = []
        shifts = linalg._shifts

        def recorded(c, n, times):
            seen.append(c)
            return shifts(c, n, times)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(linalg, "_shifts", recorded)
            x, y, lam = run(a)
            for k in SCALE_EXPONENTS:
                scaled = np.ldexp(a, k)
                xk, yk, lamk = run(scaled)
                assert np.array_equal(xk, x) and np.array_equal(yk, y)
                assert lamk == np.ldexp(lam, k)
                assert seen[-1].ndim == ndim
                assert np.array_equal(np.sort(seen[-1][seen[-1] > 0]), np.sort(scaled[scaled > 0]))
        assert len(seen) == 1 + len(SCALE_EXPONENTS)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([DENSE_EIG_LIMIT + 1, 64, 150]),
        density=st.sampled_from(["dense", "sparse"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_dense_power_path(self, seed, n, density):
        a = float_large_shaped(np.random.default_rng(seed), n, density)
        self.assert_scaled_alike(perron_triple, a, 2)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_edge_route(self, seed):
        a = float_large_shaped(np.random.default_rng(seed), 300, "sparse")
        assert edge_power_route(300, np.count_nonzero(a))

        def run(c):
            data = spectral_data(graph_of(c, np.random.default_rng(seed)))
            return data.right_vectors[0], data.left_vectors[0], data.values[0]

        self.assert_scaled_alike(run, a, 1)


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
        # was then refused as beyond half the float range.  n is the first
        # size past the eig path whose n copies of fl(1/n) sum to 1, so the
        # uniform vector is exact whatever DENSE_EIG_LIMIT is
        n = next(
            k for k in itertools.count(DENSE_EIG_LIMIT + 1) if np.full(k, 1 / k).sum() == 1.0
        )
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

    @pytest.mark.filterwarnings("error")
    def test_power_shift_of_a_cycle_whose_total_weight_overflows(self):
        # the sum of all 41 weights overflows, while the largest column sum
        # and its double do not; a shift taken from that total ran all
        # POWER_MAX_ITER steps on nan
        assert 41 > DENSE_EIG_LIMIT
        x, y, lam = perron_triple(cycle(41, 5e307))
        assert lam == pytest.approx(5e307, rel=1e-15)
        assert np.array_equal(x, np.full(41, 1 / 41)) and np.array_equal(y, x)

    @pytest.mark.filterwarnings("error")
    def test_power_shift_of_a_full_matrix_whose_total_weight_overflows(self):
        # every entry lies just below the float maximum over 2n, so the
        # matrix runs as it is given, and the total of its column sums,
        # each about half the float maximum, overflows
        n = DENSE_EIG_LIMIT + 1
        w = 0.99 * np.finfo(np.float64).max / (2 * n)
        x, y, lam = perron_triple(np.full((n, n), w))
        assert lam == pytest.approx(n * w, rel=1e-14)
        np.testing.assert_allclose(x, np.full(n, 1 / n), rtol=1e-14)
        np.testing.assert_allclose(y, np.full(n, 1 / n), rtol=1e-14)

    def test_long_unequal_weight_ring_converges(self):
        # its subdominant eigenvalues lie within O(1/n**2) of the Perron root:
        # 179 800 steps for the right vector, 177 400 for the left, under the
        # cap of 200 000 (the largest column sum as shift took 189 512; half
        # the mean column sum stalled)
        a = weighted_cycle(np.random.default_rng(200), 200)
        x, y, lam = perron_triple(a)
        xo, yo, lamo = dominant_eig(a)
        for v, vo in ((x, xo), (y, yo)):
            assert np.abs(v - vo).max() <= 1e-9 * vo.max()
        assert lam == pytest.approx(lamo, rel=1e-12)

    def test_float_solve_past_the_dense_limit_is_a_domain_error(self):
        n = linalg.DENSE_SOLVE_LIMIT + 1
        g = Graph.build([(f"v{i}", 1.0) for i in range(n)], (), Mode.FLOAT)
        with pytest.raises(DomainError, match=f"limited to {n - 1} unknowns, got {n}"):
            pagerank(g, 0.5)
