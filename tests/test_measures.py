"""The four measures: exact values, oracle agreement, class guards."""

import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedback_centrality import (
    ClassTag,
    DomainError,
    Family,
    GeneratorSpec,
    Graph,
    GraphClass,
    Measure,
    MeasureKind,
    Mode,
    SingularMatrixError,
    adjacency_matrix,
    classify,
    eigenvector_centrality,
    generate,
    katz_centrality,
    katz_prestige,
    pagerank,
    parse_graph,
    principal_eigenvalue,
    recursion_residual,
    spectral_data,
    transition_matrix,
)
from feedback_centrality import measures
from feedback_centrality.graph import coerce
from feedback_centrality.measures import _float_system, _rational_system
from .oracles import damped_oracle, ev_oracle, fraction_gauss, stationary_oracle
from .strategies import rational_graphs, strongly_connected_graphs

THIRTEENTHS = {"v1": F(2, 13), "v2": F(3, 13), "v3": F(3, 13), "v4": F(4, 13), "v5": F(1, 13)}
SIXTEENTHS = {"a": F(2, 16), "b": F(3, 16), "c": F(4, 16), "d": F(4, 16), "e": F(2, 16), "f": F(1, 16)}


def two_cycle(mode=Mode.RATIONAL):
    g = Graph(mode)
    one = F(1) if mode is Mode.RATIONAL else 1.0
    g.add_node("a", one)
    g.add_node("b", one)
    g.add_edge("a", "b", one)
    g.add_edge("b", "a", one)
    return g


def looped_components(cross: bool) -> Graph:
    """Strongly connected components {a, b}, {c, d, e} and {f}, with
    self-loops on a, d and f; ``cross`` adds edges a -> c, b -> e, e -> f
    between them."""
    g = Graph(Mode.RATIONAL)
    for v, b in zip("abcdef", (F(1, 2), F(1), F(2), F(1, 3), F(0), F(3))):
        g.add_node(v, b)
    edges = [
        ("a", "a", F(1, 2)), ("a", "b", F(2)), ("b", "a", F(1, 3)),
        ("c", "d", F(1)), ("d", "e", F(1, 2)), ("e", "c", F(3)), ("d", "d", F(2)),
        ("f", "f", F(1, 3)),
    ]
    if cross:
        edges += [("a", "c", F(1)), ("b", "e", F(1, 2)), ("e", "f", F(2))]
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


class TestStationary:
    def test_sample_graphs_exact(self, demo5, demo6):
        assert katz_prestige(demo5).values == THIRTEENTHS
        assert katz_prestige(demo6).values == SIXTEENTHS

    def test_total_equals_node_weight_mass(self, demo5):
        assert katz_prestige(demo5).total() == 1

    def test_rejects_cross_component_edges(self):
        g = Graph(Mode.RATIONAL)
        g.add_node("a", F(1))
        g.add_node("b", F(1))
        g.add_edge("a", "a", F(1))
        g.add_edge("a", "b", F(1))
        g.add_edge("b", "b", F(1))
        with pytest.raises(DomainError):
            katz_prestige(g)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_least_squares_oracle(self, seed):
        g = generate(GeneratorSpec(Family.SUM_OF_SCCS, size_range=(3, 9), seed=seed))
        ours = katz_prestige(g)
        ref = stationary_oracle(g)
        for v in g.node_ids:
            assert float(ours[v]) == pytest.approx(ref[v], abs=1e-9)

    def test_exact_recursion_defect_is_zero(self, demo5):
        for g in (demo5, looped_components(False)):
            values = katz_prestige(g)
            residual = recursion_residual(g, Measure(MeasureKind.KATZ_PRESTIGE), values.values)
            assert all(r == 0 for r in residual.values())

    @pytest.mark.parametrize("distributed", [True, False])
    def test_component_system_divides_by_full_out_degree(self, distributed):
        # a and b also have edges leaving {a, b}: the exact system over the
        # component keeps the float matrices' full out-degree divisor.  Each
        # integer row is a row of [I - alpha*M | b] times one scale S_v > 0
        g = looped_components(True)
        alpha = F(1, 3)
        m = transition_matrix if distributed else adjacency_matrix
        for order in (["a", "b"], g.node_ids):
            divisor = {u: g.out_degree(u) if distributed else 1 for u in order}
            c = {(u, v): w / divisor[u] for u, v, w in g.edges() if u in divisor}
            b = [g.node_weight(v) for v in order]
            expected = [
                [int(u == v) - alpha * c.get((u, v), 0) for u in order] + [b_v]
                for v, b_v in zip(order, b)
            ]
            rows = _rational_system(g, order, alpha, distributed, b)
            assert all(type(x) is int for row in rows for x in row)
            for i, (row, want) in enumerate(zip(rows, expected)):
                scale = F(row[i]) / want[i]
                assert scale.denominator == 1 and scale > 0
                assert [x / scale for x in row] == want
            np.testing.assert_allclose(
                np.array(expected, dtype=float)[:, :-1],
                np.eye(len(order)) - float(alpha) * m(g, order),
                rtol=1e-15,
            )


class TestDamped:
    def test_two_cycle_by_hand(self):
        g = two_cycle()
        pr = pagerank(g, F(1, 2))
        assert pr.values == {"a": F(2), "b": F(2)}
        katz = katz_centrality(g, F(1, 3))
        assert katz.values == {"a": F(3, 2), "b": F(3, 2)}

    def test_pagerank_total_on_sink_free_graph(self, demo5):
        # columns are stochastic, so the total solves t = B + a*t
        alpha = F(17, 20)
        assert pagerank(demo5, alpha).total() == 1 / (1 - alpha)

    @pytest.mark.parametrize("seed", range(12))
    def test_pagerank_matches_dense_oracle(self, seed):
        g = generate(GeneratorSpec(Family.GENERAL, size_range=(2, 12), seed=seed))
        ours = pagerank(g, 0.85)
        ref = damped_oracle(g, 0.85, distributed=True)
        for v in g.node_ids:
            assert float(ours[v]) == pytest.approx(ref[v], rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_katz_matches_dense_oracle(self, seed):
        g = generate(GeneratorSpec(Family.GENERAL, size_range=(2, 10), seed=100 + seed))
        from feedback_centrality import principal_eigenvalue

        _lams, lam = principal_eigenvalue(g)
        alpha = 0.5 / lam if lam > 0 else 0.5
        ours = katz_centrality(g, alpha)
        ref = damped_oracle(g, alpha, distributed=False)
        for v in g.node_ids:
            assert float(ours[v]) == pytest.approx(ref[v], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("distributed", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, 0.85, 1, 1e300])
    def test_float_system_has_the_bits_of_identity_minus_alpha_m(self, demo5, distributed, alpha):
        # built in place over M's array; the zeros off M's edges stay +0.0
        m = (transition_matrix if distributed else adjacency_matrix)(demo5)
        with np.errstate(over="ignore"):
            expected = np.eye(len(m)) - alpha * m
        k = _float_system(demo5, demo5.node_ids, alpha, distributed)
        assert k.tobytes() == expected.tobytes()

    def test_alpha_validation(self):
        g = two_cycle()
        with pytest.raises(DomainError):
            Measure(MeasureKind.PAGERANK, F(1)).compute(g)  # needs alpha < 1
        with pytest.raises(DomainError):
            pagerank(g, F(-1, 2))
        with pytest.raises(DomainError):
            katz_centrality(g, F(2))  # alpha * lambda = 2, outside the class
        with pytest.raises(TypeError):
            pagerank(g, 0.5)  # float decay into an exact computation

    def test_katz_margin_edge(self):
        g = two_cycle(Mode.FLOAT)  # spectral radius 1
        assert katz_centrality(g, 0.5).values["a"] == pytest.approx(2.0)
        with pytest.raises(DomainError):
            katz_centrality(g, 1.0 - 1e-9)  # inside the exclusion margin

    @given(rational_graphs(max_nodes=5, positive_bias=True))
    @settings(max_examples=60, deadline=None)
    @example(looped_components(True))
    def test_exact_recursion_defect_is_zero(self, g):
        lam = principal_eigenvalue(g)[1]
        katz_alpha = F(1, 2 * max(1, math.ceil(lam)))  # alpha * lambda <= 1/2
        for measure in (
            Measure(MeasureKind.PAGERANK, F(3, 10)),
            Measure(MeasureKind.KATZ, katz_alpha),
        ):
            values = measure.compute(g)
            residual = recursion_residual(g, measure, values.values)
            assert all(r == 0 for r in residual.values())


def solution_or_refusal(solve, *args):
    """The solution, or the text of the ``SingularMatrixError`` refusing it."""
    try:
        return solve(*args)
    except SingularMatrixError as exc:
        return str(exc)


class TestIntegerRows:
    @given(
        g=rational_graphs(max_nodes=7),
        alpha=st.sampled_from([F(0), F(1, 3), F(17, 20), F(1), F(2), F(3)]),
        distributed=st.booleans(),
        stationary=st.booleans(),
        keep=st.lists(st.booleans(), min_size=7, max_size=7),
        shift=st.integers(0, 6),
    )
    @example(two_cycle(), F(1), True, False, [True] * 7, 0)  # I - M is singular
    @settings(max_examples=300, deadline=None)
    def test_rows_solve_like_the_fraction_system(
        self, g, alpha, distributed, stationary, keep, shift
    ):
        # integer rows over a subset of the nodes in some order: the same
        # answer as Fraction elimination on I - alpha*M, or the same refusal
        order = [v for v, k in zip(g.node_ids, keep) if k] or g.node_ids
        order = order[shift % len(order):] + order[: shift % len(order)]
        n = len(order)
        degree = {u: sum(w for _v, w in g.out_edges(u)) if distributed else 1 for u in order}
        c = {(u, v): w / degree[u] for u, v, w in g.edges() if u in degree}
        a = [[int(u == v) - alpha * c.get((u, v), 0) for u in order] for v in order]
        rhs = [g.node_weight(v) for v in order]
        if stationary:
            a[-1], rhs = [F(1)] * n, [0] * (n - 1) + [1]
        rows = _rational_system(g, order, alpha, distributed, rhs)
        assert all(type(x) is int for row in rows for x in row)
        got = solution_or_refusal(measures._solve, g, order, alpha, distributed, rhs, stationary)
        assert got == solution_or_refusal(fraction_gauss, a, rhs)


class TestEigenvector:
    def test_sample_graph(self, demo5_float):
        values = eigenvector_centrality(demo5_float)
        for v, expected in THIRTEENTHS.items():
            assert values[v] == pytest.approx(float(expected), rel=1e-9)

    def test_rational_mode_refused(self, demo5):
        with pytest.raises(DomainError):
            eigenvector_centrality(demo5)

    @given(strongly_connected_graphs(max_nodes=7))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_eig_oracle(self, g):
        ours = eigenvector_centrality(g)
        ref = ev_oracle(g)
        for v in g.node_ids:
            assert ours[v] == pytest.approx(ref[v], rel=1e-7, abs=1e-9)

    def test_eigen_equation_holds(self, demo5_float):
        values = eigenvector_centrality(demo5_float)
        residual = recursion_residual(
            demo5_float, Measure(MeasureKind.EIGENVECTOR), values.values
        )
        assert max(abs(r) for r in residual.values()) < 1e-10

    def test_rejects_unequal_component_eigenvalues(self):
        g = Graph(Mode.FLOAT)
        g.add_node("a", 1.0)
        g.add_node("b", 1.0)
        g.add_edge("a", "a", 1.0)
        g.add_edge("b", "b", 2.0)
        with pytest.raises(DomainError):
            eigenvector_centrality(g)

    @pytest.fixture
    def perron_sizes(self, monkeypatch):
        """The row counts of every perron_triple call made while the test runs."""
        from feedback_centrality import linalg

        original = linalg.perron_triple
        sizes = []

        def counting(a, *rest):
            sizes.append(a.shape[0])
            return original(a, *rest)

        for name, module in list(sys.modules.items()):
            if name.startswith("feedback_centrality") and (
                getattr(module, "perron_triple", None) is original
            ):
                monkeypatch.setattr(module, "perron_triple", counting)
        return sizes

    def test_one_perron_solve_per_component(self, perron_sizes):
        # two 2-cycles and a loop, all with eigenvalue 2: the class check's
        # spectra are reused, and the singleton needs no solve at all
        g = Graph.build(
            [(v, 1.0) for v in "abcde"],
            [("a", "b", 2.0), ("b", "a", 2.0), ("c", "d", 2.0), ("d", "c", 2.0),
             ("e", "e", 2.0)],
            Mode.FLOAT,
        )
        values = eigenvector_centrality(g)
        assert perron_sizes == [2, 2]
        assert values.values == pytest.approx(dict.fromkeys("abcde", 1.0), rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ("centrality", "--measure", "ev"),
            ("centrality", "--measure", "katz", "--alpha", "0.1"),
            ("centrality", "--measure", "kp"),
            ("classify", "--alpha", "0.1"),
        ],
        ids=["ev", "katz", "kp", "classify"],
    )
    def test_one_perron_solve_per_component_per_cli_request(
        self, perron_sizes, tmp_path, capsys, argv
    ):
        # the measure, its class check, the residual and the diagnostics all
        # share the graph's one spectral pass
        from feedback_centrality.cli import main

        path = tmp_path / "g.dg"
        path.write_text(
            "".join(f"node {v} 1\n" for v in "abcde")
            + "edge a b 2\nedge b a 2\nedge c d 2\nedge d c 2\nedge e e 2\n"
        )
        assert main([*argv, "--input", str(path), "--mode", "float"]) == 0
        capsys.readouterr()
        assert perron_sizes == [2, 2]


class TestMeasureFrontend:
    def test_kind_dispatch(self, demo5):
        assert Measure(MeasureKind.KATZ_PRESTIGE).compute(demo5).values == THIRTEENTHS
        assert Measure(MeasureKind.PAGERANK, F(1, 2)).compute(demo5).total() == 2

    def test_alpha_rules(self):
        with pytest.raises(DomainError):
            Measure(MeasureKind.KATZ_PRESTIGE, 0.5)  # no decay parameter
        with pytest.raises(DomainError):
            Measure(MeasureKind.PAGERANK)  # decay required
        with pytest.raises(DomainError):
            Measure(MeasureKind.PAGERANK, 1.0)

    def test_vector_order_follows_graph(self, demo6):
        assert list(Measure(MeasureKind.KATZ_PRESTIGE).compute(demo6)) == demo6.node_ids

    def test_spectral_data_component_values(self, demo5_float):
        data = spectral_data(demo5_float)
        assert len(data.components) == 1
        assert data.values[0] == pytest.approx(2.0, rel=1e-9)
        assert data.lam == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize(
    "measure",
    [Measure(MeasureKind.PAGERANK, 0.5), Measure(MeasureKind.KATZ, 0.1),
     Measure(MeasureKind.KATZ_PRESTIGE), Measure(MeasureKind.EIGENVECTOR)],
    ids=lambda m: m.kind.value,
)
def test_residual_on_a_float_graph_converts_exact_values(demo5_float, measure):
    # every measure converts the values once: beyond the float range is a
    # DomainError, not a bare OverflowError; small ones read as their floats
    huge = {v: F(10) ** 400 for v in demo5_float.node_ids}
    with pytest.raises(DomainError, match="value of node 'v1' does not fit in a float"):
        recursion_residual(demo5_float, measure, huge)
    exact = {v: F(1, 3) for v in demo5_float.node_ids}
    floats = {v: 1 / 3 for v in demo5_float.node_ids}
    assert recursion_residual(demo5_float, measure, exact) == recursion_residual(
        demo5_float, measure, floats
    )


def test_residual_passes_plain_floats_through(demo5_float, monkeypatch):
    # only an exact value is converted, so no message is built for a float
    converted = []

    def counting_coerce(mode, value, what):
        converted.append(what)
        return coerce(mode, value, what)

    monkeypatch.setattr(measures, "coerce", counting_coerce)
    values = {v: 1 / 3 for v in demo5_float.node_ids}
    expected = recursion_residual(demo5_float, Measure(MeasureKind.KATZ, 0.1), values)
    assert converted == []
    values["v2"] = F(1, 3)
    got = recursion_residual(demo5_float, Measure(MeasureKind.KATZ, 0.1), values)
    assert converted == ["value of node 'v2'"]
    assert got == expected


def test_residual_takes_the_decay_in_the_graph_mode(demo5):
    # as Measure.compute does: a float decay never enters an exact residual
    measure = Measure(MeasureKind.PAGERANK, 0.5)
    values = {v: F(1, 3) for v in demo5.node_ids}
    for call in (lambda: measure.compute(demo5), lambda: recursion_residual(demo5, measure, values)):
        with pytest.raises(TypeError, match="float decay parameter"):
            call()


class TestCrossMode:
    """Rational results, converted with ``float()``, agree with the float
    path run on ``g.to_float()``."""

    @given(rational_graphs(max_nodes=6))
    @settings(max_examples=80, deadline=None)
    @example(looped_components(False))
    def test_rational_and_float_paths_agree(self, g):
        lam = principal_eigenvalue(g)[1]
        katz_alpha = F(1, 2 * max(1, math.ceil(lam)))
        measures = [
            Measure(MeasureKind.PAGERANK, F(17, 20)),
            Measure(MeasureKind.KATZ, katz_alpha),
        ]
        if classify(g, GraphClass(ClassTag.KP)):
            measures.append(Measure(MeasureKind.KATZ_PRESTIGE))
        fg = g.to_float()
        for measure in measures:
            exact = measure.compute(g)
            alpha = float(measure.alpha) if measure.alpha is not None else None
            approx = Measure(measure.kind, alpha).compute(fg)
            scale = max((abs(x) for x in approx.values.values()), default=0.0)
            for v in g.node_ids:
                assert abs(float(exact[v]) - approx[v]) <= 1e-9 * scale, (measure, v)


# node weights 1e308 fit in a float; their component total 2e308 does not
HUGE_NODES = "node a 1e308\nnode b 1e308\nedge a b 1\nedge b a 2\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("measure", [katz_prestige, eigenvector_centrality])
def test_undamped_value_beyond_float_range_is_a_domain_error(measure):
    # both values were inf, with no error
    g = parse_graph(HUGE_NODES, Mode.FLOAT)
    with pytest.raises(DomainError, match="^value of node 'a' does not fit in a float$"):
        measure(g)


def test_undamped_values_of_huge_nodes_stay_exact_in_rational_mode():
    g = parse_graph(HUGE_NODES, Mode.RATIONAL)
    assert katz_prestige(g).total() == 2 * 10**308


class TestRarelyReachedPaths:
    """Branches that no other test runs, each reached through a public entry."""

    def test_residual_needs_a_value_for_each_node(self):
        g = Graph.build([("a", F(1)), ("b", F(1))], [("a", "b", F(1))], Mode.RATIONAL)
        with pytest.raises(DomainError, match="values do not cover exactly the graph's nodes"):
            recursion_residual(g, Measure(MeasureKind.PAGERANK, F(1, 2)), {"a": F(1)})

    def test_eigenvector_residual_refuses_an_acyclic_component(self):
        g = Graph.build([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0)], Mode.FLOAT)
        with pytest.raises(DomainError, match="component of 'a' has eigenvalue 0"):
            recursion_residual(g, Measure(MeasureKind.EIGENVECTOR), {"a": 1.0, "b": 1.0})
