"""Graph container, file format, reachability, components, classification."""

from fractions import Fraction as F

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings

from feedback_centrality import (
    ClassTag,
    DomainError,
    Graph,
    GraphClass,
    GraphFormatError,
    Mode,
    adjacency_matrix,
    classify,
    delete_edge,
    format_weight,
    graph_sum,
    is_strongly_connected,
    opposite_graph,
    out_regularity,
    parse_graph,
    parse_weight,
    predecessors,
    principal_eigenvalue,
    semi_out_regularity,
    serialize_graph,
    strongly_connected_components,
    successors,
    transition_matrix,
)
from .oracles import nx_components, to_networkx
from .strategies import rational_graphs


def build(nodes, edges, mode=Mode.RATIONAL):
    g = Graph(mode)
    for v, b in nodes:
        g.add_node(v, b)
    for u, v, w in edges:
        g.add_edge(u, v, w)
    return g


class TestWeights:
    def test_parse_rational(self):
        assert parse_weight("2/13", Mode.RATIONAL) == F(2, 13)
        assert parse_weight("0.25", Mode.RATIONAL) == F(1, 4)
        assert parse_weight("3", Mode.RATIONAL) == F(3)

    def test_parse_float_rounds_once(self):
        x = parse_weight("1/3", Mode.FLOAT)
        assert isinstance(x, float)
        assert x == float(F(1, 3))

    def test_parse_rejects_garbage(self):
        with pytest.raises(GraphFormatError):
            parse_weight("1/0", Mode.RATIONAL)
        with pytest.raises(GraphFormatError):
            parse_weight("two", Mode.FLOAT)

    def test_float_overflow_is_a_format_error(self):
        with pytest.raises(GraphFormatError, match="1e400"):
            parse_weight("1e400", Mode.FLOAT)
        assert parse_weight("1e400", Mode.RATIONAL) == F(10) ** 400

    def test_format_round_trip(self):
        for w in (F(2, 13), F(5), F(-1, 3), 0.1, 1.5, float(F(1, 3))):
            assert parse_weight(format_weight(w),
                                Mode.RATIONAL if isinstance(w, F) else Mode.FLOAT) == w


class TestGraphContainer:
    def test_basic_accessors(self):
        g = build([("a", F(1)), ("b", F(2))], [("a", "b", F(3))])
        assert g.node_ids == ["a", "b"]
        assert g.node_weight("b") == 2
        assert g.total_node_weight() == 3
        assert g.num_edges == 1
        assert g.has_edge("a", "b") and not g.has_edge("b", "a")
        assert g.edge_weight("a", "b") == 3
        assert g.out_edges("a") == [("b", F(3))]
        assert g.in_edges("b") == [("a", F(3))]
        assert g.sinks() == ["b"]

    def test_out_degree_includes_loop(self):
        g = build([("a", F(1))], [("a", "a", F(2))])
        assert g.out_degree("a") == 2

    def test_validation(self):
        g = Graph(Mode.RATIONAL)
        g.add_node("a", F(1))
        with pytest.raises(GraphFormatError):
            g.add_node("a", F(1))  # duplicate
        with pytest.raises(GraphFormatError):
            g.add_node("b c", F(1))  # whitespace in id
        with pytest.raises(GraphFormatError):
            g.add_node("d", F(-1))  # negative weight
        g.add_node("b", F(0))  # zero node weight is fine
        g.add_edge("a", "b", F(1))
        with pytest.raises(GraphFormatError):
            g.add_edge("a", "b", F(1))  # one edge per ordered pair
        with pytest.raises(GraphFormatError):
            g.add_edge("a", "zz", F(1))  # undeclared endpoint
        with pytest.raises(GraphFormatError):
            g.add_edge("b", "a", F(0))  # edge weights strictly positive

    def test_mode_guard(self):
        g = Graph(Mode.RATIONAL)
        with pytest.raises(TypeError):
            g.add_node("a", 0.5)

    def test_equality_ignores_insertion_order(self):
        g1 = build([("a", F(1)), ("b", F(1))], [("a", "b", F(1)), ("b", "a", F(2))])
        g2 = build([("b", F(1)), ("a", F(1))], [("b", "a", F(2)), ("a", "b", F(1))])
        assert g1 == g2
        assert g1 != g1.to_float()


class TestFileFormat:
    def test_round_trip(self, demo5):
        assert parse_graph(serialize_graph(demo5), Mode.RATIONAL) == demo5
        assert parse_graph(serialize_graph(demo5, canonical=True), Mode.RATIONAL) == demo5

    def test_comments_and_blanks(self):
        text = "# heading\n\nnode a 1\n  # indented comment\nnode b 2\nedge a b 1/2\n"
        g = parse_graph(text, Mode.RATIONAL)
        assert g.node_ids == ["a", "b"]
        assert g.edge_weight("a", "b") == F(1, 2)

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("vertex a 1", 1),
            ("node a", 1),
            ("node a 1 extra", 1),
            ("edge a b", 1),
        ],
    )
    def test_malformed_lines_carry_numbers(self, line, bad):
        with pytest.raises(GraphFormatError) as err:
            parse_graph(line + "\n", Mode.RATIONAL)
        assert err.value.line == bad

    def test_error_line_number_offsets(self):
        text = "node a 1\nnode b 1\nedge a b 0\n"
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text, Mode.RATIONAL)
        assert err.value.line == 3

    def test_canonical_sorts(self):
        g = build(
            [("b", F(1)), ("a", F(1))],
            [("b", "a", F(1)), ("a", "b", F(1))],
        )
        lines = serialize_graph(g, canonical=True).splitlines()
        assert lines == ["node a 1", "node b 1", "edge a b 1", "edge b a 1"]


class TestStructuralOps:
    def test_graph_sum_disjoint(self, demo5, demo6):
        s = graph_sum(demo5, demo6)
        assert len(s) == 11
        assert s.num_edges == demo5.num_edges + demo6.num_edges
        with pytest.raises(DomainError):
            graph_sum(demo5, demo5)

    def test_opposite_involution(self, demo5):
        assert opposite_graph(opposite_graph(demo5)) == demo5

    def test_delete_edge(self, demo5):
        g = delete_edge(demo5, "v1", "v2")
        assert not g.has_edge("v1", "v2")
        assert g.num_edges == demo5.num_edges - 1
        with pytest.raises(DomainError):
            delete_edge(demo5, "v1", "v3")

    def test_reachability_walk_length_semantics(self):
        g = build(
            [("a", F(1)), ("b", F(1)), ("c", F(1))],
            [("a", "b", F(1)), ("b", "b", F(1))],
        )
        # A node reaches itself only through an actual cycle.
        assert successors(g, "a") == {"b"}
        assert successors(g, "b") == {"b"}
        assert successors(g, "c") == set()
        assert predecessors(g, "b") == {"a", "b"}
        assert predecessors(g, "a") == set()


class TestComponents:
    @given(rational_graphs(max_nodes=7))
    @settings(max_examples=120, deadline=None)
    def test_partition_matches_networkx(self, g):
        part = strongly_connected_components(g)
        ours = [set(c) for c in part.components]
        assert sorted(map(sorted, ours)) == sorted(map(sorted, nx_components(g)))

    @given(rational_graphs(max_nodes=7))
    @settings(max_examples=120, deadline=None)
    def test_components_in_topological_order(self, g):
        part = strongly_connected_components(g)
        pos = {v: i for i, comp in enumerate(part.components) for v in comp}
        for u, v, _w in g.edges():
            assert pos[u] <= pos[v]

    def test_singleton_loop_rule(self):
        g = build(
            [("a", F(1)), ("b", F(1))],
            [("a", "a", F(1))],
        )
        part = strongly_connected_components(g)
        flags = {tuple(c)[0]: f for c, f in zip(part.components, part.strongly_connected)}
        assert flags["a"] is True  # loop: "a" reaches itself by a walk
        assert flags["b"] is False  # no loop: not strongly connected

    @given(rational_graphs(max_nodes=6))
    @settings(max_examples=60, deadline=None)
    def test_is_strongly_connected_matches_networkx(self, g):
        expected = nx.is_strongly_connected(to_networkx(g))
        if len(g) == 1:
            expected = g.num_edges == 1  # walk-length >= 1 semantics
        assert is_strongly_connected(g) == expected


class TestRegularity:
    def test_out_regularity(self, demo5):
        assert out_regularity(demo5) == 2

    def test_out_regularity_none_for_sink(self):
        g = build([("a", F(1)), ("b", F(1))], [("a", "b", F(2))])
        assert out_regularity(g) is None
        ok, degree = semi_out_regularity(g)
        assert ok and degree == 2

    def test_semi_out_regularity_mixed_degrees(self):
        g = build(
            [("a", F(1)), ("b", F(1)), ("c", F(1))],
            [("a", "b", F(2)), ("b", "a", F(3))],
        )
        ok, _ = semi_out_regularity(g)
        assert not ok


class TestMatrices:
    def test_adjacency_orientation(self):
        g = build([("a", F(1)), ("b", F(1))], [("a", "b", F(3))])
        a = adjacency_matrix(g)
        # rows index the edge target, columns the source
        assert a[1, 0] == 3.0 and a[0, 1] == 0.0

    def test_transition_columns_stochastic(self, demo5_float):
        m = transition_matrix(demo5_float)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(5), atol=1e-12)

    def test_transition_sink_column_zero(self):
        g = build([("a", F(1)), ("b", F(1))], [("a", "b", F(3))])
        m = transition_matrix(g)
        assert m[:, 1].sum() == 0.0


class TestClassification:
    def test_all_class_admits_everything(self, demo5):
        assert classify(demo5, GraphClass(ClassTag.ALL)).ok

    def test_stationary_class_needs_intra_component_edges(self):
        g = build(
            [("a", F(1)), ("b", F(1))],
            [("a", "a", F(1)), ("a", "b", F(1)), ("b", "b", F(1))],
        )
        verdict = classify(g, GraphClass(ClassTag.KP))
        assert not verdict.ok
        assert "component" in verdict.reason

    def test_stationary_class_needs_loops_on_singletons(self):
        g = build([("a", F(1)), ("b", F(1))], [("a", "a", F(1))])
        assert not classify(g, GraphClass(ClassTag.KP)).ok
        g2 = build(
            [("a", F(1)), ("b", F(1))],
            [("a", "a", F(1)), ("b", "b", F(1))],
        )
        assert classify(g2, GraphClass(ClassTag.KP)).ok

    def test_spectral_class_needs_equal_eigenvalues(self):
        g = build(
            [("a", F(1)), ("b", F(1))],
            [("a", "a", F(1)), ("b", "b", F(2))],
        )
        assert not classify(g, GraphClass(ClassTag.EV)).ok
        g2 = build(
            [("a", F(1)), ("b", F(1))],
            [("a", "a", F(2)), ("b", "b", F(2))],
        )
        assert classify(g2, GraphClass(ClassTag.EV)).ok

    def test_decay_class_margin(self):
        g = build([("a", F(1))], [("a", "a", F(2))])  # spectral radius 2
        assert classify(g, GraphClass(ClassTag.KATZ, 0.4)).ok
        assert not classify(g, GraphClass(ClassTag.KATZ, 0.5)).ok  # at 1, not below
        assert not classify(g, GraphClass(ClassTag.KATZ, 0.6)).ok

    def test_principal_eigenvalue_per_component(self, demo5_float):
        lams, lam = principal_eigenvalue(demo5_float)
        assert lams == [pytest.approx(2.0, rel=1e-9)]
        assert lam == pytest.approx(2.0, rel=1e-9)
