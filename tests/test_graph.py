"""Graph container, file format, reachability, components, classification."""

import struct
import sys
from fractions import Fraction as F

import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings

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
    edge_multiplication,
    eigenvector_centrality,
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
    spectral_data,
    strongly_connected_components,
    successors,
    transition_matrix,
)
from feedback_centrality import graph
from feedback_centrality.graph import in_flow, node_weight_vector

from .conftest import GRAPH_DIR
from .oracles import (
    _target_row_adjacency,
    dict_tarjan,
    distributed_coefficients,
    exact_float_weight,
    nx_components,
    per_node_in_flow,
    reference_parse,
    to_networkx,
)
from .strategies import (
    decimal_graph_texts,
    dg_texts,
    rational_graphs,
    strongly_connected_graphs,
    weight_tokens,
)

# rational, rounded-to-float and float strongly connected graphs
BOTH_MODES = st.one_of(
    rational_graphs(max_nodes=7),
    rational_graphs(max_nodes=7).map(Graph.to_float),
    strongly_connected_graphs(),
)


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

    @staticmethod
    def bits(x: float) -> bytes:
        # compares signed zeros apart, which == does not
        return struct.pack("<d", x)

    @given(weight_tokens())
    @settings(max_examples=600, deadline=None)
    def test_float_route_matches_the_exact_route(self, token):
        try:
            expected = exact_float_weight(token)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                parse_weight(token, Mode.FLOAT)
            assert str(got.value) == str(exc)
        else:
            assert self.bits(parse_weight(token, Mode.FLOAT)) == self.bits(expected)

    @pytest.mark.parametrize(
        "token, expected",
        [("-0", 0.0), ("-0.0", 0.0), ("0e5", 0.0), ("-1e-400", -0.0), ("1e-400", 0.0),
         ("5e-324", 5e-324), ("1_000.5", 1000.5), ("١.5", 1.5), ("1/3", 1 / 3)],
    )
    def test_float_weight_examples(self, token, expected):
        # a zero keeps the sign of the exact value: -0 is 0, -1e-400 is -0.0
        assert self.bits(parse_weight(token, Mode.FLOAT)) == self.bits(expected)

    @pytest.mark.parametrize(
        "token, message",
        [("inf", "bad weight literal"), ("nan", "bad weight literal"),
         ("Infinity", "bad weight literal"), ("3/0", "bad weight literal"),
         ("1__0", "bad weight literal"), ("-1e400", "does not fit in a float")],
    )
    def test_float_weight_errors_are_the_exact_routes(self, token, message):
        with pytest.raises(GraphFormatError, match=message):
            parse_weight(token, Mode.FLOAT)

    @pytest.mark.parametrize(
        "mode, message",
        [(Mode.FLOAT, "does not fit in a float"),
         (Mode.RATIONAL, f"has more than {sys.get_int_max_str_digits()} digits")],
    )
    def test_literal_beyond_the_digit_limit(self, mode, message):
        # Fraction() refuses it as it refuses malformed input; the message
        # names the real cause and quotes a short prefix, not 5000 digits
        with pytest.raises(GraphFormatError, match=message) as exc:
            parse_weight("1" * 5000, mode)
        assert str(exc.value).startswith("weight literal '1111")
        assert len(str(exc.value)) < 100

    def test_decimal_float_text_builds_no_fraction(self, monkeypatch, demo5):
        # guards the float route: a decimal token never takes the exact one
        made = []

        class CountingFraction(F):
            def __new__(cls, *args, **kwargs):
                made.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(graph, "Fraction", CountingFraction)
        text = serialize_graph(demo5.to_float())
        assert "/" not in text
        assert parse_graph(text, Mode.FLOAT) == demo5.to_float()
        assert made == []
        parse_weight("1/5", Mode.FLOAT)
        assert made == [("1/5",)]

    def test_exact_value_too_long_to_print_is_a_domain_error(self):
        digits = sys.get_int_max_str_digits()
        assert format_weight(F(10) ** (digits - 1)) == "1" + "0" * (digits - 1)
        for value in (F(10) ** digits, F(1, 10**digits)):
            with pytest.raises(DomainError, match=f"more than {digits} digits"):
                format_weight(value)

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

    def test_node_ids_refuse_every_unicode_whitespace(self):
        spaces = [c for c in map(chr, range(0x110000)) if c.isspace()]
        assert {" ", "\t", "\x1c", "\x85", "\u2028", "\u3000"} <= set(spaces)
        g = Graph(Mode.FLOAT)
        for bad in ["", *spaces, *(f"a{c}b" for c in spaces), *(f"{c}a" for c in spaces)]:
            with pytest.raises(GraphFormatError, match="non-empty token"):
                g.add_node(bad, 1.0)
        for good in ("a", "\u200b", "\ufeff", "\x00", "\u180e", "\u3164"):
            g.add_node(good, 1.0)
        assert len(g) == 6

    def test_mode_guard(self):
        g = Graph(Mode.RATIONAL)
        with pytest.raises(TypeError):
            g.add_node("a", 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_weights_rejected(self, bad):
        g = Graph(Mode.FLOAT)
        with pytest.raises(GraphFormatError, match="not finite"):
            g.add_node("a", bad)
        g.add_node("a", 1.0)
        with pytest.raises(GraphFormatError, match="not finite"):
            g.add_edge("a", "a", bad)
        assert g.num_edges == 0

    def test_overflowing_rebuild_rejected(self):
        g = build([("a", 1.0), ("b", 1.0)], [("a", "b", 1e300)], Mode.FLOAT)
        with pytest.raises(GraphFormatError, match="not finite"):
            edge_multiplication(g, "a", 1e10)

    def test_overflowing_float_out_degree_rejected(self):
        # each weight is finite, their sum is not
        g = build(
            [("a", 1.0), ("b", 1.0)],
            [("a", "b", 1e308), ("a", "a", 1e308), ("b", "a", 1.0)],
            Mode.FLOAT,
        )
        with pytest.raises(GraphFormatError, match="out-degree of node 'a'"):
            g.out_degree("b")
        with pytest.raises(GraphFormatError):
            transition_matrix(g)

    def test_mutation_refreshes_derived_structure(self):
        # every memoised query is asked first, then the graph changes under it
        g = build([(v, 1.0) for v in "abc"], [("a", "b", 1.0), ("b", "c", 1.0)], Mode.FLOAT)
        kp = GraphClass(ClassTag.KP)
        ones = dict.fromkeys("abcd", 1.0)
        assert g.out_edges("c") == []
        assert g.in_edges("a") == []
        assert g.sinks() == ["c"]
        assert successors(g, "c") == set()
        assert predecessors(g, "a") == set()
        assert in_flow(g, ones, distributed=False) == {"a": 0.0, "b": 1.0, "c": 1.0}
        assert g.out_degree("c") == 0
        assert len(strongly_connected_components(g).components) == 3
        assert spectral_data(g).lam == 0.0
        assert principal_eigenvalue(g) == ([0.0, 0.0, 0.0], 0.0)
        assert not classify(g, kp)

        g.add_edge("c", "a", 2.0)  # the path closes into a cycle
        assert g.out_edges("c") == [("a", 2.0)]
        assert g.in_edges("a") == [("c", 2.0)]
        assert g.sinks() == []
        assert successors(g, "c") == predecessors(g, "a") == {"a", "b", "c"}
        assert in_flow(g, ones, distributed=False) == {"a": 2.0, "b": 1.0, "c": 1.0}
        assert g.out_degree("c") == 2.0
        assert [sorted(c) for c in strongly_connected_components(g).components] == [
            ["a", "b", "c"]
        ]
        assert spectral_data(g).lam == pytest.approx(2 ** (1 / 3), rel=1e-9)
        assert principal_eigenvalue(g)[1] == pytest.approx(2 ** (1 / 3), rel=1e-9)
        assert classify(g, kp)

        g.add_node("d", 1.0)  # a loop-free singleton leaves the KP class
        assert g.out_edges("d") == g.in_edges("d") == []
        assert g.sinks() == ["d"]
        assert successors(g, "d") == predecessors(g, "d") == set()
        assert successors(g, "c") == {"a", "b", "c"}
        assert in_flow(g, ones, distributed=True) == {"a": 1.0, "b": 1.0, "c": 1.0, "d": 0.0}
        assert g.out_degree("d") == 0
        assert len(strongly_connected_components(g).components) == 2
        assert len(spectral_data(g).values) == 2
        assert len(principal_eigenvalue(g)[0]) == 2
        assert not classify(g, kp)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_in_flow_matches_per_node_oracle(self, data):
        # one pass over the edge table adds each target's terms in the same
        # order as the per-node loop, so the two agree bit for bit
        g = data.draw(BOTH_MODES)
        if g.mode is Mode.RATIONAL:
            amount = st.fractions(min_value=0, max_value=100, max_denominator=50)
        else:
            amount = st.floats(min_value=0, max_value=1e6)
        x = {v: data.draw(amount) for v in g.node_ids}
        for distributed in (True, False):
            flow = in_flow(g, x, distributed)
            expected = per_node_in_flow(g, x, distributed)
            assert list(flow.items()) == list(expected.items())
            assert all(type(flow[v]) is type(expected[v]) for v in g.node_ids)

    def test_equality_ignores_insertion_order(self):
        g1 = build([("a", F(1)), ("b", F(1))], [("a", "b", F(1)), ("b", "a", F(2))])
        g2 = build([("b", F(1)), ("a", F(1))], [("b", "a", F(2)), ("a", "b", F(1))])
        assert g1 == g2
        assert g1 != g1.to_float()

    def test_graphs_are_not_hashable(self):
        # equality compares contents, so a graph is no dict key or set member
        with pytest.raises(TypeError, match="unhashable"):
            hash(build([("a", F(1))], []))


# float-mode edge lines at the edge of the plain-line route; ids name the case
_TWO_NODES = "node a 1\nnode b 2\n"
PLAIN_ROUTE_EDGES = {
    **{f"weight-{tok}": f"{_TWO_NODES}edge a b {tok}\n" for tok in (
        "3/4", "0", "-0", "-1", "1e-400", "1e400", "nan", "inf", "1_000",
    )},
    "duplicate-edge": f"{_TWO_NODES}edge a b 1\nedge a a 0.5\nedge a b 2\n",
    "edge-before-its-node": "node a 1\nedge a b 1\nnode b 2\n",
    "undeclared-endpoint": f"{_TWO_NODES}edge a b 1\nedge zz b 1\n",
    "five-fields": f"{_TWO_NODES}edge a b 1 2\n",
    "tabs": "node\ta\t1\nnode\tb\t2\nedge\ta\tb\t0.5\n\tedge b\ta 3\t\n",
    "crlf": "node a 1\r\nnode b 2\r\nedge a b 0.5\r\nedge b a 3\r\n",
    "comment": f"{_TWO_NODES}#edge a b 1\nedge b a 1\n",
    **{f"weight-{tok}": f"{_TWO_NODES}edge a b {tok}\n" for tok in ("-1/2", "0/3", "1/0")},
    "node-zero-then-edge-zero": "node a 0\nnode b 2\nedge a b 0\n",
    "bad-literal-twice": f"{_TWO_NODES}edge a b 2/x\nedge b a 2/x\n",
    "cached-literal-on-a-duplicate": f"{_TWO_NODES}edge a b 2\nedge a b 2\n",
    "cached-literal-on-an-undeclared-id": f"{_TWO_NODES}edge a b 2\nedge a zz 2\n",
}


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

    @given(decimal_graph_texts())
    @example((GRAPH_DIR / "demo5.dg").read_text())
    @example((GRAPH_DIR / "demo6.dg").read_text())
    @settings(max_examples=150, deadline=None)
    def test_float_parse_is_the_rounded_exact_graph(self, text):
        assert serialize_graph(parse_graph(text, Mode.FLOAT)) == serialize_graph(
            parse_graph(text, Mode.RATIONAL).to_float()
        )

    @given(dg_texts())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_parse_matches_the_reference_parser(self, text):
        # the same graph in the same node and edge order, or the same error
        def outcome(parse, mode):
            try:
                return parse(text, mode)
            except GraphFormatError as exc:
                return str(exc), exc.line

        for mode in Mode:
            got, expected = outcome(parse_graph, mode), outcome(reference_parse, mode)
            if isinstance(expected, Graph):
                assert isinstance(got, Graph) and got == expected
                assert serialize_graph(got) == serialize_graph(expected)
            else:
                assert got == expected

    @pytest.mark.parametrize("text", PLAIN_ROUTE_EDGES.values(), ids=PLAIN_ROUTE_EDGES)
    def test_plain_route_boundary_matches_the_reference_parser(self, text):
        def outcome(parse, mode):
            try:
                g = parse(text, mode)
            except GraphFormatError as exc:
                return str(exc), exc.line
            return g, serialize_graph(g)

        for mode in Mode:
            assert outcome(parse_graph, mode) == outcome(reference_parse, mode)

    def test_decimal_float_text_calls_nothing_per_edge(self, monkeypatch, demo5):
        # the plain-line route stores each edge without a call per line
        text = serialize_graph(demo5.to_float())
        expected = reference_parse(text, Mode.FLOAT)
        assert "/" not in text and expected.num_edges > 0
        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        monkeypatch.setattr(Graph, "add_edge", counting("add_edge", Graph.add_edge))
        monkeypatch.setattr(graph, "parse_weight", counting("parse_weight", parse_weight))
        assert parse_graph(text, Mode.FLOAT) == expected
        assert calls == ["parse_weight"] * len(expected)
        calls.clear()
        parse_graph(text + "edge v1 v1 1/2\n", Mode.FLOAT)
        assert calls == ["parse_weight"] * (len(expected) + 1) + ["add_edge"]

    def test_rational_text_parses_each_literal_once(self, monkeypatch, demo5):
        # each distinct literal is parsed once; an edge whose literal an
        # earlier line parsed is stored without a call
        text = serialize_graph(demo5)
        expected = reference_parse(text, Mode.RATIONAL)
        tokens = [line.split()[-1] for line in text.splitlines()]
        first_edge_uses = sum(
            line.startswith("edge") and token not in tokens[:i]
            for i, (line, token) in enumerate(zip(text.splitlines(), tokens))
        )
        assert first_edge_uses < expected.num_edges
        calls = []

        def counting(name, original):
            def wrapper(*args):
                calls.append(name)
                return original(*args)

            return wrapper

        monkeypatch.setattr(Graph, "add_edge", counting("add_edge", Graph.add_edge))
        monkeypatch.setattr(graph, "parse_weight", counting("parse_weight", parse_weight))
        assert parse_graph(text, Mode.RATIONAL) == expected
        assert calls.count("parse_weight") == len(set(tokens))
        assert calls.count("add_edge") == first_edge_uses

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

    @given(BOTH_MODES)
    @settings(max_examples=150, deadline=None)
    def test_components_match_the_dict_tarjan(self, g):
        # same components, same internal order, same condensation order
        assert strongly_connected_components(g).components == dict_tarjan(g)

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

    def test_float_equality_is_relative_at_small_scale(self):
        # out-degrees 1e-12, 3e-12, 2e-12 differ by a factor of 3; an
        # absolute floor of 1e-9 used to call them equal
        g = build(
            [("a", 1.0), ("b", 1.0), ("c", 1.0)],
            [("a", "b", 1e-12), ("b", "c", 3e-12), ("c", "a", 2e-12)],
            Mode.FLOAT,
        )
        assert out_regularity(g) is None
        assert semi_out_regularity(g) == (False, None)
        scaled = build(
            [("a", 1.0), ("b", 1.0)], [("a", "b", 1e-12), ("b", "a", 1e-12 * (1 + 1e-12))],
            Mode.FLOAT,
        )
        assert out_regularity(scaled) == 1e-12 * (1 + 1e-12)

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

    def test_transition_refuses_an_unknown_node(self, demo5, demo5_float):
        for g in (demo5, demo5_float):
            with pytest.raises(DomainError, match="unknown node 'zz'"):
                transition_matrix(g, ["v1", "zz"])

    def test_adjacency_refuses_an_unknown_or_repeated_node(self):
        for mode in Mode:
            g = parse_graph("node a 1\nnode b 1\nedge a b 1\nedge b a 2\n", mode)
            with pytest.raises(DomainError, match="node 'a' is listed twice"):
                adjacency_matrix(g, ["a", "b", "a"])
            with pytest.raises(DomainError, match="unknown node 'zz'"):
                adjacency_matrix(g, ["a", "zz"])
            assert adjacency_matrix(g, ["b", "a"]).tolist() == [[0.0, 1.0], [2.0, 0.0]]

    def test_rational_weight_beyond_float_range_is_a_format_error(self):
        g = build([("a", F(1)), ("b", F(1))], [("a", "b", F(10) ** 400), ("b", "a", F(1))])
        with pytest.raises(GraphFormatError, match="edge 'a' -> 'b' does not fit"):
            adjacency_matrix(g)
        with pytest.raises(GraphFormatError, match="does not fit in a float"):
            g.to_float()

    def test_rational_node_weight_beyond_float_range_is_a_format_error(self):
        g = build([("a", F(10) ** 400), ("b", F(1))], [("a", "b", F(1)), ("b", "a", F(1))])
        with pytest.raises(GraphFormatError, match="node 'a' does not fit in a float"):
            node_weight_vector(g, g.node_ids)

    def test_singleton_loop_beyond_float_range_is_a_format_error(self):
        # one-node components take their loop weight without a matrix
        g = build([("a", F(1))], [("a", "a", F(10) ** 400)])
        with pytest.raises(GraphFormatError, match="edge 'a' -> 'a' does not fit in a float"):
            spectral_data(g)


class TestEdgeIndex:
    """Float graphs read their matrices, out-degrees and feedback term off
    one memoised edge index; each agrees bit for bit with an edge-by-edge
    loop, in both modes."""

    @given(BOTH_MODES, st.data())
    @settings(max_examples=150, deadline=None)
    def test_matrices_match_the_target_row_oracle(self, g, data):
        nodes = data.draw(st.permutations(g.node_ids))
        order = nodes[: data.draw(st.integers(0, len(nodes)))]
        for given_order in (None, g.node_ids, nodes, order):
            layout = g.node_ids if given_order is None else given_order
            expected = _target_row_adjacency(g, layout)
            got = adjacency_matrix(g, given_order)
            assert got.dtype == np.float64 and np.array_equal(got, expected)
            expected = _target_row_adjacency(g, layout, distributed_coefficients(g))
            assert np.array_equal(transition_matrix(g, given_order), expected)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_float_out_degree_is_the_edge_order_sum(self, data):
        # weights off the dyadic grid, so that the summation order shows
        names = [f"n{i}" for i in range(data.draw(st.integers(1, 6)))]
        ends = st.sampled_from(names)
        pairs = data.draw(st.lists(st.tuples(ends, ends), unique=True))
        weight = st.floats(min_value=1e-3, max_value=1e3)
        g = Graph.build(
            ((v, 1.0) for v in names), [(u, v, data.draw(weight)) for u, v in pairs], Mode.FLOAT
        )
        for u in g.node_ids:
            acc = 0.0
            for _v, w in g.out_edges(u):
                acc += w
            assert type(g.out_degree(u)) is float
            assert struct.pack("<d", g.out_degree(u)) == struct.pack("<d", acc)

    def test_results_are_isolated_from_the_memo(self, demo5_float):
        g = demo5_float
        sub = g.node_ids[1:4]
        calls = [
            lambda: adjacency_matrix(g),
            lambda: adjacency_matrix(g, sub),
            lambda: transition_matrix(g),
            lambda: transition_matrix(g, sub),
        ]
        before = [call().copy() for call in calls]
        for call in calls:
            call()[:] = 7.0  # a caller writes into its result
        for call, first in zip(calls, before):
            assert np.array_equal(call(), first)

        index = g._derived(graph._edge_index)
        coefficients = g._derived(graph._coefficients, True)
        for array in (index.src, index.dst, index.weight, coefficients):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_rational_index_has_no_float_weights(self, demo5):
        # exact weights need not fit in a float; rational matrices convert
        # the edges they use
        index = demo5._derived(graph._edge_index)
        assert index.weight is None
        assert list(index.position) == demo5.node_ids
        edges = [(u, v) for u, v, _w in demo5.edges()]
        assert [(demo5.node_ids[s], demo5.node_ids[d]) for s, d in zip(index.src, index.dst)] == edges


class TestStepCoefficients:
    """One table of step coefficients c(u, v) feeds the matrices and the
    feedback term."""

    # 0.1/0.8, 0.1/0.8 and 0.6/0.8 round to a sum of 1 - 2**-53
    SPLIT = ([("a", 1.0), ("b", 1.0), ("c", 1.0)], [("a", "b", 0.1), ("a", "c", 0.1), ("a", "a", 0.6)])

    def test_float_transition_columns_are_renormalised(self):
        # the column was 0.7499999999999999, 0.125, 0.125: each w/outdeg as divided
        g = build(*self.SPLIT, Mode.FLOAT)
        column = transition_matrix(g)[:, 0].tolist()
        assert column == [0.75, 0.12500000000000003, 0.12500000000000003]
        assert column[1] + column[2] + column[0] == 1.0  # the sum in edge order

    def test_rational_transition_converts_each_coefficient_once(self):
        # float(1/10) / float(3/10) is 0.33333333333333337, and a weight
        # without a float image raised GraphFormatError
        nodes = [("a", F(1)), ("b", F(1)), ("c", F(1))]
        g = build(nodes, [("a", "b", F(1, 10)), ("a", "c", F(1, 5))])
        assert transition_matrix(g)[:, 0].tolist() == [0.0, 0.3333333333333333, 0.6666666666666666]
        huge = build(nodes, [("a", "b", F(10) ** 400), ("a", "c", F(1))])
        assert transition_matrix(huge)[:, 0].tolist() == [0.0, 1.0, 0.0]
        with pytest.raises(GraphFormatError, match="edge 'a' -> 'b' does not fit in a float"):
            adjacency_matrix(huge)

    def test_float_distributed_in_flow_is_c_times_x(self):
        # w * x overflowed before the division by the out-degree: inf
        g = build([("a", 1.0), ("b", 1.0)], [("a", "b", 1e308), ("b", "a", 1e308)], Mode.FLOAT)
        assert in_flow(g, {"a": 2.0, "b": 3.0}, True) == {"a": 3.0, "b": 2.0}
        split = build(*self.SPLIT, Mode.FLOAT)
        assert in_flow(split, {"a": 8.0, "b": 0.0, "c": 0.0}, True)["a"] == 6.0

    def test_table_is_memoised_per_process_kind(self):
        g = build(*self.SPLIT, Mode.FLOAT)
        distributed = g._derived(graph._coefficients, True)
        assert g._derived(graph._coefficients, True) is distributed
        assert g._derived(graph._coefficients, False) is g._derived(graph._edge_index).weight
        assert list(graph.step_coefficients(g, True)) == [
            (("a", "b"), 0.12500000000000003), (("a", "c"), 0.12500000000000003), (("a", "a"), 0.75)
        ]


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

    def test_spectral_class_compares_small_eigenvalues_relatively(self):
        g = build(
            [("a", 1.0), ("b", 1.0)],
            [("a", "a", 1e-12), ("b", "b", 3e-12)],
            Mode.FLOAT,
        )
        verdict = classify(g, GraphClass(ClassTag.EV))
        assert not verdict.ok and "differ" in verdict.reason
        with pytest.raises(DomainError, match="eigenvector class"):
            eigenvector_centrality(g)

    def test_decay_class_margin(self):
        g = build([("a", F(1))], [("a", "a", F(2))])  # spectral radius 2
        assert classify(g, GraphClass(ClassTag.KATZ, 0.4)).ok
        assert not classify(g, GraphClass(ClassTag.KATZ, 0.5)).ok  # at 1, not below
        assert not classify(g, GraphClass(ClassTag.KATZ, 0.6)).ok

    def test_decay_beyond_float_range_is_a_domain_error(self):
        g = build([("a", F(1))], [("a", "a", F(2))])
        with pytest.raises(DomainError, match="decay parameter does not fit in a float"):
            classify(g, GraphClass(ClassTag.KATZ, F(10) ** 400))

    def test_principal_eigenvalue_per_component(self, demo5_float):
        lams, lam = principal_eigenvalue(demo5_float)
        assert lams == [pytest.approx(2.0, rel=1e-9)]
        assert lam == pytest.approx(2.0, rel=1e-9)

    def test_principal_eigenvalue_returns_a_list_of_its_own(self, demo5_float):
        lams, _lam = principal_eigenvalue(demo5_float)
        lams[0] = -1.0
        lams.append(5.0)
        assert principal_eigenvalue(demo5_float)[0] == [pytest.approx(2.0, rel=1e-9)]
        assert spectral_data(demo5_float).values == [pytest.approx(2.0, rel=1e-9)]


def _largest_oracle(values):
    """(index, exact magnitude) of the first largest |value|: the first NaN
    if there is one, (None, 0) when every value is zero."""
    for i, v in enumerate(values):
        if v != v:
            return i, v
    sizes = [abs(v) if isinstance(v, float) and abs(v) == float("inf") else abs(F(v))
             for v in values]
    top = max(sizes, default=0)
    return (sizes.index(top), top) if top else (None, 0)


_MAGNITUDES = st.one_of(
    st.integers(-(10**20), 10**20),
    st.fractions(),
    st.floats(),  # with inf, -inf and nan
    st.sampled_from([0, -0.0, F(10**309), -(10**309) - 1, 1.7e308, float("nan")]),
)


class TestLargest:
    """``graph.largest``, the one rule by which every maximum is reported."""

    @given(st.lists(_MAGNITUDES, max_size=8))
    @example([1.0, float("nan")])  # Python's max drops a NaN that is not first
    @example([F(10**309), 2.0])
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_matches_the_exact_oracle(self, values):
        key, top = _largest_oracle(values)
        try:
            want = key, float(top)
        except OverflowError:
            with pytest.raises(DomainError, match="^probe value does not fit in a float$"):
                graph.largest(enumerate(values), "probe value")
            return
        got = graph.largest(enumerate(values), "probe value")
        assert type(got[1]) is float
        assert str(got) == str(want)  # nan compares unequal; its text does not

    def test_nan_outranks_every_number_in_any_position(self):
        nan = float("nan")
        for pairs in ([("a", 1e300), ("b", nan)], [("b", nan), ("a", 1e300)]):
            key, top = graph.largest(pairs, "x")
            assert key == "b" and top != top
        assert graph.largest([("a", float("inf")), ("b", nan)], "x")[0] == "b"

    def test_no_non_zero_value_gives_no_key(self):
        assert graph.largest([], "x") == (None, 0.0)
        assert graph.largest([("a", F(0)), ("b", -0.0)], "x") == (None, 0.0)

    def test_exact_values_compare_exactly_and_keep_their_error_text(self):
        near = F(2**60 + 1, 2**60)  # 1.0 once rounded
        assert graph.largest([("a", 1.0), ("b", -near)], "x") == ("b", 1.0)
        with pytest.raises(DomainError, match="^recursion residual does not fit in a float$"):
            graph.largest([("a", F(-(10**400), 3))], "recursion residual")


class TestRarelyReachedPaths:
    """Branches that no other test runs, each reached through a public entry."""

    def test_weight_of_an_unknown_edge_is_a_domain_error(self, demo5):
        with pytest.raises(DomainError, match="unknown edge 'v1' -> 'v3'"):
            demo5.edge_weight("v1", "v3")

    def test_a_graph_never_equals_a_number(self, demo5):
        assert demo5 != 1
        assert not demo5 == 1

    def test_graphs_of_two_modes_have_no_sum(self):
        g = Graph.build([("a", F(1))], (), Mode.RATIONAL)
        h = Graph.build([("b", 1.0)], (), Mode.FLOAT)
        with pytest.raises(DomainError, match="different numeric modes"):
            graph_sum(g, h)

    def test_only_the_katz_class_carries_a_decay(self):
        with pytest.raises(DomainError, match="all class carries no alpha"):
            GraphClass(ClassTag.ALL, 0.5)
