"""Metamorphic relations: rewrites of a graph whose effect on the measures is
known exactly.  Rational mode throughout, compared with ``==``; only
eigenvector centrality, which is float-only, runs on the float copy, where
renaming nodes leaves every float operation as it was."""

from fractions import Fraction as F

import hypothesis.strategies as st
from hypothesis import given, settings

from feedback_centrality import (
    ClassTag,
    Graph,
    GraphClass,
    Mode,
    classify,
    eigenvector_centrality,
    katz_centrality,
    katz_prestige,
    out_degree_normalize,
    pagerank,
    serialize_graph,
    strongly_connected_components,
)

from .strategies import WEIGHT_GRID, rational_graphs

PAGERANK_ALPHA = F(17, 20)


def katz_alpha(g: Graph) -> F:
    """A decay with alpha * lambda <= 1/2: lambda is at most the largest
    out-degree, and this stays far from the float class test's margin."""
    return F(1, 2 * max(1, max((g.out_degree(v) for v in g.node_ids), default=0)))


def exact_measures(g: Graph) -> dict[str, dict]:
    """Every rational measure the graph admits, by name: node -> value."""
    out = {
        "pagerank": pagerank(g, PAGERANK_ALPHA).values,
        "katz": katz_centrality(g, katz_alpha(g)).values,
    }
    if classify(g, GraphClass(ClassTag.KP)):
        out["katz-prestige"] = katz_prestige(g).values
    return out


def scaled(g: Graph, c: F) -> Graph:
    return Graph.build(
        g.node_weights().items(), ((u, v, w * c) for u, v, w in g.edges()), g.mode
    )


def components_as_sets(g: Graph) -> set[tuple[frozenset, bool]]:
    part = strongly_connected_components(g)
    return {(frozenset(c), s) for c, s in zip(part.components, part.strongly_connected)}


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_insertion_order_changes_nothing(data):
    g = data.draw(rational_graphs(max_nodes=6))
    nodes = data.draw(st.permutations(list(g.node_weights().items())))
    edges = data.draw(st.permutations(list(g.edges())))
    h = Graph.build(nodes, edges, Mode.RATIONAL)
    assert h == g
    assert serialize_graph(h, canonical=True) == serialize_graph(g, canonical=True)
    assert components_as_sets(h) == components_as_sets(g)
    assert exact_measures(h) == exact_measures(g)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_relabeling_permutes_every_measure(data):
    g = data.draw(rational_graphs(max_nodes=6))
    names = g.node_ids
    rename = dict(zip(names, data.draw(st.permutations(names))))
    h = Graph.build(
        ((rename[v], b) for v, b in g.node_weights().items()),
        ((rename[u], rename[v], w) for u, v, w in g.edges()),
        Mode.RATIONAL,
    )
    before, after = exact_measures(g), exact_measures(h)
    fg, fh = g.to_float(), h.to_float()
    if classify(fg, GraphClass(ClassTag.EV)):
        before["eigenvector"] = eigenvector_centrality(fg).values
        after["eigenvector"] = eigenvector_centrality(fh).values
    assert after.keys() == before.keys()
    for name, values in before.items():
        assert after[name] == {rename[v]: x for v, x in values.items()}, name


@given(rational_graphs(max_nodes=6))
@settings(max_examples=80, deadline=None)
def test_pagerank_ignores_out_degree_normalization(g):
    normalized = out_degree_normalize(g)
    assert pagerank(normalized, PAGERANK_ALPHA).values == pagerank(g, PAGERANK_ALPHA).values


@given(rational_graphs(max_nodes=6), st.sampled_from(WEIGHT_GRID + (F(5, 7),)))
@settings(max_examples=80, deadline=None)
def test_pagerank_ignores_uniform_edge_scaling(g, c):
    assert pagerank(scaled(g, c), PAGERANK_ALPHA).values == pagerank(g, PAGERANK_ALPHA).values


@given(rational_graphs(max_nodes=6), st.sampled_from(WEIGHT_GRID + (F(5, 7),)))
@settings(max_examples=80, deadline=None)
def test_katz_of_scaled_graph_scales_the_decay(g, c):
    ca = scaled(g, c)
    alpha = katz_alpha(ca)  # alpha * lambda(cA) = c * alpha * lambda(A) <= 1/2
    assert katz_centrality(ca, alpha).values == katz_centrality(g, c * alpha).values
