"""Hypothesis strategies for random graphs in both numeric modes."""

from __future__ import annotations

from fractions import Fraction

import hypothesis.strategies as st

from feedback_centrality import Graph, Mode

WEIGHT_GRID = (
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
    Fraction(1, 3),
    Fraction(3),
)
BIAS_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
FLOAT_WEIGHTS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


@st.composite
def rational_graphs(
    draw,
    min_nodes: int = 1,
    max_nodes: int = 6,
    sink_free: bool = False,
    positive_bias: bool = False,
):
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"n{i}" for i in range(n)]
    g = Graph(Mode.RATIONAL)
    bias_pool = WEIGHT_GRID if positive_bias else BIAS_GRID
    for v in names:
        g.add_node(v, draw(st.sampled_from(bias_pool)))
    pairs = [(u, v) for u in names for v in names]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, min_size=0, max_size=len(pairs))
    )
    for u, v in chosen:
        g.add_edge(u, v, draw(st.sampled_from(WEIGHT_GRID)))
    if sink_free:
        for v in names:
            if not g.out_edges(v):
                target = draw(st.sampled_from(names))
                g.add_edge(v, target, draw(st.sampled_from(WEIGHT_GRID)))
    return g


@st.composite
def strongly_connected_graphs(draw, min_nodes: int = 1, max_nodes: int = 7):
    """Float-mode strongly connected graphs: a covering cycle plus chords."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"n{i}" for i in range(n)]
    g = Graph(Mode.FLOAT)
    for v in names:
        g.add_node(v, draw(st.sampled_from(FLOAT_WEIGHTS)))
    if n == 1:
        g.add_edge(names[0], names[0], draw(st.sampled_from(FLOAT_WEIGHTS)))
        return g
    order = draw(st.permutations(names))
    for i, v in enumerate(order):
        g.add_edge(v, order[(i + 1) % n], draw(st.sampled_from(FLOAT_WEIGHTS)))
    pairs = [(u, v) for u in names for v in names if not g.has_edge(u, v)]
    chords = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    for u, v in chords:
        g.add_edge(u, v, draw(st.sampled_from(FLOAT_WEIGHTS)))
    return g


@st.composite
def semi_out_regular_graphs(draw, max_nodes: int = 6):
    """Rational semi-out-regular graphs: a random graph whose out-edges are
    rescaled so that every non-sink has the same out-degree r, drawn from
    ``WEIGHT_GRID``."""
    g = draw(rational_graphs(max_nodes=max_nodes))
    r = draw(st.sampled_from(WEIGHT_GRID))
    return Graph.build(
        g.node_weights().items(),
        ((u, v, w * r / g.out_degree(u)) for u, v, w in g.edges()),
        Mode.RATIONAL,
    )
