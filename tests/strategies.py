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


# ASCII digits and one Unicode digit (ARABIC-INDIC DIGIT ONE), which both
# float() and Fraction() read as 1
TOKEN_DIGITS = "0123456789١"
SPECIAL_TOKENS = (
    "3/0", "inf", "-inf", "nan", "Infinity", "+nan", "-0", "0", "0.0", "-0.0",
    "-1e-400", "1e-400", "1e400", "-1e400", "5e-324", "2.4703282292062328e-324",
    "1.7976931348623159e308", "1__0", "_1", "1_", "1_.5", "1e_5", ".", "e5", "",
)


@st.composite
def _digit_run(draw, min_size: int = 1):
    """Digits in groups of 1-4, joined with ``_`` separators or not at all."""
    groups = draw(st.lists(st.text(TOKEN_DIGITS, min_size=1, max_size=4),
                           min_size=min_size, max_size=3))
    return draw(st.sampled_from(["", "_"])).join(groups)


@st.composite
def weight_tokens(draw):
    """Weight literals: signed decimals with ``_`` separators and exponents
    out to the float range's edges (±400, the subnormals), ``p/q`` literals,
    and the non-finite, signed-zero and malformed tokens of
    ``SPECIAL_TOKENS``."""
    kind = draw(st.sampled_from(["decimal", "decimal", "decimal", "ratio", "special"]))
    if kind == "special":
        return draw(st.sampled_from(SPECIAL_TOKENS))
    sign = draw(st.sampled_from(["", "+", "-"]))
    if kind == "ratio":
        return f"{sign}{draw(_digit_run())}/{draw(_digit_run())}"
    whole = draw(_digit_run(min_size=0))
    frac = draw(st.one_of(st.none(), _digit_run(min_size=0)))
    token = sign + whole + ("" if frac is None else "." + frac)
    if draw(st.booleans()):
        exponent = draw(st.one_of(
            st.integers(-30, 30),
            st.integers(-330, -300),
            st.sampled_from([-400, 400, 308, 309, -324]),
        ))
        token += draw(st.sampled_from(["e", "E"])) + (
            "+" if exponent >= 0 and draw(st.booleans()) else ""
        ) + str(exponent)
    return token


@st.composite
def decimal_graph_texts(draw, max_nodes: int = 6):
    """``.dg`` texts whose weights are all positive decimal literals, from
    the subnormal range up to about 1e307."""
    n = draw(st.integers(1, max_nodes))

    def literal():
        digits = str(draw(st.integers(1, 10**17)))
        point = draw(st.integers(0, len(digits)))
        return f"{digits[:point]}.{digits[point:]}e{draw(st.integers(-320, 290))}"

    lines = [f"node n{i} {literal()}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          unique=True, max_size=n * n))
    lines += [f"edge n{u} n{v} {literal()}" for u, v in pairs]
    return "\n".join(lines) + "\n"
