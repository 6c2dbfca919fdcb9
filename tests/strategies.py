"""Hypothesis strategies for random graphs in both numeric modes, and the
seeded hard-spectrum corpus of non-negative matrices for the Perron pass."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import hypothesis.strategies as st
import numpy as np

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
def acyclic_graphs(draw, max_nodes: int = 6):
    """Rational graphs with no cycle: every edge runs forward in a random
    order of the nodes."""
    n = draw(st.integers(1, max_nodes))
    order = draw(st.permutations([f"n{i}" for i in range(n)]))
    g = Graph(Mode.RATIONAL)
    for v in sorted(order):
        g.add_node(v, draw(st.sampled_from(BIAS_GRID)))
    pairs = [(u, v) for i, u in enumerate(order) for v in order[i + 1 :]]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    for u, v in chosen:
        g.add_edge(u, v, draw(st.sampled_from(WEIGHT_GRID)))
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


# .dg weight tokens and whole lines that parse, and ones that do not
DG_GOOD_WEIGHTS = ("1", "2", "0.5", "1/3", "7/2", "3", "1_000", "1e300", "5e-324", "2.5e-308")
DG_BAD_WEIGHTS = (
    "0", "-0", "0.0", "-0.0", "-1", "-1/2", "1e400", "-1e400", "1e-400", "-1e-400",
    "nan", "inf", "-inf", "3/0", "1__0", "x", "1/", "",
)
DG_GOOD_LINES = ("", "   ", "# comment", "  # indented comment", "\t#x y", "#")
DG_BAD_LINES = (
    "node", "node a", "node a 1 2", "edge a b", "edge a b 1 2", "vertex a 1", "nodes a 1",
)


@st.composite
def _dg_declaration(draw, fields: list[str], weights):
    pad = st.sampled_from(("", "", " ", "\t"))
    gap = draw(st.sampled_from((" ", " ", "  ", "\t")))
    return draw(pad) + gap.join([*fields, draw(weights)]) + draw(pad)


@st.composite
def dg_texts(draw):
    """``.dg`` texts from a token pool: distinct node declarations, then a
    mix of edge and node lines, comments and blank lines.  Half the texts
    declare each edge once over declared ids, with ``DG_GOOD_WEIGHTS`` and
    ``DG_GOOD_LINES``; the rest also draw ``DG_BAD_WEIGHTS``,
    ``DG_BAD_LINES``, the undeclared id ``e`` and repeated ids."""
    clean = draw(st.booleans())
    declared = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4))
    weights = st.sampled_from(DG_GOOD_WEIGHTS if clean else DG_GOOD_WEIGHTS * 4 + DG_BAD_WEIGHTS)
    fixed = st.sampled_from(DG_GOOD_LINES if clean else DG_GOOD_LINES + DG_BAD_LINES)
    lines = [draw(_dg_declaration(["node", v], weights)) for v in declared]
    if clean:
        ids = st.sampled_from(declared or ["a"])
        pairs = draw(st.lists(st.tuples(ids, ids), unique=True, max_size=8)) if declared else []
        body = [draw(_dg_declaration(["edge", *e], weights)) for e in pairs]
        lines += draw(st.permutations(body + draw(st.lists(fixed, max_size=3))))
    else:
        ids = st.sampled_from([*declared, "e"])
        node = ids.flatmap(lambda v: _dg_declaration(["node", v], weights))
        edge = st.tuples(ids, ids).flatmap(lambda e: _dg_declaration(["edge", *e], weights))
        lines += draw(st.lists(st.one_of(edge, edge, node, fixed), max_size=8))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n", "\r\n")))


# -- the hard-spectrum corpus ------------------------------------------------
#
# Irreducible non-negative matrices whose Perron data are hard to reach by
# power iteration: the shapes behind the step and route tables in
# ``linalg``'s docstrings.  Each builder takes a seeded generator; A[i, j] is
# the weight of edge j -> i.


def random_irreducible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Non-negative matrix with a full covering cycle, hence irreducible."""
    a = np.where(rng.random((n, n)) < 0.4, rng.uniform(0.2, 3.0, (n, n)), 0.0)
    for i in range(n):
        a[(i + 1) % n, i] = rng.uniform(0.2, 3.0)
    return a


def float_large_shaped(rng: np.random.Generator, n: int, density: str) -> np.ndarray:
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


def weighted_cycle(rng: np.random.Generator, n: int) -> np.ndarray:
    """A cycle with unequal weights: shifted power iteration converges slowly."""
    a = np.zeros((n, n))
    a[np.roll(np.arange(n), -1), np.arange(n)] = rng.uniform(0.5, 2.0, n)
    return a


def periodic(rng: np.random.Generator, p: int) -> np.ndarray:
    """A matrix of period p on 41-64 nodes (a multiple of p): node i lies in
    class i mod p, the cycle 0 -> 1 -> ... -> n-1 -> 0 covers them, and each
    other edge from one class to the next is present with probability 0.3."""
    n = p * int(rng.integers(-(-41 // p), 64 // p + 1))
    level = np.arange(n) % p
    a = np.where(
        (level[:, None] == (level[None, :] + 1) % p) & (rng.random((n, n)) < 0.3),
        rng.uniform(0.25, 3.0, (n, n)),
        0.0,
    )
    a[np.roll(np.arange(n), -1), np.arange(n)] = rng.uniform(0.25, 3.0, n)
    return a


def hub(rng: np.random.Generator, factor: float, out: bool) -> np.ndarray:
    """A sparse ``float_large_shaped`` matrix of 41-120 nodes whose one
    node's out-edges (``out``) or in-edges weigh ``factor`` times the rest:
    its column or row sum lies far above the Perron root."""
    a = float_large_shaped(rng, int(rng.integers(41, 121)), "sparse")
    k = int(rng.integers(len(a)))
    if out:
        a[:, k] *= factor
    else:
        a[k] *= factor
    return a


def scaled(rng: np.random.Generator, exponent: int) -> np.ndarray:
    """A sparse ``float_large_shaped`` matrix of 41-120 nodes times
    2**exponent: subnormal entries below the range rule's floor, or entries
    within a factor of a few hundred of the float maximum."""
    return np.ldexp(float_large_shaped(rng, int(rng.integers(41, 121)), "sparse"), exponent)


#: The corpus by shape name.
HARD_SPECTRA: dict[str, Callable[[np.random.Generator], np.ndarray]] = {
    "unequal-weight cycle": lambda rng: weighted_cycle(rng, int(rng.integers(41, 65))),
    **{f"periodic p={p}": lambda rng, p=p: periodic(rng, p) for p in range(2, 13)},
    **{
        f"{'out' if out else 'in'}-hub x{factor:g}": (
            lambda rng, factor=factor, out=out: hub(rng, factor, out)
        )
        for out in (False, True)
        for factor in (1e2, 1e4)
    },
    "subnormal scale": lambda rng: scaled(rng, -1032),
    "near-max scale": lambda rng: scaled(rng, 1020),
    **{
        f"float_large {density}": (
            lambda rng, density=density: float_large_shaped(
                rng, int(rng.choice([50, 100, 200])), density
            )
        )
        for density in ("dense", "sparse")
    },
}
