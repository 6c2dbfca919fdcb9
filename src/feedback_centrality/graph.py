"""Weighted directed graphs with exact-rational or binary64 weights.

The model: nodes carry non-negative weights, edges carry strictly positive
weights, at most one edge per ordered pair, self-loops allowed.  Zero-weight
edges are always *absent* — operations that would produce one drop it.

Strong connectivity uses walks of length >= 1: a lone node is strongly
connected only when it carries a self-loop, and ``v in successors(G, v)``
only when v lies on a cycle through itself.

Two numeric modes exist.  RATIONAL stores ``fractions.Fraction`` weights and
keeps every structural query exact; FLOAT stores binary64.  A graph's mode is
fixed at construction and preserved by every transform.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import DomainError, FeedbackCentralityError, GraphFormatError
from .linalg import _dense, _sum_by, check_matrix_size, edge_perron_triple

Weight = Union[Fraction, float]

#: Relative tolerance of float-mode equality (out-degrees, edge weights,
#: component eigenvalues); rational mode compares exactly.
EQUAL_RTOL = 1e-9

#: Katz admissibility margin: alpha * lambda must stay <= 1 - this.
KATZ_MARGIN = 1e-6


class Mode(enum.Enum):
    """Numeric mode of a graph: exact rationals or binary64 floats."""

    RATIONAL = "rational"
    FLOAT = "float"


def zero(mode: Mode) -> Weight:
    return Fraction(0) if mode is Mode.RATIONAL else 0.0


def _to_float(
    value: Weight, what: str, error: type[FeedbackCentralityError]
) -> float:
    """``float(value)``; ``error("<what> does not fit in a float")`` when an
    exact value lies beyond the float range.

    The one place an exact number becomes a float.  Graph weights raise
    ``GraphFormatError``; parameters and derived values come through
    ``coerce(Mode.FLOAT, ...)`` and raise ``DomainError``.
    """
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what} does not fit in a float") from None


def coerce(mode: Mode, value: Weight, what: str) -> Weight:
    """``value`` as a number of ``mode``; a float never enters rational mode,
    and an exact value beyond the float range raises ``DomainError``."""
    if mode is Mode.RATIONAL:
        if isinstance(value, float):
            raise TypeError(f"rational-mode graph given a float {what}")
        return Fraction(value)
    return _to_float(value, what, DomainError)


def coerce_decay(mode: Mode, alpha: Weight) -> Weight:
    """The decay parameter as a number of ``mode``, as ``coerce`` gives it; a
    non-finite or negative decay raises ``DomainError``.  The one check of a
    decay that every measure and walk shares."""
    try:
        value = coerce(mode, alpha, "decay parameter")
    except DomainError:
        check_decay_sign(alpha)  # a negative decay beyond the float range is refused for its sign
        raise
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"decay parameter must be finite, got {value}")
    check_decay_sign(alpha)
    return value


def check_decay_sign(alpha: Weight) -> None:
    """The one refusal of a negative decay, judged and shown as given."""
    if alpha < 0:
        raise DomainError(f"decay parameter must be non-negative, got {format_weight(alpha)}")


def all_equal(values: list[Weight], mode: Mode) -> bool:
    """Whether the values agree: exactly in rational mode, and within
    ``EQUAL_RTOL`` of the larger magnitude in float mode.  True when empty."""
    if not values:
        return True
    if mode is Mode.RATIONAL:
        return all(v == values[0] for v in values)
    hi, lo = max(values), min(values)
    return hi - lo <= EQUAL_RTOL * max(abs(hi), abs(lo))


def largest(pairs: Iterable[tuple], what: str) -> tuple:
    """The first key whose value has the largest magnitude, and that
    magnitude as a float: the one rule of every reported maximum.  A NaN
    outranks every number; exact values compare exactly, and the winner
    converts once through ``coerce`` ("<what> does not fit in a float").
    ``(None, 0.0)`` when no value is non-zero."""
    key, top = None, 0
    for k, value in pairs:
        size = abs(value)
        if size != size:  # NaN
            return k, math.nan
        if size > top:
            key, top = k, size
    return key, coerce(Mode.FLOAT, top, what)


def parse_weight(token: str, mode: Mode) -> Weight:
    """Parse a weight literal: decimal (``0.2``), integer, or rational ``p/q``.

    In RATIONAL mode the value is exact.  In FLOAT mode a literal without
    ``/`` is read by ``float()``, which rounds correctly, and kept when finite
    and non-zero; any other literal is parsed exactly, then rounded once, so
    errors and signed zeros are the exact route's (``-0`` gives ``0.0``,
    ``-1e-400`` gives ``-0.0``).  A literal with more digits than Python
    reads as an int (``sys.get_int_max_str_digits()``) does not fit in a
    float, and in rational mode raises ``GraphFormatError`` naming that limit.
    """
    if mode is Mode.FLOAT and "/" not in token:
        try:
            value = float(token)
        except ValueError:
            pass
        else:
            if 0.0 < abs(value) < math.inf:
                return value
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        literal = f"weight literal {_quote(token)}"
        if "integer string conversion" not in str(exc):  # not Python's digit limit
            raise GraphFormatError(f"bad {literal}") from exc
        if mode is Mode.FLOAT:
            raise GraphFormatError(f"{literal} does not fit in a float") from None
        limit = sys.get_int_max_str_digits()
        raise GraphFormatError(f"{literal} has more than {limit} digits") from None
    if mode is Mode.RATIONAL:
        return value
    return _to_float(value, f"weight literal {_quote(token)}", GraphFormatError)


def _quote(token: str) -> str:
    """``repr(token)``, cut after 40 characters; a float's shortest is 24."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}..."


def format_weight(w: Weight | int) -> str:
    """Serialize a number: lowest-terms ``p/q`` (or bare integer) for an int
    or a rational, shortest round-trip decimal for a float.  Error messages
    and measure names show their numbers by it too.

    ``DomainError`` when an exact value has more digits than Python converts
    (``sys.get_int_max_str_digits()``), which no ``.dg`` reader could parse.
    """
    if isinstance(w, (int, Fraction)):
        try:
            if w.denominator == 1:
                return str(w.numerator)
            return f"{w.numerator}/{w.denominator}"
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise DomainError(f"exact value has more than {limit} digits to print") from None
    return repr(float(w))


class Graph:
    """A directed graph with weighted nodes and edges.

    Nodes and edges are each stored once and remember insertion order; all
    iteration, serialization and matrix layouts follow it, which keeps every
    downstream computation deterministic.  Treat instances as immutable once
    built — transforms return new graphs.  Outside this module a graph is
    made only by ``Graph.build``; ``add_node``/``add_edge`` are the per-item
    check of ``parse_graph``'s non-plain lines and of ``build``'s replay.

    Derived structure (the edge index, out- and in-neighbour maps,
    out-degrees, step coefficients, integer walk tables, SCC partition,
    spectral data) is computed once and shared, read-only like the graph;
    ``add_node``/``add_edge`` clear it.  A graph that only reweights another
    (``_reweighted``) starts with its parent's SCC partition and edge
    endpoints.
    """

    __slots__ = ("mode", "_weights", "_edges", "_memo")

    def __init__(self, mode: Mode = Mode.RATIONAL):
        self.mode = mode
        self._weights: dict[str, Weight] = {}
        self._edges: dict[tuple[str, str], Weight] = {}
        self._memo: dict = {}

    # -- construction ----------------------------------------------------

    def add_node(self, v: str, weight: Weight) -> None:
        if v.split() != [v]:  # empty, or holds whitespace
            raise GraphFormatError(f"node id must be a non-empty token: {v!r}")
        if v in self._weights:
            raise GraphFormatError(f"duplicate node {v!r}")
        weight = self._coerce(weight, f"weight of node {v!r}")
        if weight < 0:
            raise GraphFormatError(f"negative weight for node {v!r}")
        self._weights[v] = weight
        self._memo.clear()

    def add_edge(self, u: str, v: str, weight: Weight) -> None:
        if u not in self._weights or v not in self._weights:
            missing = u if u not in self._weights else v
            raise GraphFormatError(f"edge endpoint {missing!r} is not a declared node")
        if (u, v) in self._edges:
            raise GraphFormatError(f"duplicate edge {u!r} -> {v!r}")
        weight = self._coerce(weight, f"weight of edge {u!r} -> {v!r}")
        if weight <= 0:
            raise GraphFormatError(f"non-positive weight for edge {u!r} -> {v!r}")
        self._edges[(u, v)] = weight
        self._memo.clear()

    def _derived(self, compute, *args):
        """``compute(self, *args)``, computed once and shared after that."""
        key = (compute, *args)
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute(self, *args)
            return value

    def _coerce(self, weight: Weight, what: str) -> Weight:
        if self.mode is Mode.RATIONAL:
            return coerce(Mode.RATIONAL, weight, "weight")
        weight = _to_float(weight, what, GraphFormatError)
        if not math.isfinite(weight):
            raise GraphFormatError(f"{what} is not finite: {weight!r}")
        return weight

    @classmethod
    def build(
        cls,
        nodes: Iterable[tuple[str, Weight]],
        edges: Iterable[tuple[str, str, Weight]] = (),
        mode: Mode = Mode.RATIONAL,
    ) -> "Graph":
        """The graph of these nodes and edges, as ``add_node`` then
        ``add_edge`` on each in turn would build it, checked in one pass:
        duplicates by the lengths of the dicts, edge endpoints by set
        containment, weights by ``_stored_as_given``.  When that pass fails,
        the items are replayed through ``add_node``/``add_edge``, so the first
        fault in input order raises its own error, ahead of an error that an
        iterable raises after it."""
        node_list: list = []
        edge_list: list = []
        try:
            node_list.extend(nodes)
            edge_list.extend(edges)
        except Exception:
            cls._replay(mode, node_list, edge_list)
            raise
        try:
            weights = dict(node_list)
            links = {(u, v): w for u, v, w in edge_list}
            ids = list(weights)
            valid = (
                len(weights) == len(node_list)
                and len(links) == len(edge_list)
                and " ".join(ids).split() == ids  # every id a non-empty token
                and weights.keys() >= set(itertools.chain.from_iterable(links))
                and _stored_as_given(mode, weights.values(), links.values())
            )
        except (TypeError, ValueError):  # a malformed item: the replay raises its error
            valid = False
        if not valid:
            return cls._replay(mode, node_list, edge_list)
        g = cls(mode)
        g._weights, g._edges = weights, links
        return g

    @classmethod
    def _replay(cls, mode: Mode, nodes: list, edges: list) -> "Graph":
        g = cls(mode)
        for v, w in nodes:
            g.add_node(v, w)
        for u, v, w in edges:
            g.add_edge(u, v, w)
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def node_ids(self) -> list[str]:
        return list(self._weights)

    def __contains__(self, v: str) -> bool:
        return v in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def node_weight(self, v: str) -> Weight:
        self._require_node(v)
        return self._weights[v]

    def node_weights(self) -> dict[str, Weight]:
        return dict(self._weights)

    def total_node_weight(self) -> Weight:
        return sum(self._weights.values(), zero(self.mode))

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> Iterator[tuple[str, str, Weight]]:
        for (u, v), w in self._edges.items():
            yield u, v, w

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self._edges

    def edge_weight(self, u: str, v: str) -> Weight:
        try:
            return self._edges[(u, v)]
        except KeyError:
            raise DomainError(f"unknown edge {u!r} -> {v!r}") from None

    def out_edges(self, v: str) -> list[tuple[str, Weight]]:
        self._require_node(v)
        return list(self._derived(_out_maps)[v].items())

    def in_edges(self, v: str) -> list[tuple[str, Weight]]:
        self._require_node(v)
        return list(self._derived(_in_maps)[v].items())

    def out_degree(self, v: str) -> Weight:
        """Total weight of v's outgoing edges (self-loop included), 0 if none;
        ``GraphFormatError`` when a float one overflows."""
        self._require_node(v)
        return self._derived(_out_degrees)[v]

    def sinks(self) -> list[str]:
        return [v for v, targets in self._derived(_out_maps).items() if not targets]

    def _require_node(self, v: str) -> None:
        if v not in self._weights:
            raise DomainError(f"unknown node {v!r}")

    # -- copies and simple derived graphs ---------------------------------

    def to_float(self) -> "Graph":
        """A FLOAT-mode copy (a plain copy if already float).

        Raises ``GraphFormatError`` when a weight does not fit in a float.
        """
        return Graph.build(self._weights.items(), self.edges(), Mode.FLOAT)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.mode is other.mode
            and self._weights == other._weights
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        return (
            f"<Graph mode={self.mode.value} nodes={len(self)} edges={self.num_edges}>"
        )


@dataclass(frozen=True)
class _EdgeIndex:
    """The edge table as arrays: ``position`` maps each node to its place in
    node order; ``src``/``dst`` (int32) hold the endpoints' positions and, in
    float mode, ``weight`` (float64) the weights, in edge insertion order.
    The arrays are read-only."""

    position: dict[str, int]
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray | None


def _edge_index(g: Graph) -> _EdgeIndex:
    position = {v: i for i, v in enumerate(g._weights)}
    m = len(g._edges)
    ends = np.fromiter(
        map(position.__getitem__, itertools.chain.from_iterable(g._edges)), np.int32, 2 * m
    ).reshape(m, 2)
    src, dst = ends[:, 0].copy(), ends[:, 1].copy()
    src.flags.writeable = dst.flags.writeable = False
    return _EdgeIndex(position, src, dst, _weight_array(g))


def _weight_array(g: Graph) -> np.ndarray | None:
    """A float graph's edge weights as a read-only float64 array; None on a
    rational one."""
    if g.mode is not Mode.FLOAT:
        return None
    weight = np.fromiter(g._edges.values(), np.float64, len(g._edges))
    weight.flags.writeable = False
    return weight


def _out_maps(g: Graph) -> dict[str, dict[str, Weight]]:
    out: dict[str, dict[str, Weight]] = {v: {} for v in g._weights}
    for (u, v), w in g._edges.items():
        out[u][v] = w
    return out


def _in_maps(g: Graph) -> dict[str, dict[str, Weight]]:
    into: dict[str, dict[str, Weight]] = {v: {} for v in g._weights}
    for (u, v), w in g._edges.items():
        into[v][u] = w
    return into


def _out_degrees(g: Graph) -> dict[str, Weight]:
    """Each node's out-degree; a float one sums its out-edges in edge order."""
    if g.mode is Mode.RATIONAL:
        return {u: sum(ws.values(), Fraction(0)) for u, ws in g._derived(_out_maps).items()}
    idx = g._derived(_edge_index)
    sums = _sum_by(idx.src, idx.weight, len(idx.position))
    degrees = dict(zip(idx.position, sums.tolist()))
    for i in np.flatnonzero(~np.isfinite(sums)).tolist():
        # a float sum overflowed: the exact sum decides
        u = list(degrees)[i]
        exact = sum(map(Fraction, g._derived(_out_maps)[u].values()))
        degrees[u] = _to_float(exact, f"out-degree of node {u!r}", GraphFormatError)
    return degrees


def _stored_as_given(mode: Mode, node_weights: Iterable, edge_weights: Iterable) -> bool:
    """Whether ``add_node``/``add_edge`` would store every weight as it is:
    in FLOAT mode a finite float, in RATIONAL mode a ``Fraction``; node
    weights >= 0, edge weights > 0."""
    if mode is Mode.FLOAT:
        return all(type(w) is float and 0.0 <= w < math.inf for w in node_weights) and all(
            type(w) is float and 0.0 < w < math.inf for w in edge_weights
        )
    return all(type(w) is Fraction and w.numerator >= 0 for w in node_weights) and all(
        type(w) is Fraction and w.numerator > 0 for w in edge_weights
    )


# -- module-level operations ----------------------------------------------


def _reweighted(
    g: Graph, edge_weights: Iterable[Weight], node_weights: Iterable[Weight] | None = None
) -> Graph:
    """g with new edge weights (in edge order) and node weights (in node
    order; g's own when None), every node and edge kept in its place: the
    one constructor of the transforms that change only weights.

    Only the weights are checked; a fault raises what ``Graph.build`` raises.
    When g holds them, its SCC partition and its edge index's ``position``,
    ``src`` and ``dst`` pass on, with a fresh weight array.  Nothing that
    depends on a weight is shared.
    """
    h = Graph(g.mode)
    h._weights = dict(g._weights) if node_weights is None else dict(zip(g._weights, node_weights))
    h._edges = dict(zip(g._edges, edge_weights))
    if not _stored_as_given(g.mode, h._weights.values(), h._edges.values()):
        edges = ((u, v, w) for (u, v), w in h._edges.items())
        return Graph.build(h._weights.items(), edges, g.mode)
    partition = g._memo.get((_tarjan,))
    if partition is not None:
        h._memo[(_tarjan,)] = partition
    idx = g._memo.get((_edge_index,))
    if idx is not None:
        h._memo[(_edge_index,)] = _EdgeIndex(idx.position, idx.src, idx.dst, _weight_array(h))
    return h


def graph_sum(g: Graph, h: Graph) -> Graph:
    """Disjoint union. Node-id sets must not collide."""
    if g.mode is not h.mode:
        raise DomainError("cannot sum graphs of different numeric modes")
    clash = set(g.node_ids) & set(h.node_ids)
    if clash:
        raise DomainError(f"node-id collision in graph sum: {sorted(clash)!r}")
    return Graph.build(
        [*g.node_weights().items(), *h.node_weights().items()],
        [*g.edges(), *h.edges()],
        g.mode,
    )


def opposite_graph(g: Graph) -> Graph:
    """Reverse every edge; node and edge weights unchanged."""
    return Graph.build(
        g.node_weights().items(), ((v, u, w) for u, v, w in g.edges()), g.mode
    )


def delete_edge(g: Graph, u: str, v: str) -> Graph:
    """Remove exactly the edge (u, v); nodes are never deleted."""
    if not g.has_edge(u, v):
        raise DomainError(f"unknown edge {u!r} -> {v!r}")
    return Graph.build(
        g.node_weights().items(),
        ((a, b, w) for a, b, w in g.edges() if (a, b) != (u, v)),
        g.mode,
    )


def _reach(g: Graph, v: str, maps) -> set[str]:
    g._require_node(v)
    neighbours = g._derived(maps)
    seen: set[str] = set()
    frontier = list(neighbours[v])
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(t for t in neighbours[node] if t not in seen)
    return seen


def successors(g: Graph, v: str) -> set[str]:
    """S(v): nodes reachable from v by a walk of length >= 1."""
    return _reach(g, v, _out_maps)


def predecessors(g: Graph, v: str) -> set[str]:
    """P(v): nodes that reach v by a walk of length >= 1."""
    return _reach(g, v, _in_maps)


@dataclass
class ComponentPartition:
    """SCC partition, components listed in condensation topological order
    (sources of the condensation first).  Shared by every caller: read-only.

    ``strongly_connected[i]`` is False exactly for loop-free singletons.
    """

    components: list[list[str]]
    index_of: dict[str, int]
    strongly_connected: list[bool]


def strongly_connected_components(g: Graph) -> ComponentPartition:
    """Tarjan's algorithm, iterative, deterministic by insertion order; run
    once per graph."""
    return g._derived(_tarjan)


def _tarjan(g: Graph) -> ComponentPartition:
    idx = g._derived(_edge_index)
    nodes = list(idx.position)
    n = len(nodes)
    succ: list[list[int]] = [[] for _ in range(n)]  # in edge insertion order
    for u, v in zip(idx.src.tolist(), idx.dst.tolist()):
        succ[u].append(v)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[str]] = []
    counter = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        # Each work item is (node, iterator over its out-neighbors).
        work = [(root, iter(succ[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                if on_stack[nxt] and index[nxt] < lowlink[node]:
                    lowlink[node] = index[nxt]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(nodes[w])
                    if w == node:
                        break
                comp.reverse()
                components.append(comp)

    # Tarjan emits components in reverse topological order of the condensation.
    components.reverse()
    index_of = {v: i for i, comp in enumerate(components) for v in comp}
    strongly = [
        len(comp) > 1 or g.has_edge(comp[0], comp[0]) for comp in components
    ]
    return ComponentPartition(components, index_of, strongly)


def is_strongly_connected(g: Graph) -> bool:
    part = strongly_connected_components(g)
    return len(part.components) == 1 and part.strongly_connected[0]


def out_regularity(g: Graph) -> Weight | None:
    """The common out-degree x > 0 if the graph is x-out-regular, else None.

    That is ``semi_out_regularity``'s r when no node is a sink.
    """
    _semi, r = semi_out_regularity(g)
    return r if r is not None and all(g._derived(_out_degrees).values()) else None


def semi_out_regularity(g: Graph) -> tuple[bool, Weight | None]:
    """(is semi-out-regular, common non-sink out-degree r).

    Semi-out-regular: some r > 0 has every out-degree in {0, r}.  An edgeless
    graph qualifies vacuously, and r is None then or when the graph does not
    qualify.
    """
    positive = [d for d in g._derived(_out_degrees).values() if d > 0]
    if not all_equal(positive, g.mode):
        return False, None
    return True, max(positive, default=None)


# -- matrices ---------------------------------------------------------------


def node_weight_vector(g: Graph, order: list[str]) -> np.ndarray:
    """Float node weights, in the order given; ``GraphFormatError`` naming
    the node whose weight does not fit in a float."""
    return np.array(
        [_to_float(g.node_weight(v), f"weight of node {v!r}", GraphFormatError) for v in order]
    )


def _check_order(g: Graph, order: list[str]) -> None:
    ids = set(order)
    if not ids <= g._weights.keys():
        g._require_node(next(v for v in order if v not in g._weights))
    if len(ids) < len(order):
        twice = next(v for i, v in enumerate(order) if v in order[:i])
        raise DomainError(f"node {twice!r} is listed twice")


def adjacency_matrix(g: Graph, order: list[str] | None = None) -> np.ndarray:
    """Dense float adjacency A with A[i, j] = weight of edge order[j] -> order[i].

    Rows index the *target*: (A @ x)[v] sums c(u, v) * x[u] over predecessors
    u of v, which is the shape every recursion here uses.  ``order`` lists
    distinct nodes of g, or ``DomainError`` names the id that is unknown or
    listed twice.  A rational graph converts each edge inside ``order`` and
    raises ``GraphFormatError`` when its weight does not fit in a float.
    """
    return _coefficient_matrix(g, order, False)


def transition_matrix(g: Graph, order: list[str] | None = None) -> np.ndarray:
    """The distributed step matrix: adjacency with each column divided by its
    node's out-degree, as ``step_coefficients`` gives it.

    Columns of sinks are zero.  When ``order`` restricts to a subset, the
    divisor is still the node's full out-degree in g.
    """
    return _coefficient_matrix(g, order, True)


def _coefficient_matrix(g: Graph, order: list[str] | None, distributed: bool) -> np.ndarray:
    """The step coefficients of the edges inside ``order`` in one write."""
    if order is not None:
        _check_order(g, order)
    return _dense(*_order_edges(g, order, distributed))


def _order_edges(
    g: Graph, order: list[str] | None, distributed: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The edges inside ``order`` (all of them when None) from the edge
    index: their ends' places in ``order``, their float step coefficients
    and the number of nodes n.  A rational graph converts each coefficient
    it uses.  More than ``DENSE_MATRIX_LIMIT`` nodes are refused, before an
    n x n matrix over them is allocated."""
    idx = g._derived(_edge_index)
    n = len(idx.position)
    src, dst, c = idx.src, idx.dst, g._derived(_coefficients, distributed)
    edges = None  # all of them
    if order is not None and order != g.node_ids:
        # each node's place in order, -1 outside it
        place = np.full(n, -1)
        place[[idx.position[v] for v in order]] = np.arange(len(order))
        src, dst = place[src], place[dst]
        edges = np.flatnonzero((src >= 0) & (dst >= 0))
        src, dst, n = src[edges], dst[edges], len(order)
    if g.mode is Mode.FLOAT:
        c = c if edges is None else c[edges]
    else:
        edges = range(len(c)) if edges is None else edges.tolist()
        try:
            c = np.array([float(c[i]) for i in edges])
        except OverflowError:  # only a raw weight exceeds 1: the helper names its edge
            keys = list(g._edges)
            for i in edges:
                _to_float(c[i], "weight of edge {!r} -> {!r}".format(*keys[i]), GraphFormatError)
    check_matrix_size(n)
    return src, dst, c, n


def _coefficients(g: Graph, distributed: bool):
    """``step_coefficients`` as one table: a read-only float64 array on the
    edge index of a float graph, a tuple of ``Fraction``s on a rational one."""
    if g.mode is Mode.RATIONAL:
        degrees = g._derived(_out_degrees) if distributed else None
        return tuple(w / degrees[u] if distributed else w for (u, _v), w in g._edges.items())
    idx = g._derived(_edge_index)
    if not distributed:
        return idx.weight
    n = len(idx.position)
    c = idx.weight / np.fromiter(g._derived(_out_degrees).values(), np.float64, n)[idx.src]
    c /= _sum_by(idx.src, c, n)[idx.src]
    c.flags.writeable = False
    return c


def step_coefficients(g: Graph, distributed: bool) -> Iterator[tuple[tuple[str, str], Weight]]:
    """Each edge (u, v) with its step coefficient c(u, v) in edge order, in
    the graph's mode: w(u, v)/outdeg(u) when ``distributed``, else w(u, v);
    memoised per process kind.  A float graph then divides each source's
    coefficients by their sum in edge order, which removes the rounding left
    in it (1 for a non-sink) and keeps long conserved walks drift-free."""
    c = g._derived(_coefficients, distributed)
    return zip(g._edges, c if g.mode is Mode.RATIONAL else c.tolist())


def in_flow(g: Graph, x: dict[str, Weight], distributed: bool) -> dict[str, Weight]:
    """Per node v, the sum over in-edges (u, v) of c(u, v) * x[u], c the
    ``step_coefficients`` of the process: the feedback term that every
    measure and walk shares, exact in rational mode, summed in edge order.

    ``x`` gives a value for every node.  Float mode computes the terms on the
    edge index and adds them in that order, so each sum is bit for bit the
    one a loop over the edges would make.
    """
    if g.mode is Mode.FLOAT:
        idx = g._derived(_edge_index)
        xs = np.array([x[v] for v in idx.position], dtype=np.float64)
        with np.errstate(all="ignore"):  # as Python floats: inf and nan, no warning
            terms = g._derived(_coefficients, distributed) * xs[idx.src]
        return dict(zip(idx.position, _sum_by(idx.dst, terms, len(idx.position)).tolist()))
    out = dict.fromkeys(g._weights, zero(g.mode))
    for (u, v), c in step_coefficients(g, distributed):
        out[v] += c * x[u]
    return out


@dataclass(frozen=True)
class IntegerSteps:
    """A rational graph's walk coefficients c(u, v) on one denominator:
    ``scale`` is the LCM D of their denominators, and ``rows[j]`` pairs the
    positions i (node order) of node j's in-neighbours with the integers
    D * c(i, j), c the process's ``step_coefficients``."""

    scale: int
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _integer_steps(g: Graph, distributed: bool) -> IntegerSteps:
    coefficients = g._derived(_coefficients, distributed)
    scale = math.lcm(*(c.denominator for c in coefficients))
    position = {v: i for i, v in enumerate(g._weights)}
    rows: list[tuple[list[int], list[int]]] = [([], []) for _ in position]
    for (u, v), c in zip(g._edges, coefficients):
        sources, integers = rows[position[v]]
        sources.append(position[u])
        integers.append(c.numerator * (scale // c.denominator))
    return IntegerSteps(scale, tuple((tuple(s), tuple(i)) for s, i in rows))


def integer_steps(g: Graph, distributed: bool) -> IntegerSteps:
    """The rational graph's ``IntegerSteps`` for one process, memoised per
    process kind.  The decay stays out of the table, so every decay shares
    it."""
    return g._derived(_integer_steps, distributed)


# -- graph classes -----------------------------------------------------------


class ClassTag(enum.Enum):
    ALL = "all"
    KP = "kp"
    EV = "ev"
    KATZ = "katz"


@dataclass(frozen=True)
class GraphClass:
    """An admissibility class for a measure; KATZ carries its decay alpha."""

    tag: ClassTag
    alpha: Weight | None = None

    def __post_init__(self):
        if self.tag is ClassTag.KATZ:
            if self.alpha is None:  # its sign and finiteness are classify's
                raise DomainError("KATZ class needs a decay alpha")
        elif self.alpha is not None:
            raise DomainError(f"{self.tag.value} class carries no alpha")


@dataclass
class SpectralData:
    """Per-strongly-connected-component Perron data, condensation order.

    Right and left vectors are float, strictly positive on their component
    (uniform placeholders for loop-free singletons, which have value 0),
    normalized to sum 1.  Shared by every caller: read-only.
    """

    components: list[list[str]]
    values: list[float]
    right_vectors: list[np.ndarray]
    left_vectors: list[np.ndarray]
    lam: float


def spectral_data(g: Graph) -> SpectralData:
    """Perron triple of every strongly connected component's induced subgraph,
    computed once per graph.

    A singleton's value is its loop weight, or 0 without a loop.
    """
    return g._derived(_perron_pass)


def _perron_pass(g: Graph) -> SpectralData:
    """``spectral_data``: a singleton's data from its loop, a larger
    component's from ``edge_perron_triple`` on its edge arrays, passed as
    one tuple so that the dense route can free them before its solve."""
    part = strongly_connected_components(g)
    vals: list[float] = []
    rights: list[np.ndarray] = []
    lefts: list[np.ndarray] = []
    for comp, strong in zip(part.components, part.strongly_connected):
        if len(comp) == 1:
            x, y = np.ones(1), np.ones(1)
            v = comp[0]
            what = f"weight of edge {v!r} -> {v!r}"
            lam = _to_float(g.edge_weight(v, v), what, GraphFormatError) if strong else 0.0
        else:
            x, y, lam = edge_perron_triple(_order_edges(g, comp, False))
        vals.append(lam)
        rights.append(x)
        lefts.append(y)
    return SpectralData(part.components, vals, rights, lefts, max(vals, default=0.0))


@dataclass
class ClassVerdict:
    """A class membership verdict."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def principal_eigenvalue(g: Graph) -> tuple[list[float], float]:
    """Per-component Perron values (condensation order) and the global max.

    Components that are loop-free singletons report 0; singletons with a
    self-loop report the loop weight.
    """
    data = spectral_data(g)
    return list(data.values), data.lam


def _check_kp_structure(g: Graph, part: ComponentPartition) -> str | None:
    for comp, strong in zip(part.components, part.strongly_connected):
        if not strong:
            return f"node {comp[0]!r} forms a component with no cycle through it"
    idx = g._derived(_edge_index)
    comp_of = np.fromiter(map(part.index_of.__getitem__, idx.position), np.intp, len(idx.position))
    crossing = np.flatnonzero(comp_of[idx.src] != comp_of[idx.dst])
    if crossing.size:
        u, v = next(itertools.islice(g._edges, int(crossing[0]), None))
        return f"edge {u!r} -> {v!r} crosses strongly connected components"
    return None


def classify(g: Graph, cls: GraphClass) -> ClassVerdict:
    """Membership test with a human-readable diagnostic.

    ALL: every graph.  KP: disjoint union of strongly connected graphs.
    EV: KP plus equal component eigenvalues (``all_equal``).  KATZ(alpha):
    alpha * lambda <= 1 - 1e-6 for the global principal eigenvalue.
    """
    if cls.tag is ClassTag.ALL:
        return ClassVerdict(True)

    part = strongly_connected_components(g)

    if cls.tag is ClassTag.KP:
        reason = _check_kp_structure(g, part)
        return ClassVerdict(reason is None, reason)

    if cls.tag is ClassTag.EV:
        reason = _check_kp_structure(g, part)
        if reason is not None:
            return ClassVerdict(False, reason)
        data = spectral_data(g)
        if not all_equal(data.values, Mode.FLOAT):
            return ClassVerdict(
                False,
                "component principal eigenvalues differ: "
                f"{min(data.values):.12g} vs {data.lam:.12g}",
            )
        return ClassVerdict(True)

    alpha = coerce_decay(Mode.FLOAT, cls.alpha)  # ClassTag.KATZ
    data = spectral_data(g)
    if alpha * data.lam > 1.0 - KATZ_MARGIN:
        return ClassVerdict(
            False,
            f"alpha * lambda = {alpha * data.lam:.12g} exceeds the 1 - {KATZ_MARGIN:g} margin",
        )
    return ClassVerdict(True)


# -- file format --------------------------------------------------------------


def parse_graph(text: str, mode: Mode = Mode.RATIONAL) -> Graph:
    """Parse the `.dg` edge-list format.

    One declaration per line: ``# comment``, ``node <id> <weight>``, or
    ``edge <src> <dst> <weight>``.  Nodes must be declared before edges that
    reference them.  Weights are decimals or exact rationals ``p/q``.

    A new edge between declared nodes whose weight is plainly valid is
    stored at once, as ``parse_weight`` and ``Graph.add_edge`` would store
    it.  In FLOAT mode that is a literal without ``/`` that reads by
    ``float()`` as finite and positive.  In RATIONAL mode each distinct
    literal is parsed once, by ``parse_weight``, and its value kept for the
    rest of the text; an edge whose literal already has a value > 0 is
    plain.  The sign rule applies at each use, so a node's ``0`` never lets
    an edge's ``0`` through.  Every other line takes the checks of
    ``parse_weight`` and ``Graph.add_node``/``add_edge``, which raise every
    error.
    """
    g = Graph(mode)
    declared, edges = g._weights, g._edges
    plain_float = mode is Mode.FLOAT
    literals: dict[str, Weight] = {}  # rational mode: each literal's value

    def weight_of(token: str) -> Weight:
        if plain_float:
            return parse_weight(token, mode)
        if token not in literals:
            literals[token] = parse_weight(token, mode)
        return literals[token]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if len(fields) == 4 and fields[0] == "edge":
            _, u, v, token = fields
            key = u, v
            if u in declared and v in declared and key not in edges:
                if plain_float:
                    if "/" not in token:
                        try:
                            weight = float(token)
                        except ValueError:
                            pass
                        else:
                            if 0.0 < weight < math.inf:
                                edges[key] = weight
                                continue
                else:
                    weight = literals.get(token)
                    if weight is not None and weight > 0:
                        edges[key] = weight
                        continue
        if not fields or fields[0].startswith("#"):
            continue
        try:
            if fields[0] == "edge":
                if len(fields) != 4:
                    raise GraphFormatError("expected: edge <src> <dst> <weight>")
                g.add_edge(fields[1], fields[2], weight_of(fields[3]))
            elif fields[0] == "node":
                if len(fields) != 3:
                    raise GraphFormatError("expected: node <id> <weight>")
                g.add_node(fields[1], weight_of(fields[2]))
            else:
                raise GraphFormatError(f"unknown declaration {fields[0]!r}")
        except GraphFormatError as exc:
            raise GraphFormatError(str(exc), line=lineno) from None
    return g


def serialize_graph(g: Graph, canonical: bool = False) -> str:
    """Emit the `.dg` format: nodes then edges, insertion order.

    ``canonical=True`` sorts nodes and edges by id instead, for byte-stable
    comparisons between graphs built in different orders.
    """
    nodes = g.node_ids
    edges = list(g.edges())
    if canonical:
        nodes = sorted(nodes)
        edges.sort(key=lambda e: (e[0], e[1]))
    lines = [f"node {v} {format_weight(g.node_weight(v))}" for v in nodes]
    lines.extend(f"edge {u} {v} {format_weight(w)}" for u, v, w in edges)
    return "\n".join(lines) + "\n"
