"""Graph surgery and the exact cycle decomposition pipeline.

Three families live here:

* Local rewrites — proportional node combining, per-node edge scaling
  (multiplication and compensation), out-degree normalization, and the
  eigenvector-based regularization that makes a graph lambda-out-regular.
* The impact pipeline — edge impacts of katz-prestige, the integer
  multigraph they induce, its Euler circuit, the constant-weight cycle
  graph synthesized from that circuit, and the recombination that folds
  the cycle back into the original graph *exactly* (rational arithmetic
  end to end).
* Profit — the marginal value an extra in-edge delivers under the damped
  measures, defined on a three-node probe graph and priced in closed form,
  plus the decomposition of a measure into per-edge profits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, GraphFormatError, SingularMatrixError
from .graph import (
    Graph,
    Mode,
    Weight,
    coerce,
    coerce_decay,
    format_weight,
    opposite_graph,
    out_regularity,
    semi_out_regularity,
    step_coefficients,
    strongly_connected_components,
    zero,
)
from .measures import (
    PARAMETRIC_KINDS,
    Measure,
    MeasureKind,
    check_pagerank_decay,
    eigenvector_centrality,
    katz_prestige,
)

#: Ceiling for the integer scale of an impact multigraph.
SCALE_CAP = 10**6


# -- proportional combining ---------------------------------------------------


def proportional_combine(
    g: Graph, u: str, w: str, value_u: Weight, value_w: Weight
) -> Graph:
    """Merge node u into node w, splitting their outgoing weight by value: the
    two-node case of ``combine_groups``."""
    g._require_node(u)  # an unknown u is reported before u == w
    if u == w:
        raise DomainError(f"cannot combine node {u!r} with itself")
    return combine_groups(g, {w: [w, u]}, {u: value_u, w: value_w})[0]


def combine_groups(
    g: Graph, groups: dict[str, list[str]], values: dict[str, Weight]
) -> tuple[Graph, dict[str, Weight]]:
    """Fold each group of nodes into its first member, in one pass.

    Groups are disjoint.  Each member's out-edges are scaled by its share v/V
    of the group's total value V (values non-negative, V positive); edge
    endpoints are then re-addressed to their group's first member, parallel
    results summed and zeros dropped.  The first member keeps its id and
    place, absorbs the group's node weight and holds V among the returned
    values; other nodes, and one-node groups, pass through unchanged.
    """
    first: dict[str, str] = {}
    share: dict[str, Weight] = {}
    totals: dict[str, Weight] = {}
    for key, members in groups.items():
        if not members:
            raise DomainError(f"group {key!r} is empty")
        for m in members:
            g._require_node(m)
            if m in first:
                raise DomainError(f"node {m!r} is listed twice in the groups")
            first[m] = members[0]
        if len(members) == 1:
            continue
        missing = next((m for m in members if m not in values), None)
        if missing is not None:
            raise DomainError(f"no combining value for node {missing!r}")
        vals = [coerce(g.mode, values[m], "combining value") for m in members]
        if min(vals) < 0:
            raise DomainError("combining values must be non-negative")
        total = totals[members[0]] = sum(vals, zero(g.mode))
        if total == 0:
            both = "both" if len(members) == 2 else "all"
            raise DomainError(f"combining values must not {both} be zero")
        share.update((m, v / total) for m, v in zip(members, vals))

    weights = g.node_weights()
    for m, rep in first.items():
        if m != rep:
            weights[rep] = weights[rep] + weights.pop(m)
    merged: dict[tuple[str, str], Weight] = {}
    for a, b, wt in g.edges():
        if a in share:
            wt = wt * share[a]
        key = (first.get(a, a), first.get(b, b))
        merged[key] = merged.get(key, zero(g.mode)) + wt
    combined = Graph.build(
        weights.items(),
        ((a, b, wt) for (a, b), wt in merged.items() if wt != 0),
        g.mode,
    )
    return combined, {v: totals.get(v, x) for v, x in values.items() if first.get(v, v) == v}


# -- per-node edge scaling ----------------------------------------------------


def edge_multiplication(g: Graph, u: str, factor: Weight) -> Graph:
    """Scale every out-edge of u (self-loop included) by a positive factor."""
    g._require_node(u)
    factor = coerce(g.mode, factor, "factor")
    if factor <= 0:
        raise DomainError(f"edge multiplication needs a factor > 0, got {format_weight(factor)}")
    return Graph.build(
        g.node_weights().items(),
        ((a, b, wt * factor if a == u else wt) for a, b, wt in g.edges()),
        g.mode,
    )


def edge_compensation(g: Graph, u: str, factor: Weight) -> Graph:
    """Scale u's out-edges by ``factor``; divide its in-edges and its node
    weight by the same factor.

    The self-loop at u, being both in and out, is left alone.  This is the
    diagonal similarity that divides u's coordinate by ``factor``: walk
    products through u are preserved and the re-weighted node weight feeds
    the recursion exactly as before, so the parallel-feedback measures react
    by scaling u's value only.
    """
    g._require_node(u)
    factor = coerce(g.mode, factor, "factor")
    if factor <= 0:
        raise DomainError(f"edge compensation needs a factor > 0, got {format_weight(factor)}")

    def compensated(a: str, b: str, wt: Weight) -> Weight:
        if a == u and b != u:
            return wt * factor
        if b == u and a != u:
            return wt / factor
        return wt

    return Graph.build(
        ((n, wt / factor if n == u else wt) for n, wt in g.node_weights().items()),
        ((a, b, compensated(a, b, wt)) for a, b, wt in g.edges()),
        g.mode,
    )


# -- regularization -----------------------------------------------------------


def out_degree_normalize(g: Graph) -> Graph:
    """Divide each edge by its source's out-degree: the distributed step
    coefficients become the edge weights.

    Non-sink nodes become 1-out-regular, and both distributed-feedback
    measures are untouched: the transition matrix is unchanged entry by
    entry.
    """
    return Graph.build(
        g.node_weights().items(),
        ((a, b, c) for (a, b), c in step_coefficients(g, True)),
        g.mode,
    )


def ec_regularize(g: Graph) -> Graph:
    """Reweight so the graph becomes lambda-out-regular, with lambda the
    principal eigenvalue.

    Each edge (u, v) is scaled by r(v)/r(u) and each node weight by r(v),
    where r is the eigenvector centrality of the *opposite* graph; the new
    out-degree of u telescopes to exactly lambda everywhere.  Float-only,
    like the eigenvector measure itself, and every component must carry
    positive node weight so that r is strictly positive.
    """
    r = eigenvector_centrality(opposite_graph(g))  # refuses a rational graph
    if min(r.values.values(), default=1.0) <= 0:
        raise DomainError(
            "regularization needs positive reverse eigenvector values; "
            "some component has zero total node weight"
        )
    return Graph.build(
        ((n, wt * r[n]) for n, wt in g.node_weights().items()),
        ((a, b, wt * r[b] / r[a]) for a, b, wt in g.edges()),
        Mode.FLOAT,
    )


# -- impacts and the cycle pipeline -------------------------------------------


def compute_impacts(g: Graph) -> dict[tuple[str, str], Weight]:
    """Impact of each edge: the katz-prestige flow it carries.

    impact(u, v) = KP(u) * w(u, v) / outdeg(u), KP(u) times the distributed
    step coefficient.  At every node the incoming impacts sum to the node's
    katz-prestige, as do the outgoing ones, so impacts form a circulation.
    """
    kp = katz_prestige(g)
    return {(u, v): kp[u] * c for (u, v), c in step_coefficients(g, True)}


@dataclass
class ImpactMultigraph:
    """Integer edge multiplicities ``scale * impact`` (scale = lcm of impact
    denominators), keyed by edge in the source graph's edge order.
    Multiplicities sum to ``scale``, and every node is balanced:
    in-multidegree equals out-multidegree equals scale * katz-prestige.
    The impacts themselves are ``compute_impacts(g)``."""

    multiplicity: dict[tuple[str, str], int]
    scale: int

    def out_multidegree(self, v: str) -> int:
        return sum(m for (a, _b), m in self.multiplicity.items() if a == v)


def build_impact_multigraph(g: Graph) -> ImpactMultigraph:
    """Clear impact denominators into integer edge multiplicities.

    Rational-mode only, and the node weights must sum to exactly 1 — that
    normalization is what makes the multiplicities sum to the scale itself.
    Every edge needs positive impact (i.e. every strongly connected
    component needs positive total node weight), otherwise zero-multiplicity
    edges would silently fall out of the construction.
    """
    if g.mode is not Mode.RATIONAL:
        raise DomainError("the impact multigraph needs a rational-mode graph")
    total = g.total_node_weight()
    if total != 1:
        raise DomainError(
            f"total node weight must be exactly 1, got {format_weight(total)}; "
            "rescale the node weights first"
        )
    impacts = compute_impacts(g)
    for (u, v), imp in impacts.items():
        if imp <= 0:
            raise DomainError(
                f"edge {u!r} -> {v!r} carries zero impact; every strongly "
                "connected component needs positive total node weight"
            )
    scale = math.lcm(*(imp.denominator for imp in impacts.values()))
    if scale > SCALE_CAP:
        raise DomainError(
            f"impact denominators need a scale of {format_weight(scale)}, "
            f"beyond the cap {SCALE_CAP}"
        )
    multiplicity: dict[tuple[str, str], int] = {}
    for edge, imp in impacts.items():
        m = imp * scale
        assert m.denominator == 1
        multiplicity[edge] = int(m)
    assert sum(multiplicity.values()) == scale
    return ImpactMultigraph(multiplicity, scale)


def _euler_circuit(targets: dict[str, list[str]], start: str) -> list[str]:
    """Hierholzer's algorithm; targets are consumed in list order.

    Returns the closed walk as a node sequence (first == last).  Assumes the
    multigraph is balanced and connected, which the impact construction
    guarantees per component.
    """
    ptr = {v: 0 for v in targets}
    stack = [start]
    walk: list[str] = []
    while stack:
        v = stack[-1]
        lst = targets.get(v, ())
        if ptr.get(v, 0) < len(lst):
            stack.append(lst[ptr[v]])
            ptr[v] += 1
        else:
            walk.append(stack.pop())
    walk.reverse()
    return walk


@dataclass
class CycleSynthesis:
    """A constant-weight cycle graph equivalent to the source graph.

    ``cycle_graph`` has one directed cycle per source component; each source
    node v appears ``scale * KP(v)`` times, carrying b(v) split evenly over
    the copies, and every edge has the source graph's common out-degree as
    its weight.  ``groups`` maps each source node to its copies in circuit
    order (first copy keeps the source id).  ``recombine`` folds the groups
    back and reproduces the source exactly.
    """

    cycle_graph: Graph
    groups: dict[str, list[str]]
    scale: int
    edge_weight: Fraction


def synthesize_cycle_graph(g: Graph) -> CycleSynthesis:
    """Unroll an out-regular graph into constant-weight cycles.

    Walks an Euler circuit of the impact multigraph in each strongly
    connected component and lays the visits out as a directed cycle.  The
    graph must be out-regular (normalize first if it is not): the common
    out-degree is the only edge weight for which recombination can restore
    the original weights.
    """
    x = out_regularity(g)
    if x is None:
        raise DomainError(
            "cycle synthesis needs an out-regular graph; apply out-degree "
            "normalization first"
        )
    mg = build_impact_multigraph(g)
    part = strongly_connected_components(g)

    targets: dict[str, list[str]] = {v: [] for v in g.node_ids}
    for u, v, _wt in g.edges():
        targets[u].extend([v] * mg.multiplicity[(u, v)])

    cycle = Graph(Mode.RATIONAL)
    groups: dict[str, list[str]] = {v: [] for v in g.node_ids}
    used: set[str] = set()

    def occurrence_name(orig: str) -> str:
        if not groups[orig] and orig not in used:
            return orig
        k = max(len(groups[orig]) + 1, 2)
        while f"{orig}#{k}" in used:
            k += 1
        return f"{orig}#{k}"

    for comp in part.components:
        walk = _euler_circuit({v: targets[v] for v in comp}, comp[0])
        names: list[str] = []
        for orig in walk[:-1]:
            name = occurrence_name(orig)
            used.add(name)
            groups[orig].append(name)
            names.append(name)
            cycle.add_node(name, Fraction(g.node_weight(orig), 1) / len(targets[orig]))
        for i, name in enumerate(names):
            cycle.add_edge(name, names[(i + 1) % len(names)], Fraction(x))

    return CycleSynthesis(cycle, groups, mg.scale, Fraction(x))


def recombine(synth: CycleSynthesis) -> tuple[Graph, dict[str, Weight]]:
    """Fold a cycle synthesis back together.

    Every cycle node starts with value 1/scale (its katz-prestige: the cycle
    graph has exactly ``scale`` nodes of uniform prestige); combining a
    group then accumulates exactly the source node's prestige, and the
    combined graph equals the source graph weight for weight.
    """
    unit = Fraction(1, synth.scale)
    values = {v: unit for v in synth.cycle_graph.node_ids}
    return combine_groups(synth.cycle_graph, synth.groups, values)


# -- profit -------------------------------------------------------------------


@dataclass(frozen=True)
class ProfitSpec:
    """Arguments of the profit question: what is one in-edge worth?

    ``source_value`` — node weight of the paying node; ``edge_weight`` — the
    edge being priced; ``out_degree`` — the paying node's total out-degree
    (at least the edge weight).
    """

    source_value: Weight
    edge_weight: Weight
    out_degree: Weight

    def __post_init__(self):
        if self.edge_weight <= 0:
            raise DomainError("profit needs a positive edge weight")
        if self.out_degree < self.edge_weight:
            raise DomainError("out-degree cannot be smaller than the edge weight")
        if self.source_value < 0:
            raise DomainError("source value must be non-negative")


_PROFIT_ARGUMENTS = ("source value", "edge weight", "out-degree")


def profit_graph(spec: ProfitSpec, mode: Mode) -> Graph:
    """The probe graph behind the profit value.

    A paying node ``src`` holds the source value and spends its out-degree
    on an edge to ``tgt`` (the priced edge) plus, when some out-degree
    remains, one aggregate edge to ``rest``.
    """
    args = (spec.source_value, spec.edge_weight, spec.out_degree)
    x, y, z = (coerce(mode, t, what) for t, what in zip(args, _PROFIT_ARGUMENTS))
    g = Graph(mode)
    g.add_node("src", x)
    g.add_node("tgt", zero(mode))
    rest = z - y
    if rest > 0:
        g.add_node("rest", zero(mode))
    g.add_edge("src", "tgt", y)
    if rest > 0:
        g.add_edge("src", "rest", rest)
    return g


def profit_value(measure: Measure, spec: ProfitSpec) -> Weight:
    """The target's value on the probe graph (``profit_graph``, the
    definition it is tested against) in closed form, as the probe is
    acyclic: (alpha * y / z) * x for pagerank, (alpha * y) * x for katz at
    any decay, x, y, z the source value, edge weight and out-degree.  The
    argument types pick the mode; errors are of the probe's classes."""
    if measure.kind not in PARAMETRIC_KINDS:
        raise DomainError(f"profit is not defined for {measure.kind.value}")
    args = (spec.source_value, spec.edge_weight, spec.out_degree)
    floaty = any(isinstance(t, float) for t in (*args, measure.alpha))
    mode = Mode.FLOAT if floaty else Mode.RATIONAL
    x, y, z = (coerce(mode, t, what) for t, what in zip(args, _PROFIT_ARGUMENTS))
    if floaty:
        z = y + (z - y) if z > y else y  # the probe's out-degree; a nan one adds no rest edge
        if not all(map(math.isfinite, (x, y, z))):
            raise GraphFormatError("profit arguments must be finite")
    alpha = coerce_decay(mode, measure.alpha)
    katz = measure.kind is MeasureKind.KATZ
    if not katz:  # an exact decay just below 1 may round to 1.0
        check_pagerank_decay(alpha)
    value = (alpha * (y if katz else y / z)) * x
    if floaty and not math.isfinite(value):
        raise SingularMatrixError("profit value does not fit in a float")
    return value


def profit_decomposition(g: Graph, measure: Measure) -> dict[str, Weight]:
    """Rebuild each node's value as node weight plus in-edge profits.

    On a semi-out-regular graph (every non-sink spends the same total
    out-degree) the damped measures decompose exactly: the value of v is
    b(v) plus the profit of every in-edge (u, v), self-loops included, at
    source value x_u.  One pass over the edges prices each by
    ``profit_value``'s closed form (alpha * c) * x_u, c = w/outdeg(u) for
    pagerank and w for katz: the decay damps c before it meets x_u.
    """
    if measure.kind not in PARAMETRIC_KINDS:
        raise DomainError(f"profit decomposition is not defined for {measure.kind.value}")
    if not semi_out_regularity(g)[0]:
        raise DomainError("profit decomposition needs a semi-out-regular graph")
    values = measure.compute(g).values
    katz = measure.kind is MeasureKind.KATZ
    alpha = coerce_decay(g.mode, measure.alpha)  # compute has checked it
    out = g.node_weights()
    for (u, v), c in step_coefficients(g, not katz):
        out[v] += (alpha * c) * values[u]
    return out
