"""Independent reference implementations used to cross-check the package.

Everything here recomputes results through a different route than the
library: explicit walk enumeration instead of state-vector iteration, dense
numpy eigendecomposition instead of power iteration, power iteration tested
after every step instead of once per block, least-squares
stationary vectors instead of the replaced-row solve, Gaussian elimination
over ``Fraction`` instead of fraction-free integer elimination, walks
stepped over ``Fraction`` amounts instead of integer numerators over one
common denominator, node groups folded one pair at a time instead of in one
pass, the feedback term summed node by node over in-edges instead of in one
pass over the edge table, float weight literals rounded from their exact
value instead of read by ``float()``, matrices written edge by edge instead
of from the edge index, Tarjan's algorithm over the neighbour maps instead
of integer successor lists, a plain line loop for the `.dg` format, edge
profits solved on their probe graph instead of taken in closed form, and
networkx for component structure.  Tests compare the two routes; neither side borrows code from the
other.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx
import numpy as np

from feedback_centrality import (
    DomainError,
    Graph,
    GraphFormatError,
    Measure,
    Mode,
    ProfitSpec,
    SingularMatrixError,
    Weight,
    delete_edge,
    profit_graph,
)
from feedback_centrality.graph import coerce, zero


def _zero(g: Graph) -> Weight:
    return Fraction(0) if g.mode is Mode.RATIONAL else 0.0


def walk_layers(g: Graph, kind: str, steps: int) -> list[dict[str, Weight]]:
    """Per-length walk mass, decay factored out.

    ``layers[L][v]`` is the sum over all directed walks of length exactly L
    ending at v of b(start) times the product of the walk's step factors —
    c(u,w) for the parallel process, c(u,w)/deg+(u) for the distributed one.
    The decayed partial sum at horizon T is then sum(alpha^L * layers[L]).
    """
    if kind not in ("parallel", "distributed"):
        raise ValueError(f"unknown process kind {kind!r}")
    layers = [dict.fromkeys(g.node_ids, _zero(g)) for _ in range(steps + 1)]

    def extend(node: str, length: int, mass: Weight) -> None:
        layers[length][node] = layers[length][node] + mass
        if length == steps:
            return
        for target, w in g.out_edges(node):
            factor = w if kind == "parallel" else w / g.out_degree(node)
            extend(target, length + 1, mass * factor)

    for start in g.node_ids:
        extend(start, 0, g.node_weight(start))
    return layers


def fold_layers(
    layers: list[dict[str, Weight]], alpha: Weight, horizon: int
) -> dict[str, Weight]:
    """Decayed partial sum over walk lengths 0..horizon."""
    nodes = list(layers[0])
    out = {v: layers[0][v] * (alpha**0) for v in nodes}
    for length in range(1, horizon + 1):
        scale = alpha**length
        for v in nodes:
            out[v] = out[v] + scale * layers[length][v]
    return out


def walk_series(
    g: Graph, kind: str, alpha: Weight, steps: int
) -> dict[str, Weight]:
    """Partial sums of the decayed walk process by explicit enumeration."""
    return fold_layers(walk_layers(g, kind, steps), alpha, steps)


def to_networkx(g: Graph) -> nx.DiGraph:
    d = nx.DiGraph()
    d.add_nodes_from(g.node_ids)
    for u, v, w in g.edges():
        d.add_edge(u, v, weight=float(w))
    return d


def nx_components(g: Graph) -> list[set[str]]:
    return [set(c) for c in nx.strongly_connected_components(to_networkx(g))]


def _target_row_adjacency(
    g: Graph, order: list[str], weight: dict[tuple[str, str], Weight] | None = None
) -> np.ndarray:
    """A[i, j] = float weight of edge order[j] -> order[i], one edge at a
    time; ``weight`` replaces the edge weights when given."""
    idx = {v: i for i, v in enumerate(order)}
    a = np.zeros((len(order), len(order)))
    for u, v, w in g.edges():
        if u in idx and v in idx:
            a[idx[v], idx[u]] = float(w if weight is None else weight[(u, v)])
    return a


def distributed_coefficients(g: Graph) -> dict[tuple[str, str], Weight]:
    """c(u, v) = w(u, v) / ``g.out_degree(u)`` per edge.  In float mode each
    source's coefficients are then divided by their sum, added up from 0.0
    in edge order."""
    c = {(u, v): w / g.out_degree(u) for u, v, w in g.edges()}
    if g.mode is Mode.RATIONAL:
        return c
    sums: dict[str, float] = {}
    for (u, _v), x in c.items():
        sums[u] = sums.get(u, 0.0) + x
    return {(u, v): x / sums[u] for (u, v), x in c.items()}


def dominant_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Right and left Perron vectors (sum-normalized) plus the Perron value,
    via dense eigendecomposition.  Intended for irreducible blocks."""
    vals, right = np.linalg.eig(a)
    i = int(np.argmax(vals.real))
    lam = float(vals[i].real)
    x = np.abs(right[:, i].real)
    x = x / x.sum()
    vals_l, left = np.linalg.eig(a.T)
    j = int(np.argmax(vals_l.real))
    y = np.abs(left[:, j].real)
    y = y / y.sum()
    return x, y, lam


def stepwise_power_vector(
    a: np.ndarray, shift: float, tol: float, max_iter: int
) -> tuple[np.ndarray, float]:
    """Power iteration on A + shift*I from the uniform vector, normalized
    to sum 1 and tested after every step.  Returns the iterate and its
    relative change max |x_new - x| / max(x_new) once that change is at most
    ``tol``, or after ``max_iter`` steps, whichever comes first."""
    n = a.shape[0]
    x = np.full(n, 1.0 / n)
    change = np.inf
    for _ in range(max_iter):
        y = a @ x + shift * x
        y = y / y.sum()
        change = float(np.abs(y - x).max() / y.max())
        x = y
        if change <= tol:
            break
    return x, change


def ev_oracle(g: Graph) -> dict[str, float]:
    """Eigenvector centrality via numpy eig, one strongly connected block at
    a time: value = x * (y.b) / (y.x) on each block."""
    out: dict[str, float] = {}
    for comp in nx_components(g):
        order = [v for v in g.node_ids if v in comp]
        a = _target_row_adjacency(g, order)
        x, y, _lam = dominant_eig(a)
        b = np.array([float(g.node_weight(v)) for v in order])
        scale = float(y @ b) / float(y @ x)
        for i, v in enumerate(order):
            out[v] = float(x[i] * scale)
    return out


def stationary_oracle(g: Graph) -> dict[str, float]:
    """Stationary-prestige values via least squares on each component.

    Solves the overdetermined system [M - I; 1] pi = [0; 1] per strongly
    connected component and scales by the component's total node weight.
    """
    out: dict[str, float] = {}
    for comp in nx_components(g):
        order = [v for v in g.node_ids if v in comp]
        idx = {v: i for i, v in enumerate(order)}
        n = len(order)
        m = np.zeros((n, n))
        for u in order:
            deg = float(g.out_degree(u))
            for v, w in g.out_edges(u):
                m[idx[v], idx[u]] = float(w) / deg
        system = np.vstack([m - np.eye(n), np.ones((1, n))])
        rhs = np.zeros(n + 1)
        rhs[-1] = 1.0
        pi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        mass = sum(float(g.node_weight(v)) for v in order)
        for v in order:
            out[v] = float(pi[idx[v]] * mass)
    return out


def damped_oracle(g: Graph, alpha: float, distributed: bool) -> dict[str, float]:
    """PageRank/Katz values via a dense numpy solve of (I - alpha*W) x = b."""
    order = g.node_ids
    idx = {v: i for i, v in enumerate(order)}
    n = len(order)
    w = np.zeros((n, n))
    for u, v, weight in g.edges():
        value = float(weight)
        if distributed:
            value /= float(g.out_degree(u))
        w[idx[v], idx[u]] = value
    b = np.array([float(g.node_weight(v)) for v in order])
    x = np.linalg.solve(np.eye(n) - alpha * w, b)
    return {v: float(x[idx[v]]) for v in order}


def probe_profit(measure: Measure, spec: ProfitSpec, rest: bool = True) -> Weight:
    """The profit of ``spec``'s edge by its definition: the measure solved on
    ``profit_graph`` in the mode the argument types pick, read at ``tgt``.
    ``rest=False`` drops the probe's rest edge, which a katz target's value
    does not depend on.

    A float solve whose matrix overflows ends in ``SingularMatrixError``;
    numpy's overflow warning on the way there is not part of the answer.
    """
    args = (spec.source_value, spec.edge_weight, spec.out_degree, measure.alpha)
    mode = Mode.FLOAT if any(isinstance(t, float) for t in args) else Mode.RATIONAL
    g = profit_graph(spec, mode)
    if not rest and g.has_edge("src", "rest"):
        g = delete_edge(g, "src", "rest")
    with np.errstate(over="ignore"):
        return measure.compute(g)["tgt"]


def fraction_walk(
    g: Graph, kind: str, alpha: Weight, steps: int
) -> tuple[dict[str, Fraction], dict[str, Fraction] | None, dict[str, Fraction], list[Fraction]]:
    """The exact walk stepped over ``Fraction`` amounts, one multiply, divide
    (distributed process) and add per edge and step.

    Returns ``(partial_sum, cesaro, last, totals)``: the sum of the states at
    steps 0..T, that sum divided by T (None when T = 0), the state at step T
    and each state's total, all in node order.
    """
    if kind not in ("parallel", "distributed"):
        raise ValueError(f"unknown process kind {kind!r}")
    alpha = Fraction(alpha)
    order = g.node_ids
    degrees = {u: sum((w for _v, w in g.out_edges(u)), Fraction(0)) for u in order}
    amounts = g.node_weights()
    partial = dict(amounts)
    totals = [sum(amounts.values(), Fraction(0))]
    for _ in range(steps):
        flow = dict.fromkeys(order, Fraction(0))
        for u, v, w in g.edges():
            term = w * amounts[u]
            if kind == "distributed":
                term /= degrees[u]
            flow[v] += term
        amounts = {v: alpha * acc for v, acc in flow.items()}
        for v in order:
            partial[v] += amounts[v]
        totals.append(sum(amounts.values(), Fraction(0)))
    cesaro = {v: partial[v] / steps for v in order} if steps >= 1 else None
    return partial, cesaro, amounts, totals


def fraction_gauss(
    a: list[list[Fraction]], rhs: list[Fraction]
) -> list[Fraction]:
    """Exact solve of a square rational system by Gaussian elimination.

    Pivots on the first non-zero entry in each column (exact arithmetic
    needs no magnitude pivoting), so the result is deterministic.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(rhs) != n:
        raise DomainError("system dimensions do not match")
    m = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(a, rhs)]

    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
        prow = m[col]
        pivot = prow[col]
        for r in range(col + 1, n):
            factor = m[r][col]
            if factor:
                factor /= pivot
                row = m[r]
                for c in range(col, n + 1):
                    row[c] -= factor * prow[c]

    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        row = m[r]
        for c in range(r + 1, n):
            if row[c]:
                acc -= row[c] * x[c]
        x[r] = acc / row[r]
    return x


def per_node_in_flow(
    g: Graph, x: dict[str, Weight], distributed: bool
) -> dict[str, Weight]:
    """For each node v in node order, the sum over ``g.in_edges(v)`` of
    c(u, v) * x[u], c the edge weight or, when ``distributed``, the
    ``distributed_coefficients``; terms are added in in-edge order."""
    c = distributed_coefficients(g) if distributed else None
    out: dict[str, Weight] = {}
    for v in g.node_ids:
        acc = _zero(g)
        for u, w in g.in_edges(v):
            acc += (c[(u, v)] if distributed else w) * x[u]
        out[v] = acc
    return out


def pairwise_combine(
    g: Graph, u: str, w: str, value_u: Weight, value_w: Weight
) -> Graph:
    """Merge node u into node w, splitting their outgoing weight by value.

    u's out-edges are scaled by value_u/(value_u+value_w) and w's by the
    complementary share; every edge endpoint at u is then re-addressed to w
    (edges between the pair become a self-loop at w), parallel results are
    summed, and anything scaled to zero is dropped.  w absorbs u's node
    weight.  The values must be non-negative and not both zero — combining
    carries no meaning for a pair with no weight to split.
    """
    g._require_node(u)
    g._require_node(w)
    if u == w:
        raise DomainError(f"cannot combine node {u!r} with itself")
    vu = coerce(g.mode, value_u, "combining value")
    vw = coerce(g.mode, value_w, "combining value")
    if vu < 0 or vw < 0:
        raise DomainError("combining values must be non-negative")
    total = vu + vw
    if total == 0:
        raise DomainError("combining values must not both be zero")
    share_u = vu / total
    share_w = vw / total

    merged: dict[tuple[str, str], Weight] = {}
    for a, b, wt in g.edges():
        if a == u:
            wt = wt * share_u
        elif a == w:
            wt = wt * share_w
        key = (w if a == u else a, w if b == u else b)
        merged[key] = merged.get(key, zero(g.mode)) + wt
    return Graph.build(
        (
            (n, wt + g.node_weight(u) if n == w else wt)
            for n, wt in g.node_weights().items()
            if n != u
        ),
        ((a, b, wt) for (a, b), wt in merged.items() if wt != 0),
        g.mode,
    )


def sequential_combine(
    g: Graph, groups: dict[str, list[str]], values: dict[str, Weight]
) -> tuple[Graph, dict[str, Weight]]:
    """Fold each group into its first member one member at a time, each fold
    a ``pairwise_combine`` that rebuilds the graph."""
    vals = dict(values)
    cur = g
    for key, members in groups.items():
        if not members:
            raise DomainError(f"group {key!r} is empty")
        rep = members[0]
        cur._require_node(rep)
        for member in members[1:]:
            cur._require_node(member)
            cur = pairwise_combine(cur, member, rep, vals[member], vals[rep])
            vals[rep] = vals[rep] + vals.pop(member)
    return cur, vals


def exact_float_weight(token: str) -> float:
    """A float-mode weight literal read through its exact value: ``Fraction``
    first, then one rounding, with the errors ``parse_weight`` raises."""
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad weight literal {token!r}") from exc
    try:
        return float(value)
    except OverflowError:
        raise GraphFormatError(f"weight literal {token!r} does not fit in a float") from None


def dict_tarjan(g: Graph) -> list[list[str]]:
    """Strongly connected components, condensation order, by Tarjan's
    algorithm over node ids and the out-neighbour lists of ``g.out_edges``
    (edge insertion order), each component in the order it leaves the stack,
    reversed."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = 0
    out = {v: [t for t, _w in g.out_edges(v)] for v in g.node_ids}

    for root in g.node_ids:
        if root in index:
            continue
        work = [(root, iter(out[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(out[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
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
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comp.reverse()
                components.append(comp)
    components.reverse()
    return components


def reference_parse(text: str, mode: Mode) -> Graph:
    """The `.dg` format by a plain line loop with its own checks.

    Per declaration line: the field count, then the weight literal (rational:
    ``Fraction``; float: ``exact_float_weight``), then the ids (declared
    before use, no duplicates), then the weight's sign (node weights >= 0,
    edge weights > 0).  The first failure raises ``GraphFormatError`` with
    its 1-based line number.
    """
    nodes: dict[str, Weight] = {}
    edges: dict[tuple[str, str], Weight] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "node":
                if len(fields) != 3:
                    raise GraphFormatError("expected: node <id> <weight>")
                v, w = fields[1], _reference_weight(fields[2], mode)
                if v in nodes:
                    raise GraphFormatError(f"duplicate node {v!r}")
                if w < 0:
                    raise GraphFormatError(f"negative weight for node {v!r}")
                nodes[v] = w
            elif fields[0] == "edge":
                if len(fields) != 4:
                    raise GraphFormatError("expected: edge <src> <dst> <weight>")
                u, v, w = fields[1], fields[2], _reference_weight(fields[3], mode)
                for end in (u, v):
                    if end not in nodes:
                        raise GraphFormatError(f"edge endpoint {end!r} is not a declared node")
                if (u, v) in edges:
                    raise GraphFormatError(f"duplicate edge {u!r} -> {v!r}")
                if w <= 0:
                    raise GraphFormatError(f"non-positive weight for edge {u!r} -> {v!r}")
                edges[(u, v)] = w
            else:
                raise GraphFormatError(f"unknown declaration {fields[0]!r}")
        except GraphFormatError as exc:
            raise GraphFormatError(str(exc), line=lineno) from None
    return Graph.build(nodes.items(), ((u, v, w) for (u, v), w in edges.items()), mode)


def _reference_weight(token: str, mode: Mode) -> Weight:
    if mode is Mode.FLOAT:
        return exact_float_weight(token)
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"bad weight literal {token!r}") from exc
