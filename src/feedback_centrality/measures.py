"""The four feedback centralities.

Every measure here scores a node by the weighted scores of its in-neighbors:

* ``pagerank(a)``      x_v = a * sum over edges (u,v) of c(u,v)/outdeg(u) * x_u + b(v)
* ``katz(a)``          x_v = a * sum of c(u,v) * x_u + b(v)
* ``katz-prestige``    x_v =     sum of c(u,v)/outdeg(u) * x_u
* ``eigenvector``      x_v = 1/lambda * sum of c(u,v) * x_u

The first pair are linear systems with a unique solution on their class; the
second pair are eigenproblems whose scale is pinned down by node weights:
katz-prestige distributes the total node weight of each strongly connected
component across the component's stationary distribution, and eigenvector
centrality keeps, inside each component, the share of b seen by the
component's left Perron vector.

Each measure owns a graph class and raises DomainError outside of it.
Computations honor the graph's numeric mode; eigenvector centrality is the
exception and exists only in float mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .graph import (
    ClassTag,
    ClassVerdict,
    Graph,
    GraphClass,
    Mode,
    Weight,
    adjacency_matrix,
    check_decay_sign,
    classify,
    coerce,
    coerce_decay,
    format_weight,
    in_flow,
    node_weight_vector,
    spectral_data,
    step_coefficients,
    strongly_connected_components,
    transition_matrix,
    zero,
)
from .linalg import DENSE_MATRIX_LIMIT, check_solve_size, solve_integer, solve_refined


class MeasureKind(enum.Enum):
    PAGERANK = "pagerank"
    KATZ = "katz"
    KATZ_PRESTIGE = "katz-prestige"
    EIGENVECTOR = "eigenvector"


#: Kinds whose recursion carries a decay parameter.
PARAMETRIC_KINDS = frozenset({MeasureKind.PAGERANK, MeasureKind.KATZ})

#: Each measure's graph class; Katz's carries the measure's decay.
_CLASS_TAGS = {MeasureKind.PAGERANK: ClassTag.ALL, MeasureKind.KATZ: ClassTag.KATZ,
               MeasureKind.KATZ_PRESTIGE: ClassTag.KP, MeasureKind.EIGENVECTOR: ClassTag.EV}


@dataclass
class CentralityVector:
    """Per-node scores, keyed and ordered like the source graph's nodes."""

    values: dict[str, Weight]
    mode: Mode

    def __getitem__(self, v: str) -> Weight:
        try:
            return self.values[v]
        except KeyError:
            raise DomainError(f"unknown node {v!r}") from None

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def total(self) -> Weight:
        return sum(self.values.values(), zero(self.mode))


# -- measure object -----------------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """A centrality measure: a kind plus, where the kind needs one, a decay.

    ``alpha`` must match the numeric mode of the graphs it will be applied
    to (Fraction for rational, float for float).  The measure owns its
    domain: the decay's sign and bound, and the class (``check_class``).
    """

    kind: MeasureKind
    alpha: Weight | None = None

    def __post_init__(self):
        if self.kind in PARAMETRIC_KINDS:
            if self.alpha is None:
                raise DomainError(f"{self.kind.value} needs a decay parameter")
            check_decay_sign(self.alpha)
            if self.kind is MeasureKind.PAGERANK:
                check_pagerank_decay(self.alpha)
        elif self.alpha is not None:
            raise DomainError(f"{self.kind.value} takes no decay parameter")

    def name(self) -> str:
        if self.alpha is not None:
            return f"{self.kind.value}({format_weight(self.alpha)})"
        return self.kind.value

    def admits(self, g: Graph) -> ClassVerdict:
        alpha = self.alpha if self.kind is MeasureKind.KATZ else None
        return classify(g, GraphClass(_CLASS_TAGS[self.kind], alpha))

    def check_class(self, g: Graph) -> None:
        """The one refusal of a graph outside the measure's class."""
        verdict = self.admits(g)
        if not verdict:
            raise DomainError(f"graph is outside the {self.kind.value} class: {verdict.reason}")

    def compute(self, g: Graph) -> CentralityVector:
        if self.kind is MeasureKind.PAGERANK:
            return pagerank(g, self.alpha)
        if self.kind is MeasureKind.KATZ:
            return katz_centrality(g, self.alpha)
        if self.kind is MeasureKind.KATZ_PRESTIGE:
            return katz_prestige(g)
        return eigenvector_centrality(g)


def check_pagerank_decay(alpha: Weight) -> Weight:
    """``alpha``, after the one refusal of a decay beyond pagerank's bound."""
    if alpha >= 1:
        raise DomainError(f"pagerank needs 0 <= alpha < 1, got {format_weight(alpha)}")
    return alpha


# -- linear-system measures ---------------------------------------------------


def _rational_system(
    g: Graph, order: list[str], alpha: Weight, distributed: bool, rhs: list[Weight]
) -> list[list[int]]:
    """The augmented system [I - alpha * M | rhs] over ``order`` as integer
    rows, M the transition matrix (distributed) or the adjacency, built from
    the step coefficients: c(u, v) taken over u's full out-degree in g.

    With alpha = p/q, row v is scaled by S_v, the LCM of the denominators of
    rhs[v] and of q * c(u, v) over v's in-edges inside ``order``, so its
    entries are S_v * [u == v] - S_v/(q * den c) * p * num c and no
    ``Fraction`` is formed."""
    pos = {v: i for i, v in enumerate(order)}
    n, p, q = len(order), alpha.numerator, alpha.denominator
    terms: list[list[tuple[int, int, int]]] = [[] for _ in order]
    for (u, v), c in step_coefficients(g, distributed):
        j, i = pos.get(u), pos.get(v)
        if j is not None and i is not None:
            terms[i].append((j, c.numerator, q * c.denominator))
    rows = []
    for i, (entries, r) in enumerate(zip(terms, rhs)):
        scale = math.lcm(r.denominator, *(d for _j, _c, d in entries))
        row = [0] * (n + 1)
        row[i] = scale
        row[n] = r.numerator * (scale // r.denominator)
        for j, c, d in entries:
            row[j] -= scale // d * p * c
        rows.append(row)
    return rows


def _float_system(g: Graph, order: list[str], alpha: float, distributed: bool) -> np.ndarray:
    """I - alpha * M over ``order`` as a dense float array, on a graph of
    either mode, written over M's array: one n x n allocation, made after
    the size checks.  A graph past ``DENSE_MATRIX_LIMIT`` gets the matrix
    builder's refusal, as in every request; one past ``DENSE_SOLVE_LIMIT``
    unknowns, ``check_solve_size``'s.  0 - alpha*M, then 1 added on the
    diagonal, gives the bits of I - alpha*M, +0.0 where M has none."""
    if len(order) <= DENSE_MATRIX_LIMIT:
        check_solve_size(len(order))
    k = (transition_matrix if distributed else adjacency_matrix)(g, order)
    with np.errstate(over="ignore"):  # an infinite entry fails the solve
        k *= alpha
    np.subtract(0.0, k, out=k)
    k[np.diag_indices(len(order))] += 1.0
    return k


def _solve(
    g: Graph, order: list[str], alpha: Weight, distributed: bool, rhs: list[Weight],
    stationary: bool = False,
) -> list[Weight]:
    """Solve (I - alpha * M) x = rhs over ``order`` in g's mode, M as in
    ``_solve_damped``: exactly on integer rows, by refined LU on a float
    array.  ``stationary`` replaces the last row by all-ones, which states
    sum(x) = rhs[-1], an integer."""
    if g.mode is Mode.RATIONAL:
        rows = _rational_system(g, order, alpha, distributed, rhs)
        if stationary:
            rows[-1] = [1] * len(order) + [rhs[-1]]
        return solve_integer(rows)
    k = _float_system(g, order, alpha, distributed)
    if stationary:
        k[-1] = 1.0
    return solve_refined(k, np.array(rhs, dtype=np.float64)).tolist()


def _solve_damped(g: Graph, alpha: Weight, distributed: bool) -> CentralityVector:
    """Solve (I - alpha * M) x = b in the graph's numeric mode, M the
    transition matrix when ``distributed``, else the adjacency."""
    order = g.node_ids
    x = _solve(g, order, alpha, distributed, [g.node_weight(v) for v in order])
    return CentralityVector(dict(zip(order, x)), g.mode)


def pagerank(g: Graph, alpha: Weight) -> CentralityVector:
    """Damped distributed feedback: x = alpha * M x + b, alpha in [0, 1).

    M is the out-degree-normalized adjacency; sink nodes pass nothing on.
    Defined for every graph.
    """
    alpha = check_pagerank_decay(coerce_decay(g.mode, alpha))
    return _solve_damped(g, alpha, distributed=True)


def katz_centrality(g: Graph, alpha: Weight) -> CentralityVector:
    """Damped parallel feedback: x = alpha * A x + b.

    Needs alpha * lambda bounded away from 1 (margin 1e-6), where lambda is
    the graph's largest component eigenvalue; the Neumann series diverges at
    the boundary and the solve becomes meaningless past it.
    """
    alpha = coerce_decay(g.mode, alpha)
    Measure(MeasureKind.KATZ, alpha).check_class(g)
    return _solve_damped(g, alpha, distributed=False)


def katz_prestige(g: Graph) -> CentralityVector:
    """Undamped distributed feedback: x = M x, scale fixed by node weights.

    On each strongly connected component the recursion pins x to the
    stationary distribution of the component's transition matrix, scaled by
    the component's total node weight.  Requires the graph to be a disjoint
    union of strongly connected graphs.
    """
    Measure(MeasureKind.KATZ_PRESTIGE).check_class(g)
    out: dict[str, Weight] = {}
    for comp in strongly_connected_components(g).components:
        comp_weight = sum((g.node_weight(v) for v in comp), zero(g.mode))
        for v, share in zip(comp, _stationary_distribution(g, comp)):
            out[v] = share * comp_weight
    return _scaled_vector(g, out)


def _stationary_distribution(g: Graph, comp: list[str]) -> list[Weight]:
    """Solve pi = M pi, sum(pi) = 1 on one strongly connected component.

    Uses (I - M) with its last row replaced by all-ones and rhs e_last; that
    system is provably non-singular because the rows of I - M sum to zero
    while the all-ones constraint does not annihilate pi.
    """
    n = len(comp)
    if n == 1:
        return [zero(g.mode) + 1]
    return _solve(g, comp, 1, True, [0] * (n - 1) + [1], stationary=True)


# -- eigenproblem measure -----------------------------------------------------


def eigenvector_centrality(g: Graph) -> CentralityVector:
    """Undamped parallel feedback: x = (1/lambda) A x, scale fixed by b.

    On each component the value is the right Perron vector scaled so the
    left Perron vector sees the same total as it sees of b — the limit of
    the long-run average of the decayed parallel walk.  Float-only; the
    Perron pair has no exact rational form.
    """
    if g.mode is Mode.RATIONAL:
        raise DomainError(
            "eigenvector centrality is float-only; convert the graph with to_float()"
        )
    Measure(MeasureKind.EIGENVECTOR).check_class(g)
    data = spectral_data(g)
    out: dict[str, float] = {}
    for comp, x, y in zip(data.components, data.right_vectors, data.left_vectors):
        b = node_weight_vector(g, comp)
        scale = float(y @ b) / float(y @ x)
        for i, v in enumerate(comp):
            out[v] = float(x[i]) * scale
    return _scaled_vector(g, out)


def _scaled_vector(g: Graph, out: dict[str, Weight]) -> CentralityVector:
    """``out`` in node order.  Katz prestige and eigenvector centrality scale
    their vectors by node weights outside any solve, so a float value beyond
    the float range is refused here: ``DomainError``."""
    values = {v: out[v] for v in g.node_ids}
    if g.mode is Mode.FLOAT:
        for v, x in values.items():
            if not math.isfinite(x):
                raise DomainError(f"value of node {v!r} does not fit in a float")
    return CentralityVector(values, g.mode)


# -- recursion residuals ------------------------------------------------------


def recursion_residual(
    g: Graph, measure: Measure, values: dict[str, Weight]
) -> dict[str, Weight]:
    """Per-node defect of the measure's defining recursion at ``values``.

    Exact in rational mode for the linear-system measures; the decay is taken
    in the graph's mode, and a float graph's values as floats.  For eigenvector
    centrality the eigenvalue is taken from float spectral data of the
    component, so the defect is float regardless of input types.
    """
    if set(values) != set(g.node_ids):
        raise DomainError("values do not cover exactly the graph's nodes")
    kind, alpha = measure.kind, measure.alpha
    if alpha is not None:
        alpha = coerce_decay(g.mode, alpha)
    if kind is MeasureKind.EIGENVECTOR or g.mode is Mode.FLOAT:
        # a float passes as it is, as in Graph.add_node; an exact value is converted
        values = {
            v: x if type(x) is float else coerce(Mode.FLOAT, x, f"value of node {v!r}")
            for v, x in values.items()
        }
    flow = in_flow(g, values, kind in (MeasureKind.PAGERANK, MeasureKind.KATZ_PRESTIGE))
    if kind is MeasureKind.EIGENVECTOR:
        data = spectral_data(g)
        lam_of = {v: lam for comp, lam in zip(data.components, data.values) for v in comp}
        for v in g.node_ids:
            if lam_of[v] <= 0:
                raise DomainError(f"component of {v!r} has eigenvalue 0")
        return {v: values[v] - flow[v] / lam_of[v] for v in g.node_ids}
    if kind in PARAMETRIC_KINDS:
        return {v: values[v] - (alpha * flow[v] + g.node_weight(v)) for v in g.node_ids}
    return {v: values[v] - flow[v] for v in g.node_ids}
