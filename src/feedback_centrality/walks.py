"""Token-passing processes whose accumulated series realize the measures.

Both processes start with every node holding its node weight (step 0) and
move amounts along edges, scaled by a decay ``alpha`` per step:

* DISTRIBUTED — a node splits its amount over its out-edges in proportion
  to edge weight; what a sink holds leaves the system.  The step matrix is
  ``transition_matrix``, the out-degree-normalized adjacency.
* PARALLEL — every edge transports the full amount times its weight, so a
  node with several out-edges multiplies mass.  The step matrix is the raw
  adjacency.  Both scatter ``graph.step_coefficients``, as the solves do.

The bridge to the measures: partial sums of the distributed process with
alpha < 1 solve the pagerank recursion, partial sums of the parallel process
with alpha * lambda < 1 solve the katz recursion, and the long-run averages
of the two undamped processes (alpha = 1, resp. alpha = 1/lambda) yield
katz-prestige and eigenvector centrality.  ``_limit`` picks the measure,
and ``verify_recursion`` checks the finite-horizon identities exactly.

``step``, ``sum_series`` and ``total_per_step`` all run on one stepper,
``_walk``.  A float walk steps a numpy vector through the step matrix, so
one walk gives the same bits from every entry point.  A rational walk steps
integer numerators over one common denominator per step: the coefficients
are scaled to integers by one LCM D (``graph.integer_steps``), and with
alpha = p/q a step is N_{t+1} = p*C*N_t, d_{t+1} = q*D*d_t, so no step
takes a gcd and fractions are formed only at the end.  ``in_flow`` is left
to ``verify_recursion``'s residual, the check that reads the same
coefficients but shares no stepping code with the stepper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator

import numpy as np

from .errors import DomainError
from .graph import (
    KATZ_MARGIN,
    Graph,
    Mode,
    Weight,
    adjacency_matrix,
    coerce,
    coerce_decay,
    format_weight,
    in_flow,
    integer_steps,
    largest,
    node_weight_vector,
    spectral_data,
    strongly_connected_components,
    transition_matrix,
)
from .linalg import solve_refined
from .measures import PARAMETRIC_KINDS, Measure, MeasureKind, _float_system


class ProcessKind(enum.Enum):
    DISTRIBUTED = "distributed"
    PARALLEL = "parallel"


@dataclass
class ProcessState:
    """Snapshot of a process: per-node amounts after ``t`` steps."""

    kind: ProcessKind
    alpha: Weight
    t: int
    amounts: dict[str, Weight]


@dataclass
class SeriesAccumulator:
    """Running sums of a process over steps 0..T.

    ``partial_sum`` adds the T+1 states; ``cesaro`` divides that sum by T
    (None when T = 0).  ``last`` is the state at step T: its ``kind``,
    ``alpha`` and ``t`` are the series' own, so the record alone is enough
    to extend the series or to check it with ``verify_recursion``.
    """

    partial_sum: dict[str, Weight]
    cesaro: dict[str, Weight] | None
    last: ProcessState


def _check_args(g: Graph, alpha: Weight, steps: int = 0) -> Weight:
    """The decay in the graph's mode, after checking it and the step count."""
    alpha = coerce_decay(g.mode, alpha)
    if steps < 0:
        raise DomainError("step count must be >= 0")
    return alpha


def initial_state(g: Graph, kind: ProcessKind, alpha: Weight) -> ProcessState:
    alpha = _check_args(g, alpha)
    return ProcessState(kind, alpha, 0, g.node_weights())


def _walk(
    g: Graph, kind: ProcessKind, alpha: Weight, start: list[Weight], steps: int
) -> Iterator:
    """The states at steps 0..T of the walk from ``start`` (node order): numpy
    vectors on a float graph, (N_t, d_t) pairs of integer numerators and one
    common denominator on a rational one.  Float callers step under
    ``np.errstate`` and refuse a non-finite result once, in ``_finite``."""
    if g.mode is Mode.FLOAT:
        w = (transition_matrix if kind is ProcessKind.DISTRIBUTED else adjacency_matrix)(g)
        cur = np.array(start, dtype=np.float64)
        yield cur
        for _ in range(steps):
            cur = alpha * w.dot(cur)  # the BLAS gemv `@` runs, without ufunc dispatch
            yield cur
        return
    table = integer_steps(g, kind is ProcessKind.DISTRIBUTED)
    d = math.lcm(*(x.denominator for x in start))
    cur = [x.numerator * (d // x.denominator) for x in start]
    yield cur, d
    p, growth = alpha.numerator, alpha.denominator * table.scale
    for _ in range(steps):
        cur = [
            p * sum(map(mul, integers, map(cur.__getitem__, sources)))
            for sources, integers in table.rows
        ]
        d *= growth
        yield cur, d


def _finite(x, steps: int):
    """``x``, or ``DomainError`` when a float in it is not finite."""
    if not np.isfinite(x).all():
        unit = "step" if steps == 1 else "steps"
        raise DomainError(f"walk series does not fit in a float within {steps} {unit}")
    return x


def _amounts(g: Graph, state, steps: int) -> dict[str, Weight]:
    """A state or sum of ``_walk``'s states by node, in the graph's mode."""
    if g.mode is Mode.RATIONAL:
        numerators, d = state
        return {v: Fraction(x, d) for v, x in zip(g.node_ids, numerators)}
    return dict(zip(g.node_ids, _finite(state, steps).tolist()))


def step(g: Graph, state: ProcessState) -> ProcessState:
    """Advance one step in the graph's numeric mode (exact for rational).  A
    state whose nodes are not g's raises ``DomainError``, as does a float
    step beyond the float range."""
    alpha, order, t = _check_args(g, state.alpha), g.node_ids, state.t + 1
    if state.amounts.keys() != set(order):
        raise DomainError("the state was run on a graph with other nodes")
    start = [coerce(g.mode, state.amounts[v], "process amount") for v in order]
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _finite
        _, cur = _walk(g, state.kind, alpha, start, 1)
    return ProcessState(state.kind, alpha, t, _amounts(g, cur, t))


def sum_series(g: Graph, kind: ProcessKind, alpha: Weight, steps: int) -> SeriesAccumulator:
    """Run the process for ``steps`` steps, accumulating the partial sum; a
    float sum beyond the float range raises ``DomainError``.

    A rational partial sum stays over the state's denominator d_t:
    P <- P*(d_t/d_{t-1}) + N_t.  Fractions are formed once, at the end."""
    alpha = _check_args(g, alpha, steps)
    states = _walk(g, kind, alpha, list(g.node_weights().values()), steps)
    if g.mode is Mode.RATIONAL:
        numerators, prev = [0] * len(g), 1
        for cur, d in states:
            growth, prev = d // prev, d
            numerators = [s * growth + x for s, x in zip(numerators, cur)]
        total, last = (numerators, d), (cur, d)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # refused in _finite
            last = next(states)
            total = last.copy()
            for last in states:
                total += last
    partial = _amounts(g, total, steps)
    cesaro = {v: x / steps for v, x in partial.items()} if steps >= 1 else None
    last = ProcessState(kind, alpha, steps, _amounts(g, last, steps))
    return SeriesAccumulator(partial, cesaro, last)


def total_per_step(g: Graph, kind: ProcessKind, alpha: Weight, steps: int) -> list[Weight]:
    """Total amount in the system at each of steps 0..T, each state of
    ``sum_series`` summed in node order; a float total beyond the float
    range raises ``DomainError``.  For the distributed process with alpha = 1
    on a sink-free graph this sequence is constant — exactly so in rational
    mode."""
    alpha = _check_args(g, alpha, steps)
    states = _walk(g, kind, alpha, list(g.node_weights().values()), steps)
    if g.mode is Mode.RATIONAL:
        return [Fraction(sum(cur), d) for cur, d in states]
    with np.errstate(over="ignore", invalid="ignore"):  # refused in _finite
        return _finite([sum(cur.tolist(), 0.0) for cur in states], steps)


def geometric_tail_bound(
    g: Graph, kind: ProcessKind, alpha: Weight, steps: int
) -> dict[str, float]:
    """Rigorous per-node upper bound on the mass arriving after step T.

    Distributed, alpha < 1: each step multiplies the system total by at most
    alpha, so node v's tail is below alpha^(T+1)/(1-alpha) times the initial
    total.  Parallel: on a strongly connected graph the left Perron vector y
    gives the exact decay rate alpha*lambda and the bound (alpha*lambda)^(T+1)
    / (1 - alpha*lambda) * (y.b)/y_v; otherwise z = (I - alpha*A^T)^-1 1 >= 1
    majorizes the step (alpha*A^T z = z - 1 <= theta*z with theta =
    1 - 1/max(z) < 1), giving the same shape of bound with z in place of y.
    On an acyclic graph the state is exactly 0 after L steps, L the number of
    edges on its longest path, so the bound is 0 from T = L on.
    When 1/max(z) is below float resolution theta rounds to 1, and when
    max(z) - 1 is, z rounds to 1 and theta to 0 while the tail need not be
    0: either way there is no certificate, ``DomainError``.  When the solve
    for z fails, ``SingularMatrixError``.  A bound beyond the float range
    raises ``DomainError``, with no numpy warning.
    """
    alpha = _check_args(g, alpha, steps)
    order = g.node_ids
    b = node_weight_vector(g, order)

    # each branch picks the decay rate r, the mass m and per-node weights w of
    # the bound r^(T+1)/(1-r) * m / w_v; a mass beyond the float range is refused
    with np.errstate(over="ignore"):
        if kind is ProcessKind.DISTRIBUTED:
            # exact check first; a decay just below 1 can still round to 1.0
            if alpha >= 1 or float(alpha) >= 1:
                raise DomainError("distributed tail bound needs alpha < 1")
            rate, mass, weight = float(alpha), float(b.sum()), dict.fromkeys(order, 1.0)
        else:
            data = spectral_data(g)
            if _limit(g, kind, alpha).kind is not MeasureKind.KATZ:  # no geometric tail
                raise DomainError(
                    f"parallel tail bound needs alpha * lambda <= 1 - {KATZ_MARGIN:g}, "
                    f"got {float(alpha) * data.lam:.12g}"
                )
            a = float(alpha)
            if a == 0.0 or (data.lam == 0.0 and steps >= _longest_path(g)):
                return {v: 0.0 for v in order}
            if len(data.components) == 1 and data.lam > 0:
                # One component with a cycle through it: g is strongly connected.
                # The component lists the nodes in discovery order, not node order.
                comp, y = data.components[0], data.left_vectors[0]
                rate, mass = a * data.lam, float(y @ node_weight_vector(g, comp))
                weight = dict(zip(comp, y.tolist()))
            else:
                # I - a*A^T; an infinite entry fails the solve
                z = solve_refined(_float_system(g, order, a, False).T, np.ones(len(order)))
                theta = 1.0 - 1.0 / float(z.max())
                if not 0.0 < theta < 1.0:
                    raise DomainError(
                        "parallel tail bound has no contraction certificate: "
                        f"theta rounds to {1 if theta >= 1.0 else 0}"
                    )
                rate, mass, weight = theta, float(z @ b), dict(zip(order, z.tolist()))
    scale = rate ** (steps + 1) / (1.0 - rate) * mass
    bound = {v: scale / weight[v] for v in order}
    if not all(map(math.isfinite, bound.values())):
        raise DomainError("tail bound does not fit in a float")
    return bound


def _longest_path(g: Graph) -> float:
    """Edges on the longest path of g, or inf when g has a cycle (a rational
    loop weight can still convert to a Perron value of 0.0).  Components of an
    acyclic graph are single nodes: one pass over the edges in condensation
    order."""
    part = strongly_connected_components(g)
    if any(part.strongly_connected):
        return math.inf
    depth = dict.fromkeys(g.node_ids, 0)
    for (v,) in part.components:
        for w, _weight in g.out_edges(v):
            depth[w] = max(depth[w], depth[v] + 1)
    return max(depth.values(), default=0)


def _limit(g: Graph, kind: ProcessKind, alpha: Weight) -> Measure:
    """The measure that the walk's series converges to on g, by the decay:

    * distributed, alpha < 1                   -> pagerank(alpha), partial sum
    * distributed, alpha = 1                   -> katz-prestige, cesaro average
    * parallel, g in the KATZ(alpha) class     -> katz(alpha), partial sum
    * parallel, alpha*lambda within 1e-6 of 1  -> eigenvector, cesaro average
    * any other decay, or a graph the measure does not admit -> DomainError
    """
    if kind is ProcessKind.DISTRIBUTED and alpha < 1:
        measure = Measure(MeasureKind.PAGERANK, alpha)
    elif kind is ProcessKind.DISTRIBUTED and alpha == 1:
        measure = Measure(MeasureKind.KATZ_PRESTIGE)
    elif kind is ProcessKind.DISTRIBUTED:
        raise DomainError(
            f"distributed series with alpha = {format_weight(alpha)} matches no measure"
        )
    elif Measure(MeasureKind.KATZ, alpha).admits(g):  # refuses a decay with no float image
        measure = Measure(MeasureKind.KATZ, alpha)
    elif abs(float(alpha) * spectral_data(g).lam - 1.0) <= KATZ_MARGIN:
        measure = Measure(MeasureKind.EIGENVECTOR)
    else:
        x = float(alpha) * spectral_data(g).lam
        raise DomainError(f"parallel series with alpha * lambda = {x:.12g} matches no measure")
    measure.check_class(g)
    return measure


@dataclass
class RecursionCheck:
    """Outcome of matching a finite series against a measure's recursion.

    ``residual`` is the defect of the recursion at the chosen series vector;
    ``predicted`` is its closed form in terms of the step-(T+1) state — the
    two must agree to rounding (exactly, in rational mode)."""

    measure: Measure
    series_field: str
    residual: dict[str, Weight]
    predicted: dict[str, Weight]
    max_residual: float
    max_mismatch: float


def verify_recursion(g: Graph, series: SeriesAccumulator) -> RecursionCheck:
    """Check the series-vs-recursion identity of ``series``, run on g.

    The process kind, the decay alpha and the horizon T are those of
    ``series.last``; the check takes one more step from it and runs nothing
    else.  A series whose nodes are not g's raises ``DomainError``.

    Writing x for the partial sum up to T and W for the step matrix:
    x - alpha*W*x - b = -p(T+1), always.  Divided by T this becomes the
    undamped statement for the Cesaro average m = x/T: m - W*m =
    (b - p(T+1))/T.  The measure is ``_limit``'s, and so is its DomainError.
    """
    last = series.last
    kind, alpha, steps = last.kind, last.alpha, last.t
    order = g.node_ids
    after = step(g, last)  # refuses a series whose nodes are not g's
    measure = _limit(g, kind, alpha)
    # damped measures are limits of partial sums, undamped ones of Cesaro averages
    use_cesaro = measure.kind not in PARAMETRIC_KINDS
    vector = series.cesaro if use_cesaro else series.partial_sum
    if vector is None:  # a series of T = 0 steps has no Cesaro average
        raise DomainError("the cesaro branch needs at least one step")
    flow = in_flow(g, vector, kind is ProcessKind.DISTRIBUTED)

    residual = {
        v: vector[v] - alpha * flow[v] - (0 if use_cesaro else g.node_weight(v))
        for v in order
    }

    if use_cesaro:
        predicted = {v: (g.node_weight(v) - after.amounts[v]) / steps for v in order}
    else:
        predicted = {v: -after.amounts[v] for v in order}

    mismatch = ((v, residual[v] - predicted[v]) for v in order)
    return RecursionCheck(
        measure,
        "cesaro" if use_cesaro else "partial_sum",
        residual,
        predicted,
        largest(residual.items(), "recursion residual")[1],
        largest(mismatch, "prediction mismatch")[1],
    )
