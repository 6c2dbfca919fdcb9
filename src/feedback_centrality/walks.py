"""Token-passing processes whose accumulated series realize the measures.

Both processes start with every node holding its node weight (step 0) and
move amounts along edges, scaled by a decay ``alpha`` per step:

* DISTRIBUTED — a node splits its amount over its out-edges in proportion
  to edge weight; what a sink holds leaves the system.  The step matrix is
  the out-degree-normalized adjacency.
* PARALLEL — every edge transports the full amount times its weight, so a
  node with several out-edges multiplies mass.  The step matrix is the raw
  adjacency.

The bridge to the measures: partial sums of the distributed process with
alpha < 1 solve the pagerank recursion, partial sums of the parallel process
with alpha * lambda < 1 solve the katz recursion, and the long-run averages
of the two undamped processes (alpha = 1, resp. alpha = 1/lambda) yield
katz-prestige and eigenvector centrality.  ``verify_recursion`` checks the
finite-horizon form of these identities exactly.

``step``, ``sum_series`` and ``total_per_step`` all run on one stepper,
``_walk``.  A float walk steps a numpy vector through the step matrix, so
one walk gives the same bits from every entry point.  A rational walk steps
integer numerators over one common denominator per step: the coefficients
are scaled to integers by one LCM D (``graph.integer_steps``), and with
alpha = p/q a step is N_{t+1} = p*C*N_t, d_{t+1} = q*D*d_t, so no step
takes a gcd and fractions are formed only at the end.  ``in_flow`` is left
to ``verify_recursion``'s residual, the check that shares no code with the
stepper.
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
    ClassTag,
    Graph,
    GraphClass,
    Mode,
    Weight,
    adjacency_matrix,
    classify,
    coerce,
    coerce_decay,
    in_flow,
    integer_steps,
    largest,
    node_weight_vector,
    principal_eigenvalue,
    spectral_data,
    transition_matrix,
)
from .linalg import solve_refined
from .measures import PARAMETRIC_KINDS, Measure, MeasureKind


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


def _step_matrix(g: Graph, kind: ProcessKind) -> np.ndarray:
    """Float step matrix; distributed columns are renormalized to exact sums.

    The renormalization removes the rounding the per-entry division leaves in
    the column sums (mathematically they are exactly 1 for non-sinks), which
    is what keeps long conserved runs drift-free to ~1e-13.
    """
    if kind is ProcessKind.PARALLEL:
        return adjacency_matrix(g)
    m = transition_matrix(g)
    sums = m.sum(axis=0)
    nonzero = sums > 0
    m[:, nonzero] /= sums[nonzero]
    return m


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
        w = _step_matrix(g, kind)
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
    When 1/max(z) is below float resolution theta rounds to 1 and there is
    no certificate: ``DomainError``; when the solve for z fails,
    ``SingularMatrixError``.  A bound beyond the float range raises
    ``DomainError``, with no numpy warning.
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
            if not classify(g, GraphClass(ClassTag.KATZ, alpha)):
                raise DomainError(
                    f"parallel tail bound needs alpha * lambda <= 1 - {KATZ_MARGIN:g}, "
                    f"got {float(alpha) * data.lam:.12g}"
                )
            a = float(alpha)
            if a == 0.0 or not order:
                return {v: 0.0 for v in order}
            if len(data.components) == 1 and data.lam > 0:
                # One component with a cycle through it: g is strongly connected.
                # The component lists the nodes in discovery order, not node order.
                comp, y = data.components[0], data.left_vectors[0]
                rate, mass = a * data.lam, float(y @ node_weight_vector(g, comp))
                weight = dict(zip(comp, y.tolist()))
            else:
                # an infinite entry fails the solve
                k = np.eye(len(order)) - a * adjacency_matrix(g).T
                z = solve_refined(k, np.ones(len(order)))
                theta = 1.0 - 1.0 / float(z.max())
                if theta <= 0.0:
                    return {v: 0.0 for v in order}
                if not theta < 1.0:
                    raise DomainError(
                        "parallel tail bound has no contraction certificate: "
                        "theta rounds to 1"
                    )
                rate, mass, weight = theta, float(z @ b), dict(zip(order, z.tolist()))
    scale = rate ** (steps + 1) / (1.0 - rate) * mass
    bound = {v: scale / weight[v] for v in order}
    if not all(map(math.isfinite, bound.values())):
        raise DomainError("tail bound does not fit in a float")
    return bound


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
    (b - p(T+1))/T.  The branch taken (and the measure the series is
    converging to) is picked by the decay:

    * distributed, alpha < 1      -> pagerank(alpha), partial sum
    * distributed, alpha = 1      -> katz-prestige, cesaro average
    * parallel, g in the KATZ(alpha) class        -> katz(alpha), partial sum
    * parallel, alpha*lambda within 1e-6 of 1     -> eigenvector, cesaro
    * anything else -> DomainError
    """
    last = series.last
    kind, alpha, steps = last.kind, last.alpha, last.t
    order = g.node_ids
    after = step(g, last)  # refuses a series whose nodes are not g's

    if kind is ProcessKind.DISTRIBUTED:
        if alpha < 1:
            measure = Measure(MeasureKind.PAGERANK, alpha)
        elif alpha == 1:
            measure = Measure(MeasureKind.KATZ_PRESTIGE)
        else:
            raise DomainError(
                f"distributed series with alpha = {alpha} matches no measure"
            )
    else:
        in_class = classify(g, GraphClass(ClassTag.KATZ, alpha))
        product = float(alpha) * principal_eigenvalue(g)[1]
        if in_class:
            measure = Measure(MeasureKind.KATZ, alpha)
        elif abs(product - 1.0) <= KATZ_MARGIN:
            measure = Measure(MeasureKind.EIGENVECTOR)
        else:
            raise DomainError(
                f"parallel series with alpha * lambda = {product:.12g} matches no measure"
            )
    # damped measures are limits of partial sums, undamped ones of Cesaro averages
    use_cesaro = measure.kind not in PARAMETRIC_KINDS
    if use_cesaro and steps < 1:
        raise DomainError("the cesaro branch needs at least one step")

    vector = series.cesaro if use_cesaro else series.partial_sum
    assert vector is not None
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
