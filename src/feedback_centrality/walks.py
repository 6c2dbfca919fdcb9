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

Float ``sum_series`` steps a numpy state vector through the step matrix.
Rational ``sum_series`` and ``total_per_step`` step integer numerators over
one common denominator per step, on the graph's memoised integer table
(``graph.integer_steps``), and form fractions only at the end.  ``step``
advances one state over the edge list in the graph's mode, exactly if
rational.
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
    IntegerSteps,
    Mode,
    Weight,
    adjacency_matrix,
    classify,
    coerce,
    coerce_decay,
    in_flow,
    integer_steps,
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


def step(g: Graph, state: ProcessState) -> ProcessState:
    """Advance one step in the graph's numeric mode (exact for rational)."""
    flow = in_flow(g, state.amounts, state.kind is ProcessKind.DISTRIBUTED)
    nxt = {v: state.alpha * acc for v, acc in flow.items()}
    return ProcessState(state.kind, state.alpha, state.t + 1, nxt)


def _integer_walk(
    g: Graph, kind: ProcessKind, alpha: Fraction, steps: int
) -> tuple[int, int, Iterator[list[int]]]:
    """The rational walk on integers: ``(d, growth, numerators)``, where
    ``numerators`` yields the integer vectors N_0..N_T (node order) and the
    state at step t is N_t / (d * growth**t)."""
    table = integer_steps(g, kind is ProcessKind.DISTRIBUTED)
    weights = g.node_weights().values()
    d = math.lcm(*(w.denominator for w in weights))
    start = [w.numerator * (d // w.denominator) for w in weights]
    return d, alpha.denominator * table.scale, _numerators(start, alpha.numerator, table, steps)


def _numerators(cur: list[int], p: int, table: IntegerSteps, steps: int) -> Iterator[list[int]]:
    """N_0 = ``cur``, then N_{t+1}[j] = p * sum of D*c(i, j) * N_t[i] over j's in-edges."""
    yield cur
    for _ in range(steps):
        cur = [
            p * sum(map(mul, integers, map(cur.__getitem__, sources)))
            for sources, integers in table.rows
        ]
        yield cur


def sum_series(g: Graph, kind: ProcessKind, alpha: Weight, steps: int) -> SeriesAccumulator:
    """Run the process for ``steps`` steps, accumulating the partial sum; a
    float sum beyond the float range raises ``DomainError``.

    A rational graph runs on integers.  Its coefficients are scaled to
    integers by one LCM D (``graph.integer_steps``), the state is an integer
    vector N_t over one denominator d_t, and with alpha = p/q a step is
    N_{t+1} = p*C*N_t, d_{t+1} = q*D*d_t, so the partial sum over d_t is
    P <- P*q*D + N.  Fractions are formed once, at the end."""
    alpha = _check_args(g, alpha, steps)
    order = g.node_ids

    if g.mode is Mode.RATIONAL:
        d, growth, numerators = _integer_walk(g, kind, alpha, steps)
        partial_num = cur = next(numerators)
        for cur in numerators:
            partial_num = [s * growth + x for s, x in zip(partial_num, cur)]
        d *= growth**steps
        partial = {v: Fraction(s, d) for v, s in zip(order, partial_num)}
        state = ProcessState(kind, alpha, steps, {v: Fraction(x, d) for v, x in zip(order, cur)})
    else:
        w = _step_matrix(g, kind)
        cur = node_weight_vector(g, order)
        partial_vec = cur.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            for _ in range(steps):
                cur = alpha * (w @ cur)
                partial_vec += cur
        if not np.isfinite(partial_vec).all():
            raise DomainError(f"walk series does not fit in a float within {steps} steps")
        partial = {v: float(partial_vec[i]) for i, v in enumerate(order)}
        amounts = {v: float(cur[i]) for i, v in enumerate(order)}
        state = ProcessState(kind, alpha, steps, amounts)
    cesaro = {v: partial[v] / steps for v in order} if steps >= 1 else None
    return SeriesAccumulator(partial, cesaro, state)


def total_per_step(g: Graph, kind: ProcessKind, alpha: Weight, steps: int) -> list[Weight]:
    """Total amount in the system at each of steps 0..T.

    A rational graph runs the integer walk of ``sum_series`` and reduces one
    ``Fraction`` per step; a float graph steps the process with ``step`` and
    sums each state.  For the distributed process with alpha = 1 on a
    sink-free graph this sequence is constant — exactly so in rational mode.
    """
    alpha = _check_args(g, alpha, steps)
    if g.mode is Mode.RATIONAL:
        d, growth, numerators = _integer_walk(g, kind, alpha, steps)
        totals = []
        for cur in numerators:
            totals.append(Fraction(sum(cur), d))
            d *= growth
        return totals
    state = initial_state(g, kind, alpha)
    totals = [sum(state.amounts.values(), 0.0)]
    for _ in range(steps):
        state = step(g, state)
        totals.append(sum(state.amounts.values(), 0.0))
    return totals


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
    no certificate: ``DomainError``.
    """
    alpha = _check_args(g, alpha, steps)
    order = g.node_ids
    b = node_weight_vector(g, order)

    if kind is ProcessKind.DISTRIBUTED:
        # exact check first; a decay just below 1 can still round to 1.0
        if alpha >= 1 or float(alpha) >= 1:
            raise DomainError("distributed tail bound needs alpha < 1")
        a = float(alpha)
        tail = a ** (steps + 1) / (1.0 - a) * float(b.sum())
        return {v: tail for v in order}

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
        rate = a * data.lam
        b_comp = node_weight_vector(g, comp)
        scale = rate ** (steps + 1) / (1.0 - rate) * float(y @ b_comp)
        y_of = dict(zip(comp, y))
        return {v: scale / float(y_of[v]) for v in order}

    at = adjacency_matrix(g).T
    z = solve_refined(np.eye(len(order)) - a * at, np.ones(len(order)))
    theta = 1.0 - 1.0 / float(z.max())
    if theta <= 0.0:
        return {v: 0.0 for v in order}
    if not theta < 1.0:
        raise DomainError(
            "parallel tail bound has no contraction certificate: theta rounds to 1"
        )
    scale = theta ** (steps + 1) / (1.0 - theta) * float(z @ b)
    return {v: scale / float(z[i]) for i, v in enumerate(order)}


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
    if last.amounts.keys() != set(order):
        raise DomainError("the series was run on a graph with other nodes")

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

    after = step(g, last)

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

    max_residual = coerce(
        Mode.FLOAT, max((abs(r) for r in residual.values()), default=0), "recursion residual"
    )
    max_mismatch = coerce(
        Mode.FLOAT,
        max((abs(residual[v] - predicted[v]) for v in order), default=0),
        "prediction mismatch",
    )
    return RecursionCheck(
        measure,
        "cesaro" if use_cesaro else "partial_sum",
        residual,
        predicted,
        max_residual,
        max_mismatch,
    )
