"""Exact arguments on float graphs: a result or a typed error, never a warning.

Every public function that takes a decay, a factor or a value is called on
the float demo graphs with ``Fraction``, ``int``, zero, negative and
beyond-float-range arguments.  Each call returns a result or raises a
``FeedbackCentralityError`` subclass, and emits no warning.
"""

import math
import warnings
from fractions import Fraction as F

import pytest

from feedback_centrality import (
    AxiomId,
    AxiomInstance,
    AxiomTag,
    AxiomVerdict,
    CentralityVector,
    ClassTag,
    DomainError,
    FeedbackCentralityError,
    Graph,
    GraphClass,
    Measure,
    MeasureKind,
    Mode,
    ProcessKind,
    ProcessState,
    ProfitSpec,
    SeriesAccumulator,
    check_axiom,
    classify,
    combine_groups,
    edge_compensation,
    edge_multiplication,
    geometric_tail_bound,
    initial_state,
    katz_centrality,
    pagerank,
    parse_graph,
    profit_value,
    proportional_combine,
    recursion_residual,
    sum_series,
    total_per_step,
)

from .conftest import GRAPH_DIR

GRAPHS = {name: (GRAPH_DIR / f"{name}.dg").read_text() for name in ("demo5", "demo6")}

ARGUMENTS = {
    "fraction": F(1, 3),
    "int": 2,
    "zero": 0,
    "negative-int": -1,
    "negative-fraction": F(-1, 2),
    "huge-int": 10**400,
    "huge-fraction": F(10) ** 400,
}

DISTRIBUTED, PARALLEL = ProcessKind.DISTRIBUTED, ProcessKind.PARALLEL


def _axiom(tag, measure):
    def call(g, x):
        instance = AxiomInstance(g, node=g.node_ids[0], factor=x)
        return check_axiom(AxiomId(tag), measure, instance)

    return call


def _residual(kind, alpha=None):
    def call(g, x):
        return recursion_residual(g, Measure(kind, alpha), {v: x for v in g.node_ids})

    return call


#: Each call takes a float graph and one argument.
CALLS = {
    "pagerank": pagerank,
    "katz_centrality": katz_centrality,
    "compute-pagerank": lambda g, x: Measure(MeasureKind.PAGERANK, x).compute(g),
    "compute-katz": lambda g, x: Measure(MeasureKind.KATZ, x).compute(g),
    "sum_series-distributed": lambda g, x: sum_series(g, DISTRIBUTED, x, 3),
    "sum_series-parallel": lambda g, x: sum_series(g, PARALLEL, x, 3),
    "total_per_step-distributed": lambda g, x: total_per_step(g, DISTRIBUTED, x, 3),
    "total_per_step-parallel": lambda g, x: total_per_step(g, PARALLEL, x, 3),
    "initial_state": lambda g, x: initial_state(g, PARALLEL, x),
    "geometric_tail_bound-distributed": lambda g, x: geometric_tail_bound(g, DISTRIBUTED, x, 3),
    "geometric_tail_bound-parallel": lambda g, x: geometric_tail_bound(g, PARALLEL, x, 3),
    "classify-katz": lambda g, x: classify(g, GraphClass(ClassTag.KATZ, x)),
    "edge_multiplication": lambda g, x: edge_multiplication(g, g.node_ids[0], x),
    "edge_compensation": lambda g, x: edge_compensation(g, g.node_ids[0], x),
    "proportional_combine": lambda g, x: proportional_combine(g, *g.node_ids[:2], x, 1.0),
    "combine_groups": lambda g, x: combine_groups(
        g, {g.node_ids[0]: g.node_ids[:3]}, dict(zip(g.node_ids[:3], (x, 1.0, x)))
    ),
    "profit_value-source": lambda g, x: profit_value(
        Measure(MeasureKind.PAGERANK, 0.5), ProfitSpec(x, 1.0, 2.0)
    ),
    "profit_value-decay": lambda g, x: profit_value(
        Measure(MeasureKind.KATZ, x), ProfitSpec(1.0, 1.0, 2.0)
    ),
    "recursion_residual-pagerank": _residual(MeasureKind.PAGERANK, 0.5),
    "recursion_residual-katz": _residual(MeasureKind.KATZ, 0.1),
    "recursion_residual-katz-prestige": _residual(MeasureKind.KATZ_PRESTIGE),
    "recursion_residual-eigenvector": _residual(MeasureKind.EIGENVECTOR),
    "recursion_residual-katz-decay": lambda g, x: recursion_residual(
        g, Measure(MeasureKind.KATZ, x), {v: 1.0 for v in g.node_ids}
    ),
    "check_axiom-edge-multiplication-pagerank": _axiom(
        AxiomTag.EDGE_MULTIPLICATION, Measure(MeasureKind.PAGERANK, 0.5)
    ),
    "check_axiom-edge-multiplication-katz": _axiom(
        AxiomTag.EDGE_MULTIPLICATION, Measure(MeasureKind.KATZ, 0.1)
    ),
    "check_axiom-edge-compensation-pagerank": _axiom(
        AxiomTag.EDGE_COMPENSATION, Measure(MeasureKind.PAGERANK, 0.5)
    ),
    "check_axiom-edge-compensation-katz": _axiom(
        AxiomTag.EDGE_COMPENSATION, Measure(MeasureKind.KATZ, 0.1)
    ),
}


def _floats(result):
    """Every float held by a result of the calls above."""
    if isinstance(result, CentralityVector):
        result = result.values
    elif isinstance(result, ProcessState):
        result = result.amounts
    elif isinstance(result, SeriesAccumulator):
        result = [result.partial_sum, result.cesaro]
    elif isinstance(result, Graph):
        result = [result.node_weights(), [w for _u, _v, w in result.edges()]]
    elif isinstance(result, AxiomVerdict):
        result = result.max_deviation
    if isinstance(result, float):
        yield result
    elif isinstance(result, dict):
        yield from _floats(list(result.values()))
    elif isinstance(result, (list, tuple)):
        for x in result:
            yield from _floats(x)


@pytest.mark.parametrize("argument", list(ARGUMENTS))
@pytest.mark.parametrize("call", list(CALLS))
@pytest.mark.parametrize("graph", list(GRAPHS))
def test_exact_argument_gives_a_result_or_a_typed_error(graph, call, argument):
    g = parse_graph(GRAPHS[graph], Mode.FLOAT)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = CALLS[call](g, ARGUMENTS[argument])
        except FeedbackCentralityError:
            result = None
    assert [str(w.message) for w in caught] == []
    assert all(math.isfinite(x) for x in _floats(result))


NEGATIVE_DECAY_CALLS = {
    "pagerank": pagerank,
    "katz_centrality": katz_centrality,
    "sum_series": lambda g, a: sum_series(g, PARALLEL, a, 3),
    "total_per_step": lambda g, a: total_per_step(g, DISTRIBUTED, a, 3),
    "initial_state": lambda g, a: initial_state(g, PARALLEL, a),
    "geometric_tail_bound": lambda g, a: geometric_tail_bound(g, PARALLEL, a, 3),
}


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("call", list(NEGATIVE_DECAY_CALLS))
def test_negative_decay_has_one_message(call, mode):
    g = parse_graph(GRAPHS["demo5"], mode)
    decay = F(-1, 2) if mode is Mode.RATIONAL else -0.5
    with pytest.raises(DomainError) as exc:
        NEGATIVE_DECAY_CALLS[call](g, decay)
    assert str(exc.value) == f"decay parameter must be non-negative, got {decay}"
