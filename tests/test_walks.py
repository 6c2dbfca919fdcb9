"""Walk processes: oracle agreement, conservation, tails, recursion checks."""

import warnings
from dataclasses import fields
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from feedback_centrality import (
    ClassTag,
    DomainError,
    Family,
    GeneratorSpec,
    Graph,
    GraphClass,
    MeasureKind,
    Mode,
    ProcessKind,
    ProcessState,
    SeriesAccumulator,
    classify,
    generate,
    geometric_tail_bound,
    initial_state,
    katz_centrality,
    pagerank,
    parse_graph,
    principal_eigenvalue,
    step,
    sum_series,
    total_per_step,
    verify_recursion,
)
from feedback_centrality.graph import integer_steps

from .oracles import fraction_walk, walk_series
from .strategies import rational_graphs


def loop_pair():
    g = Graph(Mode.RATIONAL)
    g.add_node("a", F(1))
    g.add_node("b", F(2))
    g.add_edge("a", "b", F(2))
    g.add_edge("b", "a", F(1))
    g.add_edge("b", "b", F(1))
    return g


class TestStateIteration:
    def test_initial_state_is_node_weights(self):
        g = loop_pair()
        state = initial_state(g, ProcessKind.PARALLEL, F(1))
        assert state.t == 0
        assert state.amounts == {"a": F(1), "b": F(2)}

    def test_parallel_step_by_hand(self):
        g = loop_pair()
        state = step(g, initial_state(g, ProcessKind.PARALLEL, F(1)))
        # a receives 2*1 from b; b receives 1*2 from a plus 2*1 from its loop
        assert state.t == 1
        assert state.amounts == {"a": F(2), "b": F(4)}

    def test_distributed_step_by_hand(self):
        g = loop_pair()
        state = step(g, initial_state(g, ProcessKind.DISTRIBUTED, F(1)))
        # b's out-degree is 2: half of its 2 goes to a, half stays on the loop
        assert state.amounts == {"a": F(1), "b": F(2)}

    def test_decay_applies_per_step(self):
        g = loop_pair()
        state = step(g, initial_state(g, ProcessKind.DISTRIBUTED, F(1, 2)))
        assert sum(state.amounts.values(), F(0)) == F(3, 2)


class TestAgainstWalkEnumeration:
    @given(rational_graphs(max_nodes=5))
    @settings(max_examples=80, deadline=None)
    def test_distributed_partial_sums_exact(self, g):
        for alpha in (F(1, 2), F(1)):
            acc = sum_series(g, ProcessKind.DISTRIBUTED, alpha, 4)
            assert acc.partial_sum == walk_series(g, "distributed", alpha, 4)

    @given(rational_graphs(max_nodes=5))
    @settings(max_examples=80, deadline=None)
    def test_parallel_partial_sums_exact(self, g):
        for alpha in (F(1, 3), F(1)):
            acc = sum_series(g, ProcessKind.PARALLEL, alpha, 4)
            assert acc.partial_sum == walk_series(g, "parallel", alpha, 4)

    def test_cesaro_is_partial_over_steps(self):
        g = loop_pair()
        acc = sum_series(g, ProcessKind.DISTRIBUTED, F(1), 8)
        assert acc.cesaro == {v: s / 8 for v, s in acc.partial_sum.items()}
        assert sum_series(g, ProcessKind.DISTRIBUTED, F(1), 0).cesaro is None

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("kind", list(ProcessKind))
    def test_last_is_the_state_at_the_horizon(self, mode, kind):
        g = loop_pair() if mode is Mode.RATIONAL else loop_pair().to_float()
        alpha = F(1, 3) if mode is Mode.RATIONAL else 1 / 3
        acc = sum_series(g, kind, alpha, 6)
        assert [f.name for f in fields(SeriesAccumulator)] == [
            "partial_sum", "cesaro", "last",
        ]
        assert isinstance(acc.last, ProcessState)
        assert (acc.last.t, acc.last.kind, acc.last.alpha) == (6, kind, alpha)
        assert acc.last.amounts.keys() == set(g.node_ids)


def empty_graph():
    return Graph(Mode.RATIONAL)


def edgeless_pair():
    return Graph.build([("a", F(1, 3)), ("b", F(2))], (), Mode.RATIONAL)


class TestIntegerWalk:
    """The rational walk runs on integer numerators over one denominator per
    step; the ``Fraction`` step loop it replaced is the oracle."""

    @given(
        g=st.one_of(st.builds(empty_graph), rational_graphs(max_nodes=5)),
        kind=st.sampled_from(ProcessKind),
        alpha=st.sampled_from([F(0), F(1, 10), F(1, 2), F(1), F(3, 2), F(2), 3]),
        steps=st.integers(0, 6),
    )
    @example(g=empty_graph(), kind=ProcessKind.DISTRIBUTED, alpha=F(1), steps=3)
    @example(g=empty_graph(), kind=ProcessKind.PARALLEL, alpha=F(0), steps=0)
    @example(g=edgeless_pair(), kind=ProcessKind.PARALLEL, alpha=F(1, 2), steps=2)
    @example(g=edgeless_pair(), kind=ProcessKind.DISTRIBUTED, alpha=2, steps=1)
    @example(g=loop_pair(), kind=ProcessKind.DISTRIBUTED, alpha=F(0), steps=4)
    @example(g=loop_pair(), kind=ProcessKind.PARALLEL, alpha=F(1), steps=0)
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_equals_the_fraction_step_loop(self, g, kind, alpha, steps):
        partial, cesaro, last, totals = fraction_walk(g, kind.value, alpha, steps)
        acc = sum_series(g, kind, alpha, steps)
        pairs = ((acc.partial_sum, partial), (acc.cesaro, cesaro), (acc.last.amounts, last))
        for got, want in pairs:
            assert got == want
            if want is not None:
                assert list(got) == list(want)
                assert all(type(x) is F for x in got.values())
        assert (acc.last.kind, acc.last.alpha, acc.last.t) == (kind, F(alpha), steps)
        assert type(acc.last.alpha) is F
        got_totals = total_per_step(g, kind, alpha, steps)
        assert got_totals == totals
        assert all(type(t) is F for t in got_totals)

    def test_table_is_memoised_per_process_and_cleared_by_edits(self):
        g = loop_pair()
        distributed = integer_steps(g, True)
        assert integer_steps(g, True) is distributed
        assert integer_steps(g, False) is not distributed
        # b's out-degree is 2: its coefficients are 1/2, a's is 1; D = 2
        assert distributed.scale == 2
        assert distributed.rows == (((1,), (1,)), ((0, 1), (2, 1)))
        g.add_node("c", F(1))
        assert integer_steps(g, True) is not distributed
        assert len(integer_steps(g, True).rows) == 3

    def test_thousand_step_conservation_is_exact(self):
        # out of reach of the Fraction step loop, which took about 11 s here
        grid = (F(1, 2), F(1), F(3, 2), F(2))
        g = generate(
            GeneratorSpec(Family.STRONGLY_CONNECTED, size_range=(20, 20), weight_grid=grid, seed=3)
        )
        assert len(g) == 20 and not g.sinks()
        totals = total_per_step(g, ProcessKind.DISTRIBUTED, F(1), 1000)
        assert len(totals) == 1001
        assert all(t == g.total_node_weight() for t in totals)


class TestConservation:
    @pytest.mark.parametrize("seed", range(10))
    def test_distributed_unit_decay_conserves_exactly(self, seed):
        grid = (F(1, 2), F(1), F(2), F(1, 3))
        g = generate(
            GeneratorSpec(Family.SUM_OF_SCCS, size_range=(3, 8), weight_grid=grid, seed=seed)
        )
        assert not g.sinks()
        totals = total_per_step(g, ProcessKind.DISTRIBUTED, F(1), 25)
        assert all(t == g.total_node_weight() for t in totals)

    def test_float_drift_stays_tiny(self):
        g = generate(GeneratorSpec(Family.STRONGLY_CONNECTED, size_range=(10, 10), seed=4))
        totals = total_per_step(g, ProcessKind.DISTRIBUTED, 1.0, 1000)
        target = g.total_node_weight()
        assert max(abs(t - target) for t in totals) <= 1e-12 * target

    def test_sink_leaks_mass(self):
        g = Graph(Mode.RATIONAL)
        g.add_node("a", F(1))
        g.add_node("b", F(1))
        g.add_edge("a", "b", F(1))
        for graph, alpha in ((g, F(1)), (g.to_float(), 1.0)):
            totals = total_per_step(graph, ProcessKind.DISTRIBUTED, alpha, 3)
            assert totals == [2, 1, 0, 0]

    def test_rational_totals_without_nodes_are_exact_zeros(self):
        totals = total_per_step(Graph(Mode.RATIONAL), ProcessKind.DISTRIBUTED, F(1), 2)
        assert totals == [0, 0, 0]
        assert all(type(t) is F for t in totals)


class TestTailBounds:
    @pytest.mark.parametrize("seed", range(8))
    def test_distributed_bound_dominates_truncation_error(self, seed):
        g = generate(GeneratorSpec(Family.GENERAL, size_range=(2, 10), seed=seed))
        alpha, horizon = 0.85, 60
        acc = sum_series(g, ProcessKind.DISTRIBUTED, alpha, horizon)
        exact = pagerank(g, alpha)
        bound = geometric_tail_bound(g, ProcessKind.DISTRIBUTED, alpha, horizon)
        for v in g.node_ids:
            assert abs(exact[v] - acc.partial_sum[v]) <= bound[v] + 1e-12

    @pytest.mark.parametrize("family", [Family.STRONGLY_CONNECTED, Family.GENERAL])
    def test_parallel_bound_dominates_truncation_error(self, family):
        from feedback_centrality import principal_eigenvalue

        for seed in range(6):
            g = generate(GeneratorSpec(family, size_range=(2, 9), seed=50 + seed))
            _lams, lam = principal_eigenvalue(g)
            if lam <= 0:
                continue
            alpha, horizon = 0.5 / lam, 60
            acc = sum_series(g, ProcessKind.PARALLEL, alpha, horizon)
            exact = katz_centrality(g, alpha)
            bound = geometric_tail_bound(g, ProcessKind.PARALLEL, alpha, horizon)
            for v in g.node_ids:
                assert abs(exact[v] - acc.partial_sum[v]) <= bound[v] + 1e-12

    def test_divergent_parameters_rejected(self):
        g = loop_pair().to_float()
        with pytest.raises(DomainError):
            geometric_tail_bound(g, ProcessKind.DISTRIBUTED, 1.0, 10)
        with pytest.raises(DomainError):
            geometric_tail_bound(g, ProcessKind.PARALLEL, 2.0, 10)
        below_one = 1 - F(1, 10**20)  # exactly below 1, but 1.0 as a float
        with pytest.raises(DomainError, match="needs alpha < 1"):
            geometric_tail_bound(loop_pair(), ProcessKind.DISTRIBUTED, below_one, 10)

    def test_negative_step_count_rejected(self, demo5_float):
        with pytest.raises(DomainError, match="step count"):
            geometric_tail_bound(demo5_float, ProcessKind.DISTRIBUTED, 0.5, -3)

    def test_decay_beyond_float_range_rejected(self):
        huge = F(10) ** 400
        with pytest.raises(DomainError, match="needs alpha < 1"):
            geometric_tail_bound(loop_pair(), ProcessKind.DISTRIBUTED, huge, 3)
        with pytest.raises(DomainError, match="decay parameter does not fit in a float"):
            geometric_tail_bound(loop_pair(), ProcessKind.PARALLEL, huge, 3)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_parallel_bound_without_nodes_is_empty(self, mode):
        # an empty graph has no eigenvalue and no tail, as in the distributed case
        g = Graph(mode)
        alpha = F(1, 2) if mode is Mode.RATIONAL else 0.5
        assert geometric_tail_bound(g, ProcessKind.PARALLEL, alpha, 5) == {}
        assert geometric_tail_bound(g, ProcessKind.DISTRIBUTED, alpha, 5) == {}

    # node weights 1e308 fit in a float; their total 2e308 does not
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("kind", list(ProcessKind))
    @pytest.mark.parametrize("edges", ["edge a b 1\nedge b a 2\n", "edge a b 1\n"])
    def test_bound_beyond_float_range_is_a_domain_error(self, mode, kind, edges):
        # the bound was inf, after a numpy overflow warning from the mass
        # b.sum() or z @ b
        g = parse_graph(f"node a 1e308\nnode b 1e308\n{edges}", mode)
        alpha = F(1, 2) if mode is Mode.RATIONAL else 0.5
        with pytest.raises(DomainError, match="^tail bound does not fit in a float$"):
            geometric_tail_bound(g, kind, alpha, 3)

    def test_zero_decay_has_zero_tail(self):
        g = loop_pair().to_float()
        bound = geometric_tail_bound(g, ProcessKind.PARALLEL, 0.0, 5)
        assert set(bound.values()) == {0.0}


@pytest.mark.filterwarnings("error")
def test_float_series_beyond_float_range_is_a_domain_error():
    # the dense step multiplies an overflowed state by the zeros of
    # non-edges; the sum was nan, with numpy warnings
    g = Graph.build(
        [("a", 1.0), ("b", 1.0)], [("a", "a", 1.0), ("a", "b", 1.0)], Mode.FLOAT
    )
    with pytest.raises(DomainError, match="does not fit in a float within 3 steps"):
        sum_series(g, ProcessKind.PARALLEL, 1e300, 3)


class TestVerifyRecursion:
    # The recursion defect of a finite series equals (minus) the step-(T+1)
    # state, so in rational mode the mismatch is exactly zero while the
    # residual itself is the small-but-nonzero truncation error.

    def test_distributed_damped_branch(self, demo5):
        series = sum_series(demo5, ProcessKind.DISTRIBUTED, F(17, 20), 40)
        check = verify_recursion(demo5, series)
        assert check.measure.kind is MeasureKind.PAGERANK
        assert check.series_field == "partial_sum"
        assert check.max_mismatch == 0
        assert 0 < check.max_residual < 1e-2

    def test_distributed_unit_branch(self, demo5):
        series = sum_series(demo5, ProcessKind.DISTRIBUTED, F(1), 40)
        check = verify_recursion(demo5, series)
        assert check.measure.kind is MeasureKind.KATZ_PRESTIGE
        assert check.series_field == "cesaro"
        assert check.max_mismatch == 0
        assert check.residual == check.predicted

    def test_parallel_damped_branch(self, demo5):
        series = sum_series(demo5, ProcessKind.PARALLEL, F(1, 4), 40)
        check = verify_recursion(demo5, series)
        assert check.measure.kind is MeasureKind.KATZ
        assert check.max_mismatch == 0
        assert check.max_residual < 1e-10  # (alpha*lambda)^41 is tiny

    def test_parallel_critical_branch(self, demo5_float):
        series = sum_series(demo5_float, ProcessKind.PARALLEL, 0.5, 50)
        check = verify_recursion(demo5_float, series)
        assert check.measure.kind is MeasureKind.EIGENVECTOR
        assert check.series_field == "cesaro"
        assert check.max_mismatch < 1e-12

    def test_dead_zone_rejected(self, demo5_float):
        series = sum_series(demo5_float, ProcessKind.PARALLEL, 1.0, 10)
        with pytest.raises(DomainError):
            verify_recursion(demo5_float, series)

    def test_decay_beyond_float_range_rejected(self):
        g = loop_pair()
        series = sum_series(g, ProcessKind.PARALLEL, F(10) ** 400, 1)
        with pytest.raises(DomainError, match="decay parameter does not fit in a float"):
            verify_recursion(g, series)

    def test_series_of_another_graph_rejected(self, demo5):
        series = sum_series(loop_pair(), ProcessKind.DISTRIBUTED, F(1, 2), 5)
        with pytest.raises(DomainError, match="other nodes"):
            verify_recursion(demo5, series)


class TestKernelConsistency:
    def test_series_matches_stepwise_float(self):
        g = generate(GeneratorSpec(Family.GENERAL, size_range=(6, 6), seed=11))
        acc = sum_series(g, ProcessKind.DISTRIBUTED, 0.7, 30)
        state = initial_state(g, ProcessKind.DISTRIBUTED, 0.7)
        totals = dict(state.amounts)
        for _ in range(30):
            state = step(g, state)
            for v in g.node_ids:
                totals[v] += state.amounts[v]
        for v in g.node_ids:
            assert acc.partial_sum[v] == pytest.approx(totals[v], rel=1e-12)


class TestOneStepper:
    """``step``, ``sum_series`` and ``total_per_step`` run on one stepper, so
    one float walk gives the same bits from every entry point."""

    @given(
        family=st.sampled_from([Family.GENERAL, Family.STRONGLY_CONNECTED, Family.SUM_OF_SCCS]),
        size=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        kind=st.sampled_from(ProcessKind),
        damped=st.booleans(),
        steps=st.integers(0, 40),
    )
    # 1000 undamped steps: the step-by-step walk drifted 2.2e-15 from the series
    @example(
        family=Family.STRONGLY_CONNECTED, size=10, seed=4,
        kind=ProcessKind.DISTRIBUTED, damped=False, steps=1000,
    )
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_float_entry_points_give_the_same_bits(self, family, size, seed, kind, damped, steps):
        g = generate(GeneratorSpec(family, size_range=(size, size), seed=seed))
        lam = principal_eigenvalue(g)[1] if kind is ProcessKind.PARALLEL else 1.0
        alpha = (0.5 if damped else 1.0) / (lam if lam > 0 else 1.0)
        state = initial_state(g, kind, alpha)
        totals = [sum(state.amounts.values(), 0.0)]
        for _ in range(steps):
            state = step(g, state)
            totals.append(sum(state.amounts.values(), 0.0))
        assert state.amounts == sum_series(g, kind, alpha, steps).last.amounts
        assert total_per_step(g, kind, alpha, steps) == totals

    @given(
        g=rational_graphs(max_nodes=5),
        kind=st.sampled_from(ProcessKind),
        alpha=st.sampled_from([F(0), F(1, 2), F(1), F(3, 2)]),
        steps=st.integers(0, 6),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_rational_steps_equal_the_fraction_step_loop(self, g, kind, alpha, steps):
        _partial, _cesaro, last, _totals = fraction_walk(g, kind.value, alpha, steps)
        state = initial_state(g, kind, alpha)
        for _ in range(steps):
            state = step(g, state)
        assert state.amounts == last
        assert all(type(x) is F for x in state.amounts.values())

    def test_float_walk_beyond_float_range_is_refused_by_every_entry(self):
        g = Graph.build(
            [("a", 1.0), ("b", 1.0)], [("a", "b", 1e300), ("b", "a", 1e300)], Mode.FLOAT
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # the totals were [2.0, 2e+300, inf, inf]
            with pytest.raises(DomainError, match="within 3 steps"):
                total_per_step(g, ProcessKind.PARALLEL, 1.0, 3)
            state = step(g, initial_state(g, ProcessKind.PARALLEL, 1.0))
            assert state.amounts == {"a": 1e300, "b": 1e300}
            # the amounts were inf
            with pytest.raises(DomainError, match="within 2 steps"):
                step(g, state)
        assert caught == []


class TestStepChecksItsInput:
    def test_state_of_another_graph_is_a_domain_error(self, demo5):
        state = initial_state(loop_pair(), ProcessKind.DISTRIBUTED, F(1, 2))
        with pytest.raises(DomainError, match="other nodes"):  # was KeyError: 'a'
            step(demo5, state)

    def test_float_decay_never_enters_rational_mode(self):
        g = loop_pair()
        state = ProcessState(ProcessKind.DISTRIBUTED, 0.5, 0, g.node_weights())
        with pytest.raises(TypeError, match="float decay parameter"):  # gave float amounts
            step(g, state)

    def test_float_amount_never_enters_rational_mode(self):
        state = ProcessState(ProcessKind.DISTRIBUTED, F(1, 2), 0, {"a": 1.0, "b": F(2)})
        with pytest.raises(TypeError, match="float process amount"):
            step(loop_pair(), state)


NON_FINITE_DECAY_CALLS = {
    "step": lambda g, a: step(g, ProcessState(ProcessKind.PARALLEL, a, 0, g.node_weights())),
    "sum_series-parallel": lambda g, a: sum_series(g, ProcessKind.PARALLEL, a, 2),
    "sum_series-distributed": lambda g, a: sum_series(g, ProcessKind.DISTRIBUTED, a, 2),
    "total_per_step": lambda g, a: total_per_step(g, ProcessKind.PARALLEL, a, 2),
    "initial_state": lambda g, a: initial_state(g, ProcessKind.DISTRIBUTED, a),
    "geometric_tail_bound": lambda g, a: geometric_tail_bound(g, ProcessKind.PARALLEL, a, 2),
    "pagerank": pagerank,
    "katz_centrality": katz_centrality,
    "classify": lambda g, a: classify(g, GraphClass(ClassTag.KATZ, a)),
}


NON_FINITE_DECAY_CASES = [
    (call, alpha)
    for call in NON_FINITE_DECAY_CALLS
    for alpha in (float("inf"), float("-inf"), float("nan"))
    # GraphClass itself refuses a negative decay
    if not (call == "classify" and alpha < 0)
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, alpha", NON_FINITE_DECAY_CASES)
def test_non_finite_float_decay_is_a_domain_error(call, alpha):
    # before the shared check: numpy warnings and nan sums from the walks,
    # and a Katz class test that admitted inf and nan (alpha * 0 is nan)
    g = Graph.build([("a", 1.0), ("b", 1.0)], [("a", "b", 1.0)], Mode.FLOAT)
    with pytest.raises(DomainError, match="decay parameter must be finite"):
        NON_FINITE_DECAY_CALLS[call](g, alpha)
