"""Walk processes: oracle agreement, conservation, tails, recursion checks."""

from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from feedback_centrality import (
    DomainError,
    Family,
    GeneratorSpec,
    Graph,
    MeasureKind,
    Mode,
    ProcessKind,
    ProcessState,
    SeriesAccumulator,
    generate,
    geometric_tail_bound,
    initial_state,
    katz_centrality,
    pagerank,
    step,
    sum_series,
    total_per_step,
    verify_recursion,
)
from .oracles import walk_series
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

    def test_zero_decay_has_zero_tail(self):
        g = loop_pair().to_float()
        bound = geometric_tail_bound(g, ProcessKind.PARALLEL, 0.0, 5)
        assert set(bound.values()) == {0.0}


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
