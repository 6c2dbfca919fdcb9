"""Graph surgeries: combines, edge scalings, the cycle pipeline, profits."""

import math
import random
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from feedback_centrality import (
    DomainError,
    FeedbackCentralityError,
    Family,
    GeneratorSpec,
    Graph,
    Measure,
    MeasureKind,
    Mode,
    ProfitSpec,
    build_impact_multigraph,
    compute_impacts,
    ec_regularize,
    edge_compensation,
    edge_multiplication,
    combine_groups,
    generate,
    is_constant_weight_cycle,
    katz_centrality,
    katz_prestige,
    out_degree_normalize,
    out_regularity,
    pagerank,
    profit_decomposition,
    profit_graph,
    profit_value,
    proportional_combine,
    recombine,
    serialize_graph,
    SingularMatrixError,
    synthesize_cycle_graph,
)

from .oracles import pairwise_combine, probe_profit, sequential_combine
from .strategies import rational_graphs

THIRTEENTHS = {"v1": F(2, 13), "v2": F(3, 13), "v3": F(3, 13), "v4": F(4, 13), "v5": F(1, 13)}


def triangle():
    g = Graph(Mode.RATIONAL)
    g.add_node("u", F(1))
    g.add_node("w", F(2))
    g.add_node("a", F(0))
    g.add_edge("u", "a", F(2))
    g.add_edge("w", "a", F(4))
    g.add_edge("u", "w", F(2))
    return g


GROUP_VALUES = (F(0), F(1, 3), F(1, 2), F(1), F(2))


def _outcome(combine, *args) -> str:
    try:
        return serialize_graph(combine(*args))
    except DomainError as exc:
        return f"error: {exc}"


@st.composite
def groupings(draw):
    """A rational graph, disjoint groups of one to three of its nodes (some
    nodes left out) and a combining value for every node."""
    g = draw(rational_graphs(min_nodes=2, max_nodes=9))
    order = draw(st.permutations(g.node_ids))
    groups: dict[str, list[str]] = {}
    start = 0
    for size in draw(st.lists(st.integers(1, 3), max_size=len(order))):
        members = order[start : start + size]
        if members:
            groups[members[0]] = members
        start += size
    values = {v: draw(st.sampled_from(GROUP_VALUES)) for v in g.node_ids}
    return g, groups, values


def four_cycle() -> Graph:
    g = Graph(Mode.RATIONAL)
    for n in "abcd":
        g.add_node(n, F(1))
    for s, t in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]:
        g.add_edge(s, t, F(1))
    return g


class TestProportionalCombine:
    def test_hand_example(self):
        out = proportional_combine(triangle(), "u", "w", F(1), F(3))
        assert out.node_ids == ["w", "a"]
        assert out.node_weight("w") == F(3)  # absorbed u's weight
        assert out.edge_weight("w", "a") == F(7, 2)  # 2*(1/4) + 4*(3/4)
        assert out.edge_weight("w", "w") == F(1, 2)  # the u->w edge, folded in

    def test_zero_share_drops_edges(self):
        out = proportional_combine(triangle(), "u", "w", F(0), F(1))
        assert out.edge_weight("w", "a") == F(4)
        assert not out.has_edge("w", "w")

    def test_rejects_degenerate_values(self):
        g = triangle()
        with pytest.raises(DomainError):
            proportional_combine(g, "u", "w", F(0), F(0))
        with pytest.raises(DomainError):
            proportional_combine(g, "u", "w", F(-1), F(2))
        with pytest.raises(DomainError):
            proportional_combine(g, "u", "u", F(1), F(1))

    @given(rational_graphs(min_nodes=2, max_nodes=7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pair_matches_the_pairwise_fold_byte_for_byte(self, g, data):
        nodes = st.sampled_from(g.node_ids)
        u, w = data.draw(nodes), data.draw(nodes)
        if data.draw(st.booleans()):
            g = g.to_float()
            value = st.floats(0.0, 8.0) | st.sampled_from([0.0, 1.0, 1 / 3])
        else:
            value = st.sampled_from(GROUP_VALUES + (F(-1),))
        vu, vw = data.draw(value), data.draw(value)
        assert _outcome(proportional_combine, g, u, w, vu, vw) == _outcome(
            pairwise_combine, g, u, w, vu, vw
        )

    def test_combine_groups_folds_in_order(self):
        g = four_cycle()
        values = {n: F(1, 4) for n in "abcd"}
        combined, vals = combine_groups(g, {"a": ["a", "b"], "c": ["c", "d"]}, values)
        assert combined.node_ids == ["a", "c"]
        assert vals == {"a": F(1, 2), "c": F(1, 2)}
        assert combined.node_weight("a") == F(2)

    def test_combine_groups_rejects_empty_group(self):
        g = triangle()
        with pytest.raises(DomainError, match="empty"):
            combine_groups(g, {"u": []}, {})


class TestCombineGroups:
    @given(groupings())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_sequential_fold_exactly(self, case):
        g, groups, values = case
        # The sequential fold refuses a group whose first two values are zero.
        assume(all(values[m[0]] + values[m[1]] > 0 for m in groups.values() if len(m) > 1))
        expected, expected_values = sequential_combine(g, groups, values)
        combined, combined_values = combine_groups(g, groups, values)
        assert combined == expected
        assert combined.node_ids == expected.node_ids
        assert list(combined_values.items()) == list(expected_values.items())
        # The fold drops a zero-scaled edge before its later folds; one pass
        # keeps its key in place.  With no zero share, edge order agrees too.
        if all(values[m] != 0 for grp in groups.values() if len(grp) > 1 for m in grp):
            assert list(combined.edges()) == list(expected.edges())

    def test_builds_exactly_one_graph(self, monkeypatch):
        g = four_cycle()
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        combined, _vals = combine_groups(
            g, {"a": ["a", "b", "c"], "d": ["d"]}, {n: F(1) for n in "abcd"}
        )
        assert built == [combined]

    @pytest.mark.parametrize(
        "groups, named",
        [
            ({"a": ["a", "b"], "c": ["c", "a"]}, "a"),
            ({"a": ["a", "b"], "c": ["c", "b"]}, "b"),
            ({"a": ["a", "b", "a"]}, "a"),
        ],
        ids=["first-member-again", "folded-member-again", "twice-in-one-group"],
    )
    def test_a_node_in_two_groups_is_named(self, groups, named):
        with pytest.raises(DomainError, match=f"node '{named}' is listed twice"):
            combine_groups(four_cycle(), groups, {n: F(1) for n in "abcd"})

    def test_a_group_needs_only_a_positive_total(self):
        values = {"a": F(0), "b": F(0), "c": F(2), "d": F(1)}
        combined, vals = combine_groups(four_cycle(), {"a": ["a", "b", "c"]}, values)
        assert list(combined.edges()) == [("a", "d", F(1)), ("d", "a", F(1))]
        assert combined.node_weight("a") == F(3)
        assert vals == {"a": F(2), "d": F(1)}
        with pytest.raises(DomainError, match="must not all be zero"):
            combine_groups(four_cycle(), {"a": ["a", "b", "c"]}, dict.fromkeys("abcd", F(0)))

    def test_a_member_without_a_value_is_a_domain_error(self):
        with pytest.raises(DomainError, match="no combining value for node 'b'"):
            combine_groups(four_cycle(), {"a": ["a", "b"]}, {"a": F(1)})


class TestEdgeScalings:
    def looped(self):
        g = Graph(Mode.RATIONAL)
        g.add_node("u", F(2))
        g.add_node("v", F(1))
        g.add_edge("u", "u", F(5))
        g.add_edge("u", "v", F(2))
        g.add_edge("v", "u", F(3))
        return g

    def test_multiplication_scales_loop_too(self):
        out = edge_multiplication(self.looped(), "u", F(2))
        assert out.edge_weight("u", "u") == F(10)
        assert out.edge_weight("u", "v") == F(4)
        assert out.edge_weight("v", "u") == F(3)
        assert out.node_weight("u") == F(2)

    def test_multiplication_rejects_nonpositive_factor(self):
        with pytest.raises(DomainError):
            edge_multiplication(self.looped(), "u", F(0))

    def test_compensation_by_hand(self):
        out = edge_compensation(self.looped(), "u", F(2))
        assert out.edge_weight("u", "u") == F(5)  # loop is both in and out
        assert out.edge_weight("u", "v") == F(4)
        assert out.edge_weight("v", "u") == F(3, 2)
        assert out.node_weight("u") == F(1)
        assert out.node_weight("v") == F(1)

    def test_compensation_moves_katz_by_exactly_the_factor(self):
        g = self.looped()
        before = katz_centrality(g, F(1, 10))
        after = katz_centrality(edge_compensation(g, "u", F(3)), F(1, 10))
        assert after["u"] * 3 == before["u"]
        assert after["v"] == before["v"]

    def test_normalize_gives_unit_out_degrees(self):
        out = out_degree_normalize(self.looped())
        assert out_regularity(out) == F(1)

    def test_normalize_preserves_pagerank_exactly(self):
        g = self.looped()
        assert pagerank(out_degree_normalize(g), F(4, 5)).values == pagerank(g, F(4, 5)).values

    def test_regularize_makes_lambda_out_regular(self):
        g = generate(GeneratorSpec(Family.STRONGLY_CONNECTED, size_range=(6, 6), seed=3))
        out = ec_regularize(g)
        x = out_regularity(out)
        assert x is not None

    def test_regularize_refuses_rational(self):
        # the eigenvector measure's own refusal, in place of a second copy
        with pytest.raises(DomainError, match="^eigenvector centrality is float-only;"):
            ec_regularize(self.looped())


class TestImpacts:
    def test_impacts_circulate_katz_prestige(self, demo5):
        kp = katz_prestige(demo5)
        impacts = compute_impacts(demo5)
        for v in demo5.node_ids:
            assert sum(i for (a, b), i in impacts.items() if b == v) == kp[v]
            assert sum(i for (a, b), i in impacts.items() if a == v) == kp[v]
        assert sum(impacts.values()) == F(1)

    def test_multigraph_multiplicities(self, demo5):
        mg = build_impact_multigraph(demo5)
        assert mg.scale == 13
        assert mg.multiplicity == {
            ("v1", "v2"): 1,
            ("v1", "v5"): 1,
            ("v2", "v3"): 3,
            ("v3", "v4"): 3,
            ("v4", "v1"): 2,
            ("v4", "v2"): 2,
            ("v5", "v4"): 1,
        }
        assert mg.out_multidegree("v4") == 4

    def test_multigraph_requires_unit_total_weight(self, demo5):
        g = edge_multiplication(demo5, "v1", F(1))  # cheap copy
        heavier = Graph(Mode.RATIONAL)
        for n in g.node_ids:
            heavier.add_node(n, F(1))
        for a, b, wt in g.edges():
            heavier.add_edge(a, b, wt)
        with pytest.raises(DomainError, match="rescale"):
            build_impact_multigraph(heavier)

    def test_multigraph_rejects_weightless_component(self):
        g = Graph(Mode.RATIONAL)
        g.add_node("a", F(1, 2))
        g.add_node("b", F(1, 2))
        g.add_node("c", F(0))
        g.add_edge("a", "b", F(1))
        g.add_edge("b", "a", F(1))
        g.add_edge("c", "c", F(1))
        with pytest.raises(DomainError, match="zero impact"):
            build_impact_multigraph(g)

    def test_multigraph_rejects_float_mode(self, demo5_float):
        with pytest.raises(DomainError, match="rational"):
            build_impact_multigraph(demo5_float)

    def test_multigraph_respects_scale_cap(self):
        # each self-loop carries its node's weight as impact, so the scale is
        # the common denominator 1000003, just past the cap
        g = Graph(Mode.RATIONAL)
        g.add_node("a", F(1, 1000003))
        g.add_node("b", F(1000002, 1000003))
        g.add_edge("a", "a", F(1))
        g.add_edge("b", "b", F(1))
        with pytest.raises(
            DomainError,
            match="impact denominators need a scale of 1000003, beyond the cap 1000000",
        ):
            build_impact_multigraph(g)


def test_float_transforms_read_the_renormalised_coefficients():
    # 0.1/0.8, 0.1/0.8 and 0.6/0.8 round to 0.125, 0.125 and
    # 0.7499999999999999, which each transform used as divided; the step
    # coefficients divide them by their sum, 1 - 2**-53
    g = Graph.build(
        [("a", 1.0), ("b", 1.0), ("c", 1.0)],
        [("a", "b", 0.1), ("a", "c", 0.1), ("a", "a", 0.6), ("b", "a", 0.8), ("c", "a", 0.8)],
        Mode.FLOAT,
    )
    c = [0.12500000000000003, 0.12500000000000003, 0.75, 1.0, 1.0]
    assert [w for _u, _v, w in out_degree_normalize(g).edges()] == c
    kp = katz_prestige(g)
    impacts = compute_impacts(g)
    assert list(impacts.values()) == [kp[u] * x for (u, _v), x in zip(impacts, c)]
    pr_half = Measure(MeasureKind.PAGERANK, 0.5)
    x = pagerank(g, 0.5)
    profits = profit_decomposition(g, pr_half)
    assert profits["b"] == 1.0 + (0.5 * c[0]) * x["a"]
    for result in (impacts, profits):
        assert all(type(value) is float for value in result.values())


class TestCycleSynthesis:
    def test_demo5_unrolls_to_thirteen(self, demo5):
        synth = synthesize_cycle_graph(demo5)
        assert synth.scale == 13
        assert synth.edge_weight == F(2)
        assert {v: len(grp) for v, grp in synth.groups.items()} == {
            "v1": 2, "v2": 3, "v3": 3, "v4": 4, "v5": 1,
        }
        assert len(synth.cycle_graph) == 13
        assert is_constant_weight_cycle(synth.cycle_graph)

    def test_cycle_nodes_split_weight_evenly(self, demo5):
        synth = synthesize_cycle_graph(demo5)
        for orig, grp in synth.groups.items():
            share = demo5.node_weight(orig) / len(grp)
            for copy in grp:
                assert synth.cycle_graph.node_weight(copy) == share
        kp = katz_prestige(synth.cycle_graph)
        assert set(kp.values.values()) == {F(1, 13)}

    def test_recombination_restores_the_source(self, demo5):
        synth = synthesize_cycle_graph(demo5)
        combined, values = recombine(synth)
        assert combined == demo5
        assert values == katz_prestige(demo5).values

    def test_demo6_round_trip(self, demo6):
        synth = synthesize_cycle_graph(demo6)
        assert synth.scale == 16
        assert sorted(len(grp) for grp in synth.groups.values()) == [1, 2, 2, 3, 4, 4]
        combined, values = recombine(synth)
        assert combined == demo6
        assert values == katz_prestige(demo6).values

    def test_scale_954_round_trip_is_exact(self):
        names = [f"v{i}" for i in range(10)]
        rng = random.Random(10)
        g = Graph(Mode.RATIONAL)
        for v in names:
            g.add_node(v, F(1, 10))
        for i, v in enumerate(names):
            g.add_edge(v, names[(i + 1) % 10], F(1))
        for v in names:
            target = names[rng.randrange(10)]
            if not g.has_edge(v, target):
                g.add_edge(v, target, F(1))
        g = out_degree_normalize(g)
        synth = synthesize_cycle_graph(g)
        assert synth.scale == 954
        combined, values = recombine(synth)
        assert combined == g
        assert values == katz_prestige(g).values

    def test_rejects_irregular_graphs_with_a_hint(self):
        g = Graph(Mode.RATIONAL)
        for n, wt in [("p", F(1, 3)), ("q", F(1, 3)), ("r", F(1, 3))]:
            g.add_node(n, wt)
        g.add_edge("p", "q", F(2))
        g.add_edge("p", "r", F(1))
        g.add_edge("q", "r", F(1))
        g.add_edge("r", "p", F(1))
        with pytest.raises(DomainError, match="normaliz"):
            synthesize_cycle_graph(g)
        synth = synthesize_cycle_graph(out_degree_normalize(g))
        combined, _values = recombine(synth)
        assert combined == out_degree_normalize(g)


class TestProfit:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            ProfitSpec(F(1), F(0), F(1))
        with pytest.raises(DomainError):
            ProfitSpec(F(1), F(2), F(1))
        with pytest.raises(DomainError):
            ProfitSpec(F(-1), F(1), F(1))

    def test_probe_graph_shape(self):
        full = profit_graph(ProfitSpec(F(1), F(1), F(2)), Mode.RATIONAL)
        assert full.node_ids == ["src", "tgt", "rest"]
        assert full.edge_weight("src", "rest") == F(1)
        tight = profit_graph(ProfitSpec(F(1), F(2), F(2)), Mode.RATIONAL)
        assert tight.node_ids == ["src", "tgt"]
        assert tight.num_edges == 1

    def test_probe_graph_keeps_floats_out_of_rational_mode(self):
        # Specification change: a float argument was converted exactly; it is
        # refused as a rational graph's weights are
        with pytest.raises(TypeError, match="rational-mode graph given a float source value"):
            profit_graph(ProfitSpec(0.5, F(1), F(1)), Mode.RATIONAL)

    def test_closed_forms_exact(self):
        x, y, z = F(1, 2), F(1), F(2)
        spec = ProfitSpec(x, y, z)
        a = F(3, 10)
        assert profit_value(Measure(MeasureKind.PAGERANK, a), spec) == a * x * y / z
        assert profit_value(Measure(MeasureKind.KATZ, a), spec) == a * x * y

    def test_undamped_measures_have_no_profit(self):
        spec = ProfitSpec(F(1), F(1), F(2))
        with pytest.raises(DomainError):
            profit_value(Measure(MeasureKind.KATZ_PRESTIGE), spec)

    @pytest.mark.parametrize("seed", range(6))
    def test_decomposition_matches_pagerank_exactly(self, seed):
        grid = (F(1, 2), F(1), F(2))
        g = generate(
            GeneratorSpec(Family.SEMI_OUT_REGULAR, size_range=(4, 9), weight_grid=grid, seed=seed)
        )
        measure = Measure(MeasureKind.PAGERANK, F(17, 20))
        rebuilt = profit_decomposition(g, measure)
        assert rebuilt == measure.compute(g).values

    @pytest.mark.parametrize("seed", range(6))
    def test_decomposition_matches_katz_in_float(self, seed):
        g = generate(GeneratorSpec(Family.SEMI_OUT_REGULAR, size_range=(4, 9), seed=100 + seed))
        from feedback_centrality import principal_eigenvalue

        _lams, lam = principal_eigenvalue(g)
        alpha = 0.3 / lam if lam > 0 else 0.3
        measure = Measure(MeasureKind.KATZ, alpha)
        rebuilt = profit_decomposition(g, measure)
        exact = measure.compute(g)
        for v in g.node_ids:
            assert rebuilt[v] == pytest.approx(exact[v], rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_decomposition_matches_katz_exactly(self, seed):
        grid = (F(1, 2), F(1), F(2))
        g = generate(
            GeneratorSpec(Family.SEMI_OUT_REGULAR, size_range=(4, 9), weight_grid=grid, seed=seed)
        )
        # lambda is at most the common out-degree r, so alpha * lambda <= 1/2
        measure = Measure(MeasureKind.KATZ, 1 / (2 * out_degree_of_non_sinks(g)))
        rebuilt = profit_decomposition(g, measure)
        assert rebuilt == measure.compute(g).values

    def test_decomposition_damps_each_coefficient_before_the_value(self):
        # c(u, v) * x_u is 1e310 for both in-edges of b, beyond the float range;
        # alpha * c(u, v) is 1, so each profit and their sum stay finite
        g = Graph.build(
            [("a", 1e10), ("c", 3e10), ("b", 1.0)],
            [("a", "b", 1e300), ("c", "b", 1e300)],
            Mode.FLOAT,
        )
        measure = Measure(MeasureKind.KATZ, 1e-300)
        rebuilt = profit_decomposition(g, measure)
        exact = katz_centrality(g, 1e-300)
        for v in g.node_ids:
            assert math.isfinite(rebuilt[v])
            assert rebuilt[v] == pytest.approx(exact[v], rel=1e-9)

    def test_katz_profit_survives_an_overflowing_rest_edge(self):
        # Specification change: the probe's rest node holds 1e200 * 1.0 * 1e200,
        # beyond the float range, so solving the probe raises; the target's
        # own value is 1e100, and the closed form returns it
        measure, spec = Measure(MeasureKind.KATZ, 1e200), ProfitSpec(1e200, 1e-300, 1.0)
        with pytest.raises(SingularMatrixError):
            probe_profit(measure, spec)
        assert profit_value(measure, spec) == pytest.approx(1e100, rel=1e-15)

    def test_exact_katz_profit_needs_no_float_decay(self):
        # Specification change: the probe's class test took the decay as a
        # float, so an exact decay beyond the float range raised DomainError;
        # the probe's spectrum is 0, and the exact value needs no float
        alpha = F(10) ** 400
        spec = ProfitSpec(F(1), F(1, 3), F(1))
        with pytest.raises(DomainError, match="does not fit in a float"):
            probe_profit(Measure(MeasureKind.KATZ, alpha), spec)
        assert profit_value(Measure(MeasureKind.KATZ, alpha), spec) == alpha / 3

    def test_decomposition_needs_semi_out_regularity(self):
        g = Graph(Mode.RATIONAL)
        g.add_node("a", F(1))
        g.add_node("b", F(1))
        g.add_edge("a", "b", F(1))
        g.add_edge("b", "a", F(2))
        with pytest.raises(DomainError, match="semi-out-regular"):
            profit_decomposition(g, Measure(MeasureKind.PAGERANK, F(1, 2)))


def out_degree_of_non_sinks(g: Graph):
    return next(g.out_degree(v) for v in g.node_ids if g.out_degree(v) > 0)


#: Profit arguments: zero, the smallest subnormal, exact and float values
#: around 1, float values up to the edge of the range, inf, nan, an exact
#: value beyond the float range, and integers (drawn separately).
PROFIT_TOKENS = (
    0, 5e-324, F(1, 3), F(1, 2), 1, 2, 1e17, 1e300, 1e308, math.inf, math.nan, F(10) ** 400,
)
#: Decays per measure, float and exact; the last pagerank decay rounds to 1.0
#: as a float.
PROFIT_DECAYS = {
    MeasureKind.PAGERANK: (0, 0.0, 1e-300, F(1, 10), 0.5, F(17, 20), 0.85, F(10**20 - 1, 10**20)),
    MeasureKind.KATZ: (
        0, 1e-300, F(1, 10), 0.3, 2, 7.5, 1e17, 1e200, 1e300, F(10) ** 300, math.inf, math.nan,
    ),
}


def probe_with_rest_overflow_excused(measure: Measure, spec: ProfitSpec):
    """``probe_profit``, except where the closed form changed the
    specification: a katz target's value does not depend on the out-degree,
    so where solving the probe fails, the probe without its rest edge
    decides."""
    try:
        return probe_profit(measure, spec)
    except SingularMatrixError:
        if measure.kind is not MeasureKind.KATZ:
            raise
        return probe_profit(measure, spec, rest=False)


@st.composite
def profit_cases(draw, kind):
    token = st.sampled_from(PROFIT_TOKENS) | st.integers(0, 2**70)
    x, y, z = draw(token), draw(token), draw(token)
    if z < y:
        y, z = z, y
    try:
        spec = ProfitSpec(x, y, z)
    except DomainError:
        assume(False)
    return Measure(kind, draw(st.sampled_from(PROFIT_DECAYS[kind]))), spec


@pytest.mark.parametrize("kind", sorted(PROFIT_DECAYS, key=lambda k: k.value))
@settings(max_examples=2000, derandomize=True, deadline=None)
@given(data=st.data())
def test_profit_value_matches_the_probe_graph(kind, data):
    measure, spec = data.draw(profit_cases(kind))
    try:
        expected = probe_with_rest_overflow_excused(measure, spec)
    except FeedbackCentralityError as exc:
        with pytest.raises(FeedbackCentralityError) as raised:
            profit_value(measure, spec)
        assert type(raised.value) is type(exc)
        return
    got = profit_value(measure, spec)
    assert type(got) is type(expected)
    if isinstance(expected, F):
        assert got == expected
    else:
        assert abs(got - expected) <= 4 * math.ulp(expected)


class TestRarelyReachedPaths:
    """Branches that no other test runs, each reached through a public entry."""

    def test_regularize_refuses_a_component_without_node_weight(self):
        g = Graph.build(
            [("a", 0.0), ("b", 1.0)], [("a", "a", 1.0), ("b", "b", 1.0)], Mode.FLOAT
        )
        with pytest.raises(DomainError, match="some component has zero total node weight"):
            ec_regularize(g)

    def test_cycle_copy_skips_a_name_the_graph_already_has(self):
        # a is visited twice per circuit; its second copy cannot be a#2
        third = F(1, 3)
        g = Graph.build(
            [("a", third), ("a#2", third), ("b", third)],
            [("a", "a#2", F(1)), ("a", "b", F(1)), ("a#2", "a", F(2)), ("b", "a", F(2))],
            Mode.RATIONAL,
        )
        synth = synthesize_cycle_graph(g)
        assert synth.groups == {"a": ["a", "a#3"], "a#2": ["a#2"], "b": ["b"]}
        assert recombine(synth)[0] == g

    def test_katz_prestige_has_no_profit_decomposition(self, demo5):
        with pytest.raises(DomainError, match="not defined for katz-prestige"):
            profit_decomposition(demo5, Measure(MeasureKind.KATZ_PRESTIGE))
