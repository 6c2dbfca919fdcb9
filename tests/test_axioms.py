"""The axiom checker: hand-built instances, generators, matrix machinery."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedback_centrality import (
    ALL_AXIOMS,
    AxiomId,
    AxiomInstance,
    AxiomTag,
    CellStatus,
    CentralityVector,
    DomainError,
    EXPECTED_MATRIX,
    Family,
    FeedbackCentralityError,
    GeneratorSpec,
    Graph,
    MATRIX_MEASURES,
    Measure,
    MeasureKind,
    Mode,
    NCVariant,
    PreconditionError,
    check_axiom,
    generate,
    is_constant_weight_cycle,
    is_strongly_connected,
    katz_centrality,
    out_regularity,
    pagerank,
    parse_graph,
    satisfaction_matrix,
    semi_out_regularity,
    serialize_graph,
    shrink_instance,
)
from feedback_centrality import axioms
from feedback_centrality.axioms import AxiomVerdict, _relative_deviation, run_cell

from .conftest import GRAPH_DIR
from .strategies import semi_out_regular_graphs

NC = AxiomTag.NODE_COMBINATION
PR_HALF = Measure(MeasureKind.PAGERANK, F(1, 2))
KATZ_QUARTER = Measure(MeasureKind.KATZ, F(1, 4))
KP = Measure(MeasureKind.KATZ_PRESTIGE)
EV = Measure(MeasureKind.EIGENVECTOR)


def two_cycle(names=("a", "b"), weight=F(1)):
    g = Graph(Mode.RATIONAL)
    for n in names:
        g.add_node(n, F(1))
    g.add_edge(names[0], names[1], weight)
    g.add_edge(names[1], names[0], weight)
    return g


def tri_cycle():
    g = Graph(Mode.RATIONAL)
    for n, wt in [("a", F(1)), ("b", F(2)), ("c", F(3))]:
        g.add_node(n, wt)
    g.add_edge("a", "b", F(7))
    g.add_edge("b", "c", F(7))
    g.add_edge("c", "a", F(7))
    return g


class TestAxiomId:
    def test_parse_label_round_trip(self):
        for axiom in ALL_AXIOMS:
            assert AxiomId.parse(axiom.label()) == axiom

    def test_nc_defaults_to_plain(self):
        assert AxiomId(NC).variant is NCVariant.PLAIN
        assert AxiomId(NC).label() == "node-combination"
        assert (
            AxiomId.parse("node-combination:semi-out-regular").variant
            is NCVariant.SEMI_OUT_REGULAR
        )

    def test_variants_are_nc_only(self):
        with pytest.raises(DomainError):
            AxiomId(AxiomTag.LOCALITY, NCVariant.PLAIN)
        with pytest.raises(DomainError):
            AxiomId.parse("nonsense")
        with pytest.raises(DomainError):
            AxiomId.parse("node-combination:nonsense")

    def test_grid_dimensions(self):
        assert len(ALL_AXIOMS) == 7
        assert len(EXPECTED_MATRIX) == 28
        assert len(MATRIX_MEASURES) == 4


class TestLocality:
    def test_exact_for_katz_prestige(self):
        inst = AxiomInstance(graph=two_cycle(), other=two_cycle(("c", "d")))
        verdict = check_axiom(AxiomId(AxiomTag.LOCALITY), KP, inst)
        assert verdict.passed
        assert verdict.tolerance == 0.0
        assert verdict.max_deviation == 0.0

    def test_out_of_class_addend_skips(self):
        lonely = Graph(Mode.RATIONAL)
        lonely.add_node("z", F(1))  # loop-free singleton: outside the KP class
        inst = AxiomInstance(graph=two_cycle(), other=lonely)
        verdict = check_axiom(AxiomId(AxiomTag.LOCALITY), KP, inst)
        assert verdict.skipped
        assert "class" in verdict.skipped_reason

    def test_shared_ids_are_malformed(self):
        with pytest.raises(PreconditionError, match="share"):
            check_axiom(
                AxiomId(AxiomTag.LOCALITY),
                PR_HALF,
                AxiomInstance(graph=two_cycle(), other=two_cycle(("a", "d"))),
            )


class TestEdgeDeletion:
    def test_upstream_nodes_unchanged(self):
        g = Graph(Mode.RATIONAL)
        for n in "abc":
            g.add_node(n, F(1))
        g.add_edge("a", "b", F(1))
        g.add_edge("b", "c", F(1))
        inst = AxiomInstance(graph=g, edge=("b", "c"))
        verdict = check_axiom(AxiomId(AxiomTag.EDGE_DELETION), PR_HALF, inst)
        assert verdict.passed and verdict.max_deviation == 0.0

    def test_missing_edge_is_malformed(self):
        with pytest.raises(PreconditionError, match="not in the graph"):
            check_axiom(
                AxiomId(AxiomTag.EDGE_DELETION),
                PR_HALF,
                AxiomInstance(graph=two_cycle(), edge=("a", "a")),
            )


class TestNodeCombination:
    def semi_graph(self):
        g = Graph(Mode.RATIONAL)
        for n, wt in [("s", F(1)), ("a", F(1)), ("b", F(2)), ("t", F(1))]:
            g.add_node(n, wt)
        g.add_edge("s", "a", F(2))
        g.add_edge("a", "b", F(1))
        g.add_edge("a", "t", F(1))
        g.add_edge("b", "a", F(2))
        return g

    def test_plain_holds_exactly_on_out_regular_graphs(self, demo5):
        inst = AxiomInstance(graph=demo5, nodes=("v1", "v2"))
        verdict = check_axiom(AxiomId(NC), KP, inst)
        assert verdict.passed and verdict.max_deviation == 0.0

    def test_pair_degrees_must_match(self):
        g = Graph(Mode.RATIONAL)
        g.add_node("a", F(1))
        g.add_node("b", F(1))
        g.add_edge("a", "b", F(1))
        g.add_edge("b", "a", F(2))
        with pytest.raises(PreconditionError, match="pair must share"):
            check_axiom(AxiomId(NC), PR_HALF, AxiomInstance(graph=g, nodes=("a", "b")))

    def test_semi_variant_rejects_sink_nonsink_pairs(self):
        inst = AxiomInstance(graph=self.semi_graph(), nodes=("t", "b"))
        with pytest.raises(PreconditionError, match="pair must share"):
            check_axiom(AxiomId(NC, NCVariant.SEMI_OUT_REGULAR), PR_HALF, inst)

    def test_semi_variant_passes_equal_degree_pairs(self):
        # s and b share out-degree 2, but t is a sink, so the plain
        # hypothesis fails on the graph while the semi variant applies.
        inst = AxiomInstance(graph=self.semi_graph(), nodes=("s", "b"))
        with pytest.raises(PreconditionError):
            check_axiom(AxiomId(NC), PR_HALF, inst)
        for measure in (PR_HALF, Measure(MeasureKind.KATZ, F(1, 5))):
            verdict = check_axiom(AxiomId(NC, NCVariant.SEMI_OUT_REGULAR), measure, inst)
            assert verdict.passed and verdict.max_deviation == 0.0

    def pair_only_probe(self, mode):
        one = F(1) if mode is Mode.RATIONAL else 1.0
        g = Graph(mode)
        for n in "uwxy":
            g.add_node(n, one)
        g.add_edge("u", "x", 2 * one)
        g.add_edge("x", "w", 3 * one)
        g.add_edge("w", "y", 2 * one)
        g.add_edge("y", "u", one)
        return g

    def test_pair_only_variant_spares_all_but_eigenvector(self):
        inst = AxiomInstance(graph=self.pair_only_probe(Mode.RATIONAL), nodes=("u", "w"))
        axiom = AxiomId(NC, NCVariant.PAIR_ONLY)
        for measure in (PR_HALF, KP, Measure(MeasureKind.KATZ, F(1, 5))):
            verdict = check_axiom(axiom, measure, inst)
            assert verdict.passed, measure.name()
        ev_inst = AxiomInstance(graph=self.pair_only_probe(Mode.FLOAT), nodes=("u", "w"))
        verdict = check_axiom(axiom, EV, ev_inst)
        assert not verdict.passed and not verdict.skipped
        assert verdict.max_deviation > 1e-4


class TestNodeScalings:
    def test_multiplication_fools_katz_but_not_pagerank(self):
        inst = AxiomInstance(graph=two_cycle(), node="a", factor=F(2))
        axiom = AxiomId(AxiomTag.EDGE_MULTIPLICATION)
        bad = check_axiom(axiom, KATZ_QUARTER, inst)
        assert not bad.passed and bad.max_deviation > 0
        assert bad.worst_node in ("a", "b")
        good = check_axiom(axiom, PR_HALF, inst)
        assert good.passed and good.max_deviation == 0.0

    def test_exact_instance_fails_below_float_resolution(self):
        # Katz values that differ by about 1e-31: equal once rounded to floats
        g = Graph.build(
            [("a", F(1)), ("b", F(2))], [("a", "b", F(1)), ("b", "a", F(1))]
        )
        inst = AxiomInstance(graph=g, node="a", factor=1 + F(1, 10**30))
        verdict = check_axiom(AxiomId(AxiomTag.EDGE_MULTIPLICATION), KATZ_QUARTER, inst)
        assert verdict.tolerance == 0.0
        assert not verdict.passed and verdict.max_deviation > 0
        assert _relative_deviation(2**60 + 1, 2**60) == float(F(1, 2**60 + 1))

    def test_compensation_fools_pagerank_but_not_katz(self):
        inst = AxiomInstance(graph=two_cycle(), node="a", factor=F(2))
        axiom = AxiomId(AxiomTag.EDGE_COMPENSATION)
        assert check_axiom(axiom, KATZ_QUARTER, inst).passed
        assert not check_axiom(axiom, PR_HALF, inst).passed

    def test_nan_deviation_fails_and_names_its_node(self, monkeypatch):
        # b's deviation is nan; a comparison-based maximum dropped it and
        # passed the instance with deviation 0.0 at node None
        vector = CentralityVector({"a": 1.0, "b": float("nan")}, Mode.FLOAT)
        monkeypatch.setattr(Measure, "compute", lambda self, g: vector)
        inst = AxiomInstance(graph=two_cycle().to_float(), node="a", factor=2.0)
        verdict = check_axiom(AxiomId(AxiomTag.EDGE_MULTIPLICATION), PR_HALF, inst)
        assert not verdict.passed
        assert verdict.worst_node == "b" and verdict.max_deviation != verdict.max_deviation

    def test_katz_prestige_beyond_float_range_is_skipped(self):
        # the component's node weight 2e308 overflowed: every value was inf,
        # every deviation nan, and the instance passed
        g = parse_graph("node a 1e308\nnode b 1e308\nedge a b 1\nedge b a 2\n", Mode.FLOAT)
        inst = AxiomInstance(graph=g, node="a", factor=2.0)
        verdict = check_axiom(AxiomId(AxiomTag.EDGE_COMPENSATION), KP, inst)
        assert verdict.skipped and not verdict.passed
        assert verdict.skipped_reason == "value of node 'a' does not fit in a float"

    def test_rational_eigenvector_instance_is_skipped_by_the_measure(self):
        # a rational instance is exact for every measure; the eigenvector
        # measure's float-only refusal skips it, with no second copy here
        inst = AxiomInstance(graph=two_cycle(), other=two_cycle(("c", "d")))
        verdict = check_axiom(AxiomId(AxiomTag.LOCALITY), EV, inst)
        assert verdict.skipped and verdict.tolerance == 0.0
        assert verdict.skipped_reason.startswith("eigenvector centrality is float-only;")

    def test_float_solve_failure_is_skipped(self):
        # on the path a -> b -> c the katz value of c at decay 1e300 is about
        # 1e600: the float solve's SingularMatrixError escaped check_axiom
        text = "node a 1\nnode b 1\nnode c 1\nnode z 1\nedge a b 1\nedge b c 1\n"
        katz = Measure(MeasureKind.KATZ, 1e300)
        inst = AxiomInstance(graph=parse_graph(text, Mode.FLOAT), node="z")
        verdict = check_axiom(AxiomId(AxiomTag.BASELINE), katz, inst)
        assert verdict.skipped and not verdict.passed
        assert verdict.skipped_reason == (
            "float solve failed: the matrix is singular to float precision "
            "or the solution does not fit in a float"
        )

    def test_factor_must_be_positive(self):
        with pytest.raises(PreconditionError, match="positive"):
            check_axiom(
                AxiomId(AxiomTag.EDGE_MULTIPLICATION),
                PR_HALF,
                AxiomInstance(graph=two_cycle(), node="a", factor=F(0)),
            )


class TestBaseline:
    def with_isolated(self):
        g = two_cycle()
        g.add_node("z", F(5))
        return g

    def test_damped_measures_sit_at_the_node_weight(self):
        inst = AxiomInstance(graph=self.with_isolated(), node="z")
        for measure in (PR_HALF, KATZ_QUARTER):
            verdict = check_axiom(AxiomId(AxiomTag.BASELINE), measure, inst)
            assert verdict.passed and verdict.max_deviation == 0.0

    def test_undamped_classes_exclude_isolated_nodes(self):
        inst = AxiomInstance(graph=self.with_isolated(), node="z")
        verdict = check_axiom(AxiomId(AxiomTag.BASELINE), KP, inst)
        assert verdict.skipped and "class" in verdict.skipped_reason

    def test_node_must_be_isolated(self):
        with pytest.raises(PreconditionError, match="isolated"):
            check_axiom(
                AxiomId(AxiomTag.BASELINE),
                PR_HALF,
                AxiomInstance(graph=self.with_isolated(), node="a"),
            )


class TestCycle:
    def test_katz_prestige_spreads_the_total_evenly(self):
        verdict = check_axiom(AxiomId(AxiomTag.CYCLE), KP, AxiomInstance(graph=tri_cycle()))
        assert verdict.passed and verdict.max_deviation == 0.0

    def test_eigenvector_does_too(self):
        inst = AxiomInstance(graph=tri_cycle().to_float())
        verdict = check_axiom(AxiomId(AxiomTag.CYCLE), EV, inst)
        assert verdict.passed

    def test_pagerank_inflates_the_total(self):
        verdict = check_axiom(AxiomId(AxiomTag.CYCLE), PR_HALF, AxiomInstance(graph=tri_cycle()))
        assert not verdict.passed

    def test_tiny_unequal_weights_are_not_constant(self):
        g = Graph.build(
            [("a", 1.0), ("b", 1.0), ("c", 1.0)],
            [("a", "b", 1e-12), ("b", "c", 3e-12), ("c", "a", 2e-12)],
            Mode.FLOAT,
        )
        assert not is_constant_weight_cycle(g)
        with pytest.raises(PreconditionError, match="cycle"):
            check_axiom(AxiomId(AxiomTag.CYCLE), EV, AxiomInstance(graph=g))

    def test_non_cycles_are_malformed(self):
        bent = tri_cycle()
        bent.add_edge("a", "c", F(7))
        with pytest.raises(PreconditionError, match="cycle"):
            check_axiom(AxiomId(AxiomTag.CYCLE), KP, AxiomInstance(graph=bent))


class TestDescribe:
    def test_round_trippable_payload(self):
        inst = AxiomInstance(graph=two_cycle(), node="a", factor=F(3, 2))
        doc = inst.describe()
        assert set(doc) == {"graph", "node", "factor"}
        assert doc["factor"] == "3/2"
        assert "node a 1" in doc["graph"]

    def test_locality_includes_the_addend(self):
        inst = AxiomInstance(graph=two_cycle(), other=two_cycle(("c", "d")))
        assert "other" in inst.describe()

    def test_huge_exact_factor_is_a_domain_error(self, demo5):
        # str() of the factor raised a bare ValueError past the digit limit
        inst = AxiomInstance(graph=demo5, node="v1", factor=F(10) ** 5000)
        with pytest.raises(DomainError, match="digits to print"):
            inst.describe()


class TestGenerate:
    @pytest.mark.parametrize("family", list(Family))
    def test_deterministic_per_spec(self, family):
        spec = GeneratorSpec(family, size_range=(3, 12), seed=7)
        assert generate(spec) == generate(spec)

    @pytest.mark.parametrize("seed", range(15))
    def test_family_predicates(self, seed):
        grid = (F(1, 2), F(1), F(2))
        lo, hi = 3, 14
        assert out_regularity(
            generate(GeneratorSpec(Family.OUT_REGULAR, (lo, hi), seed=seed))
        ) is not None
        assert semi_out_regularity(
            generate(GeneratorSpec(Family.SEMI_OUT_REGULAR, (lo, hi), seed=seed))
        )[0]
        assert is_strongly_connected(
            generate(GeneratorSpec(Family.STRONGLY_CONNECTED, (lo, hi), seed=seed))
        )
        assert is_constant_weight_cycle(
            generate(GeneratorSpec(Family.CYCLE, (lo, hi), weight_grid=grid, seed=seed))
        )
        assert KP.admits(generate(GeneratorSpec(Family.SUM_OF_SCCS, (lo, hi), seed=seed)))
        general = generate(GeneratorSpec(Family.GENERAL, (lo, hi), seed=seed))
        assert lo <= len(general) <= hi

    def test_weight_grid_means_rational_mode(self):
        grid = (F(1, 2), F(1), F(3))
        g = generate(GeneratorSpec(Family.GENERAL, (4, 8), weight_grid=grid, seed=2))
        assert g.mode is Mode.RATIONAL
        assert {wt for _u, _v, wt in g.edges()} <= set(grid)
        assert set(g.node_weights().values()) <= set(grid)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(DomainError):
            generate(GeneratorSpec(Family.GENERAL, size_range=(0, 4), seed=0))
        with pytest.raises(DomainError):
            generate(GeneratorSpec(Family.GENERAL, size_range=(5, 3), seed=0))

    @pytest.mark.parametrize("grid", [None, (F(1, 2), F(1), F(3))], ids=["float", "rational"])
    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_one_graph_built_per_draw(self, monkeypatch, family, grid):
        built = []
        init = Graph.__init__

        def counted(g, *args):
            built.append(g)
            init(g, *args)

        monkeypatch.setattr(Graph, "__init__", counted)
        for seed in range(10):
            built.clear()
            generate(GeneratorSpec(family, (1, 12), grid, seed))
            assert len(built) == 1

    def test_no_edge_is_added_one_by_one(self, monkeypatch):
        # generated graphs and the matrix's derived graphs are built whole
        added = []
        add_edge = Graph.add_edge

        def counted(g, *args):
            added.append(args)
            add_edge(g, *args)

        monkeypatch.setattr(Graph, "add_edge", counted)
        for family in Family:
            for grid in (None, (F(1, 2), F(1), F(3))):
                for seed in range(5):
                    generate(GeneratorSpec(family, (1, 12), grid, seed))
        satisfaction_matrix(trials=2, seed=0)
        assert added == []

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("seed", range(10))
    def test_rescale_divides_by_the_out_degree_graph_sums(self, mode, seed):
        # weights spread over six decades, so a float sum in another order
        # would round differently
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(5)]
        edges = []
        for u in names:
            for v in rng.sample(names, rng.randint(0, 5)):
                wt = 10 ** rng.uniform(-3, 3)
                edges.append((u, v, wt if mode is Mode.FLOAT else F(wt).limit_denominator(10**6)))
        g = Graph.build([(v, 1) for v in names], edges, mode)
        target = edges[0][2] if edges else 1
        expected = [(u, v, wt * target / g.out_degree(u)) for u, v, wt in g.edges()]
        assert axioms._rescale_out_degrees(edges, target) == expected

    @given(
        family=st.sampled_from(list(Family)),
        size_range=st.sampled_from([(1, 1), (3, 12), (0, 2), (3, 1)]),
        grid=st.sampled_from([
            None, (F(1, 2), F(1), F(2)), (1, 2, 3), ("1/2", "3/2"),
            (), (0,), (-1, 1), (0.5,),
        ]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_every_spec_gives_its_family_or_a_typed_error(self, family, size_range, grid, seed):
        try:
            g = generate(GeneratorSpec(family, size_range, grid, seed))
        except FeedbackCentralityError:
            return
        lo, hi = size_range
        assert lo <= len(g) <= hi
        assert g.mode is (Mode.FLOAT if grid is None else Mode.RATIONAL)
        holds = {
            Family.STRONGLY_CONNECTED: is_strongly_connected,
            Family.OUT_REGULAR: lambda g: out_regularity(g) is not None,
            Family.SEMI_OUT_REGULAR: lambda g: semi_out_regularity(g)[0],
            Family.GENERAL: lambda g: g.num_edges > 0,
            Family.CYCLE: is_constant_weight_cycle,
            Family.SUM_OF_SCCS: KP.admits,
        }[family]
        assert holds(g)

    def test_a_grid_is_stored_as_fractions_and_a_bad_one_refused(self):
        spec = GeneratorSpec(Family.GENERAL, weight_grid=(1, "3/2", F(2)))
        assert spec.weight_grid == (F(1), F(3, 2), F(2))
        assert all(type(w) is F for w in spec.weight_grid)
        for grid in ((), (0,), (-1, 1), (0.5,), ("x",)):
            with pytest.raises(DomainError, match="weight grid"):
                GeneratorSpec(Family.GENERAL, weight_grid=grid)

    @pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
    def test_corpus_is_pinned(self, family):
        # the random draws of each family, in order: a reordered draw changes
        # every corpus the satisfaction matrix and the benchmarks run on
        digest = hashlib.sha256()
        for grid in (None, (F(1, 2), F(1), F(3, 2), F(2))):
            for size_range in ((1, 4), (3, 12), (2, 1)):
                for seed in range(25):
                    spec = GeneratorSpec(family, size_range, grid, seed)
                    try:
                        text = serialize_graph(generate(spec))
                    except DomainError as exc:
                        text = f"DomainError: {exc}"
                    digest.update(text.encode())
        assert digest.hexdigest() == CORPUS_DIGESTS[family]


CORPUS_DIGESTS = {
    Family.STRONGLY_CONNECTED: "aa05f90be6458395a5eef915d09c35c9bfc00fa992d5c599d0ee09494d8ee093",
    Family.OUT_REGULAR: "bb43eb716b0f5caab1256d3b8a6c70981f9238e464c4976a4091c88bb3caa225",
    Family.SEMI_OUT_REGULAR: "f13e3eed70635d83a8a6cc631e2e079d7c1e40336370885612e1fb174eddea04",
    Family.GENERAL: "a7b5cd1f719b1762b4d1964a091bc24c281a9a649e5711f54da365879907a7ef",
    Family.CYCLE: "bcf813d646e51dddd853410d2401c0bd9541b0b50c9655eaf0e228982c83eed6",
    Family.SUM_OF_SCCS: "56fface3b321601dc531004849e7fb12e9954b0c88e00744e02cf5bda0028abd",
}


@pytest.fixture(scope="module")
def small_report():
    return satisfaction_matrix(size_range=(3, 8), trials=6, seed=13)


class TestSatisfactionMatrix:
    def test_matches_the_documented_pattern(self, small_report):
        assert small_report.mismatches() == []

    def test_skips_are_exactly_the_undamped_baseline_cells(self, small_report):
        skipped = {
            key
            for key, cell in small_report.cells.items()
            if cell.status is CellStatus.SKIPPED
        }
        assert skipped == {
            (AxiomTag.BASELINE, MeasureKind.KATZ_PRESTIGE),
            (AxiomTag.BASELINE, MeasureKind.EIGENVECTOR),
        }

    def test_skipped_cells_give_the_first_reason(self, small_report):
        # run_cell counted each skipped instance and dropped its reason
        for kind in (MeasureKind.KATZ_PRESTIGE, MeasureKind.EIGENVECTOR):
            assert small_report.cells[(AxiomTag.BASELINE, kind)].skip_reason == (
                f"graph is outside the {kind.value} class: "
                "node 'iso' forms a component with no cycle through it"
            )
        unskipped = [c for c in small_report.cells.values() if not c.skipped]
        assert unskipped and all(c.skip_reason is None for c in unskipped)

    def test_failing_cells_carry_reverified_witnesses(self, small_report):
        failing = [c for c in small_report.cells.values() if c.status is CellStatus.FAIL]
        assert failing
        for cell in failing:
            assert cell.witness is not None
            assert cell.witness_verdict is not None and not cell.witness_verdict.passed
            again = check_axiom(cell.axiom, cell.measure, cell.witness)
            assert not again.passed and not again.skipped

    def test_deterministic_for_a_seed(self, small_report):
        twin = satisfaction_matrix(size_range=(3, 8), trials=6, seed=13)
        for key, cell in small_report.cells.items():
            other = twin.cells[key]
            assert cell.status is other.status
            assert cell.attempts == other.attempts
            assert cell.max_deviation == other.max_deviation
            if cell.witness is not None:
                assert cell.witness.describe() == other.witness.describe()

    def test_restricted_grids_only_judge_present_cells(self):
        report = satisfaction_matrix(
            size_range=(3, 6),
            trials=3,
            seed=1,
            axioms=[AxiomId(AxiomTag.LOCALITY)],
            measures={MeasureKind.PAGERANK: Measure(MeasureKind.PAGERANK, 0.85)},
        )
        assert set(report.cells) == {(AxiomTag.LOCALITY, MeasureKind.PAGERANK)}
        assert report.mismatches() == []

    def test_nan_deviation_is_the_cell_maximum_wherever_it_falls(self, monkeypatch):
        # max(0.25, nan) is 0.25, so a running max read 0.5
        deviations = iter([0.25, float("nan"), 0.5])

        def verdict(axiom, measure, instance, tol):
            return AxiomVerdict(axiom, measure, instance, next(deviations), tol, True)

        monkeypatch.setattr(axioms, "check_axiom", verdict)
        cell = run_cell(AxiomId(AxiomTag.CYCLE), PR_HALF, (3, 4), 3, 1e-8, random.Random(0))
        assert cell.admissible == 3
        assert cell.max_deviation != cell.max_deviation


class TestShrinking:
    def failing_instance(self):
        g = generate(
            GeneratorSpec(Family.STRONGLY_CONNECTED, size_range=(8, 8), seed=21)
        )
        to_rational = Graph(Mode.RATIONAL)
        for v, wt in g.node_weights().items():
            to_rational.add_node(v, F(1))
        for u, v, _wt in g.edges():
            to_rational.add_edge(u, v, F(1, 4))
        return AxiomInstance(graph=to_rational, node="v0", factor=F(3))

    def test_shrunk_witness_still_fails_and_keeps_the_payload(self):
        axiom = AxiomId(AxiomTag.EDGE_MULTIPLICATION)
        inst = self.failing_instance()
        original = check_axiom(axiom, KATZ_QUARTER, inst)
        assert not original.passed
        shrunk = shrink_instance(axiom, KATZ_QUARTER, inst)
        assert "v0" in shrunk.graph
        assert len(shrunk.graph) <= len(inst.graph)
        assert shrunk.graph.num_edges <= inst.graph.num_edges
        verdict = check_axiom(axiom, KATZ_QUARTER, shrunk)
        assert not verdict.passed and not verdict.skipped


class TestValueGuarantees:
    """The damped measures' two per-node claims on semi-out-regular graphs:
    a source node (no in-edges) is worth exactly its node weight, and a node
    with positive weight has a positive value."""

    @staticmethod
    def assert_guarantees(g, values, rel=0.0):
        for v in g.node_ids:
            if not g.in_edges(v):
                assert values[v] == pytest.approx(g.node_weight(v), rel=rel, abs=0)
            if g.node_weight(v) > 0:
                assert values[v] > 0

    def check_pagerank(self, g, alpha):
        values = pagerank(g, alpha)
        assert all(isinstance(x, F) for x in values.values.values())
        self.assert_guarantees(g, values)

    def check_katz(self, g):
        # every column of A sums to r or 0, so lambda <= r and alpha * lambda <= 1/2
        r = semi_out_regularity(g)[1] or 1
        alpha = F(1, 2) / r
        self.assert_guarantees(g, katz_centrality(g, alpha))
        self.assert_guarantees(g.to_float(), katz_centrality(g.to_float(), float(alpha)), 1e-12)

    @given(semi_out_regular_graphs(), st.sampled_from([F(0), F(1, 2), F(17, 20)]))
    @settings(max_examples=80, deadline=None)
    def test_pagerank_guarantees_hold_exactly(self, g, alpha):
        self.check_pagerank(g, alpha)

    @given(semi_out_regular_graphs())
    @settings(max_examples=80, deadline=None)
    def test_katz_guarantees_hold_in_float(self, g):
        self.check_katz(g)

    @pytest.mark.parametrize("seed", range(8))
    def test_guarantees_hold_on_generated_graphs(self, seed):
        grid = (F(1, 2), F(1), F(2))
        g = generate(GeneratorSpec(Family.SEMI_OUT_REGULAR, (4, 10), weight_grid=grid, seed=seed))
        assert semi_out_regularity(g)[0]
        self.check_pagerank(g, F(1, 2))
        self.check_katz(g)

    @given(semi_out_regular_graphs())
    @settings(max_examples=40, deadline=None)
    def test_undamped_measures_are_rejected(self, g):
        # the claims are stated for the damped measures: a source node is a
        # component with no cycle through it, outside both undamped classes
        if any(not g.in_edges(v) for v in g.node_ids):
            assert not KP.admits(g)
            assert not EV.admits(g.to_float())

    @given(semi_out_regular_graphs())
    @settings(max_examples=40, deadline=None)
    def test_corpus_must_be_semi_out_regular(self, g):
        assert semi_out_regularity(g)[0]


def _demo5_float(prefix: str = "") -> Graph:
    text = (GRAPH_DIR / "demo5.dg").read_text().replace(" v", f" {prefix}v")
    return parse_graph(text, Mode.FLOAT)


class TestRarelyReachedPaths:
    """Branches that no other test runs, each reached through a public entry."""

    def test_variant_label_names_the_variant(self):
        axiom = AxiomId(AxiomTag.NODE_COMBINATION, NCVariant.PAIR_ONLY)
        assert axiom.label() == "node-combination:pair-only"

    def test_describe_names_the_edge_and_the_pair(self, demo5):
        doc = AxiomInstance(demo5, edge=("v1", "v2"), nodes=("v3", "v4")).describe()
        assert doc["edge"] == ["v1", "v2"]
        assert doc["nodes"] == ["v3", "v4"]

    def test_constant_weight_cycle_needs_nodes_and_one_component(self):
        assert not is_constant_weight_cycle(Graph(Mode.RATIONAL))
        two_loops = Graph.build(
            [("a", F(1)), ("b", F(1))], [("a", "a", F(1)), ("b", "b", F(1))], Mode.RATIONAL
        )
        assert not is_constant_weight_cycle(two_loops)

    def test_mismatches_name_a_cell_that_disagrees(self):
        pagerank_only = {MeasureKind.PAGERANK: MATRIX_MEASURES[MeasureKind.PAGERANK]}
        report = satisfaction_matrix(
            size_range=(3, 5), trials=2, axioms=[AxiomId(AxiomTag.CYCLE)], measures=pagerank_only
        )
        key = (AxiomTag.CYCLE, MeasureKind.PAGERANK)
        assert report.mismatches() == []
        report.cells[key] = replace(report.cells[key], status=CellStatus.PASS)
        assert report.mismatches() == ["cycle x pagerank: expected FAIL, got PASS"]

    # a negative tolerance fails every float instance, so the shrinker runs
    # until nothing more can be removed
    def test_shrinking_keeps_the_deleted_edge(self):
        axiom, pr = AxiomId(AxiomTag.EDGE_DELETION), MATRIX_MEASURES[MeasureKind.PAGERANK]
        witness = shrink_instance(axiom, pr, AxiomInstance(_demo5_float(), edge=("v1", "v2")), -1.0)
        assert witness.edge == ("v1", "v2") and witness.graph.has_edge("v1", "v2")
        assert not check_axiom(axiom, pr, witness, -1.0).passed

    def test_shrinking_keeps_the_combined_pair(self):
        axiom, pr = AxiomId(AxiomTag.NODE_COMBINATION), MATRIX_MEASURES[MeasureKind.PAGERANK]
        # any other removal breaks the pair's shared out-degree; x goes
        g = Graph.build(
            [*_demo5_float().node_weights().items(), ("x", 1.0)],
            [*_demo5_float().edges(), ("x", "x", 2.0)],
            Mode.FLOAT,
        )
        witness = shrink_instance(axiom, pr, AxiomInstance(g, nodes=("v1", "v4")), -1.0)
        assert witness.graph == _demo5_float()
        assert witness.nodes == ("v1", "v4")

    def test_shrinking_reduces_the_second_locality_graph(self):
        axiom, pr = AxiomId(AxiomTag.LOCALITY), MATRIX_MEASURES[MeasureKind.PAGERANK]
        # nodes go first, in order; the self-loop on the last one goes after them
        h = _demo5_float("w")
        h = Graph.build(h.node_weights().items(), [*h.edges(), ("wv5", "wv5", 1.0)], Mode.FLOAT)
        witness = shrink_instance(axiom, pr, AxiomInstance(_demo5_float(), other=h), -1.0)
        assert witness.other == Graph.build([("wv5", 0.2)], (), Mode.FLOAT)
