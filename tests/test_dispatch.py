"""Every enum member and every ``fbcent transform`` choice reaches its own
branch.

The dispatchers over ``AxiomTag`` (instance building and evaluation),
``Family`` (``generate``), ``ClassTag`` (``classify``) and the transform
sub-commands give their last member the final branch, with no raise after
it.  Each test sends every member through and checks a result only that
member's branch gives, and its table must name every member, so a member
added without a branch fails here instead of running another one's.
"""

import argparse
import random
from fractions import Fraction as F

import pytest

from feedback_centrality import (
    EXPECTED_MATRIX,
    AxiomId,
    AxiomTag,
    ClassTag,
    Family,
    GeneratorSpec,
    Graph,
    GraphClass,
    Measure,
    MeasureKind,
    Mode,
    classify,
    combine_groups,
    ec_regularize,
    edge_compensation,
    edge_multiplication,
    generate,
    is_constant_weight_cycle,
    is_strongly_connected,
    opposite_graph,
    out_degree_normalize,
    out_regularity,
    parse_graph,
    proportional_combine,
    semi_out_regularity,
    serialize_graph,
)
from feedback_centrality import cli
from feedback_centrality.axioms import run_cell

from .conftest import GRAPH_DIR

DEMO5 = GRAPH_DIR / "demo5.dg"

#: Measures whose matrix rows together tell every axiom's cell apart from
#: the cycle axiom's, the last branch.
CELL_MEASURES = (Measure(MeasureKind.PAGERANK, 0.85), Measure(MeasureKind.KATZ_PRESTIGE))


@pytest.mark.parametrize("tag", list(AxiomTag), ids=lambda t: t.value)
def test_every_axiom_builds_and_checks_its_own_instances(tag):
    for measure in CELL_MEASURES:
        cell = run_cell(AxiomId(tag), measure, (3, 6), 3, 1e-8, random.Random(5))
        assert cell.status is EXPECTED_MATRIX[(tag, measure.kind)]


FAMILY_PREDICATES = {
    Family.STRONGLY_CONNECTED: is_strongly_connected,
    Family.OUT_REGULAR: lambda g: out_regularity(g) is not None,
    Family.SEMI_OUT_REGULAR: lambda g: semi_out_regularity(g)[0],
    Family.GENERAL: lambda g: g.num_edges > 0,
    Family.CYCLE: is_constant_weight_cycle,
    Family.SUM_OF_SCCS: lambda g: classify(g, GraphClass(ClassTag.KP)).ok,
}


def test_family_table_names_every_family():
    assert set(FAMILY_PREDICATES) == set(Family)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_every_family_generates_its_own_graphs(family):
    grid = (F(1, 2), F(1), F(2))
    for seed in range(5):
        g = generate(GeneratorSpec(family, (3, 9), weight_grid=grid, seed=seed))
        assert FAMILY_PREDICATES[family](g)


def two_cycles() -> Graph:
    """Two strongly connected components with Perron values 1 and 2."""
    nodes = [(v, F(1)) for v in "abcd"]
    edges = [("a", "b", F(1)), ("b", "a", F(1)), ("c", "d", F(2)), ("d", "c", F(2))]
    return Graph.build(nodes, edges)


#: Each class's verdict on ``two_cycles``: (ok, a phrase of the reason).
CLASS_VERDICTS = {
    GraphClass(ClassTag.ALL): (True, None),
    GraphClass(ClassTag.KP): (True, None),
    GraphClass(ClassTag.EV): (False, "eigenvalues differ"),
    GraphClass(ClassTag.KATZ, F(3, 5)): (False, "alpha * lambda"),
}


def test_class_table_names_every_class():
    assert {cls.tag for cls in CLASS_VERDICTS} == set(ClassTag)


@pytest.mark.parametrize("cls", list(CLASS_VERDICTS), ids=lambda c: c.tag.value)
def test_every_class_gives_its_own_verdict(cls):
    ok, phrase = CLASS_VERDICTS[cls]
    verdict = classify(two_cycles(), cls)
    assert verdict.ok is ok
    assert verdict.reason is None if phrase is None else phrase in verdict.reason


def _transform_choices() -> set[str]:
    def subcommands(parser: argparse.ArgumentParser) -> dict:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return set(subcommands(subcommands(cli.build_parser())["transform"]))


#: Per transform: its options after ``--input`` and the graph it must print
#: for demo5, read in the mode it runs in.
TRANSFORMS = {
    "em": (["--node", "v1", "--factor", "3"], lambda g: edge_multiplication(g, "v1", F(3))),
    "ec": (["--node", "v1", "--factor", "3"], lambda g: edge_compensation(g, "v1", F(3))),
    "opposite": ([], opposite_graph),
    "normalize": ([], out_degree_normalize),
    "regularize": ([], ec_regularize),
    "combine": (
        ["--nodes", "v1,v2", "--values", "1,2"],
        lambda g: proportional_combine(g, "v1", "v2", F(1), F(2)),
    ),
    "combine-groups": (
        ["--groups", "GROUPS"],
        lambda g: combine_groups(g, {"v1": ["v1", "v2"]}, {"v1": F(1), "v2": F(1)})[0],
    ),
}


def test_transform_table_names_every_choice():
    assert set(TRANSFORMS) == _transform_choices()


@pytest.mark.parametrize("op", list(TRANSFORMS))
def test_every_transform_prints_its_own_graph(op, capsys, tmp_path):
    groups = tmp_path / "demo5.groups"
    groups.write_text("group v1 v1\ngroup v2 v1\n")
    options, expected = TRANSFORMS[op]
    argv = ["transform", op, "--input", str(DEMO5)]
    argv += [str(groups) if a == "GROUPS" else a for a in options]
    assert cli.main(argv) == 0
    mode = Mode.FLOAT if op == "regularize" else Mode.RATIONAL
    g = parse_graph(DEMO5.read_text(), mode)
    assert capsys.readouterr().out == serialize_graph(expected(g), canonical=True)
