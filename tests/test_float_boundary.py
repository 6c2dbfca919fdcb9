"""Exact values beyond the float range: typed errors, never OverflowError.

An exact number becomes a float in one helper, ``graph._to_float``; every
library call handed an exact value that does not fit raises a
``FeedbackCentralityError`` subclass from it.
"""

import ast
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from feedback_centrality import (
    AxiomId,
    AxiomInstance,
    AxiomTag,
    DomainError,
    FeedbackCentralityError,
    Graph,
    GraphFormatError,
    Measure,
    MeasureKind,
    Mode,
    ProcessKind,
    ProfitSpec,
    check_axiom,
    combine_groups,
    edge_multiplication,
    pagerank,
    parse_graph,
    profit_value,
    recursion_residual,
    sum_series,
    total_per_step,
    verify_recursion,
)

from .conftest import GRAPH_DIR

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "feedback_centrality"

HUGE = F(10) ** 400
DEMO5_FLOAT = (GRAPH_DIR / "demo5.dg").read_text()


def demo5_float():
    return parse_graph(DEMO5_FLOAT, Mode.FLOAT)


def heavy_pair():
    """A rational 2-cycle whose node a weighs HUGE."""
    return Graph.build([("a", HUGE), ("b", F(1))], [("a", "b", F(1)), ("b", "a", F(1))])


def heavy_series_check():
    g = heavy_pair()
    return verify_recursion(g, sum_series(g, ProcessKind.DISTRIBUTED, F(1, 2), 3))


ROWS = {
    "sum_series": (
        lambda: sum_series(demo5_float(), ProcessKind.DISTRIBUTED, HUGE, 3),
        DomainError,
    ),
    "total_per_step": (
        lambda: total_per_step(demo5_float(), ProcessKind.DISTRIBUTED, HUGE, 3),
        DomainError,
    ),
    "pagerank": (lambda: pagerank(demo5_float(), HUGE), DomainError),
    "katz": (lambda: Measure(MeasureKind.KATZ, HUGE).compute(demo5_float()), DomainError),
    "edge_multiplication": (
        lambda: edge_multiplication(demo5_float(), "v1", HUGE),
        DomainError,
    ),
    "combine_groups": (
        lambda: combine_groups(demo5_float(), {"v1": ["v1", "v2"]}, {"v1": HUGE, "v2": 1.0}),
        DomainError,
    ),
    "build": (lambda: Graph.build([("a", HUGE)], (), Mode.FLOAT), GraphFormatError),
    "profit_value": (
        lambda: profit_value(Measure(MeasureKind.PAGERANK, 0.5), ProfitSpec(HUGE, 1, 1)),
        DomainError,
    ),
    "verify_recursion": (heavy_series_check, DomainError),
    "recursion_residual": (
        lambda: recursion_residual(
            demo5_float(),
            Measure(MeasureKind.EIGENVECTOR),
            {v: HUGE for v in demo5_float().node_ids},
        ),
        DomainError,
    ),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_exact_value_beyond_float_range_is_a_typed_error(row):
    call, error = ROWS[row]
    assert issubclass(error, FeedbackCentralityError)
    with pytest.raises(error, match="does not fit in a float"):
        call()


def test_exact_axiom_check_needs_no_float():
    # the exact comparison converts only a quotient of at most 2, so a node
    # weight beyond the float range leaves a verdict, not an error
    axiom = AxiomId(AxiomTag.EDGE_MULTIPLICATION)
    instance = AxiomInstance(heavy_pair(), node="a", factor=F(2))
    verdict = check_axiom(axiom, Measure(MeasureKind.KATZ, F(1, 4)), instance)
    assert not verdict.skipped and not verdict.passed
    assert 0 < verdict.max_deviation <= 2


def test_only_the_graph_module_names_overflow_error():
    # the exact-to-float decision lives in graph._to_float and nowhere else
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        if any(isinstance(n, ast.Name) and n.id == "OverflowError" for n in ast.walk(tree)):
            offenders.append(path.name)
    assert offenders == []


def _divides_by_out_degree(node: ast.AST) -> bool:
    if not isinstance(node, (ast.BinOp, ast.AugAssign)) or not isinstance(node.op, ast.Div):
        return False
    divisor = node.right if isinstance(node, ast.BinOp) else node.value
    return (
        isinstance(divisor, ast.Call)
        and isinstance(divisor.func, ast.Attribute)
        and divisor.func.attr == "out_degree"
    )


def test_only_the_graph_module_divides_by_an_out_degree():
    # the step coefficient w/outdeg(u) is formed once, in graph.py; the axiom
    # generator's rescale of a drawn graph to a target out-degree is the one
    # other division, and keeps the generated corpora as they are
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "graph.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and func.name == "_rescale_out_degrees"
            for node in ast.walk(func)
        }
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _divides_by_out_degree(node) and id(node) not in exempt
        ]
    assert offenders == []


def test_no_module_runs_an_eigendecomposition():
    # the oracle dominant_eig is then the only eig call, so it checks the
    # Perron path by another algorithm; eigvals, which gives no vectors, is
    # allowed
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "eig")
            or (isinstance(node, ast.alias) and node.name == "eig")
        ]
    assert offenders == []


def test_only_the_edge_order_sum_calls_bincount():
    # graph._sum_by is the one edge-order sum: out-degrees, in_flow and the
    # edge route's Perron mat-vec all add their terms through it
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = {
            id(node)
            for func in ast.walk(tree)
            if path.name == "graph.py"
            and isinstance(func, ast.FunctionDef)
            and func.name == "_sum_by"
            for node in ast.walk(func)
        }
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (
                (isinstance(node, ast.Attribute) and node.attr == "bincount")
                or (isinstance(node, ast.alias) and node.name == "bincount")
            )
            and id(node) not in exempt
        ]
    assert offenders == []


def test_only_the_limit_rule_names_a_walks_measure():
    # walks._limit is the one map from a process and a decay to a measure;
    # every other function in walks.py reaches a measure through it, and a
    # class decision only through Measure.admits
    tree = ast.parse((PACKAGE / "walks.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported.isdisjoint({"classify", "GraphClass", "ClassTag", "principal_eigenvalue"})
    offenders = [
        f"{func.name}:{node.lineno}"
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name != "_limit"
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Measure"
    ]
    assert offenders == []


def _homes_of_raise(pattern: str) -> list[str]:
    """``module.function`` of every ``raise`` in the package whose literal
    text (an f-string's fields left out) matches ``pattern``."""
    homes = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise):
                continue
            text = "".join(
                c.value
                for c in ast.walk(node)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
            if re.search(pattern, text):
                inside = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                home = max(inside, key=lambda f: f.lineno).name if inside else "<module>"
                homes.append(f"{path.stem}.{home}")
    return homes


# each domain rule of a measure, a float system or a Perron matrix, and the
# dense eigensolve's failure, by a pattern that also matches its former
# wordings ("pagerank decay must satisfy alpha < 1", "KATZ class needs a
# decay alpha >= 0"), and the one function that raises it
DOMAIN_RULES = {
    "class refusal": (r"graph is outside the .* class", "measures.check_class"),
    "float-only": (r"float-only", "measures.eigenvector_centrality"),
    "pagerank bound": (r"pagerank .*alpha < 1", "measures.check_pagerank_decay"),
    "negative decay": (r"decay .*(non-negative|>= 0)", "graph.check_decay_sign"),
    "float solve size": (r"dense float solve is limited", "linalg.check_solve_size"),
    "float matrix size": (r"dense float matrix is limited", "linalg.check_matrix_size"),
    "negative matrix": (r"matrix has negative entries", "linalg.perron_triple"),
    "non-finite matrix": (r"matrix has non-finite entries", "linalg._perron"),
    "dense eigensolve": (r"dense eigensolve failed", "linalg._bordered_vectors"),
}


@pytest.mark.parametrize("rule", list(DOMAIN_RULES))
def test_each_domain_rule_has_one_home(rule):
    pattern, home = DOMAIN_RULES[rule]
    assert _homes_of_raise(pattern) == [home]


def _homes_of_members(module: str, enum: str) -> set[str]:
    """Where ``module`` names a member of ``enum`` (``enum.MEMBER``): the
    qualified name of the enclosing function or class, the name a
    module-level assignment binds, or ``<module>``."""
    homes = set()

    def visit(node, home):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            home = f"{home}.{node.name}" if home else node.name
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == enum:
            homes.add(home or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, home)

    for top in ast.parse((PACKAGE / module).read_text()).body:
        target = None
        if isinstance(top, ast.Assign):
            target = top.targets[0]
        elif isinstance(top, ast.AnnAssign):
            target = top.target
        visit(top, getattr(target, "id", ""))
    return homes


def test_each_axiom_has_one_home():
    # an axiom's hypothesis and its claim are one branch of _evaluate; the
    # shrinker reads what an instance names, never which axiom it is for
    homes = _homes_of_members("axioms.py", "AxiomTag")
    others = {home for home in homes if not home.startswith("AxiomId.")}
    assert others <= {"_evaluate", "_build_instance", "_family_for", "EXPECTED_MATRIX"}
    assert "_evaluate" in others


def test_only_measures_and_the_classify_report_build_a_graph_class():
    # a measure's class is Measure.admits's; `fbcent classify` reports
    # every class of a graph, the Katz one at its own --alpha
    builders = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "GraphClass"
    }
    assert builders <= {"measures.py", "cli.py"}
