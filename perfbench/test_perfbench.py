"""Self-tests of the benchmark harness: its checks catch wrong outputs, its
trace counts repeat exactly, and its self-time accounting closes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import feedback_centrality as fc  # noqa: E402
from perfbench import run, speed  # noqa: E402
from perfbench.tracer import CHECK_SPAN, OP_SPAN, Tracer, traced_names  # noqa: E402
from perfbench.workloads import WORKLOADS, Op  # noqa: E402


def _first(ops: list[Op], kind: str) -> Op:
    return next(op for op in ops if op.kind == kind)


def _corrupt_cell(report):
    (key, cell), = report.cells.items()
    flipped = fc.CellStatus.PASS if cell.status is not fc.CellStatus.PASS else fc.CellStatus.FAIL
    return replace(report, cells={key: replace(cell, status=flipped)})


def _corrupt_walk(result):
    acc, *rest = result
    acc = copy.deepcopy(acc)
    v = next(iter(acc.partial_sum))
    acc.partial_sum[v] += 1e-3
    return (acc, *rest)


def _corrupt_float_json(text: str) -> str:
    doc = json.loads(text)
    v = next(iter(doc["values_full"]))
    doc["values_full"][v] = repr(float(doc["values_full"][v]) * (1 + 1e-6))
    return json.dumps(doc)


def _corrupt_rational_json(text: str) -> str:
    doc = json.loads(text)
    v = next(iter(doc["values_full"]))
    doc["values_full"][v] = str(Fraction(doc["values_full"][v]) + Fraction(1, 10**12))
    return json.dumps(doc)


def _corrupt_profit(rebuilt: dict) -> dict:
    out = dict(rebuilt)
    v = next(iter(out))
    out[v] += Fraction(1, 10**12)
    return out


# (workload, op kind, corruption of that op's output)
CORRUPTIONS = [
    ("axiom_matrix", "cell", _corrupt_cell),
    ("walk_oracle", "damped-distributed", _corrupt_walk),
    ("float_large", "n50-sparse", _corrupt_float_json),
    ("exact_rational", "n25", _corrupt_rational_json),
    ("exact_rational", "profit", _corrupt_profit),
    ("exact_rational", "euler", lambda text: text.replace("node", "node ", 1)),
]


@pytest.mark.parametrize("workload, kind, corrupt", CORRUPTIONS,
                         ids=[f"{w}-{k}" for w, k, _ in CORRUPTIONS])
def test_check_catches_a_wrong_output(tmp_path, workload, kind, corrupt):
    wl = WORKLOADS[workload](3, ROOT, tmp_path)
    op = _first(wl.ops(0), kind)
    bad = Op(op.kind, lambda: corrupt(op.call()), op.check)

    outcome = run.Outcome()
    run._run_pass([op, bad], outcome, [])
    assert (outcome.attempted, outcome.failed) == (2, 1), outcome.reasons


def test_raising_op_counts_as_failed(tmp_path):
    def boom():
        raise fc.DomainError("deliberate")

    outcome = run.Outcome()
    run._run_pass([Op("x", boom, lambda _r: None)], outcome, [])
    assert (outcome.attempted, outcome.failed) == (1, 1)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    runs = []
    for i in range(2):
        work = tmp_path / str(i)
        work.mkdir()
        layer, outcome, _detail = run.run_traced(workload, 5, work)
        assert outcome.failed == 0, outcome.reasons
        runs.append(layer)
    counts = [{k: v for k, v in layer.items() if k.endswith(".calls") or
               k in ("graph.graphs_built", "graph.edges_built", "walks.sum_series.steps",
                     "axioms.admissible_ratio", "graph.scc_per_input_graph",
                     "linalg.perron_per_input_graph")} for layer in runs]
    assert counts[0] == counts[1]
    assert abs(runs[0]["trace.unattributed_ratio"]) <= run.UNATTRIBUTED_TOL
    assert set(runs[0]) == set(run.per_layer_units())


def _package_bindings() -> dict[tuple[str, str], object]:
    """Every package-module attribute that names a traced function."""
    names = {name.split(".", 1)[1] for name in traced_names()}
    return {
        (mod_name, attr): getattr(mod, attr)
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "feedback_centrality" or mod_name.startswith("feedback_centrality.")
        for attr in names
        if hasattr(mod, attr)
    }


def test_rebinding_reaches_every_import_by_name_and_is_undone():
    g = fc.parse_graph(Path(ROOT / "graphs" / "demo5.dg").read_text(), fc.Mode.FLOAT)
    before = _package_bindings()
    assert ("feedback_centrality.measures", "classify") in before
    graph_init = fc.Graph.__init__
    with Tracer() as tracer:
        during = _package_bindings()
        with tracer.span(OP_SPAN):
            fc.classify(g, fc.GraphClass(fc.ClassTag.EV))
        with tracer.span(CHECK_SPAN):
            fc.Graph(fc.Mode.FLOAT)
    assert all(during[key] is not value for key, value in before.items())
    assert _package_bindings() == before and fc.Graph.__init__ is graph_init

    names = [tracer.names[i] for i in tracer.span_name]
    assert names[:2] == [OP_SPAN, "graph.classify"] and names[-1] == CHECK_SPAN
    assert tracer.span_parent[:2] == [-1, 0] and tracer.span_parent[-1] == -1
    summary = tracer.summary()
    assert summary["graph.graphs_built"] == 1
    roots = sum(e - s for s, e, p in zip(tracer.span_start, tracer.span_end,
                                         tracer.span_parent) if p < 0)
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(roots, rel=1e-9)


def test_calibration_uses_the_reference_samples_around_an_op():
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 1.1, 1.2, 3.0]
    probe.times = [0.004, 0.002, 0.006, 0.002, 0.008]
    # Inside the window: the three samples near the op, nothing further.
    assert probe.local(1.15, 1.18) == 0.002
    # No sample within the window: the nearest before and after count.
    assert probe.local(1.6, 2.5) == pytest.approx(0.005)
