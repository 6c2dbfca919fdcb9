"""The ``fbcent`` command line.

Verbs:

* ``centrality``      -- evaluate a measure on a graph file
* ``simulate``        -- run the walk process and report series/diagnostics
* ``classify``        -- structural facts and class admissibility verdicts
* ``check-axioms``    -- the axiom satisfaction matrix on generated corpora
* ``euler-construct`` -- synthesize the equivalent constant-weight cycle graph
* ``transform``       -- graph rewrites (scaling, combining, normalization...)

Results are emitted as a JSON document with a fixed field order — identical
invocations produce byte-identical output.  Graph-valued results are written
in the ``.dg`` format, canonically sorted, and re-parse losslessly.

Exit codes: 0 on success, 1 when the input is outside a feature's domain,
2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .axioms import (
    ALL_AXIOMS,
    AXIOM_TOL,
    AxiomId,
    MATRIX_MEASURES,
    satisfaction_matrix,
)
from .errors import (
    ConvergenceError,
    DomainError,
    FeedbackCentralityError,
    GraphFormatError,
    SingularMatrixError,
)
from .graph import (
    ClassTag,
    Graph,
    GraphClass,
    Mode,
    Weight,
    classify,
    coerce,
    format_weight,
    is_strongly_connected,
    largest,
    opposite_graph,
    out_regularity,
    parse_graph,
    parse_weight,
    principal_eigenvalue,
    semi_out_regularity,
    serialize_graph,
    strongly_connected_components,
    zero,
)
from .measures import Measure, MeasureKind, PARAMETRIC_KINDS, recursion_residual
from .transforms import (
    combine_groups,
    ec_regularize,
    edge_compensation,
    edge_multiplication,
    out_degree_normalize,
    proportional_combine,
    synthesize_cycle_graph,
)
from .walks import ProcessKind, geometric_tail_bound, sum_series, verify_recursion

SCHEMA_VERSION = "feedback-centrality/1"

_MEASURE_ALIASES = {
    "pr": MeasureKind.PAGERANK,
    "pagerank": MeasureKind.PAGERANK,
    "katz": MeasureKind.KATZ,
    "kp": MeasureKind.KATZ_PRESTIGE,
    "katz-prestige": MeasureKind.KATZ_PRESTIGE,
    "ev": MeasureKind.EIGENVECTOR,
    "eigenvector": MeasureKind.EIGENVECTOR,
}

_DEFAULT_PAGERANK_ALPHA = "0.85"


def _fmt6(x: Weight) -> str:
    if isinstance(x, Fraction):
        return format_weight(x)
    return format(float(x), ".6g")


def _fmt_values(values: dict[str, Weight], full: bool) -> dict[str, str]:
    if full:
        return {v: format_weight(x) for v, x in values.items()}
    return {v: _fmt6(x) for v, x in values.items()}


def _document(command: str, arguments: dict, values, diagnostics) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "arguments": arguments,
        "values": _fmt_values(values, full=False) if values is not None else None,
        "values_full": _fmt_values(values, full=True) if values is not None else None,
        "diagnostics": diagnostics,
    }


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict, output: str | None) -> None:
    _write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", output)


def _read_graph(path: str, mode: Mode) -> Graph:
    return parse_graph(Path(path).read_text(), mode)


def _option_weight(option: str, text: str, mode: Mode) -> Weight:
    """``parse_weight`` of a numeric option's value; its errors name the option."""
    try:
        return parse_weight(text, mode)
    except GraphFormatError as exc:
        raise DomainError(str(exc).replace("weight literal", option)) from None


def _resolve_measure(
    args, parser: argparse.ArgumentParser, mode: Mode
) -> tuple[Measure, str | None]:
    kind = _MEASURE_ALIASES[args.measure]
    if kind in PARAMETRIC_KINDS:
        if args.alpha is None and kind is not MeasureKind.PAGERANK:
            parser.error(f"--alpha is required for {args.measure}")
        alpha_text = _DEFAULT_PAGERANK_ALPHA if args.alpha is None else args.alpha
        return Measure(kind, _option_weight("--alpha", alpha_text, mode)), alpha_text
    if args.alpha is not None:
        parser.error(f"{args.measure} takes no --alpha")
    return Measure(kind), None


def _class_entry(verdict) -> dict:
    return {"ok": bool(verdict), "reason": verdict.reason}


# -- verb handlers -------------------------------------------------------------


def _cmd_centrality(args, parser) -> int:
    mode = Mode(args.mode)
    g = _read_graph(args.input, mode)
    measure, alpha_text = _resolve_measure(args, parser, mode)
    values = measure.compute(g)
    residual = recursion_residual(g, measure, values.values)
    try:
        lams, lam = principal_eigenvalue(g)
    except (GraphFormatError, ConvergenceError) as exc:  # beyond the float range
        spectral = {
            "component_eigenvalues": None,
            "spectral_radius": None,
            "spectral_omitted": str(exc),
        }
    else:
        spectral = {
            "component_eigenvalues": [_fmt6(x) for x in lams],
            "spectral_radius": _fmt6(lam),
        }
    diagnostics = {
        "measure": measure.name(),
        "class": _class_entry(measure.admits(g)),
        **spectral,
        "max_recursion_residual": _fmt6(largest(residual.items(), "recursion residual")[1]),
        "value_total": format_weight(values.total()),
    }
    arguments = {
        "input": args.input,
        "measure": args.measure,
        "alpha": alpha_text,
        "mode": mode.value,
    }
    _emit(_document("centrality", arguments, values.values, diagnostics), args.output)
    return 0


def _cmd_simulate(args, parser) -> int:
    mode = Mode(args.mode)
    g = _read_graph(args.input, mode)
    kind = ProcessKind(args.process)
    alpha = _option_weight("--alpha", args.alpha, mode)
    if args.steps < 0:
        parser.error("--steps must be non-negative")
    series = sum_series(g, kind, alpha, args.steps)

    tail_max = tail_omitted = None
    try:
        tail = geometric_tail_bound(g, kind, alpha, args.steps)
        tail_max = _fmt6(largest(tail.items(), "tail bound")[1])
    except (DomainError, SingularMatrixError) as exc:  # no bound, or its solve failed
        tail_omitted = str(exc)
    recursion = recursion_omitted = None
    try:
        check = verify_recursion(g, series)
        recursion = {
            "limit_measure": check.measure.name(),
            "series_field": check.series_field,
            "max_residual": _fmt6(check.max_residual),
            "max_prediction_mismatch": _fmt6(check.max_mismatch),
        }
    except DomainError as exc:
        recursion_omitted = str(exc)
    in_flight = sum(series.last.amounts.values(), zero(mode))
    try:
        flight = {"mass_in_flight": _fmt6(coerce(Mode.FLOAT, in_flight, "mass in flight"))}
    except DomainError as exc:  # an exact mass beyond the float range
        flight = {"mass_in_flight": None, "mass_in_flight_omitted": str(exc)}

    diagnostics = {
        "process": kind.value,
        "steps": args.steps,
        "initial_total": format_weight(g.total_node_weight()),
        **flight,
        "cesaro": (
            {v: format_weight(x) for v, x in series.cesaro.items()}
            if series.cesaro is not None
            else None
        ),
        "tail_bound_max": tail_max,
        "tail_bound_omitted": tail_omitted,
        "recursion": recursion,
        "recursion_omitted": recursion_omitted,
    }
    arguments = {
        "input": args.input,
        "process": args.process,
        "alpha": args.alpha,
        "steps": args.steps,
        "mode": mode.value,
    }
    _emit(
        _document("simulate", arguments, series.partial_sum, diagnostics), args.output
    )
    return 0


def _cmd_classify(args, parser) -> int:
    mode = Mode(args.mode)
    g = _read_graph(args.input, mode)
    part = strongly_connected_components(g)
    reg = out_regularity(g)
    semi, semi_reg = semi_out_regularity(g)
    lams, lam = principal_eigenvalue(g)
    classes = {
        "pagerank": _class_entry(classify(g, GraphClass(ClassTag.ALL))),
        "katz-prestige": _class_entry(classify(g, GraphClass(ClassTag.KP))),
        "eigenvector": _class_entry(classify(g, GraphClass(ClassTag.EV))),
    }
    if args.alpha is not None:
        alpha = _option_weight("--alpha", args.alpha, mode)
        classes["katz"] = _class_entry(classify(g, GraphClass(ClassTag.KATZ, alpha)))
    diagnostics = {
        "nodes": len(g),
        "edges": g.num_edges,
        "strongly_connected": is_strongly_connected(g),
        "out_regular": format_weight(reg) if reg is not None else None,
        "semi_out_regular": semi,
        "common_out_degree": format_weight(semi_reg) if semi_reg is not None else None,
        "component_count": len(part.components),
        "component_sizes": [len(c) for c in part.components],
        "component_eigenvalues": [_fmt6(x) for x in lams],
        "spectral_radius": _fmt6(lam),
        "classes": classes,
    }
    arguments = {"input": args.input, "mode": mode.value, "alpha": args.alpha}
    _emit(_document("classify", arguments, None, diagnostics), args.output)
    return 0


def _cmd_check_axioms(args, parser) -> int:
    axioms = ALL_AXIOMS
    if args.axiom is not None:
        axioms = [AxiomId.parse(args.axiom)]
    measures = None
    if args.measure is not None:
        kind = _MEASURE_ALIASES[args.measure]
        measure = MATRIX_MEASURES[kind]
        if args.alpha is not None:  # refused for a measure without a decay
            measure, _alpha = _resolve_measure(args, parser, Mode.FLOAT)
        measures = {kind: measure}
    elif args.alpha is not None:
        parser.error("--alpha needs --measure")

    report = satisfaction_matrix(
        size_range=(args.min_size, args.max_size),
        trials=args.trials,
        tol=args.tolerance,
        seed=args.seed,
        axioms=axioms,
        measures=measures,
    )
    cells = {}
    for (tag, kind), cell in report.cells.items():
        entry = {
            "status": cell.status.value,
            "attempts": cell.attempts,
            "admissible": cell.admissible,
            "passed": cell.passed,
            "failed": cell.failed,
            "skipped": cell.skipped,
            "skip_reason": cell.skip_reason,
            "max_deviation": _fmt6(cell.max_deviation),
            "witness": cell.witness.describe() if cell.witness is not None else None,
            "witness_deviation": (
                _fmt6(cell.witness_verdict.max_deviation)
                if cell.witness_verdict is not None
                else None
            ),
        }
        cells[f"{tag.value} x {kind.value}"] = entry
    diagnostics = {
        "trials": report.trials,
        "tolerance": _fmt6(report.tolerance),
        "seed": report.seed,
        "cells": cells,
        "expected_mismatches": report.mismatches(),
    }
    arguments = {
        "axiom": args.axiom,
        "measure": args.measure,
        "trials": args.trials,
        "tolerance": args.tolerance,
        "seed": args.seed,
    }
    _emit(_document("check-axioms", arguments, None, diagnostics), args.output)
    return 0


def _cmd_euler_construct(args, parser) -> int:
    g = _read_graph(args.input, Mode(args.mode))
    synth = synthesize_cycle_graph(g)
    Path(args.output).write_text(serialize_graph(synth.cycle_graph, canonical=True))
    groups_path = args.groups or args.output + ".groups"
    lines = []
    for orig, copies in synth.groups.items():
        for copy in copies:
            lines.append(f"group {copy} {orig}")
    Path(groups_path).write_text("\n".join(lines) + "\n")
    diagnostics = {
        "scale": synth.scale,
        "edge_weight": format_weight(synth.edge_weight),
        "cycle_nodes": len(synth.cycle_graph),
        "source_nodes": len(g),
        "copies": {orig: len(copies) for orig, copies in synth.groups.items()},
        "graph_file": args.output,
        "groups_file": groups_path,
    }
    arguments = {"input": args.input, "mode": args.mode, "output": args.output}
    _emit(_document("euler-construct", arguments, None, diagnostics), None)
    return 0


def _read_groups(path: str) -> dict[str, list[str]]:
    groups: dict[str, list[str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "group":
            raise GraphFormatError(
                f"expected 'group <member> <original>', got {raw!r}", lineno
            )
        _kw, member, orig = parts
        groups.setdefault(orig, []).append(member)
    if not groups:
        raise GraphFormatError("groups file defines no groups")
    return groups


def _cmd_transform(args, parser) -> int:
    mode = Mode(args.mode)
    g = _read_graph(args.input, mode)
    op = args.op

    if op == "em":
        out = edge_multiplication(g, args.node, _option_weight("--factor", args.factor, mode))
    elif op == "ec":
        out = edge_compensation(g, args.node, _option_weight("--factor", args.factor, mode))
    elif op == "opposite":
        out = opposite_graph(g)
    elif op == "normalize":
        out = out_degree_normalize(g)
    elif op == "regularize":
        out = ec_regularize(g)
    elif op == "combine":
        pair = args.nodes.split(",")
        if len(pair) != 2:
            parser.error("--nodes expects 'source,target'")
        u, w = pair
        if args.values is not None:
            value_pair = args.values.split(",")
            if len(value_pair) != 2:
                parser.error("--values expects 'a,b'")
            vu, vw = (_option_weight("--values", t, mode) for t in value_pair)
        else:
            if args.measure is None:
                parser.error("combine needs --values or --measure")
            measure, _alpha = _resolve_measure(args, parser, mode)
            computed = measure.compute(g)
            vu, vw = computed[u], computed[w]
        out = proportional_combine(g, u, w, vu, vw)
    else:  # combine-groups
        # equal values: each member's share of its group is 1/|group|
        values = dict.fromkeys(g.node_ids, coerce(mode, 1, "value"))
        out, _values = combine_groups(g, _read_groups(args.groups), values)

    _write(serialize_graph(out, canonical=True), args.output)
    return 0


# -- parser --------------------------------------------------------------------


def _add_io(p: argparse.ArgumentParser, mode_default: str = "rational") -> None:
    p.add_argument("--input", required=True, help="graph description file")
    p.add_argument(
        "--mode",
        choices=["rational", "float"],
        default=mode_default,
        help=f"numeric mode (default: {mode_default})",
    )
    p.add_argument("--output", help="write the result to this file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fbcent`` argument parser, built on first use and then shared by
    every call in the process: treat it as read-only."""
    parser = argparse.ArgumentParser(
        prog="fbcent",
        description="Feedback centralities on weighted digraphs: evaluation, "
        "walk simulation, axiom checking, and graph transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", help="evaluate a centrality measure")
    _add_io(p)
    p.add_argument("--measure", required=True, choices=sorted(_MEASURE_ALIASES))
    p.add_argument("--alpha", help="decay parameter (pagerank defaults to 0.85)")
    p.set_defaults(handler=_cmd_centrality)

    p = sub.add_parser("simulate", help="run the walk process")
    _add_io(p, mode_default="float")
    p.add_argument(
        "--process", required=True, choices=[k.value for k in ProcessKind]
    )
    p.add_argument("--alpha", required=True, help="per-step decay")
    p.add_argument("--steps", type=int, default=100)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("classify", help="structural facts and class verdicts")
    _add_io(p)
    p.add_argument("--alpha", help="also report the decay-bounded class at this alpha")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("check-axioms", help="run the axiom satisfaction matrix")
    p.add_argument("--axiom", help="restrict to one axiom (e.g. locality)")
    p.add_argument("--measure", choices=sorted(_MEASURE_ALIASES))
    p.add_argument("--alpha", help="override the measure's decay")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=AXIOM_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-size", type=int, default=3)
    p.add_argument("--max-size", type=int, default=25)
    p.add_argument("--output")
    p.set_defaults(handler=_cmd_check_axioms)

    p = sub.add_parser(
        "euler-construct",
        help="synthesize the equivalent constant-weight cycle graph",
    )
    p.add_argument(
        "--input", required=True, help="graph description file, read in rational mode"
    )
    p.add_argument("--output", required=True, help="cycle graph file to write")
    p.add_argument(
        "--groups", help="grouping sidecar to write (default: <output>.groups)"
    )
    p.set_defaults(handler=_cmd_euler_construct, mode="rational")

    p = sub.add_parser("transform", help="graph rewrites")
    p.set_defaults(handler=_cmd_transform)
    ops = p.add_subparsers(dest="op", required=True)

    t = ops.add_parser("em", help="multiply a node's outgoing edges")
    _add_io(t)
    t.add_argument("--node", required=True)
    t.add_argument("--factor", required=True)

    t = ops.add_parser(
        "ec", help="scale a node's throughput, compensating its surroundings"
    )
    _add_io(t)
    t.add_argument("--node", required=True)
    t.add_argument("--factor", required=True)

    t = ops.add_parser("opposite", help="reverse every edge")
    _add_io(t)

    t = ops.add_parser("normalize", help="divide edges by their source out-degree")
    _add_io(t)

    t = ops.add_parser(
        "regularize",
        help="rescale by opposite-graph eigenvector values to equalize out-degrees",
    )
    t.add_argument(
        "--input", required=True, help="graph description file, read in float mode"
    )
    t.add_argument("--output", help="write the result to this file instead of stdout")
    t.set_defaults(mode="float")

    t = ops.add_parser("combine", help="merge one node into another proportionally")
    _add_io(t)
    t.add_argument("--nodes", required=True, help="source,target pair")
    t.add_argument("--values", help="explicit combining values 'a,b'")
    t.add_argument("--measure", choices=sorted(_MEASURE_ALIASES))
    t.add_argument("--alpha")

    t = ops.add_parser(
        "combine-groups", help="fold grouped nodes back together (inverse of euler-construct)"
    )
    _add_io(t)
    t.add_argument("--groups", required=True, help="grouping sidecar file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except FeedbackCentralityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
