#!/usr/bin/env python3
"""Benchmark of the feedback_centrality package.

    python3 perfbench/run.py --workload axiom_matrix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the run repeats passes of the workload for about
``--seconds`` seconds and reports the end-to-end metrics; with ``--trace 1``
it runs one untraced and one traced pass on the same inputs and reports the
per-layer metrics.  Every op's output is checked in both modes.  End-to-end
times are calibrated to a reference speed (``speed.py``), because the speed
of a shared machine drifts.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Run as a script: import this directory as the ``perfbench`` package
    # from the checkout root, so none of its modules shadows a standard one.
    sys.path[0] = str(ROOT)

from perfbench.tracer import CHECK_SPAN, OP_SPAN, Tracer, traced_names  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("axiom_matrix", "walk_oracle", "float_large", "exact_rational")

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 5

#: Reference samples each set-up probe times after its set-up.
SETUP_REFERENCE_SAMPLES = 7

#: Fewest passes an end-to-end run makes.
MIN_PASSES = 3

#: Largest share of the traced wall time that may fall outside every span.
UNATTRIBUTED_TOL = 0.02

E2E_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _use_checkout() -> None:
    """Import the package from this checkout's source, or exit non-zero."""
    if not (SRC / "feedback_centrality" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'feedback_centrality'}")
    sys.path.insert(0, str(SRC))


class Outcome:
    """Tally of attempted and failed ops, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


# -- set-up probe ---------------------------------------------------------------


def _setup_probe(workload: str, seed: int, work: Path) -> None:
    """Child-process body: import the package and complete one warm-up op.

    Prints the set-up time, which leaves out the benchmark's own imports
    and its input generation, and the reference time measured after it.
    """
    t0 = time.perf_counter()
    import feedback_centrality  # noqa: F401
    import feedback_centrality.cli  # noqa: F401

    t1 = time.perf_counter()
    from perfbench.workloads import WORKLOADS as CLASSES

    op = CLASSES[workload](seed, ROOT, work).warmup_op()
    t2 = time.perf_counter()
    result = op.call()
    t3 = time.perf_counter()
    error = op.check(result)
    from perfbench import speed

    reference = speed.reference_median(SETUP_REFERENCE_SAMPLES)
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "reference_s": reference,
                      "error": error}))


def _measure_setup(
    workload: str, seed: int, work: Path, outcome: Outcome
) -> tuple[list[float], list[float]]:
    """Calibrated and raw set-up times of SETUP_PROBES fresh interpreters;
    their warm-up ops count as attempted ops."""
    from perfbench import speed

    times, raw = [], []
    for i in range(SETUP_PROBES):
        probe_work = work / f"setup-{i}"
        probe_work.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--work", str(probe_work)],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        outcome.record(doc["error"])
        raw.append(doc["setup_s"])
        times.append(doc["setup_s"] * speed.NOMINAL_S / doc["reference_s"])
    return times, raw


# -- passes ---------------------------------------------------------------------


def _span(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def _run_op(op, outcome: Outcome, tracer: Tracer | None = None) -> tuple[float, float]:
    """Call one op and check its output; returns the call's latency and the
    time of call and check together."""
    start = time.perf_counter()
    try:
        with _span(tracer, OP_SPAN):
            result = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crash
        outcome.record(f"{op.kind}: {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        return latency, latency
    latency = time.perf_counter() - start
    try:
        with _span(tracer, CHECK_SPAN):
            reason = op.check(result)
    except Exception as exc:
        reason = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    outcome.record(reason)
    return latency, time.perf_counter() - start


def _run_pass(
    ops, outcome: Outcome, latencies: list[float], tracer: Tracer | None = None
) -> float:
    start = time.perf_counter()
    for op in ops:
        latencies.append(_run_op(op, outcome, tracer)[0])
    return time.perf_counter() - start


def _percentiles_ms(latencies: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(latencies, n=10)
    return statistics.median(latencies) * 1e3, deciles[8] * 1e3


def run_untraced(
    workload: str, seed: int, seconds: float, work: Path
) -> tuple[dict, Outcome, dict]:
    """Repeat passes while the next one still fits in ``seconds`` (at least
    MIN_PASSES), each on new inputs except for ``float_large``.  Every time
    is calibrated to the reference speed of ``speed.py``."""
    from perfbench import speed
    from perfbench.workloads import WORKLOADS as CLASSES

    outcome = Outcome()
    setup_times, setup_raw = _measure_setup(workload, seed, work, outcome)
    wl = CLASSES[workload](seed, ROOT, work)
    _run_op(wl.warmup_op(), Outcome())
    probe = speed.SpeedProbe()

    # Per pass, per op: (start, latency of the call, time of call and check).
    passes: list[list[tuple[float, float, float]]] = []
    raw_walls: list[float] = []
    start = time.perf_counter()
    while True:
        ops = wl.ops(len(passes))
        timed = []
        pass_start = time.perf_counter()
        for op in ops:
            probe.sample()
            op_start = time.perf_counter()
            timed.append((op_start, *_run_op(op, outcome)))
        probe.sample(force=True)
        raw_walls.append(time.perf_counter() - pass_start)
        passes.append(timed)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(raw_walls) > seconds:
            break

    pass_walls: list[float] = []
    latencies: list[float] = []
    for timed in passes:
        wall = 0.0
        for op_start, latency, total in timed:
            scale = speed.NOMINAL_S / probe.local(op_start, op_start + total)
            latencies.append(latency * scale)
            wall += total * scale
        pass_walls.append(wall)
    p50, p90 = _percentiles_ms(latencies)
    metrics = {
        "wall_s": statistics.median(pass_walls),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": f"{len(passes)} passes of {len(passes[0])} ops",
        "pass_wall_s": pass_walls,
        "pass_raw_wall_s": raw_walls,
        "reference_start": probe.starts,
        "reference_s": probe.times,
        "setup_probe_s": setup_times,
        "setup_probe_raw_s": setup_raw,
    }
    return metrics, outcome, detail


# -- traced run -----------------------------------------------------------------


def run_traced(workload: str, seed: int, work: Path) -> tuple[dict, Outcome, dict]:
    from perfbench import environment
    from perfbench.workloads import WORKLOADS as CLASSES

    wl = CLASSES[workload](seed, ROOT, work)
    _run_op(wl.warmup_op(), Outcome())
    ops = wl.ops(0)
    outcome = Outcome()
    untraced_wall = _run_pass(ops, outcome, [])
    with Tracer() as tracer:
        traced_wall = _run_pass(ops, outcome, [], tracer)

    layer = tracer.summary()
    admissible, attempts = wl.tally["axioms.admissible"], wl.tally["axioms.attempts"]
    graphs = tracer.input_graphs
    self_total = sum(v for k, v in layer.items() if k.endswith(".self_s"))
    unattributed = (traced_wall - self_total) / traced_wall
    layer.update({
        "axioms.admissible_ratio": admissible / attempts if attempts else 0.0,
        # Calls the ops make per graph they generate or parse; zero where the
        # traced pass made no input graph.
        "graph.scc_per_input_graph":
            tracer.calls_within_ops("graph.strongly_connected_components") / graphs
            if graphs else 0.0,
        "linalg.perron_per_input_graph":
            tracer.calls_within_ops("linalg.perron_triple") / graphs if graphs else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.unattributed_ratio": unattributed,
    })
    layer.update(environment.package_counts(ROOT))
    if abs(unattributed) > UNATTRIBUTED_TOL:
        outcome.failed += 1
        outcome.reasons.append(
            f"self times leave {unattributed:.2%} of the traced wall time unattributed"
        )
    detail = {
        "passes": f"one untraced and one traced pass of {len(ops)} ops",
        "untraced_wall_s": untraced_wall,
        "input_graphs": graphs,
        "spans": {
            "names": tracer.names,
            "name": tracer.span_name,
            "start": tracer.span_start,
            "end": tracer.span_end,
            "parent": tracer.span_parent,
        },
    }
    return layer, outcome, detail


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in traced_names() + [OP_SPAN, CHECK_SPAN]:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "graph.graphs_built": "count",
        "graph.edges_built": "count",
        "walks.sum_series.steps": "count",
        "axioms.admissible_ratio": "ratio",
        "graph.scc_per_input_graph": "ratio",
        "linalg.perron_per_input_graph": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.unattributed_ratio": "ratio",
        "package.src_lines": "count",
        "package.public_names": "count",
        "package.runtime_deps": "count",
    })
    return units


# -- entry point ----------------------------------------------------------------


def _parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _use_checkout()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed, Path(args.work))
        return 0

    import feedback_centrality

    if Path(feedback_centrality.__file__).resolve().parent != SRC / "feedback_centrality":
        sys.exit(f"perfbench: imported feedback_centrality from {feedback_centrality.__file__}")
    from perfbench import environment

    env = environment.stamp()
    print("env " + json.dumps(env, sort_keys=True))

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            values, outcome, detail = run_traced(args.workload, args.seed, work)
            units = per_layer_units()
        else:
            values, outcome, detail = run_untraced(args.workload, args.seed, args.seconds, work)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(f"workload {args.workload} seed {args.seed}: {detail['passes']}, "
          f"{outcome.failed} of {outcome.attempted} ops failed")
    for name, m in metrics.items():
        print(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<45} {outcome.failed / outcome.attempted:.6g} ratio")
    for reason in outcome.reasons:
        print(f"perfbench: failed: {reason}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "metrics": metrics, "detail": detail}
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record))

    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
