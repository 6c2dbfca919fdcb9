"""The four benchmark workloads.

A workload turns ``(seed, pass_index)`` into a list of ops.  An op is one
user-level call into the package (``call``) plus the benchmark's own check
of its output (``check``, which returns ``None`` or the reason the output is
wrong).  Inputs are generated here, before any timing starts; the package
only ever sees the generated inputs.

Every call into the package goes through a module attribute looked up at
call time (``fc.pagerank``, ``fc_cli.main``), so the tracer's rebinding of
those names catches the benchmark's own calls too.

Why each workload exists is written next to it and in ``README.md``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import feedback_centrality as fc
import feedback_centrality.cli as fc_cli


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


class Workload:
    """Inputs for one benchmark run: ``seed`` picks them, ``root`` is the
    checkout, ``work`` a scratch directory inside it for generated files.

    ``tally`` collects counts the checks read off the outputs.
    """

    def __init__(self, seed: int, root: Path, work: Path) -> None:
        self.seed = seed
        self.root = root
        self.work = work
        self.tally: Counter = Counter()

    def pass_ops(self, pass_index: int) -> list[Op]:
        """Every op of one pass, generated from (seed, pass_index)."""
        raise NotImplementedError

    def warmup_op(self) -> Op:
        """One cheap op with its own small input, run untimed before a pass."""
        raise NotImplementedError

    def ops(self, pass_index: int) -> list[Op]:
        """``pass_ops`` in a seeded order that interleaves the op classes, so
        slow drift in machine speed hits every class alike."""
        ops = self.pass_ops(pass_index)
        random.Random(f"{self.seed}/{pass_index}/order").shuffle(ops)
        return ops


def _cli(argv: list[str]) -> str:
    """One in-process ``fbcent`` request; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fc_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"fbcent {' '.join(argv[:2])} exited {code}")
    return out.getvalue()


# -- axiom_matrix ---------------------------------------------------------------
#
# The paper's central result: the 28-cell axiom satisfaction matrix.  One op
# is one cell, exactly what ``fbcent check-axioms --axiom a --measure k``
# runs.  Thousands of small generated float graphs go through Perron solves,
# SCC and classification, and graph construction; nothing is parsed,
# simulated or solved exactly.

CELL_TRIALS = 10
MATRIX_SEEDS_PER_PASS = 2


def _cell_op(axiom, kind, measure, seed: int, tally: Counter) -> Op:
    key = (axiom.tag, kind)

    def call():
        return fc.satisfaction_matrix(
            axioms=[axiom], measures={kind: measure}, trials=CELL_TRIALS, seed=seed
        )

    def check(report) -> str | None:
        cell = report.cells[key]
        tally["axioms.admissible"] += cell.admissible
        tally["axioms.attempts"] += cell.attempts
        expected = fc.EXPECTED_MATRIX[key]
        if cell.status is not expected:
            return f"{axiom.label()} x {kind.value}: {cell.status.value}, expected {expected.value}"
        if cell.status is not fc.CellStatus.SKIPPED and cell.admissible < CELL_TRIALS:
            return f"{axiom.label()} x {kind.value}: {cell.admissible} admissible"
        if cell.status is fc.CellStatus.FAIL:
            if cell.witness is None:
                return f"{axiom.label()} x {kind.value}: FAIL without witness"
            again = fc.check_axiom(cell.axiom, cell.measure, cell.witness, tol=fc.AXIOM_TOL)
            if again.passed or again.skipped:
                return f"{axiom.label()} x {kind.value}: witness does not fail again"
        return None

    return Op("cell", call, check)


class AxiomMatrix(Workload):
    def pass_ops(self, pass_index: int) -> list[Op]:
        """All 28 cells for MATRIX_SEEDS_PER_PASS consecutive seeds."""
        first = (self.seed * 1000 + pass_index) * MATRIX_SEEDS_PER_PASS
        return [
            _cell_op(axiom, kind, measure, first + i, self.tally)
            for i in range(MATRIX_SEEDS_PER_PASS)
            for axiom in fc.ALL_AXIOMS
            for kind, measure in fc.MATRIX_MEASURES.items()
        ]

    def warmup_op(self) -> Op:
        """One of the cheapest cells: cycle uniformity under katz-prestige."""
        axiom = fc.AxiomId(fc.AxiomTag.CYCLE)
        kind = fc.MeasureKind.KATZ_PRESTIGE
        return _cell_op(axiom, kind, fc.MATRIX_MEASURES[kind], self.seed, self.tally)


# -- walk_oracle ----------------------------------------------------------------
#
# Acceptance criterion 4: walk processes against the measures they converge
# to.  Nearly all the time is walk simulation (``walks.sum_series``), which
# axiom_matrix never calls.  Damped distributed ops cost about a
# millisecond, damped parallel ones 1-20 ms and Cesàro ops a few hundred.
# With 31 damped distributed ops of 50, p50 lies deep inside them; the 8
# Cesàro ops are the costliest 16%, so p90 lies inside them.

DAMPED_STEPS = 200
CESARO_STEPS = 100_000
CESARO_TOL = 1e-4
WALK_MIX = {"damped-distributed": 31, "damped-parallel": 11, "cesaro-kp": 4, "cesaro-ev": 4}


def _spectral_radius(g) -> float:
    """The benchmark's own Perron value: numpy eigvals of the adjacency."""
    ids = {v: i for i, v in enumerate(g.node_ids)}
    a = np.zeros((len(ids), len(ids)))
    for u, v, w in g.edges():
        a[ids[v], ids[u]] = float(w)
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def _unit_node_weights(g):
    total = g.total_node_weight()
    out = fc.Graph(g.mode)
    for v, w in g.node_weights().items():
        out.add_node(v, w / total)
    for u, v, w in g.edges():
        out.add_edge(u, v, w)
    return out


def _damped_op(kind_name: str, g, process, alpha: float, measure: str) -> Op:
    def call():
        acc = fc.sum_series(g, process, alpha, DAMPED_STEPS)
        exact = getattr(fc, measure)(g, alpha)
        bound = fc.geometric_tail_bound(g, process, alpha, DAMPED_STEPS)
        return acc, exact, bound

    def check(result) -> str | None:
        acc, exact, bound = result
        for v in g.node_ids:
            if not abs(exact[v] - acc.partial_sum[v]) <= bound[v] + 1e-10:
                return f"{kind_name}: node {v} outside the tail bound"
        return None

    return Op(kind_name, call, check)


def _cesaro_op(kind_name: str, g, process, alpha: float, measure: str) -> Op:
    def call():
        acc = fc.sum_series(g, process, alpha, CESARO_STEPS)
        return acc, getattr(fc, measure)(g)

    def check(result) -> str | None:
        acc, exact = result
        for v in g.node_ids:
            if not abs(exact[v] - acc.cesaro[v]) <= CESARO_TOL:
                return f"{kind_name}: node {v} off by more than {CESARO_TOL}"
        return None

    return Op(kind_name, call, check)


def _walk_op(kind_name: str, gen_seed: int) -> Op | None:
    """The op of class ``kind_name`` on the graph generated from gen_seed, or
    None when that graph is unsuitable (acyclic, for damped-parallel)."""
    fam = fc.Family
    dist, par = fc.ProcessKind.DISTRIBUTED, fc.ProcessKind.PARALLEL
    if kind_name == "damped-distributed":
        g = fc.generate(fc.GeneratorSpec(fam.GENERAL, size_range=(3, 20), seed=gen_seed))
        return _damped_op(kind_name, g, dist, 0.85, "pagerank")
    if kind_name == "damped-parallel":
        g = fc.generate(fc.GeneratorSpec(fam.GENERAL, size_range=(3, 20), seed=gen_seed))
        lam = _spectral_radius(g)
        if lam < 1e-6:  # acyclic: every cycle weighs at least 0.25 here
            return None
        return _damped_op(kind_name, g, par, 0.5 / lam, "katz_centrality")
    if kind_name == "cesaro-kp":
        g = fc.generate(fc.GeneratorSpec(fam.SUM_OF_SCCS, size_range=(3, 20), seed=gen_seed))
        return _cesaro_op(kind_name, _unit_node_weights(g), dist, 1.0, "katz_prestige")
    g = fc.generate(fc.GeneratorSpec(fam.STRONGLY_CONNECTED, size_range=(3, 20), seed=gen_seed))
    g = _unit_node_weights(g)
    alpha = 1.0 / _spectral_radius(g)
    return _cesaro_op(kind_name, g, par, alpha, "eigenvector_centrality")


class WalkOracle(Workload):
    def pass_ops(self, pass_index: int) -> list[Op]:
        ops = []
        for c, (kind_name, count) in enumerate(WALK_MIX.items()):
            gen_seed = ((self.seed * 1000 + pass_index) * 4 + c) * 10_000
            made = 0
            while made < count:
                op = _walk_op(kind_name, gen_seed)
                gen_seed += 1
                if op is not None:
                    ops.append(op)
                    made += 1
        return ops

    def warmup_op(self) -> Op:
        return _walk_op("damped-distributed", self.seed)


# -- float_large ----------------------------------------------------------------
#
# Float ``fbcent centrality`` requests on a few large graphs, each parsed and
# queried several times: the graph layer used the other way round from
# axiom_matrix.  The only workload at the 512-unknown dense-solve ceiling.
# Graphs are strongly connected, n in {50, 200, 500}, either about 20% dense
# (as the corpus generator; ~50k edges at n = 500) or of out-degree about 8.

FLOAT_MEASURES = ("pr", "katz", "kp", "ev")
#: Requests per measure on each (n, density) graph in one pass.  Cost
#: classes: n = 50 about 10 ms; n = 200 sparse about 30 ms; n = 200 dense
#: and n = 500 sparse about 70-130 ms; n = 500 dense about 0.5 s.  Of the
#: 100 requests, ranks 1-72 are n = 50 (p50 falls there) and ranks 81-96
#: the third class (p90 falls there); the four dense n = 500 requests are
#: always the slowest.
FLOAT_REPEATS = {
    (50, "dense"): 9,
    (50, "sparse"): 9,
    (200, "sparse"): 2,
    (200, "dense"): 2,
    (500, "sparse"): 2,
    (500, "dense"): 1,
}
PAGERANK_ALPHA = 0.85
FLOAT_RTOL = 1e-9


@dataclass
class FloatGraph:
    """A generated graph: its file and the benchmark's own copy of the data."""

    path: Path
    n: int
    density: str
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    node_weight: np.ndarray
    lam: float

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[self.dst, self.src] = self.weight
        return a


def _write_float_graph(path: Path, n: int, density: str, rng: np.random.Generator) -> FloatGraph:
    """A strongly connected graph: a random Hamiltonian cycle plus either
    each other edge with probability 0.2 or 7 random out-edges per node."""
    perm = rng.permutation(n)
    ring = {(int(perm[i]), int(perm[(i + 1) % n])) for i in range(n)}
    if density == "dense":
        mask = rng.random((n, n)) < 0.2
    else:
        mask = np.zeros((n, n), dtype=bool)
        for u in range(n):
            mask[u, rng.choice(n, size=7, replace=False)] = True
    for u, v in ring:
        mask[u, v] = True
    src, dst = np.nonzero(mask)
    weight = np.round(rng.uniform(0.25, 3.0, size=len(src)), 4)
    node_weight = np.round(rng.uniform(0.25, 3.0, size=n), 4)
    lines = [f"node v{i} {w!r}" for i, w in enumerate(node_weight.tolist())]
    lines.extend(
        f"edge v{u} v{v} {w!r}" for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist())
    )
    path.write_text("\n".join(lines) + "\n")
    fg = FloatGraph(path, n, density, src, dst, weight, node_weight, 0.0)
    fg.lam = float(np.max(np.abs(np.linalg.eigvals(fg.adjacency()))))
    return fg


def _float_residual(fg: FloatGraph, measure: str, alpha: float | None, x: np.ndarray) -> float:
    """Largest per-node defect of the measure's recursion, relative to the
    size of the terms that make it up."""
    a = fg.adjacency()
    b = fg.node_weight
    if measure in ("pr", "kp"):
        a = a / a.sum(axis=0)  # strongly connected: no zero out-degree
    if measure == "pr" or measure == "katz":
        m, rhs = alpha * a, b
    elif measure == "kp":
        m, rhs = a, np.zeros_like(b)
    else:
        m, rhs = a / fg.lam, np.zeros_like(b)
    res = x - m @ x - rhs
    scale = np.abs(x) + np.abs(m) @ np.abs(x) + np.abs(rhs)
    return float(np.max(np.abs(res) / scale))


def _float_op(fg: FloatGraph, measure: str) -> Op:
    argv = ["centrality", "--mode", "float", "--input", str(fg.path), "--measure", measure]
    alpha = None
    if measure == "pr":
        alpha = PAGERANK_ALPHA
    elif measure == "katz":
        alpha = 0.5 / fg.lam
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]

    def call():
        return _cli(argv)

    def check(text: str) -> str | None:
        values = json.loads(text)["values_full"]
        if len(values) != fg.n:
            return f"{measure} n={fg.n}: {len(values)} values"
        x = np.array([float(values[f"v{i}"]) for i in range(fg.n)])
        if measure in ("kp", "ev") and not np.all(x > 0):
            return f"{measure} n={fg.n}: non-positive value"
        if measure == "kp" and not abs(x.sum() - fg.node_weight.sum()) <= FLOAT_RTOL * x.sum():
            return f"kp n={fg.n}: total differs from the total node weight"
        worst = _float_residual(fg, measure, alpha, x)
        if not worst <= FLOAT_RTOL:
            return f"{measure} n={fg.n}: relative residual {worst:.3e}"
        return None

    return Op(f"n{fg.n}-{fg.density}", call, check)


class FloatLarge(Workload):
    """The graphs depend on the seed only; every pass queries them again."""

    graphs: list[FloatGraph] | None = None

    def pass_ops(self, pass_index: int) -> list[Op]:
        if self.graphs is None:
            rng = np.random.default_rng([self.seed, 7])
            self.graphs = [
                _write_float_graph(self.work / f"float-{n}-{density}.dg", n, density, rng)
                for n, density in FLOAT_REPEATS
            ]
        return [
            _float_op(fg, measure)
            for fg in self.graphs
            for measure in FLOAT_MEASURES
            for _ in range(FLOAT_REPEATS[(fg.n, fg.density)])
        ]

    def warmup_op(self) -> Op:
        rng = np.random.default_rng([self.seed, 8])
        fg = _write_float_graph(self.work / "warmup-50.dg", 50, "sparse", rng)
        return _float_op(fg, "pr")


# -- exact_rational -------------------------------------------------------------
#
# Exact requests: rational centrality at n in {25, 50}, a rational
# distributed simulation, the Euler round trip on the demo graphs, and profit
# decomposition.  The only workload that runs ``gauss_rational``, rational
# ``walks.step`` and the transform pipelines.  Every check is exact.

RATIONAL_GRID = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(1, 3))
RATIONAL_PR_ALPHA = Fraction(17, 20)
SIM_STEPS = 12
SIM_ALPHA = Fraction(1, 2)
#: Ops per pass.  Cost classes: profit about 0.5-9 ms, Euler round trip
#: about 7 ms, n = 25 centrality and simulate about 15-35 ms, n = 50
#: centrality above 100 ms.  p50 (rank 53 of 105) falls among the profit
#: ops, p90 (rank 95) inside ranks 85-102, the n = 25 requests and simulate.
RATIONAL_MIX = {"euler": 4, "profit": 80, "n25": 9, "simulate": 9, "n50": 3}


@dataclass
class RationalGraph:
    path: Path
    nodes: dict[str, Fraction]
    edges: list[tuple[str, str, Fraction]]


def _write_rational_graph(path: Path, n: int, rng: random.Random) -> RationalGraph:
    names = [f"r{i}" for i in range(n)]
    nodes = {v: rng.choice(RATIONAL_GRID) for v in names}
    order = names[:]
    rng.shuffle(order)
    pairs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    pairs |= {(u, v) for u in names for v in names if rng.random() < 0.08}
    edges = [(u, v, rng.choice(RATIONAL_GRID)) for u, v in sorted(pairs)]
    lines = [f"node {v} {_fmt_fraction(w)}" for v, w in nodes.items()]
    lines.extend(f"edge {u} {v} {_fmt_fraction(w)}" for u, v, w in edges)
    path.write_text("\n".join(lines) + "\n")
    return RationalGraph(path, nodes, edges)


def _fmt_fraction(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def _exact_residual(
    nodes: dict[str, Fraction],
    edges: list[tuple[str, str, Fraction]],
    x: dict[str, Fraction],
    alpha: Fraction,
    distributed: bool,
    damped: bool,
) -> Fraction:
    """Largest |defect| of the recursion at x, in exact arithmetic."""
    outdeg: dict[str, Fraction] = {v: Fraction(0) for v in nodes}
    for u, _v, w in edges:
        outdeg[u] += w
    acc = {v: Fraction(0) for v in nodes}
    for u, v, w in edges:
        acc[v] += w * x[u] / outdeg[u] if distributed else w * x[u]
    return max(
        abs(x[v] - (alpha * acc[v] + nodes[v] if damped else acc[v])) for v in nodes
    )


def _katz_alpha(rg: RationalGraph) -> Fraction:
    """A rational decay with alpha * lambda <= 1/2, from numpy's eigenvalues."""
    ids = {v: i for i, v in enumerate(rg.nodes)}
    a = np.zeros((len(ids), len(ids)))
    for u, v, w in rg.edges:
        a[ids[v], ids[u]] = float(w)
    lam = float(np.max(np.abs(np.linalg.eigvals(a))))
    return Fraction(1, 2 * math.ceil(lam))


def _centrality_op(kind_name: str, rg: RationalGraph, measure: str) -> Op:
    argv = ["centrality", "--mode", "rational", "--input", str(rg.path), "--measure", measure]
    if measure == "pr":
        alpha = RATIONAL_PR_ALPHA
    elif measure == "katz":
        alpha = _katz_alpha(rg)
    else:
        alpha = Fraction(1)
    if measure != "kp":
        argv += ["--alpha", _fmt_fraction(alpha)]

    def check(text: str) -> str | None:
        values = {v: Fraction(s) for v, s in json.loads(text)["values_full"].items()}
        if set(values) != set(rg.nodes):
            return f"{measure}: wrong node set"
        if measure == "kp" and sum(values.values()) != sum(rg.nodes.values()):
            return "kp: total differs from the total node weight"
        worst = _exact_residual(
            rg.nodes, rg.edges, values, alpha,
            distributed=measure != "katz", damped=measure != "kp",
        )
        return None if worst == 0 else f"{measure}: residual {float(worst):.3e}"

    return Op(kind_name, lambda: _cli(argv), check)


def _simulate_op(rg: RationalGraph) -> Op:
    argv = [
        "simulate", "--mode", "rational", "--process", "distributed",
        "--alpha", _fmt_fraction(SIM_ALPHA), "--steps", str(SIM_STEPS), "--input", str(rg.path),
    ]

    def check(text: str) -> str | None:
        recursion = json.loads(text)["diagnostics"]["recursion"]
        if recursion is None:
            return "simulate: no recursion check in the output"
        mismatch = recursion["max_prediction_mismatch"]
        return None if mismatch == "0" else f"simulate: prediction mismatch {mismatch}"

    return Op("simulate", lambda: _cli(argv), check)


def _canonical_text(path: Path) -> str:
    """The benchmark's own canonical form of a rational `.dg` file."""
    nodes, edges = [], []
    for raw in path.read_text().splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "node":
            nodes.append(f"node {fields[1]} {_fmt_fraction(Fraction(fields[2]))}")
        else:
            weight = _fmt_fraction(Fraction(fields[3]))
            edges.append(((fields[1], fields[2]), f"edge {fields[1]} {fields[2]} {weight}"))
    nodes.sort(key=lambda line: line.split()[1])
    edges.sort()
    return "\n".join(nodes + [line for _key, line in edges]) + "\n"


def _euler_op(source: Path, work: Path, tag: str) -> Op:
    cycle = work / f"cycle-{tag}.dg"
    expected = _canonical_text(source)

    def call():
        _cli(["euler-construct", "--input", str(source), "--output", str(cycle)])
        return _cli([
            "transform", "combine-groups", "--input", str(cycle),
            "--groups", f"{cycle}.groups",
        ])

    def check(text: str) -> str | None:
        return None if text == expected else f"euler {source.name}: round trip differs"

    return Op("euler", call, check)


def _profit_op(gen_seed: int) -> Op:
    g = fc.generate(fc.GeneratorSpec(
        fc.Family.SEMI_OUT_REGULAR, size_range=(3, 12), weight_grid=RATIONAL_GRID, seed=gen_seed,
    ))
    alpha = RATIONAL_PR_ALPHA
    nodes = dict(g.node_weights())
    edges = list(g.edges())
    measure = fc.Measure(fc.MeasureKind.PAGERANK, alpha)

    def check(rebuilt) -> str | None:
        # The rebuild equals the measure iff it solves the measure's recursion.
        worst = _exact_residual(nodes, edges, rebuilt, alpha, distributed=True, damped=True)
        return None if worst == 0 else f"profit: residual {float(worst):.3e}"

    return Op("profit", lambda: fc.profit_decomposition(g, measure), check)


class ExactRational(Workload):
    def _demos(self) -> list[Path]:
        return [self.root / "graphs" / "demo5.dg", self.root / "graphs" / "demo6.dg"]

    def pass_ops(self, pass_index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{pass_index}/rational")
        base = (self.seed * 1000 + pass_index) * 1000
        work = self.work
        demos = self._demos()
        ops = [
            _euler_op(demos[i % len(demos)], work, f"{pass_index}-{i}")
            for i in range(RATIONAL_MIX["euler"])
        ]
        ops.extend(_profit_op(base + i) for i in range(RATIONAL_MIX["profit"]))
        for n in (25, 50):
            for i in range(RATIONAL_MIX[f"n{n}"] // 3):
                rg = _write_rational_graph(work / f"rational-{n}-{pass_index}-{i}.dg", n, rng)
                ops.extend(_centrality_op(f"n{n}", rg, m) for m in ("pr", "katz", "kp"))
        for i in range(RATIONAL_MIX["simulate"]):
            rg = _write_rational_graph(work / f"sim-{pass_index}-{i}.dg", 25, rng)
            ops.append(_simulate_op(rg))
        return ops

    def warmup_op(self) -> Op:
        return _euler_op(self._demos()[0], self.work, "warmup")


WORKLOADS: dict[str, type[Workload]] = {
    "axiom_matrix": AxiomMatrix,
    "walk_oracle": WalkOracle,
    "float_large": FloatLarge,
    "exact_rational": ExactRational,
}
