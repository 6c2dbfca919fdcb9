"""Executable checkers for the seven behavioural axioms.

Each axiom states an equality between measure values before and after a
graph modification (or, for the borderline axioms, against a closed form).
``check_axiom`` evaluates one instance and reports the worst deviation; the
instance must supply whatever the axiom quantifies over — a second graph,
an edge, a node pair, a node plus factor, an isolated node, or a
constant-weight cycle.

Three outcomes are possible.  An instance that violates the axiom's own
hypothesis (e.g. a baseline node that is not isolated) raises
PreconditionError: it is not a counterexample, it is not an instance at
all.  An instance whose source or transformed graph falls outside the
measure's class yields a *skipped* verdict — restricted axioms only
quantify over the class.  Otherwise the verdict carries the maximum
relative deviation and passes iff it is within tolerance (exactly zero for
rational-mode instances, where the arithmetic is exact).

``satisfaction_matrix`` runs generated graphs of a given size range through
every (axiom, measure) cell and reduces each cell to PASS / FAIL(witness) /
SKIPPED, with failing witnesses greedily shrunk and re-verified.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import DomainError, PreconditionError
from .graph import (
    ClassTag,
    Graph,
    GraphClass,
    Mode,
    Weight,
    all_equal,
    classify,
    coerce,
    delete_edge,
    graph_sum,
    is_strongly_connected,
    largest,
    out_regularity,
    principal_eigenvalue,
    semi_out_regularity,
    serialize_graph,
    successors,
)
from .measures import Measure, MeasureKind
from .transforms import edge_compensation, edge_multiplication, proportional_combine

#: Relative tolerance for axiom equalities on float instances.
AXIOM_TOL = 1e-8


class AxiomTag(enum.Enum):
    LOCALITY = "locality"
    EDGE_DELETION = "edge-deletion"
    NODE_COMBINATION = "node-combination"
    EDGE_MULTIPLICATION = "edge-multiplication"
    EDGE_COMPENSATION = "edge-compensation"
    BASELINE = "baseline"
    CYCLE = "cycle"


class NCVariant(enum.Enum):
    """Hypothesis under which node combination is checked.

    Every variant requires the combined pair itself to share one out-degree
    (merging a sink into a non-sink deflates the survivor's out-degree and
    genuinely changes the distributed measures).  PLAIN is the axiom itself:
    the pair and all their successors share one out-degree.
    SEMI_OUT_REGULAR widens it to equal-degree pairs in a semi-out-regular
    graph, where successors may also be sinks.  PAIR_ONLY drops the
    successor clause entirely — a relaxation the damped and distributed
    measures tolerate but eigenvector centrality does not; it is exposed
    for experiments and never part of the standard matrix.
    """

    PLAIN = "plain"
    SEMI_OUT_REGULAR = "semi-out-regular"
    PAIR_ONLY = "pair-only"


@dataclass(frozen=True)
class AxiomId:
    tag: AxiomTag
    variant: NCVariant | None = None

    def __post_init__(self):
        if self.tag is AxiomTag.NODE_COMBINATION:
            if self.variant is None:
                object.__setattr__(self, "variant", NCVariant.PLAIN)
        elif self.variant is not None:
            raise DomainError(f"{self.tag.value} has no variants")

    def label(self) -> str:
        if self.tag is AxiomTag.NODE_COMBINATION and self.variant is not NCVariant.PLAIN:
            return f"{self.tag.value}:{self.variant.value}"
        return self.tag.value

    @classmethod
    def parse(cls, text: str) -> "AxiomId":
        head, _sep, tail = text.partition(":")
        try:
            tag = AxiomTag(head)
        except ValueError:
            raise DomainError(f"unknown axiom {head!r}") from None
        if not tail:
            return cls(tag)
        try:
            variant = NCVariant(tail)
        except ValueError:
            raise DomainError(f"unknown node-combination variant {tail!r}") from None
        return cls(tag, variant)


ALL_AXIOMS = [AxiomId(tag) for tag in AxiomTag]


@dataclass
class AxiomInstance:
    """One concrete input to an axiom check.

    ``graph`` is always present; the other fields carry what the particular
    axiom quantifies over: ``other`` (locality), ``edge`` (edge deletion),
    ``nodes`` (node combination), ``node`` + ``factor`` (edge
    multiplication/compensation), ``node`` alone (baseline).
    """

    graph: Graph
    other: Graph | None = None
    edge: tuple[str, str] | None = None
    nodes: tuple[str, str] | None = None
    node: str | None = None
    factor: Weight | None = None

    def describe(self) -> dict:
        doc: dict = {"graph": serialize_graph(self.graph)}
        if self.other is not None:
            doc["other"] = serialize_graph(self.other)
        if self.edge is not None:
            doc["edge"] = list(self.edge)
        if self.nodes is not None:
            doc["nodes"] = list(self.nodes)
        if self.node is not None:
            doc["node"] = self.node
        if self.factor is not None:
            doc["factor"] = str(self.factor)
        return doc


@dataclass
class AxiomVerdict:
    axiom: AxiomId
    measure: Measure
    instance: AxiomInstance
    max_deviation: float
    tolerance: float
    passed: bool
    skipped_reason: str | None = None
    worst_node: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


def _relative_deviation(a: Weight, b: Weight) -> float:
    """|a - b| / max(1, |a|, |b|).  Exact values are compared exactly and
    only the quotient, which is at most 2, becomes a float."""
    if isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        return abs(fa - fb) / max(1.0, abs(fa), abs(fb))
    return float(Fraction(abs(a - b)) / max(1, abs(a), abs(b)))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def is_constant_weight_cycle(g: Graph) -> bool:
    """Strongly connected, exactly one out-edge per node, all weights equal."""
    if len(g) == 0:
        return False
    if any(len(g.out_edges(v)) != 1 for v in g.node_ids):
        return False
    if not is_strongly_connected(g):
        return False
    return all_equal([w for _u, _v, w in g.edges()], g.mode)


def _validate_instance(axiom: AxiomId, instance: AxiomInstance) -> None:
    g = instance.graph
    _require(len(g) >= 1, "instance graph has no nodes")
    tag = axiom.tag

    if tag is AxiomTag.LOCALITY:
        _require(instance.other is not None, "locality needs a second graph")
        _require(len(instance.other) >= 1, "second graph has no nodes")
        clash = set(g.node_ids) & set(instance.other.node_ids)
        _require(not clash, f"graphs share node ids: {sorted(clash)!r}")
        _require(g.mode is instance.other.mode, "graphs differ in numeric mode")
    elif tag is AxiomTag.EDGE_DELETION:
        _require(instance.edge is not None, "edge deletion needs an edge")
        u, t = instance.edge
        _require(g.has_edge(u, t), f"edge {u!r} -> {t!r} is not in the graph")
    elif tag is AxiomTag.NODE_COMBINATION:
        _require(instance.nodes is not None, "node combination needs a node pair")
        u, w = instance.nodes
        _require(u in g and w in g, "node pair not in the graph")
        _require(u != w, "node pair must be distinct")
        _require(
            all_equal([g.out_degree(u), g.out_degree(w)], g.mode),
            "the combined pair must share one out-degree",
        )
        if axiom.variant is NCVariant.PLAIN:
            implicated = sorted({u, w} | successors(g, u) | successors(g, w))
            _require(
                all_equal([g.out_degree(v) for v in implicated], g.mode),
                "the pair and all their successors must share one out-degree",
            )
        elif axiom.variant is NCVariant.SEMI_OUT_REGULAR:
            ok, _r = semi_out_regularity(g)
            _require(ok, "graph is not semi-out-regular")
    elif tag in (AxiomTag.EDGE_MULTIPLICATION, AxiomTag.EDGE_COMPENSATION):
        _require(instance.node is not None, f"{tag.value} needs a node")
        _require(instance.node in g, f"unknown node {instance.node!r}")
        _require(instance.factor is not None, f"{tag.value} needs a factor")
        _require(instance.factor > 0, "factor must be positive")
    elif tag is AxiomTag.BASELINE:
        _require(instance.node is not None, "baseline needs a node")
        z = instance.node
        _require(z in g, f"unknown node {z!r}")
        _require(
            not g.out_edges(z) and not g.in_edges(z),
            f"node {z!r} is not isolated",
        )
    elif tag is AxiomTag.CYCLE:
        _require(
            is_constant_weight_cycle(g),
            "graph is not a constant-weight cycle",
        )


def _evaluate(
    axiom: AxiomId, measure: Measure, instance: AxiomInstance
) -> list[tuple[Weight, Weight, str]]:
    """The axiom's list of claimed equalities (lhs, rhs, label)."""
    g = instance.graph
    tag = axiom.tag

    if tag is AxiomTag.LOCALITY:
        h = instance.other
        combined = graph_sum(g, h)
        fg = measure.compute(g)
        fh = measure.compute(h)
        fc = measure.compute(combined)
        pairs = [(fc[v], fg[v], v) for v in g.node_ids]
        pairs.extend((fc[v], fh[v], v) for v in h.node_ids)
        return pairs

    if tag is AxiomTag.EDGE_DELETION:
        u, t = instance.edge
        reduced = delete_edge(g, u, t)
        f = measure.compute(g)
        fr = measure.compute(reduced)
        reach = successors(g, u)
        return [(fr[v], f[v], v) for v in g.node_ids if v not in reach]

    if tag is AxiomTag.NODE_COMBINATION:
        u, w = instance.nodes
        f = measure.compute(g)
        combined = proportional_combine(g, u, w, f[u], f[w])
        fc = measure.compute(combined)
        pairs = [(fc[w], f[u] + f[w], w)]
        pairs.extend((fc[v], f[v], v) for v in g.node_ids if v not in (u, w))
        return pairs

    if tag is AxiomTag.EDGE_MULTIPLICATION:
        scaled = edge_multiplication(g, instance.node, instance.factor)
        f = measure.compute(g)
        fs = measure.compute(scaled)
        return [(fs[v], f[v], v) for v in g.node_ids]

    if tag is AxiomTag.EDGE_COMPENSATION:
        u = instance.node
        x = coerce(g.mode, instance.factor, "factor")
        compensated = edge_compensation(g, u, x)
        f = measure.compute(g)
        fc = measure.compute(compensated)
        pairs = [(fc[u] * x, f[u], u)]
        pairs.extend((fc[v], f[v], v) for v in g.node_ids if v != u)
        return pairs

    if tag is AxiomTag.BASELINE:
        f = measure.compute(g)
        z = instance.node
        return [(f[z], g.node_weight(z), z)]

    f = measure.compute(g)  # AxiomTag.CYCLE
    average = g.total_node_weight() / len(g)
    return [(f[v], average, v) for v in g.node_ids]


def check_axiom(
    axiom: AxiomId, measure: Measure, instance: AxiomInstance, tol: float = AXIOM_TOL
) -> AxiomVerdict:
    """Evaluate one axiom instance against one measure.

    Raises PreconditionError for malformed instances; returns a skipped
    verdict when the measure's class excludes a graph the check needs.
    Rational-mode instances are held to exact equality (tolerance 0) for
    the measures that compute exactly: they pass only when every pair is
    equal, whatever the float deviation reads.
    """
    _validate_instance(axiom, instance)
    g = instance.graph
    exact = g.mode is Mode.RATIONAL and measure.kind is not MeasureKind.EIGENVECTOR
    effective_tol = 0.0 if exact else tol

    try:
        pairs = _evaluate(axiom, measure, instance)
    except DomainError as exc:
        return AxiomVerdict(
            axiom, measure, instance, 0.0, effective_tol, False, str(exc)
        )

    deviations = ((label, _relative_deviation(lhs, rhs)) for lhs, rhs, label in pairs)
    worst, max_dev = largest(deviations, "deviation")
    if exact:
        passed = all(lhs == rhs for lhs, rhs, _label in pairs)
    else:
        passed = max_dev <= effective_tol
    return AxiomVerdict(
        axiom,
        measure,
        instance,
        max_dev,
        effective_tol,
        passed,
        None,
        worst,
    )


# -- corpora -------------------------------------------------------------------


class Family(enum.Enum):
    STRONGLY_CONNECTED = "strongly-connected"
    OUT_REGULAR = "out-regular"
    SEMI_OUT_REGULAR = "semi-out-regular"
    GENERAL = "general"
    CYCLE = "cycle"
    SUM_OF_SCCS = "sum-of-sccs"


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic random-graph recipe.

    Weights come either from ``weight_grid`` (rational values — the graph is
    built in rational mode) or uniformly from ``FLOAT_WEIGHT_RANGE`` (float
    mode).  The family's structural predicate is re-checked after generation.
    """

    family: Family
    size_range: tuple[int, int] = (3, 25)
    weight_grid: tuple[Fraction, ...] | None = None
    seed: int = 0


#: Bounds of the uniform draw for generated float weights (rounded to 4 places).
FLOAT_WEIGHT_RANGE = (0.25, 3.0)


def _draw_weight(spec: GeneratorSpec, rng: random.Random) -> Weight:
    if spec.weight_grid is not None:
        return rng.choice(spec.weight_grid)
    return round(rng.uniform(*FLOAT_WEIGHT_RANGE), 4)


def _mode_of(spec: GeneratorSpec) -> Mode:
    return Mode.RATIONAL if spec.weight_grid is not None else Mode.FLOAT


def _scc_block(
    g: Graph, names: list[str], spec: GeneratorSpec, rng: random.Random
) -> None:
    """Wire ``names`` into one strongly connected component in-place."""
    if len(names) == 1:
        g.add_edge(names[0], names[0], _draw_weight(spec, rng))
        return
    order = names[:]
    rng.shuffle(order)
    for i, v in enumerate(order):
        g.add_edge(v, order[(i + 1) % len(order)], _draw_weight(spec, rng))
    for u in names:
        for v in names:
            if not g.has_edge(u, v) and rng.random() < (0.1 if u == v else 0.2):
                g.add_edge(u, v, _draw_weight(spec, rng))


def _rescale_out_degrees(g: Graph, target: Weight) -> Graph:
    """Scale every node's out-edges so each non-sink's out-degree is ``target``."""
    return Graph.build(
        g.node_weights().items(),
        ((u, v, wt * target / g.out_degree(u)) for u, v, wt in g.edges()),
        g.mode,
    )


def _partition_sizes(n: int, parts: int, rng: random.Random) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), parts - 1)) if parts > 1 else []
    bounds = [0, *cuts, n]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def generate(spec: GeneratorSpec) -> Graph:
    """Draw one graph from the family, deterministically per seed."""
    rng = random.Random(spec.seed)
    lo, hi = spec.size_range
    if lo < 1 or hi < lo:
        raise DomainError(f"family {spec.family.value} unsatisfiable at size {spec.size_range}")
    n = rng.randint(lo, hi)
    mode = _mode_of(spec)
    g = Graph(mode)
    names = [f"v{i}" for i in range(n)]
    family = spec.family

    if family is Family.CYCLE:
        weight = _draw_weight(spec, rng)
        for v in names:
            g.add_node(v, _draw_weight(spec, rng))
        order = names[:]
        rng.shuffle(order)
        for i, v in enumerate(order):
            g.add_edge(v, order[(i + 1) % len(order)], weight)
    elif family is Family.GENERAL:
        for v in names:
            g.add_node(v, _draw_weight(spec, rng))
        for u in names:
            for v in names:
                if rng.random() < (0.1 if u == v else 0.25):
                    g.add_edge(u, v, _draw_weight(spec, rng))
        if g.num_edges == 0 and n >= 2:
            g.add_edge(names[0], names[1], _draw_weight(spec, rng))
        elif g.num_edges == 0:
            g.add_edge(names[0], names[0], _draw_weight(spec, rng))
    elif family is Family.STRONGLY_CONNECTED:
        for v in names:
            g.add_node(v, _draw_weight(spec, rng))
        _scc_block(g, names, spec, rng)
    elif family in (Family.SUM_OF_SCCS, Family.OUT_REGULAR):
        for v in names:
            g.add_node(v, _draw_weight(spec, rng))
        parts = rng.randint(2, 3) if family is Family.SUM_OF_SCCS else rng.randint(1, 2)
        parts = min(parts, n)
        sizes = _partition_sizes(n, parts, rng)
        offset = 0
        for size in sizes:
            _scc_block(g, names[offset : offset + size], spec, rng)
            offset += size
        if family is Family.OUT_REGULAR:
            g = _rescale_out_degrees(g, _draw_weight(spec, rng))
    else:  # Family.SEMI_OUT_REGULAR
        n_sink = rng.randint(0, n // 3)
        n_source = rng.randint(0, (n - n_sink) // 3)
        core = names[: n - n_sink - n_source]
        sources = names[len(core) : len(core) + n_source]
        sinks = names[len(core) + n_source :]
        for v in names:
            g.add_node(v, _draw_weight(spec, rng))
        _scc_block(g, core, spec, rng)  # n_sink + n_source < n leaves a core
        for u in core:
            for s in sinks:
                if rng.random() < 0.3:
                    g.add_edge(u, s, _draw_weight(spec, rng))
        for u in sources:
            choices = core + sinks
            picked = rng.sample(choices, rng.randint(1, min(3, len(choices))))
            for v in picked:
                g.add_edge(u, v, _draw_weight(spec, rng))
        g = _rescale_out_degrees(g, _draw_weight(spec, rng))

    _check_family(spec.family, g)
    return g


def _check_family(family: Family, g: Graph) -> None:
    ok = True
    if family is Family.STRONGLY_CONNECTED:
        ok = is_strongly_connected(g)
    elif family is Family.OUT_REGULAR:
        ok = out_regularity(g) is not None
    elif family is Family.SEMI_OUT_REGULAR:
        ok = semi_out_regularity(g)[0]
    elif family is Family.CYCLE:
        ok = is_constant_weight_cycle(g)
    elif family is Family.SUM_OF_SCCS:
        ok = classify(g, GraphClass(ClassTag.KP)).ok
    if not ok:
        raise DomainError(f"generated graph fails the {family.value} predicate")


# -- the satisfaction matrix ---------------------------------------------------


MATRIX_MEASURES: dict[MeasureKind, Measure] = {
    MeasureKind.EIGENVECTOR: Measure(MeasureKind.EIGENVECTOR),
    MeasureKind.KATZ_PRESTIGE: Measure(MeasureKind.KATZ_PRESTIGE),
    MeasureKind.KATZ: Measure(MeasureKind.KATZ, 0.5),
    MeasureKind.PAGERANK: Measure(MeasureKind.PAGERANK, 0.85),
}

#: Keep the damped-measure decay comfortably inside the admissible region
#: after any instance transform: alpha * lambda is rescaled to this.
_KATZ_TARGET = 0.5


class CellStatus(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"


EXPECTED_MATRIX: dict[tuple[AxiomTag, MeasureKind], CellStatus] = {}
for _kind in MATRIX_MEASURES:
    for _tag in (AxiomTag.LOCALITY, AxiomTag.EDGE_DELETION, AxiomTag.NODE_COMBINATION):
        EXPECTED_MATRIX[(_tag, _kind)] = CellStatus.PASS
EXPECTED_MATRIX.update(
    {
        (AxiomTag.EDGE_MULTIPLICATION, MeasureKind.PAGERANK): CellStatus.PASS,
        (AxiomTag.EDGE_MULTIPLICATION, MeasureKind.KATZ_PRESTIGE): CellStatus.PASS,
        (AxiomTag.EDGE_MULTIPLICATION, MeasureKind.KATZ): CellStatus.FAIL,
        (AxiomTag.EDGE_MULTIPLICATION, MeasureKind.EIGENVECTOR): CellStatus.FAIL,
        (AxiomTag.EDGE_COMPENSATION, MeasureKind.PAGERANK): CellStatus.FAIL,
        (AxiomTag.EDGE_COMPENSATION, MeasureKind.KATZ_PRESTIGE): CellStatus.FAIL,
        (AxiomTag.EDGE_COMPENSATION, MeasureKind.KATZ): CellStatus.PASS,
        (AxiomTag.EDGE_COMPENSATION, MeasureKind.EIGENVECTOR): CellStatus.PASS,
        (AxiomTag.BASELINE, MeasureKind.PAGERANK): CellStatus.PASS,
        (AxiomTag.BASELINE, MeasureKind.KATZ): CellStatus.PASS,
        (AxiomTag.BASELINE, MeasureKind.KATZ_PRESTIGE): CellStatus.SKIPPED,
        (AxiomTag.BASELINE, MeasureKind.EIGENVECTOR): CellStatus.SKIPPED,
        (AxiomTag.CYCLE, MeasureKind.PAGERANK): CellStatus.FAIL,
        (AxiomTag.CYCLE, MeasureKind.KATZ): CellStatus.FAIL,
        (AxiomTag.CYCLE, MeasureKind.KATZ_PRESTIGE): CellStatus.PASS,
        (AxiomTag.CYCLE, MeasureKind.EIGENVECTOR): CellStatus.PASS,
    }
)


def _family_for(tag: AxiomTag, kind: MeasureKind) -> Family:
    if tag is AxiomTag.NODE_COMBINATION:
        return Family.OUT_REGULAR
    if tag is AxiomTag.CYCLE:
        return Family.CYCLE
    if tag is AxiomTag.BASELINE:
        return Family.GENERAL
    if kind is MeasureKind.KATZ_PRESTIGE:
        return Family.SUM_OF_SCCS
    if kind is MeasureKind.EIGENVECTOR:
        return Family.STRONGLY_CONNECTED
    return Family.GENERAL


def _scale_edges(g: Graph, factor: Weight) -> Graph:
    return Graph.build(
        g.node_weights().items(),
        ((u, v, wt * factor) for u, v, wt in g.edges()),
        g.mode,
    )


def _fit_for_katz(g: Graph, alpha: float, headroom: float) -> Graph:
    """Rescale edge weights so alpha * lambda stays at the target even after
    the instance's transform can inflate lambda by ``headroom``."""
    _lams, lam = principal_eigenvalue(g)
    if lam <= 0:
        return g
    current = alpha * lam * headroom
    if current <= _KATZ_TARGET:
        return g
    return _scale_edges(g, _KATZ_TARGET / current)


def _relabel(g: Graph, prefix: str) -> Graph:
    return Graph.build(
        ((prefix + v, wt) for v, wt in g.node_weights().items()),
        ((prefix + u, prefix + v, wt) for u, v, wt in g.edges()),
        g.mode,
    )


def _pick_factor(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return round(rng.uniform(0.3, 0.8), 4)
    return round(rng.uniform(1.25, 3.0), 4)


def _build_instance(
    axiom: AxiomId,
    measure: Measure,
    size_range: tuple[int, int],
    rng: random.Random,
) -> AxiomInstance:
    tag = axiom.tag
    kind = measure.kind
    spec = GeneratorSpec(_family_for(tag, kind), size_range)

    def draw() -> Graph:
        return generate(replace(spec, seed=rng.getrandbits(63)))

    g = draw()  # a float graph: the spec has no weight grid
    factor = _pick_factor(rng) if tag in (
        AxiomTag.EDGE_MULTIPLICATION,
        AxiomTag.EDGE_COMPENSATION,
    ) else None

    if kind is MeasureKind.KATZ:
        headroom = (
            max(factor, 1.0) if tag is AxiomTag.EDGE_MULTIPLICATION else 1.0
        )
        g = _fit_for_katz(g, float(measure.alpha), headroom)

    if tag is AxiomTag.LOCALITY:
        h = _relabel(draw(), "w")
        if kind is MeasureKind.KATZ:
            h = _fit_for_katz(h, float(measure.alpha), 1.0)
        elif kind is MeasureKind.EIGENVECTOR:
            _lams, lam_g = principal_eigenvalue(g)
            _lams_h, lam_h = principal_eigenvalue(h)
            if lam_h > 0 and lam_g > 0:
                h = _scale_edges(h, lam_g / lam_h)
        return AxiomInstance(g, other=h)

    if tag is AxiomTag.EDGE_DELETION:
        edges = [(u, v) for u, v, _w in g.edges()]
        rng.shuffle(edges)
        chosen = edges[0]
        if kind in (MeasureKind.KATZ_PRESTIGE, MeasureKind.EIGENVECTOR):
            # Deleting an edge never raises the decay bound, so any edge keeps
            # the damped measures admissible; only the structural classes need
            # a deletable chord.
            cls = measure.graph_class()
            for candidate in edges:
                if classify(delete_edge(g, *candidate), cls).ok:
                    chosen = candidate
                    break
        return AxiomInstance(g, edge=chosen)

    if tag is AxiomTag.NODE_COMBINATION:
        if len(g) < 2:
            raise DomainError(
                f"node combination needs a graph of at least 2 nodes, the corpus drew {len(g)}"
            )
        u, w = rng.sample(g.node_ids, 2)
        return AxiomInstance(g, nodes=(u, w))

    if tag in (AxiomTag.EDGE_MULTIPLICATION, AxiomTag.EDGE_COMPENSATION):
        return AxiomInstance(g, node=rng.choice(g.node_ids), factor=factor)

    if tag is AxiomTag.BASELINE:
        # generated nodes are named v0, v1, ...
        nodes = [*g.node_weights().items(), ("iso", _draw_weight(spec, rng))]
        g = Graph.build(nodes, g.edges(), g.mode)
        return AxiomInstance(g, node="iso")

    return AxiomInstance(g)  # AxiomTag.CYCLE


@dataclass
class CellResult:
    axiom: AxiomId
    measure: Measure
    status: CellStatus
    attempts: int
    admissible: int
    passed: int
    failed: int
    skipped: int
    max_deviation: float
    witness: AxiomInstance | None = None
    witness_verdict: AxiomVerdict | None = None


@dataclass
class MatrixReport:
    cells: dict[tuple[AxiomTag, MeasureKind], CellResult]
    trials: int
    tolerance: float
    seed: int

    def mismatches(self) -> list[str]:
        """Cells that ran but disagree with the documented outcome."""
        out = []
        for key, cell in self.cells.items():
            expected = EXPECTED_MATRIX.get(key)
            if expected is not None and cell.status is not expected:
                out.append(
                    f"{key[0].value} x {key[1].value}: expected {expected.value}, "
                    f"got {cell.status.value}"
                )
        return out


def run_cell(
    axiom: AxiomId,
    measure: Measure,
    size_range: tuple[int, int],
    trials: int,
    tol: float,
    rng: random.Random,
) -> CellResult:
    attempts = admissible = passed = failed = skipped = 0
    deviations = []
    witness = None
    witness_verdict = None
    cap = trials * 20

    while admissible < trials and attempts < cap:
        if attempts >= trials and admissible == 0:
            break  # nothing in this corpus is admissible: a skipped cell
        instance = _build_instance(axiom, measure, size_range, rng)
        verdict = check_axiom(axiom, measure, instance, tol)
        attempts += 1
        if verdict.skipped:
            skipped += 1
            continue
        admissible += 1
        deviations.append(verdict.max_deviation)
        if verdict.passed:
            passed += 1
            continue
        failed += 1
        if witness is None:
            witness = shrink_instance(axiom, measure, instance, tol)
            witness_verdict = check_axiom(axiom, measure, witness, tol)

    if admissible == 0:
        status = CellStatus.SKIPPED
    elif admissible < trials:
        raise DomainError(
            f"{axiom.label()} x {measure.name()}: only {admissible}/{trials} "
            f"admissible instances in {attempts} attempts"
        )
    else:
        status = CellStatus.FAIL if failed else CellStatus.PASS
    return CellResult(
        axiom,
        measure,
        status,
        attempts,
        admissible,
        passed,
        failed,
        skipped,
        largest(enumerate(deviations), "deviation")[1],
        witness,
        witness_verdict,
    )


def satisfaction_matrix(
    size_range: tuple[int, int] = (3, 25),
    trials: int = 200,
    tol: float = AXIOM_TOL,
    seed: int = 0,
    axioms: list[AxiomId] | None = None,
    measures: dict[MeasureKind, Measure] | None = None,
) -> MatrixReport:
    """Run every (axiom, measure) cell and reduce it to PASS/FAIL/SKIPPED.

    PASS means every admissible instance passed; FAIL stores the first
    failing instance, shrunk and re-verified; SKIPPED means the corpus
    produced no admissible instance at all (the axiom does not apply on the
    measure's class); a cell with some, but fewer than ``trials``,
    admissible instances in 20 * ``trials`` attempts raises ``DomainError``.
    Each cell draws float graphs of the one family its axiom and measure
    need, with node counts in ``size_range``.  Fully deterministic for a
    given (size_range, trials, tol, seed).  ``axioms``/``measures`` restrict
    the grid.
    """
    axioms = axioms if axioms is not None else ALL_AXIOMS
    measures = measures if measures is not None else MATRIX_MEASURES

    cells: dict[tuple[AxiomTag, MeasureKind], CellResult] = {}
    for axiom in axioms:
        for kind, measure in measures.items():
            rng = random.Random(f"{seed}/{axiom.label()}/{kind.value}")
            cells[(axiom.tag, kind)] = run_cell(axiom, measure, size_range, trials, tol, rng)
    return MatrixReport(cells, trials, tol, seed)


# -- witness shrinking ---------------------------------------------------------

#: Accepted removals after which ``shrink_instance`` stops.
SHRINK_MAX_STEPS = 200


def _remove_node(g: Graph, victim: str) -> Graph:
    return Graph.build(
        ((v, wt) for v, wt in g.node_weights().items() if v != victim),
        ((u, v, wt) for u, v, wt in g.edges() if victim not in (u, v)),
        g.mode,
    )


def _protected_nodes(axiom: AxiomId, instance: AxiomInstance) -> set[str]:
    if axiom.tag is AxiomTag.EDGE_DELETION:
        return set(instance.edge)
    if axiom.tag is AxiomTag.NODE_COMBINATION:
        return set(instance.nodes)
    if instance.node is not None:
        return {instance.node}
    return set()


def _shrink_candidates(axiom: AxiomId, instance: AxiomInstance):
    protected = _protected_nodes(axiom, instance)
    g = instance.graph
    for v in g.node_ids:
        if v not in protected and len(g) > 1:
            yield replace(instance, graph=_remove_node(g, v))
    for u, v, _wt in g.edges():
        if axiom.tag is AxiomTag.EDGE_DELETION and (u, v) == instance.edge:
            continue
        yield replace(instance, graph=delete_edge(g, u, v))
    if instance.other is not None:
        h = instance.other
        for v in h.node_ids:
            if len(h) > 1:
                yield replace(instance, other=_remove_node(h, v))
        for u, v, _wt in h.edges():
            yield replace(instance, other=delete_edge(h, u, v))


def shrink_instance(
    axiom: AxiomId,
    measure: Measure,
    instance: AxiomInstance,
    tol: float = AXIOM_TOL,
) -> AxiomInstance:
    """Greedy minimization of a failing instance.

    Repeatedly tries single node/edge removals, keeping any that leave the
    instance well-formed, admissible, and still failing; stops after
    ``SHRINK_MAX_STEPS`` accepted removals or a full pass with no progress.
    """
    current = instance
    steps = 0
    progress = True
    while progress and steps < SHRINK_MAX_STEPS:
        progress = False
        for candidate in _shrink_candidates(axiom, current):
            try:
                verdict = check_axiom(axiom, measure, candidate, tol)
            except PreconditionError:
                continue
            if not verdict.skipped and not verdict.passed:
                current = candidate
                steps += 1
                progress = True
                break
    return current
