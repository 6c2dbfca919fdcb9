"""Outside-in tracing of the feedback_centrality package.

``Tracer`` rebinds a fixed list of public functions to recording wrappers
for the duration of a ``with`` block and restores them on exit.  A function
is rebound in its defining module and in every other package module that
imported it by name, so calls between modules are caught as well as calls
from the benchmark.  Nothing in the package's source changes.

Each call records one span: the function's name, its start and end times
and the index of the enclosing span.  Spans stay in memory until the block
ends; ``Tracer.summary`` then turns them into per-function call counts and
self times, where a span's self time is its duration minus the time its
direct child spans cover.

Two ``Graph`` methods get counting wrappers without spans, because they run
tens of thousands of times per pass and do no work worth timing on their
own: ``Graph.__init__`` (graphs built) and ``Graph.add_edge`` (edges
built).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: The traced functions, by module, in report order.
LAYERS: dict[str, tuple[str, ...]] = {
    "graph": (
        "parse_graph",
        "strongly_connected_components",
        "classify",
        "principal_eigenvalue",
        "adjacency_matrix",
        "transition_matrix",
    ),
    # perron_value and perron_pair call perron_triple through the module
    # namespace, so their work lands in the perron_triple span.
    "linalg": ("perron_triple", "solve_refined", "gauss_rational"),
    "measures": (
        "pagerank",
        "katz_centrality",
        "katz_prestige",
        "eigenvector_centrality",
        "spectral_data",
        "recursion_residual",
    ),
    "walks": ("sum_series", "step", "geometric_tail_bound", "verify_recursion"),
    "axioms": ("generate", "check_axiom", "shrink_instance"),
    "transforms": (
        "edge_multiplication",
        "edge_compensation",
        "proportional_combine",
        "synthesize_cycle_graph",
        "combine_groups",
        "profit_value",
        "profit_decomposition",
    ),
    "cli": ("main",),
}

PACKAGE = "feedback_centrality"

#: Harness spans: the user-level call of one op (time inside it that no
#: listed function covers) and the benchmark's own output check.
OP_SPAN = "op"
CHECK_SPAN = "harness.check"


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Records spans and counters while active; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = traced_names() + [OP_SPAN, CHECK_SPAN]
        self._id = {name: i for i, name in enumerate(self.names)}
        # Parallel span arrays: name id, start, end, parent index (-1 = root).
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        self.counts = {"graph.graphs_built": 0, "graph.edges_built": 0, "walks.sum_series.steps": 0}
        # Graphs returned by generate or parse_graph: the denominator of the
        # per-input-graph ratios.
        self.input_graphs = 0
        self._hooks = {
            "walks.sum_series": self._count_steps,
            "axioms.generate": self._count_input_graph,
            "graph.parse_graph": self._count_input_graph,
        }
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a harness span (``OP_SPAN`` or ``CHECK_SPAN``)."""
        return _Span(self, self._id[name])

    def _wrap(self, qualname: str, func):
        name_id = self._id[qualname]
        hook = self._hooks.get(qualname)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            idx = tracer._open(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _count_steps(self, args, kwargs) -> None:
        steps = kwargs["steps"] if "steps" in kwargs else args[3]
        self.counts["walks.sum_series.steps"] += int(steps)

    def _count_input_graph(self, args, kwargs) -> None:
        self.input_graphs += 1

    # -- installation -----------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for mod_name, funcs in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            for fn in funcs:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod_name}.{fn}", original)
                for mod in modules:
                    if getattr(mod, fn, None) is original:
                        self._rebind(mod, fn, wrapper)

        graph_cls = importlib.import_module(f"{PACKAGE}.graph").Graph
        counts = self.counts
        init, add_edge = graph_cls.__init__, graph_cls.add_edge

        def counted_init(self_, *args, **kwargs):
            counts["graph.graphs_built"] += 1
            init(self_, *args, **kwargs)

        def counted_add_edge(self_, *args, **kwargs):
            counts["graph.edges_built"] += 1
            add_edge(self_, *args, **kwargs)

        self._rebind(graph_cls, "__init__", counted_init)
        self._rebind(graph_cls, "add_edge", counted_add_edge)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus its direct children's."""
        n = len(self.span_name)
        child_sum = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_sum[p] += self.span_end[i] - self.span_start[i]
        return [self.span_end[i] - self.span_start[i] - child_sum[i] for i in range(n)]

    def summary(self) -> dict[str, float]:
        """``<name>.calls`` and ``<name>.self_s`` for every span name, plus counters."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, st in zip(self.span_name, self.self_times()):
            calls[name_id] += 1
            self_s[name_id] += st
        out: dict[str, float] = {}
        for name, c, s in zip(self.names, calls, self_s):
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s
        out.update(self.counts)
        return out

    def calls_within_ops(self, name: str) -> int:
        """Calls of ``name`` made inside an op span, leaving out the ones the
        benchmark's checks make."""
        op_id, name_id = self._id[OP_SPAN], self._id[name]
        in_op: list[bool] = []
        count = 0
        for nid, parent in zip(self.span_name, self.span_parent):
            inside = nid == op_id or (parent >= 0 and in_op[parent])
            in_op.append(inside)
            if inside and nid == name_id:
                count += 1
        return count


class _Span:
    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer: Tracer, name_id: int) -> None:
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self) -> None:
        self.idx = self.tracer._open(self.name_id)

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.idx)

