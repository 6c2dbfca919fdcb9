"""Import-time guards: the package and its CLI load on numpy alone, every
function the benchmark traces exists where the tracer looks for it, and
every package name the benchmark reads exists: each name it imports from
the package and each attribute it reads off one."""

import ast
import contextlib
import importlib
import os
import subprocess
import sys
import types

from .conftest import GRAPH_DIR

SRC = GRAPH_DIR.parent / "src"
PACKAGE = "feedback_centrality"


def test_import_pulls_in_neither_numba_nor_scipy():
    code = (
        "import sys; import feedback_centrality, feedback_centrality.cli; "
        "print(sorted(m for m in ('numba', 'scipy') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert out.stdout.strip() == "[]"


def test_traced_functions_resolve():
    from perfbench.tracer import PACKAGE, traced_names

    for qualname in traced_names():
        mod_name, fn = qualname.split(".")
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        assert callable(getattr(module, fn, None)), qualname


def _chain(node: ast.AST) -> list[str] | None:
    """The names of a pure attribute chain ``a.b.c``, or None."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = _chain(node.value)
        return None if head is None else [*head, node.attr]
    return None


def _benchmark_reads(tree: ast.AST) -> set[str]:
    """The dotted package names a module reads: every name it imports from
    the package, and every attribute chain it reads off a name bound to the
    package, one of its modules or one of its names."""
    bound: dict[str, str] = {}  # local name -> dotted package name
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    reads.add(alias.name)
                    bound[alias.asname or PACKAGE] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            for alias in node.names:
                reads.add(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        names = _chain(node) if isinstance(node, ast.Attribute) else None
        if names and names[0] in bound:
            reads.add(".".join([bound[names[0]], *names[1:]]))
    return reads


def _resolves(dotted: str) -> bool:
    """Whether the dotted package name exists, importing submodules."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            with contextlib.suppress(ModuleNotFoundError):  # a submodule not imported yet
                importlib.import_module(".".join(parts[:k]))
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_package_names_the_benchmark_uses_exist():
    # perfbench is outside the tier-1 test paths, so a rename or deletion of
    # a name it reads would otherwise go unnoticed until the benchmark runs
    used = {
        name
        for path in sorted((GRAPH_DIR.parent / "perfbench").glob("*.py"))
        for name in _benchmark_reads(ast.parse(path.read_text(), filename=str(path)))
    }
    assert len(used) >= 27
    missing = sorted(name for name in used if not _resolves(name))
    assert missing == []


def test_benchmark_name_scan_sees_module_imports_and_their_attributes():
    tree = ast.parse(
        "import feedback_centrality as fc\n"
        "def stamp():\n"
        "    from feedback_centrality import _kernels\n"
        "    return _kernels.NUMBA_ENABLED, fc.Mode.FLOAT\n"
    )
    assert _benchmark_reads(tree) == {
        "feedback_centrality",
        "feedback_centrality.Mode",
        "feedback_centrality.Mode.FLOAT",
        "feedback_centrality._kernels",
        "feedback_centrality._kernels.NUMBA_ENABLED",
    }
    assert _resolves("feedback_centrality.cli.main")
    assert not _resolves("feedback_centrality.Mode.COMPLEX")
    assert not _resolves("feedback_centrality._no_such_module.X")


def test_measures_binds_classify_by_name():
    # the tracer rebinds graph.classify in every module that imported it
    from feedback_centrality import graph, measures

    assert measures.classify is graph.classify
