"""Import-time guards: the package and its CLI load on numpy alone, every
function the benchmark traces exists where the tracer looks for it, and
every package name the benchmark reads exists."""

import importlib
import os
import re
import subprocess
import sys

from .conftest import GRAPH_DIR

SRC = GRAPH_DIR.parent / "src"


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


def test_package_names_the_benchmark_uses_exist():
    # perfbench is outside the tier-1 test paths, so a rename or deletion of
    # a name it reads would otherwise go unnoticed until the benchmark runs
    import feedback_centrality
    import feedback_centrality.cli

    modules = {"fc": feedback_centrality, "fc_cli": feedback_centrality.cli}
    used = {
        match
        for path in (GRAPH_DIR.parent / "perfbench").glob("*.py")
        for match in re.findall(r"\b(fc|fc_cli)\.(\w+)", path.read_text())
    }
    assert len(used) >= 27
    missing = sorted(f"{alias}.{attr}" for alias, attr in used
                     if not hasattr(modules[alias], attr))
    assert missing == []


def test_measures_binds_classify_by_name():
    # the tracer rebinds graph.classify in every module that imported it
    from feedback_centrality import graph, measures

    assert measures.classify is graph.classify
