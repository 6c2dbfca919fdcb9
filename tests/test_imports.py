"""Import-time guard: the package and its CLI load on numpy alone."""

import os
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
