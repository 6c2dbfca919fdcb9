"""Golden CLI transcripts: exact-mode commands on the demo graphs, replayed
byte for byte.

Each case runs ``fbcent`` through ``main()`` and compares its exit code,
stdout, stderr and every file it writes with ``tests/golden/<case>.txt``.
Temporary and repository paths appear there as ``<tmp>`` and ``<repo>``.
Float mode is left out: its last digits depend on the LAPACK build.

After a deliberate change of output, rewrite the expected files with
``PYTHONPATH=src python -m tests.test_cli_golden`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from feedback_centrality.cli import main

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# demo graph -> (a node, a second node) used by the node-addressed transforms
DEMOS = {"demo5": ("v1", "v2"), "demo6": ("a", "b")}


def _commands(demo: str) -> dict[str, list[list[str]]]:
    src = str(REPO / "graphs" / f"{demo}.dg")
    u, w = DEMOS[demo]
    sim = ["simulate", "--input", src, "--mode", "rational", "--process", "distributed"]
    sim_parallel = ["simulate", "--input", src, "--mode", "rational", "--process", "parallel"]
    return {
        "centrality-pr": [["centrality", "--input", src, "--measure", "pr"]],
        "centrality-pr-half": [
            ["centrality", "--input", src, "--measure", "pr", "--alpha", "1/2"]
        ],
        "centrality-katz": [
            ["centrality", "--input", src, "--measure", "katz", "--alpha", "1/10"]
        ],
        "centrality-kp": [["centrality", "--input", src, "--measure", "kp"]],
        "classify": [["classify", "--input", src]],
        "classify-alpha": [["classify", "--input", src, "--alpha", "1/10"]],
        "simulate-half": [sim + ["--alpha", "1/2", "--steps", "12"]],
        "simulate-one": [sim + ["--alpha", "1", "--steps", "12"]],
        "simulate-parallel": [sim_parallel + ["--alpha", "1/10", "--steps", "12"]],
        "transform-em": [
            ["transform", "em", "--input", src, "--node", u, "--factor", "3"]
        ],
        "transform-ec": [
            ["transform", "ec", "--input", src, "--node", u, "--factor", "2/3"]
        ],
        "transform-opposite": [["transform", "opposite", "--input", src]],
        "transform-normalize": [["transform", "normalize", "--input", src]],
        "transform-combine": [
            ["transform", "combine", "--input", src, "--nodes", f"{u},{w}",
             "--values", "1,3"]
        ],
        "euler-round-trip": [
            ["euler-construct", "--input", src, "--output", "{tmp}/cycle.dg"],
            ["transform", "combine-groups", "--input", "{tmp}/cycle.dg",
             "--groups", "{tmp}/cycle.dg.groups"],
        ],
    }


CASES = {
    f"{demo}-{name}": argvs for demo in DEMOS for name, argvs in _commands(demo).items()
}


def transcript(argvs: list[list[str]], tmp: Path) -> str:
    """Run each command in ``tmp`` and record everything it shows or writes."""
    parts = []
    for argv in argvs:
        argv = [a.replace("{tmp}", str(tmp)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        parts += [
            "$ fbcent " + " ".join(argv),
            f"exit {code}",
            "--- stdout",
            out.getvalue(),
            "--- stderr",
            err.getvalue(),
        ]
    for path in sorted(tmp.iterdir()):
        parts += [f"--- file {path}", path.read_text()]
    return "\n".join(parts).replace(str(tmp), "<tmp>").replace(str(REPO), "<repo>")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    expected = (GOLDEN_DIR / f"{case}.txt").read_text()
    assert transcript(CASES[case], tmp_path) == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argvs in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN_DIR / f"{case}.txt").write_text(transcript(argvs, Path(tmp)))
