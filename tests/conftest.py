from pathlib import Path

import pytest

from feedback_centrality import Mode, parse_graph

GRAPH_DIR = Path(__file__).resolve().parent.parent / "graphs"


def _load(name: str, mode: Mode):
    return parse_graph((GRAPH_DIR / name).read_text(), mode)


@pytest.fixture
def demo5():
    """Five-node out-regular sample; stationary values are thirteenths."""
    return _load("demo5.dg", Mode.RATIONAL)


@pytest.fixture
def demo5_float():
    return _load("demo5.dg", Mode.FLOAT)


@pytest.fixture
def demo6():
    """Six-node out-regular sample; stationary values are sixteenths."""
    return _load("demo6.dg", Mode.RATIONAL)


@pytest.fixture
def demo6_float():
    return _load("demo6.dg", Mode.FLOAT)
