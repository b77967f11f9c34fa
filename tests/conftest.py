from pathlib import Path

import pytest

from qisograph.corep import VERTEX_PAIR, VerificationContext
from qisograph.graphs import parse_graph
from qisograph.perron import perron
from qisograph.providers import classical_rep
from qisograph.relations import qaut_relations


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", help="also run the tests marked slow")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: takes tens of seconds; runs with --run-slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow; run with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def graphs():
    """The bundled graph files, keyed by each file's graph name."""
    files = sorted((Path(__file__).resolve().parent.parent / "graphs").glob("*.g"))
    return {g.name: g for g in (parse_graph(f.read_text()) for f in files)}


@pytest.fixture(scope="session")
def perron_data(graphs):
    return {name: perron(g) for name, g in graphs.items()}


@pytest.fixture(scope="session")
def qaut_rels(graphs, perron_data):
    out = {}
    for name in ("three-cycle", "two-cycle", "k3", "asym4"):
        out[name] = qaut_relations(graphs[name], perron_data[name])
    return out


@pytest.fixture(scope="session")
def contexts(graphs, perron_data, qaut_rels):
    out = {}
    for name, rels in qaut_rels.items():
        g = graphs[name]
        out[name] = VerificationContext(
            g, perron_data[name], rels, VERTEX_PAIR, [classical_rep(g, rels)], 3)
    return out
