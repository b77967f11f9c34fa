"""Set-up probe: import the package and build a workload's inputs through
its public functions, then exit without running any check.

Usage: ``python3 setup_probe.py <command>=<graph-file> ...``, one pair
per CLI invocation of the workload.  The harness times this process from
launch to exit.
"""

from __future__ import annotations

import sys

from qisograph.graphs import parse_graph
from qisograph.perron import perron, select_convention
from qisograph.providers import classical_rep, loop_permutation_rep, unitary_provider_portfolio
from qisograph.relations import free_unitary_relations, magic_relations, qaut_relations


def build(command: str, text: str):
    g = parse_graph(text)
    pf = perron(g)
    select_convention(pf, g)
    if command == "verify":
        rels = qaut_relations(g, pf)
        return [classical_rep(g, rels)]              # registers against rels
    if command == "cuntz":
        ids = tuple(e.id for e in g.sorted_edges)
        magic = magic_relations(ids)
        return [loop_permutation_rep(ids, magic),
                *unitary_provider_portfolio(ids, free_unitary_relations(ids))]
    return []


def main(argv: list[str]) -> int:
    for item in argv:
        command, _, path = item.partition("=")
        with open(path) as fh:
            build(command, fh.read())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
