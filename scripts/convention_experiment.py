#!/usr/bin/env python3
"""Which refinement orientation is the measure-consistent one?

For each bundled graph, print the worst additivity residual of both
refinement sides, then force the rejected side through the
well-definedness check on the asymmetric graph to show the suite
detects the difference.
"""

from pathlib import Path

from qisograph.corep import VERTEX_PAIR, VerificationContext, check_welldefined
from qisograph.graphs import RANGE_PREPEND, SOURCE_APPEND, parse_graph
from qisograph.perron import perron, select_convention
from qisograph.providers import classical_rep
from qisograph.relations import qaut_relations


GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def main():
    graphs = {g.name: g for g in (parse_graph(f.read_text())
                                  for f in sorted(GRAPHS.glob("*.g")))}
    print(f"{'graph':<12} {'append residual':>16} {'prepend residual':>17} {'adopted':>15}")
    for name, g in graphs.items():
        pf = perron(g)
        side, residuals = select_convention(pf, g)
        print(f"{name:<12} {str(residuals[SOURCE_APPEND]):>16} "
              f"{str(residuals[RANGE_PREPEND]):>17} {side:>15}")

    print("\nforcing the rejected side on the asymmetric graph:")
    g = graphs["asym4"]
    pf = perron(g)
    rels = qaut_relations(g, pf)
    ctx = VerificationContext(g, pf, rels, VERTEX_PAIR, [classical_rep(g, rels)], 3)
    for l, k in ((0, 1), (1, 2)):
        good = check_welldefined(ctx, l, k)
        bad = check_welldefined(ctx, l, k, convention=RANGE_PREPEND)
        print(f"  l={l} k={k}: adopted -> {good.verdict} (numeric {good.residuals['numeric']:.2e}); "
              f"forced prepend -> {bad.verdict} (numeric {bad.residuals['numeric']:.2e}, "
              f"gram {bad.residuals['embedding_gram']})")


if __name__ == "__main__":
    main()
