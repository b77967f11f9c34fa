"""The benchmark's workloads: seeded graph inputs and the CLI invocations
run on them.

Seed 0 uses the bundled ``graphs/*.g`` byte for byte; the K4 and 4-loop
graphs are written here, so the benchmark does not depend on any graph
catalogue inside the package.  Any other seed relabels vertex and edge
ids and shuffles the order of the vertex lines and of the edge lines,
afresh for each repetition of a run.  The result is isomorphic to the
seed-0 graph, so the verdicts the paper predicts hold for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

K4_TEXT = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)

LOOPS4_TEXT = "graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5))

#: graph key -> bundled file name, or None for a graph written above
GRAPHS = {
    "k3": "k3.g",
    "asym4": "asym4.g",
    "three_cycle": "three_cycle.g",
    "cuntz2": "cuntz2.g",
    "k4": None,
    "loops4": None,
}
_WRITTEN = {"k4": K4_TEXT, "loops4": LOOPS4_TEXT}

#: the refinement convention the measure rejects; forcing it is the
#: negative control
CONTROL_CONVENTION = "range-prepend"


@dataclass(frozen=True)
class GraphText:
    """A graph file as the benchmark reads it: vertices and
    ``(id, range, source)`` edges in file order."""

    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    @classmethod
    def parse(cls, text: str) -> "GraphText":
        name, vertices, edges = None, [], []
        for raw in text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "graph":
                name = parts[1]
            elif parts[0] == "v":
                vertices.append(parts[1])
            elif parts[0] == "e":
                edges.append((parts[1], parts[2], parts[3]))
            else:
                raise ValueError(f"unknown graph line {raw!r}")
        if name is None:
            raise ValueError("graph text has no 'graph' line")
        return cls(name, tuple(vertices), tuple(edges))

    def render(self) -> str:
        lines = [f"graph {self.name}"]
        lines += [f"v {v}" for v in self.vertices]
        lines += [f"e {e} {r} {s}" for e, r, s in self.edges]
        return "\n".join(lines) + "\n"

    def relabelled(self, rng: random.Random) -> "GraphText":
        """Fresh random ids for every vertex and edge, lines shuffled
        within the vertex block and within the edge block."""
        vmap = dict(zip(self.vertices, _fresh_ids(rng, "v", len(self.vertices))))
        emap = dict(zip((e for e, _, _ in self.edges), _fresh_ids(rng, "e", len(self.edges))))
        vertices = [vmap[v] for v in self.vertices]
        edges = [(emap[e], vmap[r], vmap[s]) for e, r, s in self.edges]
        rng.shuffle(vertices)
        rng.shuffle(edges)
        return GraphText(self.name, tuple(vertices), tuple(edges))

    # --- path counts, the only graph data the known answers need ---

    @property
    def n_paths2(self) -> int:
        """Composable edge pairs: sum over vertices of in-degree times
        out-degree."""
        indeg = {v: 0 for v in self.vertices}
        outdeg = {v: 0 for v in self.vertices}
        for _, r, s in self.edges:
            indeg[r] += 1
            outdeg[s] += 1
        return sum(indeg[v] * outdeg[v] for v in self.vertices)


def _fresh_ids(rng: random.Random, prefix: str, n: int) -> list[str]:
    ids: list[str] = []
    while len(ids) < n:
        new = f"{prefix}{rng.randrange(16 ** 5):05x}"
        if new not in ids:
            ids.append(new)
    return ids


def graph_text(root: Path, key: str, seed: int, rep: int = 0) -> str:
    """The graph file text for *key* in repetition *rep* of a run with
    *seed*.  Each repetition of a nonzero seed has its own labelling, so
    that a run's median spans several: the labelling alone moves the
    zero-search cost on k3 by about a tenth."""
    bundled = GRAPHS[key]
    text = (root / "graphs" / bundled).read_text() if bundled else _WRITTEN[key]
    if seed == 0:
        return text
    rng = random.Random(f"{seed}:{rep}:{key}")
    return GraphText.parse(text).relabelled(rng).render()


@dataclass(frozen=True)
class Invocation:
    """One CLI process: ``qisograph <command> --graph <file> <extra>``."""

    command: str
    graph: str
    extra: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return " ".join((self.command, self.graph) + self.extra)

    @property
    def kind(self) -> str:
        """What the invocation exercises: its command, or ``control``
        for the rejected-convention negative control."""
        return "control" if CONTROL_CONVENTION in self.extra else self.command


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]


WORKLOADS = {w.name: w for w in (
    # ~80% of the time is rewrite.is_zero: every zero-search change shows here
    Workload("verify-k3",
             (Invocation("verify", "k3", ("--level", "3", "--k", "2")),)),
    # trivial Aut(G): the search is small and the time goes to building
    # obligations and to provider norms; the range-prepend run is the
    # negative control and must exit 1
    Workload("verify-asym4",
             (Invocation("verify", "asym4", ("--level", "3", "--k", "2")),
              Invocation("verify", "asym4",
                         ("--level", "3", "--k", "2", "--convention", CONTROL_CONVENTION)))),
    # edge-index scheme, unitary schemas and a 24-dimensional permutation
    # provider: the memory and dense-numeric workload
    Workload("cuntz-loops",
             (Invocation("cuntz", "loops4", ("--level", "3", "--k", "2")),)),
    # no symbolic work: exact dense Fraction matrices in hilbert/ratmat
    Workload("spectral-stress",
             (Invocation("spectral", "k3", ("--level", "7")),
              Invocation("spectral", "k4", ("--level", "4")))),
)}

#: the harness self-test's small workload, never run by the driver
SMOKE = Workload("smoke",
                 (Invocation("verify", "three_cycle", ("--level", "3", "--k", "2")),
                  Invocation("cuntz", "cuntz2", ("--level", "3", "--k", "2"))))
