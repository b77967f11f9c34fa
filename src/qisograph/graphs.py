"""Finite directed graphs with range/source maps, path words, and
hypothesis validation.

Vertices and edges carry string ids.  An edge is stored as an
(id, range, source) triple and points from its source vertex to its
range vertex.  A degree-k path is a word of k composable edges; the
degree-0 paths are the vertices themselves, so every basis object
downstream (cylinder sets, level spaces, corepresentation matrices) is
indexed uniformly by path words.  The path operators S_lam and
S_lam* are each given by their nonzero (path, image) pairs on a level
(``s_pairs``, ``s_star_pairs``), and ``refine`` gives the cylinder
refinement lam -> {lam mu}.  ``basis_index`` numbers each level's paths
and ``shift_map`` gives S_lam and S_lam* on those numbers; both are
built once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple


class GraphFormatError(ValueError):
    """Raised on malformed graph files; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonComposableError(ValueError):
    pass


@dataclass(frozen=True)
class Edge:
    id: str
    range: str
    source: str


@dataclass(frozen=True)
class DirectedGraph:
    """Built by ``parse_graph``, which rejects duplicate ids and
    undeclared vertices."""

    name: str
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges, key=lambda e: e.id))

    @cached_property
    def edges_into(self) -> dict[str, tuple[Edge, ...]]:
        """Edges e with r(e) = v, in edge-id order."""
        out = {v: [] for v in self.vertices}
        for e in self.sorted_edges:
            out[e.range].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def edges_out_of(self) -> dict[str, tuple[Edge, ...]]:
        """Edges e with s(e) = v, in edge-id order."""
        out = {v: [] for v in self.vertices}
        for e in self.sorted_edges:
            out[e.source].append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def memo(self) -> dict:
        """Derived values, freed with the graph: ("paths", k, v) -> the
        degree-k paths with range v; ("basis index", k) -> each degree-k
        path's position in enumerate_paths order; ("shift", kind, lam, k)
        -> the shift map of S_lam (kind "s") or S_lam* ("s*") on the
        degree-k basis, as (source position, target position) pairs.  The
        level tables of ``corep`` and the path maps of ``hilbert`` both
        read the last two.  ("automorphisms",) -> Aut(G)."""
        return {}

    @cached_property
    def range_source_pairs(self) -> frozenset[tuple[str, str]]:
        """The set of (r(e), s(e)) pairs."""
        return frozenset((e.range, e.source) for e in self.edges)

    def range_of(self, edge_id: str) -> str:
        return self.edge_by_id[edge_id].range

    def source_of(self, edge_id: str) -> str:
        return self.edge_by_id[edge_id].source


def parse_graph(text: str) -> DirectedGraph:
    """Parse the graph file format.

    Lines: ``graph <name>``, ``v <id>``, ``e <id> <range> <source>``;
    ``#`` starts a comment.  The edge points from its source to its
    range.
    """
    name = None
    vertices: list[str] = []
    edges: list[Edge] = []
    vset: set[str] = set()
    eset: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "graph":
            if len(parts) != 2:
                raise GraphFormatError("expected 'graph <name>'", lineno)
            if name is not None:
                raise GraphFormatError("duplicate 'graph' line", lineno)
            name = parts[1]
        elif kind == "v":
            if len(parts) != 2:
                raise GraphFormatError("expected 'v <id>'", lineno)
            if parts[1] in vset:
                raise GraphFormatError(f"duplicate vertex id {parts[1]!r}", lineno)
            vset.add(parts[1])
            vertices.append(parts[1])
        elif kind == "e":
            if len(parts) != 4:
                raise GraphFormatError("expected 'e <id> <range> <source>'", lineno)
            eid, rng, src = parts[1], parts[2], parts[3]
            if eid in eset:
                raise GraphFormatError(f"duplicate edge id {eid!r}", lineno)
            if rng not in vset:
                raise GraphFormatError(f"edge {eid!r} references undeclared vertex {rng!r}", lineno)
            if src not in vset:
                raise GraphFormatError(f"edge {eid!r} references undeclared vertex {src!r}", lineno)
            eset.add(eid)
            edges.append(Edge(eid, rng, src))
        else:
            raise GraphFormatError(f"unknown directive {kind!r}", lineno)
    if name is None:
        raise GraphFormatError("missing 'graph <name>' line", 1)
    if not vertices:
        raise GraphFormatError("no vertices", 1)
    return DirectedGraph(name, tuple(vertices), tuple(edges))


# ---------------------------------------------------------------------------
# validation

#: profile name -> the hypotheses it requires.  aut-plus needs all four
#: for the quantum automorphism relations; strong connectivity and
#: sourcelessness are enough for the path-space spectral triple.
PROFILES = {
    "aut-plus": ("strongly-connected", "no-loops", "no-multiple-edges", "no-sources"),
    "spectral-triple": ("strongly-connected", "no-sources"),
}


def _reachable_from(g: DirectedGraph, start: str) -> set[str]:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for e in g.edges_out_of[v]:
            if e.range not in seen:
                seen.add(e.range)
                frontier.append(e.range)
    return seen


def is_strongly_connected(g: DirectedGraph) -> tuple[bool, str | None]:
    for v in g.vertices:
        reach = _reachable_from(g, v)
        for w in g.vertices:
            if w not in reach:
                return False, f"no path from {v} to {w}"
    return True, None


def hypothesis_witnesses(g: DirectedGraph) -> dict[str, str | None]:
    """Each of the four hypotheses, in report order, with a witness of
    its failure, or None when it holds."""
    _, connectivity = is_strongly_connected(g)

    loop = next((e.id for e in g.sorted_edges if e.range == e.source), None)

    pair_seen: dict[tuple[str, str], str] = {}
    dup = None
    for e in g.sorted_edges:
        key = (e.range, e.source)
        if key in pair_seen:
            dup = f"edges {pair_seen[key]} and {e.id} both join {e.source} to {e.range}"
            break
        pair_seen[key] = e.id

    # a source is a vertex receiving no edge; it breaks the Cuntz-Krieger sum
    src = next((v for v in g.vertices if not g.edges_into[v]), None)

    return {"strongly-connected": connectivity, "no-loops": loop,
            "no-multiple-edges": dup, "no-sources": src}


def adjacency_matrix(g: DirectedGraph) -> list[list[int]]:
    """A[v][w] counts edges with r(e) = v and s(e) = w (vertex order).

    With this convention right-multiplication by the Perron vector
    matches source-side path extension counts exactly.
    """
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g.vertices)
    a = [[0] * n for _ in range(n)]
    for e in g.edges:
        a[idx[e.range]][idx[e.source]] += 1
    return a


# ---------------------------------------------------------------------------
# paths

class Path(NamedTuple):
    """Composable edge word; degree-0 paths are vertices.  Ordered,
    hashed and compared as the tuple (edges, range, source)."""

    edges: tuple[str, ...]
    range: str
    source: str

    @property
    def degree(self) -> int:
        return len(self.edges)

    @property
    def label(self) -> str:
        return ".".join(self.edges) if self.edges else self.range


def vertex_path(v: str) -> Path:
    return Path((), v, v)


def edge_path(g: DirectedGraph, edge_id: str) -> Path:
    e = g.edge_by_id[edge_id]
    return Path((e.id,), e.range, e.source)


def path_from_edges(g: DirectedGraph, edge_ids: tuple[str, ...]) -> Path:
    if not edge_ids:
        raise ValueError("use vertex_path for degree-0 paths")
    es = [g.edge_by_id[i] for i in edge_ids]
    for a, b in zip(es, es[1:]):
        if b.range != a.source:
            raise NonComposableError(f"edges {a.id} and {b.id} are not composable")
    return Path(tuple(edge_ids), es[0].range, es[-1].source)


def compose(lam: Path, mu: Path) -> Path:
    """Composition λμ, defined when s(λ) = r(μ); degree adds."""
    if lam.source != mu.range:
        raise NonComposableError(
            f"s({lam.label}) = {lam.source} != r({mu.label}) = {mu.range}")
    if lam.degree == 0:
        return mu
    if mu.degree == 0:
        return lam
    return Path(lam.edges + mu.edges, lam.range, mu.source)


def extends(longer: Path, shorter: Path) -> bool:
    """Whether *longer* has *shorter* as its initial (range-side)
    segment, i.e. the cylinder [longer] lies inside [shorter]."""
    if shorter.degree == 0:
        return longer.range == shorter.range
    return longer.edges[:shorter.degree] == shorter.edges


def _paths_with_range(g: DirectedGraph, k: int, v: str) -> tuple[Path, ...]:
    """Degree-k paths with range v, lexicographic in the edge-id word.
    The graph's memo holds them for every vertex at levels 0 to some
    top; a missing level is built with every level between it and the
    top, one level at a time for every vertex, without recursion."""
    top = next((j for j in range(k, -1, -1) if ("paths", j, v) in g.memo), -1)
    for j in range(top + 1, k + 1):
        for u in g.vertices:
            g.memo["paths", j, u] = (vertex_path(u),) if j == 0 else tuple(
                Path((e.id,) + tail.edges, u, tail.source)
                for e in g.edges_into[u] for tail in g.memo["paths", j - 1, e.source])
    return g.memo["paths", k, v]


def s_pairs(g: DirectedGraph, lam: Path, k: int) -> list[tuple[Path, Path]]:
    """The pairs (eta, S_lam eta) over the degree-k paths eta that S_lam
    does not kill, in basis order: eta has range s(lam) and goes to
    lam eta."""
    return [(eta, compose(lam, eta)) for eta in _paths_with_range(g, k, lam.source)]


def s_star_pairs(g: DirectedGraph, lam: Path, k: int) -> list[tuple[Path, Path]]:
    """The pairs (eta, S_lam* eta) over the degree-k paths eta that
    S_lam* does not kill, in basis order: lam mu goes to mu when k
    exceeds d(lam); otherwise the degree-k initial segment of lam goes
    to the vertex s(lam)."""
    n = lam.degree
    if k > n:
        return [(compose(lam, mu), mu) for mu in _paths_with_range(g, k - n, lam.source)]
    head = path_from_edges(g, lam.edges[:k]) if k else vertex_path(lam.range)
    return [(head, vertex_path(lam.source))]


def enumerate_paths(g: DirectedGraph, k: int) -> list[Path]:
    """All degree-k paths; vertices for k=0, else lexicographic by edge word."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return [vertex_path(v) for v in g.vertices]
    out = []
    for e in g.sorted_edges:
        for tail in _paths_with_range(g, k - 1, e.source):
            out.append(Path((e.id,) + tail.edges, e.range, tail.source))
    return out


def basis_index(g: DirectedGraph, k: int) -> dict[Path, int]:
    """Position of each degree-k path in enumerate_paths order, built
    once per graph and level; its keys, in order, are the basis."""
    key = ("basis index", k)
    index = g.memo.get(key)
    if index is None:
        index = g.memo[key] = {p: i for i, p in enumerate(enumerate_paths(g, k))}
    return index


def shift_map(g: DirectedGraph, kind: str, lam: Path, k: int) -> tuple[tuple[int, int], ...]:
    """S_lam (*kind* "s") or S_lam* ("s*") on the degree-k basis: the
    pairs of ``s_pairs`` or ``s_star_pairs`` as (source position, target
    position) pairs in the two levels' basis indexes, built once per
    graph.  The source-append refinements of lam by n are the targets
    of shift_map(g, "s", lam, n), in ``refine`` order."""
    key = ("shift", kind, lam, k)
    pairs = g.memo.get(key)
    if pairs is None:
        if kind == "s":
            path_pairs, out = s_pairs(g, lam, k), k + lam.degree
        else:
            path_pairs, out = s_star_pairs(g, lam, k), max(k - lam.degree, 0)
        src, tgt = basis_index(g, k), basis_index(g, out)
        pairs = g.memo[key] = tuple((src[eta], tgt[image]) for eta, image in path_pairs)
    return pairs


#: Refinement conventions; the measure-additivity test selects the
#: consistent one (source-append for the cylinder semantics used here).
SOURCE_APPEND = "source-append"
RANGE_PREPEND = "range-prepend"
CONVENTIONS = (SOURCE_APPEND, RANGE_PREPEND)


def refine(g: DirectedGraph, lam: Path, n: int, side: str) -> list[Path]:
    """Degree-(d+n) paths extending λ on the chosen side.

    source-append yields {λμ : d(μ)=n, r(μ)=s(λ)}; range-prepend yields
    {μλ : d(μ)=n, s(μ)=r(λ)}.
    """
    if n < 0:
        raise ValueError("refinement depth must be nonnegative")
    if n == 0:
        return [lam]
    if side == SOURCE_APPEND:
        return [compose(lam, mu) for mu in _paths_with_range(g, n, lam.source)]
    if side == RANGE_PREPEND:
        return [compose(mu, lam) for mu in enumerate_paths(g, n) if mu.source == lam.range]
    raise ValueError(f"unknown refinement side {side!r}")


def graph_automorphisms(g: DirectedGraph, limit: int | None = None) -> tuple[dict[str, str], ...]:
    """Vertex permutations preserving every edge-pair multiplicity, in
    the lexicographic order of their image tuples (vertex order),
    enumerated once per graph (kept in ``g.memo``).

    With *limit*, the enumeration stops at the first limit + 1 maps, so
    a result longer than *limit* is a prefix of the group and says only
    that the group is larger; only a complete enumeration is kept.

    Backtracking: vertices are assigned in vertex order, each to an
    unused vertex with the same (in-degree, out-degree, loop count),
    and a partial map is abandoned as soon as it changes the number of
    edges between two assigned vertices.
    """
    if ("automorphisms",) in g.memo:
        return g.memo[("automorphisms",)]
    pair_counts: dict[tuple[str, str], int] = {}
    for e in g.edges:
        key = (e.range, e.source)
        pair_counts[key] = pair_counts.get(key, 0) + 1

    def count(r: str, s: str) -> int:
        return pair_counts.get((r, s), 0)

    order = g.vertices
    kind = {v: (len(g.edges_into[v]), len(g.edges_out_of[v]), count(v, v)) for v in order}
    sigma: dict[str, str] = {}

    def extend(i: int):
        if i == len(order):
            yield dict(sigma)
            return
        v = order[i]
        used = set(sigma.values())
        for c in order:
            if c in used or kind[c] != kind[v]:
                continue
            if all(count(v, u) == count(c, su) and count(u, v) == count(su, c)
                   for u, su in sigma.items()):
                sigma[v] = c
                yield from extend(i + 1)
                del sigma[v]

    autos = tuple(islice(extend(0), None if limit is None else limit + 1))
    if limit is None or len(autos) <= limit:
        g.memo[("automorphisms",)] = autos
    return autos
