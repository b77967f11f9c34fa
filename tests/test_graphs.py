import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qisograph.graphs import (
    PROFILES, RANGE_PREPEND, SOURCE_APPEND, GraphFormatError, NonComposableError,
    adjacency_matrix, compose, edge_path, enumerate_paths, extends, graph_automorphisms,
    hypothesis_witnesses, parse_graph, path_from_edges, refine, s_pairs, s_star_pairs,
    shift_map, vertex_path,
)

GRAPH_DIR = Path(__file__).resolve().parent.parent / "graphs"


def test_parse_three_cycle(graphs):
    g = graphs["three-cycle"]
    assert len(g.vertices) == 3 and len(g.edges) == 3
    assert g.vertices == ("1", "2", "3")
    e = g.edge_by_id["a"]
    assert (e.range, e.source) == ("2", "1")


def test_parse_k3(graphs):
    g = graphs["k3"]
    assert len(g.vertices) == 3 and len(g.edges) == 6


def test_parse_preserves_file_order():
    g = parse_graph("graph t\nv z\nv a\ne e1 a z\n")
    assert g.vertices == ("z", "a")


def test_parse_undeclared_vertex_error():
    text = "graph bad\nv 1\nv 2\nv 3\ne x 1 4\n"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert "4" in str(exc.value) and "line 5" in str(exc.value)


def test_parse_duplicate_ids_error():
    with pytest.raises(GraphFormatError):
        parse_graph("graph bad\nv 1\nv 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph("graph bad\nv 1\ne x 1 1\ne x 1 1\n")


def test_parse_syntax_error_carries_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_graph("graph t\nv 1\nbogus line here\n")
    assert exc.value.line == 3


def _brute_force_reachable(g, start):
    seen = {start}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            if e.source in seen and e.range not in seen:
                seen.add(e.range)
                changed = True
    return seen


def _holds(g, profile: str) -> bool:
    witnesses = hypothesis_witnesses(g)
    return all(witnesses[h] is None for h in PROFILES[profile])


def test_validate_k3_aut_plus(graphs):
    g = graphs["k3"]
    assert _holds(g, "aut-plus")
    # reachability oracle: every ordered pair joined by a path
    for v in g.vertices:
        assert _brute_force_reachable(g, v) == set(g.vertices)


def test_validate_cuntz_profiles(graphs):
    g = graphs["cuntz2"]
    assert not _holds(g, "aut-plus")
    assert hypothesis_witnesses(g)["no-loops"] in ("l1", "l2")
    assert _holds(g, "spectral-triple")


def test_validate_witnesses():
    g = parse_graph("graph t\nv 1\nv 2\ne a 2 1\n")  # 2 unreachable back to 1
    witnesses = hypothesis_witnesses(g)
    assert list(witnesses) == list(PROFILES["aut-plus"])
    assert "2 to 1" in witnesses["strongly-connected"]
    assert witnesses["no-sources"] == "1"


def test_adjacency_matrices(graphs):
    assert adjacency_matrix(graphs["three-cycle"]) == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    assert adjacency_matrix(graphs["k3"]) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert adjacency_matrix(graphs["cuntz2"]) == [[2]]


def test_enumerate_paths_counts(graphs):
    assert len(enumerate_paths(graphs["three-cycle"], 5)) == 3
    assert len(enumerate_paths(graphs["k3"], 2)) == 12
    for name in ("three-cycle", "k3", "asym4", "cuntz2"):
        g = graphs[name]
        assert enumerate_paths(g, 0) == [vertex_path(v) for v in g.vertices]


def test_enumerate_k3_brute_force_oracle(graphs):
    g = graphs["k3"]
    # brute force: all 2-letter edge words with matching endpoints
    words = [(e.id, f.id) for e in g.edges for f in g.edges if f.range == e.source]
    assert len(words) == 12
    assert sorted(words) == [p.edges for p in enumerate_paths(g, 2)]


def test_enumerate_lexicographic(graphs):
    g = graphs["k3"]
    seqs = [p.edges for p in enumerate_paths(g, 3)]
    assert seqs == sorted(seqs)


def test_cold_high_degree_paths_run_under_a_low_recursion_limit():
    """The path lists are built bottom-up, one level at a time for every
    vertex, so a cold call at a degree far above the recursion limit
    runs, and on a fresh graph a cold call lists what a warm one does."""
    cycle = parse_graph((GRAPH_DIR / "three_cycle.g").read_text())
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        paths = enumerate_paths(cycle, 1000)
    finally:
        sys.setrecursionlimit(limit)
    # the only paths run backwards round the cycle: a, then c, then b, ...
    walk = "acb" * 334
    assert [p.edges for p in paths] == [tuple(walk[i:i + 1000]) for i in (0, 2, 1)]
    assert all(path_from_edges(cycle, p.edges) == p for p in paths)
    text = (GRAPH_DIR / "k3.g").read_text()
    cold, warm = parse_graph(text), parse_graph(text)
    for k in range(5):
        enumerate_paths(warm, k)
    assert enumerate_paths(cold, 4) == enumerate_paths(warm, 4)


def test_path_count_matches_adjacency_power(graphs):
    from qisograph.hilbert import path_counts
    for name in ("three-cycle", "k3", "asym4", "cuntz2", "cuntz3"):
        g = graphs[name]
        counts = path_counts(g, 8)
        for k in range(9):
            assert counts[k] == len(enumerate_paths(g, k))


def test_compose_unit_and_degree(graphs):
    g = graphs["k3"]
    mu = edge_path(g, "e12")
    v = vertex_path(mu.range)
    assert compose(v, mu) == mu
    assert compose(mu, vertex_path(mu.source)) == mu
    lam = edge_path(g, "e23")  # r=3, s=2: composable after e12 (s=1)? no
    with pytest.raises(NonComposableError):
        compose(lam, edge_path(g, "e23"))


def test_compose_definition(graphs):
    g = graphs["k3"]
    # edge 1->2 read as r=2,s=1 composed with 2->3 as r=3,s=2:
    # e12 has source 1, so the path starting at range 1... the paper's
    # convention composes lam mu with s(lam) = r(mu).
    lam = edge_path(g, "e21")  # r=1, s=2
    mu = edge_path(g, "e32")   # r=2, s=3
    out = compose(lam, mu)
    assert out.degree == 2 and out.range == "1" and out.source == "3"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_associative(graphs, data):
    g = graphs["k3"]
    paths = enumerate_paths(g, 3)
    p = data.draw(st.sampled_from(paths))
    i = data.draw(st.integers(0, 3))
    j = data.draw(st.integers(0, 3))
    lo, hi = min(i, j), max(i, j)

    def seg(a, b):
        if a == b:
            src = p.source if b == p.degree else g.range_of(p.edges[b])
            return vertex_path(src)
        return path_from_edges(g, p.edges[a:b])

    a, b, c = seg(0, lo), seg(lo, hi), seg(hi, p.degree)
    assert compose(compose(a, b), c) == compose(a, compose(b, c)) == p


def test_refine_examples(graphs):
    k3, g3 = graphs["k3"], graphs["three-cycle"]
    lam = edge_path(k3, "e12")
    out = refine(k3, lam, 1, SOURCE_APPEND)
    assert len(out) == 2 and all(p.degree == 2 for p in out)
    lam3 = edge_path(g3, "a")
    for side in (SOURCE_APPEND, RANGE_PREPEND):
        assert len(refine(g3, lam3, 3, side)) == 1
    assert refine(k3, lam, 0, SOURCE_APPEND) == [lam]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_refine_is_partition_indexwise(graphs, data):
    name = data.draw(st.sampled_from(["k3", "asym4", "three-cycle"]))
    g = graphs[name]
    d = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(0, 2))
    side = data.draw(st.sampled_from([SOURCE_APPEND, RANGE_PREPEND]))
    lam = data.draw(st.sampled_from(enumerate_paths(g, d)))
    out = refine(g, lam, n, side)
    assert len(set(out)) == len(out)
    # every degree-(d+n) path extending lam on the chosen side appears once
    for p in enumerate_paths(g, d + n):
        if side == SOURCE_APPEND:
            covered = p.edges[:d] == lam.edges if d else p.range == lam.range
        else:
            covered = p.edges[n:] == lam.edges if d else p.source == lam.source
        assert (p in out) == covered


def test_automorphism_counts(graphs):
    assert len(graph_automorphisms(graphs["three-cycle"])) == 3
    assert len(graph_automorphisms(graphs["k3"])) == 6
    assert len(graph_automorphisms(graphs["asym4"])) == 1
    assert len(graph_automorphisms(graphs["two-cycle"])) == 2


def test_automorphisms_enumerated_once_per_graph(perron_data):
    from qisograph.providers import classical_rep
    from qisograph.relations import qaut_relations
    g = parse_graph((GRAPH_DIR / "k3.g").read_text())   # fresh: nothing memoised yet
    stored = []

    class CountingMemo(dict):
        def __setitem__(self, key, value):
            stored.append(key)
            super().__setitem__(key, value)

    g.__dict__["memo"] = CountingMemo()
    rels = qaut_relations(g, perron_data["k3"])
    classical_rep(g, rels)
    assert stored.count(("automorphisms",)) == 1


def _complete_graph(n: int) -> str:
    ids = [str(v) for v in range(1, n + 1)]
    return f"graph k{n}\n" + "".join(f"v {v}\n" for v in ids) + "".join(
        f"e e{r}{s} {r} {s}\n" for s in ids for r in ids if r != s)


def test_automorphisms_match_brute_force(graphs):
    from oracles import brute_force_automorphisms
    cycle8 = "graph cycle8\n" + "".join(f"v {i}\n" for i in range(1, 9)) + "".join(
        f"e e{i} {i % 8 + 1} {i}\n" for i in range(1, 9))
    extra = [parse_graph(text) for text in (_complete_graph(4), _complete_graph(5), cycle8)]
    for g in list(graphs.values()) + extra:
        found = graph_automorphisms(g)
        # same maps, same order, each keyed in vertex order
        assert [list(s.items()) for s in found] == [
            list(s.items()) for s in brute_force_automorphisms(g)], g.name
    assert [len(graph_automorphisms(g)) for g in extra] == [24, 120, 8]


def test_bounded_automorphism_enumeration_keeps_only_a_complete_group():
    k5 = parse_graph(_complete_graph(5))
    prefix = graph_automorphisms(k5, 10)
    assert len(prefix) == 11 and ("automorphisms",) not in k5.memo
    autos = graph_automorphisms(k5, 120)
    assert len(autos) == 120 and autos[:11] == prefix
    # a complete group is kept, and answers any later bound
    assert graph_automorphisms(k5, 10) is autos is graph_automorphisms(k5)


def test_graph_caches_die_with_the_graph():
    import gc
    import weakref
    # a name of its own, so the graph equals no other graph in the session
    text = (GRAPH_DIR / "k3.g").read_text().replace("graph k3", "graph k3-dropped")
    for derive in (lambda g: enumerate_paths(g, 3), graph_automorphisms,
                   lambda g: shift_map(g, "s*", edge_path(g, "e12"), 2)):
        g = parse_graph(text)
        derive(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None, derive


def test_path_pairs_match_definition_and_dense_representation(graphs, perron_data):
    # the pairs of S_lam and S_lam* on each level, against the definition
    # tried on every basis path and against the support of the dense matrix
    from qisograph.hilbert import represent
    g, pf = graphs["k3"], perron_data["k3"]
    for d in (0, 1, 2):
        for lam in enumerate_paths(g, d):
            for k in range(4):
                basis = enumerate_paths(g, k)
                rests = enumerate_paths(g, max(k - d, 0))
                star = [(eta, next(mu for mu in rests
                                   if mu.range == lam.source and compose(lam, mu) == eta))
                        if k >= d else (eta, vertex_path(lam.source))
                        for eta in basis
                        if (extends(eta, lam) if k >= d else extends(lam, eta))]
                assert s_star_pairs(g, lam, k) == star, (lam, k)
                assert s_pairs(g, lam, k) == [(eta, compose(lam, eta)) for eta in basis
                                              if eta.range == lam.source], (lam, k)
                ops = [("s*", s_star_pairs)] + ([("s", s_pairs)] if k + d <= 3 else [])
                for kind, pairs in ops:
                    m = represent(g, pf, [(kind, lam)], k, 3)
                    targets = enumerate_paths(g, m.target_level)
                    support = {(eta, targets[i]) for j, eta in enumerate(basis)
                               for i, row in enumerate(m.mat) if row[j]}
                    assert support == set(pairs(g, lam, k)), (kind, lam, k)
                for eta, out in s_pairs(g, lam, k):   # S_lam* S_lam = p_{s(lam)}
                    assert dict(s_star_pairs(g, lam, k + d))[out] == eta
