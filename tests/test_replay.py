"""Rows replayed along graph symmetries: the implementation and
KMS-invariance rows of an orbit under the path maps take the result of
the first row computed, and the suite's report and proof store are
those of a run that computes every row."""

import random
from dataclasses import replace
from pathlib import Path as FsPath

import pytest

from oracles import q_point_provider, stripped_rows, unreplayed_suite
from qisograph import corep
from qisograph.corep import (
    VERTEX_PAIR, VerificationContext, _orbit_maps, path_maps, run_identity_suite,
)
from qisograph.cuntz import MAGIC, cuntz_setup, sn_plus_context
from qisograph.graphs import Path, parse_graph
from qisograph.ncpoly import Generator
from qisograph.perron import perron
from qisograph.providers import classical_rep, fourier_unitary, permutation_diag_rep
from qisograph.relations import qaut_relations

GRAPHS = FsPath(__file__).resolve().parent.parent / "graphs"

K4 = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
LOOPS4 = "graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5))
UCYCLE8 = "graph ucycle8\n" + "".join(f"v {v}\n" for v in range(8)) + "".join(
    f"e e{r}_{s} {r} {s}\n" for r in range(8) for s in range(8) if (r - s) % 8 in (1, 7))
#: K5 without the directed 5-cycle 0->4->2->1->3->0
_CYCLE = {("0", "4"), ("4", "2"), ("2", "1"), ("1", "3"), ("3", "0")}
K5_MINUS_C5 = "graph k5-c5\n" + "".join(f"v {v}\n" for v in "01234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "01234" for r in "01234"
    if r != s and (s, r) not in _CYCLE)


def _relabelled(text: str, seed: int) -> str:
    """*text* with fresh vertex and edge ids and its vertex and edge
    lines shuffled: the same graph in another basis order."""
    rng = random.Random(seed)
    lines = text.splitlines()
    vertices = [line.split()[1] for line in lines if line.startswith("v ")]
    edges = [line.split()[1:] for line in lines if line.startswith("e ")]
    fresh = rng.sample(range(100, 1000), len(vertices) + len(edges))
    vmap = {v: f"v{n}" for v, n in zip(vertices, fresh)}
    emap = {e[0]: f"e{n}" for e, n in zip(edges, fresh[len(vertices):])}
    vlines = [f"v {vmap[v]}" for v in vertices]
    elines = [f"e {emap[e]} {vmap[r]} {vmap[s]}" for e, r, s in edges]
    rng.shuffle(vlines)
    rng.shuffle(elines)
    return "\n".join([lines[0], *vlines, *elines]) + "\n"


#: name -> (graph text, whether it runs the magic suite on its loops)
SUITES = {
    **{g.stem: (g.read_text(), g.stem.startswith("cuntz")) for g in sorted(GRAPHS.glob("*.g"))},
    "k4": (K4, False),
    "ucycle8": (UCYCLE8, False),
    "k5-c5": (K5_MINUS_C5, False),
    "loops4": (LOOPS4, True),
    "loops5": ("graph cuntz5\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 6)), True),
    "k3-relabelled": (_relabelled((GRAPHS / "k3.g").read_text(), 1), False),
    "loops4-relabelled": (_relabelled(LOOPS4, 2), True),
}


def _context(name: str) -> VerificationContext:
    """A fresh truncation-3 context: its own relation set, so its own
    proof store."""
    text, magic = SUITES[name]
    g = parse_graph(text)
    if magic:
        return sn_plus_context(cuntz_setup(g, MAGIC), 3)
    pf = perron(g)
    rels = qaut_relations(g, pf)
    return VerificationContext(g, pf, rels, VERTEX_PAIR, [classical_rep(g, rels)], 3)


_BOTH_WAYS: dict = {}


def _both_ways(name: str):
    """(stripped rows, proof store) of the suite on *name*, replayed and
    unreplayed, each on a fresh context; computed once per session."""
    if name not in _BOTH_WAYS:
        out = []
        for suite in (run_identity_suite, unreplayed_suite):
            ctx = _context(name)
            rows = stripped_rows(suite(ctx, k_max=2))
            out.append((rows, dict(ctx.rels.alphabet.proofs)))
        _BOTH_WAYS[name] = out
    return _BOTH_WAYS[name]


def _letter_map(alpha, sigma: dict[str, str]) -> list[int]:
    """The ids of q[a,b] -> q[sigma a, sigma b], other letters fixed."""
    return [alpha.ids[Generator(kind, sigma[row], sigma[col])]
            if alpha.schema_kind[gid] is not None else gid
            for gid, (kind, row, col) in enumerate(alpha.gens)]


@pytest.mark.parametrize("name", ["k3", "k4", "ucycle8", "loops4"])
def test_level_tables_are_equivariant_along_the_path_maps(name):
    """rows[sigma xi][sigma lam] is the letter-map image of
    rows[xi][lam] at every level k <= n_cap, for every symmetry."""
    ctx = _context(name)
    maps = path_maps(ctx, ctx.n_cap)
    assert len(maps) == len(ctx.rels.symmetries) > 1
    alpha = ctx.rels.alphabet
    for sigma, m in zip(ctx.rels.symmetries, maps):
        letters = _letter_map(alpha, sigma)
        for k in range(ctx.n_cap + 1):
            table = ctx.level(k)
            at = [table.index[m[p]] for p in table.basis]
            for i, row in enumerate(table.rows):
                image = table.rows[at[i]]
                for j, word in enumerate(row):
                    assert image[at[j]] == tuple(map(letters.__getitem__, word)), (name, k)


@pytest.mark.parametrize("name", ["k3", "k4", "loops4"])
def test_replay_leaves_the_proof_store_unchanged(name):
    """Only a computed row searches or stores a proof: the store after
    the replayed suite equals that of the suite computing every row."""
    (_, replayed), (_, unreplayed) = _both_ways(name)
    assert replayed and replayed == unreplayed


@pytest.mark.parametrize("name", [
    *(n for n in SUITES if n != "k5-c5"),
    pytest.param("k5-c5", marks=pytest.mark.slow),
])
def test_replayed_suite_matches_the_unreplayed_one(name):
    (replayed, _), (unreplayed, _) = _both_ways(name)
    assert replayed == unreplayed


def test_replaying_along_a_non_automorphism_changes_the_report(monkeypatch):
    """The vertex swap (1 2) of asym4 is no automorphism.  Replaying
    rows along it (edges sent to the edge with swapped ends where there
    is one) emits rows the unreplayed suite reports otherwise."""
    unreplayed = stripped_rows(unreplayed_suite(_context("asym4"), k_max=2))
    swap = {"1": "2", "2": "1", "3": "3", "4": "4"}

    def swapped_maps(ctx, degree):
        by_ends = {(e.range, e.source): e.id for e in ctx.g.edges}
        edge = {e.id: by_ends.get((swap[e.range], swap[e.source]), e.id) for e in ctx.g.edges}
        identity = {p: p for d in range(degree + 1) for p in ctx.level(d).basis}
        return identity, {p: Path(tuple(edge[e] for e in p.edges), swap[p.range], swap[p.source])
                          for p in identity}

    monkeypatch.setattr(corep, "path_maps", swapped_maps)
    replayed = stripped_rows(run_identity_suite(_context("asym4"), k_max=2))
    assert replayed != unreplayed
    assert {r["name"] for r, s in zip(replayed, unreplayed) if r != s} <= {
        "implementation", "kms-invariance"}


def test_replay_needs_graph_automorphisms_transport_and_closed_summands():
    """No path maps for a symmetry that is no automorphism; no replay
    when transport is refused, or under a point provider, or a 0/1
    provider whose summands conjugation does not keep."""
    ctx = _context("asym4")
    swap = {"1": "2", "2": "1", "3": "3", "4": "4"}
    assert path_maps(replace(ctx, rels=replace(ctx.rels, symmetries=(swap,))), 2) == ()
    assert _orbit_maps(ctx) == ()                       # Aut(asym4) is trivial

    def k3(**changes):
        return replace(_context("k3"), **changes)

    assert len(_orbit_maps(k3())) == 6
    refused = k3()
    refused.rels.alphabet.__dict__["transport"] = ()
    assert _orbit_maps(refused) == ()
    ids = refused.rels.universe
    point = q_point_provider("fourier", ids, fourier_unitary(3))
    assert _orbit_maps(k3(providers=[k3().providers[0], point])) == ()
    transposition = permutation_diag_rep("swap", ids, [{"1": "1", "2": "2", "3": "3"},
                                                       {"1": "2", "2": "1", "3": "3"}])
    assert _orbit_maps(k3(providers=[transposition])) == ()
