"""Obligation groups replayed along graph symmetries: the isometry,
density, KMS-invariance and implementation groups of an orbit under the
path maps take the result of the first group proved, and the suite's
report and proof store are those of a run that builds every group."""

import random
from dataclasses import replace
from functools import partial
from pathlib import Path as FsPath

import pytest

from oracles import (
    K4, LOOPS4, UCYCLE8, fourier_unitary, q_point_provider, stripped_rows, suite_context,
    unreplayed_suite,
)
from qisograph import corep
from qisograph.corep import (
    VerificationContext, _orbit_maps, check_density, check_isometry, check_kms_invariance,
    path_maps, run_identity_suite,
)
from qisograph.graphs import Path
from qisograph.ncpoly import Generator
from qisograph.providers import permutation_diag_rep

GRAPHS = FsPath(__file__).resolve().parent.parent / "graphs"

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
    return suite_context(*SUITES[name])


_BOTH_WAYS: dict = {}


def _both_ways(name: str, k_max: int = 2):
    """(stripped rows, proof store) of the suite on *name* up to *k_max*,
    replayed and unreplayed, each on a fresh context; computed once per
    session."""
    if (name, k_max) not in _BOTH_WAYS:
        out = []
        for suite in (run_identity_suite, unreplayed_suite):
            ctx = _context(name)
            rows = stripped_rows(suite(ctx, k_max=k_max))
            out.append((rows, dict(ctx.rels.alphabet.proofs)))
        _BOTH_WAYS[name, k_max] = out
    return _BOTH_WAYS[name, k_max]


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
    maps = path_maps(ctx)
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
    """Only a built group searches or stores a proof: the store after
    the replayed suite equals that of the suite building every group."""
    (_, replayed), (_, unreplayed) = _both_ways(name)
    assert replayed and replayed == unreplayed


@pytest.mark.parametrize("name", [
    *(n for n in SUITES if n != "k5-c5"),
    pytest.param("k5-c5", marks=pytest.mark.slow),
])
def test_replayed_suite_matches_the_unreplayed_one(name):
    (replayed, _), (unreplayed, _) = _both_ways(name)
    assert replayed == unreplayed


@pytest.mark.parametrize("name", ["k3", "three_cycle", "loops4"])
def test_replay_keys_paths_up_to_the_truncation_level(name):
    """At k_max = n_cap = 3 isometry keys degree-3 paths, so the path
    maps build images at n_cap, and the replayed suite still matches."""
    (replayed, _), (unreplayed, _) = _both_ways(name, k_max=3)
    assert replayed == unreplayed


def test_path_maps_build_images_on_demand():
    """A path map builds an image on first lookup only: reading the
    replay maps at n_cap 40 builds no path list of degree 40, and the
    maps hold the images of the level-0 paths they were read at."""
    ctx = suite_context((GRAPHS / "three_cycle.g").read_text(), False, n_cap=40)
    maps = _orbit_maps(ctx)
    assert len(maps) == 3 and ("basis index", 40) not in ctx.g.memo
    vertices = ctx.level(0).basis
    assert all(m.keys() == set(vertices) for m in maps)
    cycle = Path(("a", "c", "b"), "2", "2")
    assert [m[cycle] for m in maps] == [cycle, Path(("b", "a", "c"), "3", "3"),
                                        Path(("c", "b", "a"), "1", "1")]


def test_replaying_along_a_non_automorphism_changes_the_report(monkeypatch):
    """The vertex swap (1 2) of asym4 is no automorphism.  Replaying
    obligation groups along it (edges sent to the edge with swapped ends
    where there is one) changes a row of every keyed family."""
    unreplayed = stripped_rows(unreplayed_suite(_context("asym4"), k_max=2))
    swap = {"1": "2", "2": "1", "3": "3", "4": "4"}

    def swapped_maps(ctx):
        by_ends = {(e.range, e.source): e.id for e in ctx.g.edges}
        edge = {e.id: by_ends.get((swap[e.range], swap[e.source]), e.id) for e in ctx.g.edges}
        fixed = dict(zip(ctx.g.edge_by_id, ctx.g.edge_by_id))
        return (corep._PathMap(dict(zip(swap, swap)), fixed), corep._PathMap(swap, edge))

    monkeypatch.setattr(corep, "path_maps", swapped_maps)
    replayed = stripped_rows(run_identity_suite(_context("asym4"), k_max=2))
    assert {r["name"] for r, s in zip(replayed, unreplayed) if r != s} == {
        "isometry", "density", "implementation", "kms-invariance"}


def test_keying_each_intertwining_obligation_by_its_output_changes_the_report(monkeypatch):
    """The implementation unit is one ``_intertwining`` call.  Replaying
    each of its obligations alone instead, keyed by the call's key and
    the obligation's output path, changes implementation rows of the
    4-loop suite."""
    (expected, _), _ = _both_ways("loops4")
    replay = corep._Obligations.replay

    def per_output(obs, key, build):
        if key[0] not in ("s*", "s"):
            return replay(obs, key, build)
        kind, lam, eta = key
        n, m = lam.degree, eta.degree
        # one obligation per output position, in output basis order
        outputs = iter(obs.ctx.level(max(m - n, 0) if kind == "s*" else n + m).basis)
        add = obs.add
        obs.add = lambda ob: replay(obs, (*key, next(outputs)), partial(add, ob))
        build()
        del obs.add

    monkeypatch.setattr(corep._Obligations, "replay", per_output)
    rows = stripped_rows(run_identity_suite(_context("loops4"), k_max=2))
    assert {r["name"] for r, s in zip(rows, expected) if r != s} == {"implementation"}


def test_failed_groups_are_not_filed():
    """Five of K5 - C5's KMS-invariance rows (lam, lam) stay Unknown.
    No key of their orbit is filed for replay, so each is built; the
    keys of the rows that pass are filed."""
    ctx = _context("k5-c5")
    rows = {lam: check_kms_invariance(ctx, lam, lam) for lam in ctx.level(2).basis}
    failed = [lam for lam, row in rows.items() if not row.passed]
    assert len(failed) == 5
    for lam, row in rows.items():
        keys = {("kms-invariance", m[lam], m[lam]) for m in ctx.replay_maps}
        if row.passed:
            assert keys <= ctx._replayed.keys()
        else:
            assert not keys & ctx._replayed.keys(), lam.label


def _orbits(maps, keys) -> int:
    """The number of orbits of the path pairs *keys* under *maps*."""
    return len({frozenset((m[a], m[b]) for m in maps) for a, b in keys})


def test_isometry_and_density_search_once_per_orbit_on_k4(monkeypatch):
    """Every K4 obligation is proved, so replay leaves isometry and
    density at most one ``is_zero`` call per orbit of their keys."""
    calls = [0]
    original = corep.is_zero

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(corep, "is_zero", counting)
    ctx = _context("k4")
    maps = ctx.replay_maps
    assert len(maps) == 24
    isometry = [(lam, eta) for k in range(3) for lam in ctx.level(k).basis
                for eta in ctx.level(k).basis]
    assert all(check_isometry(ctx, k).passed for k in range(3))
    assert 0 < calls[0] <= _orbits(maps, isometry)
    calls[0] = 0
    rows = ctx.level(1).basis + ctx.level(2).basis
    density = [(lam, zeta) for lam in rows for zeta in ctx.level(lam.degree).basis]
    assert all(check_density(ctx, lam).passed for lam in rows)
    assert 0 < calls[0] <= _orbits(maps, density)


def test_replay_needs_graph_automorphisms_transport_and_closed_summands():
    """No path maps for a symmetry that is no automorphism; no replay
    when transport is refused, or under a point provider, or a 0/1
    provider whose summands conjugation does not keep."""
    ctx = _context("asym4")
    swap = {"1": "2", "2": "1", "3": "3", "4": "4"}
    assert path_maps(replace(ctx, rels=replace(ctx.rels, symmetries=(swap,)))) == ()
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
