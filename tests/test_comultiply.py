"""The coproduct expanded with dead left legs pruned: a zero prefix stays
zero in every extension, so ``comultiply`` keeps exactly the pairs of
the full expansion whose left leg is alive, and leg-wise reduction
gives every comultiplicativity entry the difference it gives on the
full expansion."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import DCYCLE8, K4, LOOPS4, UCYCLE8, full_comultiply, suite_context
from qisograph.graphs import parse_graph
from qisograph.ncpoly import comultiply
from qisograph.perron import perron
from qisograph.relations import magic_relations, qaut_relations
from qisograph.rewrite import tensor_reduce

GRAPHS = Path(__file__).resolve().parent.parent / "graphs"


def _qaut_alphabet(name: str):
    g = parse_graph((GRAPHS / f"{name}.g").read_text())
    return qaut_relations(g, perron(g)).alphabet


#: asym4 has vanishing generators, magic(4) only the magic rules
ALPHABETS = {"k3": _qaut_alphabet("k3"), "asym4": _qaut_alphabet("asym4"),
             "magic4": magic_relations(("1", "2", "3", "4")).alphabet}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_zero_prefix_stays_zero_in_every_extension(data):
    alpha = ALPHABETS[data.draw(st.sampled_from(sorted(ALPHABETS)))]
    letters = st.integers(0, alpha.size - 1)
    prefix = tuple(data.draw(st.lists(letters, max_size=6)))
    suffix = tuple(data.draw(st.lists(letters, max_size=6)))
    if alpha.rewrite(prefix) is None:
        assert alpha.rewrite(prefix + suffix) is None


def test_the_prefix_property_sees_dead_and_live_prefixes():
    """Each alphabet has two-letter words that rewrite to zero and words
    that do not, so the property above is not vacuous on any of them."""
    for alpha in ALPHABETS.values():
        dead = [(a, b) for a in range(alpha.size) for b in range(alpha.size)
                if alpha.rewrite((a, b)) is None]
        assert 0 < len(dead) < alpha.size ** 2


SUITES = {
    **{g.stem: (g.read_text(), g.stem.startswith("cuntz")) for g in sorted(GRAPHS.glob("*.g"))},
    "k4": (K4, False),
    "dcycle8": (DCYCLE8, False),
    "ucycle8": (UCYCLE8, False),
    "loops4": (LOOPS4, True),
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_pruned_coproduct_keeps_the_live_pairs_of_the_full_one(name):
    """On every entry Q[xi,lam] of levels 0..2, with one prefix memo per
    level as ``check_comultiplicative`` keeps it: the pruned pairs are
    the full expansion's pairs with a live left leg, in its order, and
    leg-wise reduction of the entry's signed counts is the same."""
    ctx = suite_context(*SUITES[name])
    alpha, rels = ctx.rels.alphabet, ctx.rels
    live: dict = {}

    def is_live(w):
        r = live.get(w)
        if r is None:
            r = live[w] = alpha.rewrite(w) is not None
        return r

    pruned_some = False
    for k in range(3):
        rows = ctx.level(k).rows
        alive: dict = {}
        for lam, column in enumerate(zip(*rows)):
            for row in rows:
                full = full_comultiply(row[lam], alpha.split)
                pruned = comultiply(row[lam], alpha, alive)
                assert pruned == [p for p in full if is_live(p[0])], (name, k)
                pruned_some |= len(pruned) < len(full)
                plus: dict = {}
                for key in zip(row, column):
                    plus[key] = plus.get(key, 0) + 1
                reduced = []
                for delta in (full, pruned):
                    counts = dict(plus)
                    for key in delta:
                        counts[key] = counts.get(key, 0) - 1
                    reduced.append(tensor_reduce(counts, rels))
                assert reduced[0] == reduced[1], (name, k)
    assert pruned_some
