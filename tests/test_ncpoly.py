from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import full_comultiply, u, ustar
from qisograph.ncpoly import FORMAL_UNITARY, FORMAL_UNITARY_STAR, add, comultiply, mul, q
from qisograph.relations import free_unitary_relations, magic_relations, with_formal_unitary

IDS = ("1", "2", "3")
MAGIC = magic_relations(IDS).alphabet
#: u, u* and the formal unitary w, w*: every adjoint pair but q's
UNITARY = with_formal_unitary(free_unitary_relations(IDS)).alphabet


def _polys(letters):
    words = st.lists(letters, min_size=0, max_size=4).map(tuple)
    terms = st.dictionaries(words, st.fractions(min_value=-3, max_value=3), max_size=5)
    return terms.map(lambda t: {w: c for w, c in t.items() if c})


def _star(p):
    """The formal adjoint through the one adjoint table, Alphabet.star."""
    return {UNITARY.star(w): c for w, c in p.items()}


def test_basic_algebra():
    p = {(0,): 1}
    r = {(1,): 1}
    assert add(add(p, r), r, -1) == p
    assert mul(p, r) == {(0, 1): 1}
    assert mul(p, {(): 1}) == p
    assert add(p, p, -1) == {}
    half = {(0,): Fraction(1, 2)}
    assert add(half, half) == p


def test_add_keeps_first_appearance_and_drops_zeros():
    p = {(0,): 1, (1,): Fraction(1, 2), (2,): 1}
    r = {(3,): 1, (1,): 1, (0,): -1}
    assert list(add(p, r).items()) == [((1,), Fraction(3, 2)), ((2,), 1), ((3,), 1)]
    assert list(add(p, r, Fraction(-1, 2)).items()) == [
        ((0,), Fraction(3, 2)), ((2,), 1), ((3,), Fraction(-1, 2))]
    assert add({(0,): Fraction(0)}, {}) == {}
    assert type(add({(): 1}, {(): 2})[()]) is int


def test_mul_keeps_first_appearance_across_a_cancellation():
    # (0,1) gets +1, then -1 (cancelled mid-way), then +1 again: it keeps
    # the place it first appeared at, and only the net zeros are dropped
    p = {(): 1, (0,): 1, (0, 1): 1}
    r = {(0, 1): 1, (1,): -1, (): 1}
    assert list(mul(p, r).items()) == [
        ((0, 1), 1), ((1,), -1), ((), 1), ((0, 0, 1), 1), ((0,), 1),
        ((0, 1, 0, 1), 1), ((0, 1, 1), -1)]
    assert mul({(0,): 1, (1,): 1}, {(1,): 1, (0,): -1}) == {
        (0, 1): 1, (0, 0): -1, (1, 1): 1, (1, 0): -1}
    assert mul({(): 2}, {(): Fraction(1, 2)}) == {(): 1}
    assert mul({(0,): 1}, {}) == {}


def test_text_is_readable():
    enc = MAGIC.encode
    terms = {enc((q("1", "2"), q("2", "3"))): -1, enc((q("2", "1"),)): 2,
             (): Fraction(-1, 3), enc((q("1", "2"),)): 1}
    assert MAGIC.text(terms) == "-1/3 + q[1,2] + 2*q[2,1] - 1*q[1,2]*q[2,3]"
    assert MAGIC.text({}) == "0"
    assert UNITARY.text({UNITARY.encode((ustar("1", "2"), FORMAL_UNITARY)): 1}) == "u*[1,2]*w"


def test_star_on_generators():
    enc = UNITARY.encode
    assert UNITARY.star(enc((u("1", "2"), ustar("2", "3")))) == enc((u("2", "3"), ustar("1", "2")))
    assert UNITARY.star(enc((FORMAL_UNITARY,))) == enc((FORMAL_UNITARY_STAR,))
    assert MAGIC.star(MAGIC.encode((q("1", "2"), q("2", "3")))) == \
        MAGIC.encode((q("2", "3"), q("1", "2")))


@settings(max_examples=80, deadline=None)
@given(_polys(st.integers(0, UNITARY.size - 1)), _polys(st.integers(0, UNITARY.size - 1)))
def test_star_involution_and_antihomomorphism(p, r):
    assert _star(_star(p)) == p
    assert _star(mul(p, r)) == mul(_star(r), _star(p))
    assert _star(add(p, r)) == add(_star(p), _star(r))


@settings(max_examples=60, deadline=None)
@given(*[_polys(st.integers(0, 8))] * 3)
def test_multiplication_laws(p, r, s):
    assert mul(mul(p, r), s) == mul(p, mul(r, s))
    assert mul(p, add(r, s)) == add(mul(p, r), mul(p, s))


def test_comultiply_unit():
    assert comultiply((), MAGIC, {}) == full_comultiply((), MAGIC.split) == [((), ())]


def test_comultiply_generator():
    enc = MAGIC.encode
    pairs = comultiply(enc((q("1", "2"),)), MAGIC, {})
    assert pairs == [(enc((q("1", k),)), enc((q(k, "2"),))) for k in IDS]


def test_comultiply_word_expands_legwise():
    word = MAGIC.encode((q("1", "1"), q("1", "2")))
    pairs = full_comultiply(word, MAGIC.split)
    assert len(pairs) == len(set(pairs)) == 9
    gens = MAGIC.gens
    for w1, w2 in pairs:
        assert len(w1) == len(w2) == 2
        assert (gens[w1[0]].row, gens[w1[1]].row, gens[w2[0]].col, gens[w2[1]].col) == \
            ("1", "1", "1", "2")
        # the inner indices match across the legs, letter by letter
        assert [gens[a].col for a in w1] == [gens[b].row for b in w2]
    # row orthogonality kills q[1,k] q[1,l] for k != l: three pairs live
    live = [(w1, w2) for w1, w2 in pairs if MAGIC.rewrite(w1) is not None]
    assert comultiply(word, MAGIC, {}) == live and len(live) == 3


def test_comultiply_rejects_formal_unitary():
    alpha = with_formal_unitary(magic_relations(IDS)).alphabet
    with pytest.raises(ValueError):
        comultiply(alpha.encode((FORMAL_UNITARY,)), alpha, {})


def test_comultiply_rejects_formal_unitary_after_every_pair_died():
    # row 1 declared vanishing: each left leg q[1,k] of Delta(q[1,1]) is
    # dead, and the letter w after it must still be refused.  No sound
    # relation set kills every pair of a q-word: the identity point
    # q[a,b] -> [a = b] sends the left leg q[a1,a1]...q[an,an] to 1
    rels = with_formal_unitary(magic_relations(IDS))
    alpha = replace(rels, vanishing=frozenset(q("1", k) for k in IDS)).alphabet
    dead = alpha.encode((q("1", "1"),))
    assert comultiply(dead, alpha, {}) == []
    with pytest.raises(ValueError, match="no coproduct"):
        comultiply(dead + alpha.encode((FORMAL_UNITARY,)), alpha, {})
