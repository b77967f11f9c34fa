from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qisograph.ncpoly import (
    FORMAL_UNITARY, FORMAL_UNITARY_STAR, NCPoly, comultiply, q, u, ustar,
)
from qisograph.relations import free_unitary_relations, magic_relations, with_formal_unitary

IDS = ("1", "2", "3")
MAGIC = magic_relations(IDS).alphabet
#: u, u* and the formal unitary w, w*: every adjoint pair but q's
UNITARY = with_formal_unitary(free_unitary_relations(IDS)).alphabet


def _gens():
    return st.sampled_from(
        [q(a, b) for a in IDS for b in IDS]
        + [u(a, b) for a in IDS for b in IDS]
        + [ustar(a, b) for a in IDS for b in IDS])


def _polys():
    words = st.lists(_gens(), min_size=0, max_size=4).map(tuple)
    terms = st.dictionaries(words, st.fractions(min_value=-3, max_value=3), max_size=5)
    return terms.map(NCPoly)


def _unitary_polys():
    letters = st.sampled_from(UNITARY.gens)
    words = st.lists(letters, min_size=0, max_size=4).map(tuple)
    terms = st.dictionaries(words, st.fractions(min_value=-3, max_value=3), max_size=5)
    return terms.map(NCPoly)


def _star(p: NCPoly) -> NCPoly:
    """The formal adjoint through the one adjoint table, Alphabet.star."""
    return UNITARY.decode_poly({UNITARY.star(w): c
                                for w, c in UNITARY.encode_poly(p).items()})


def test_basic_algebra():
    p = NCPoly.gen(q("1", "2"))
    r = NCPoly.gen(q("2", "3"))
    assert (p + r) - r == p
    assert (p * r).terms().get((q("1", "2"), q("2", "3")), 0) == 1
    assert p * NCPoly.one() == p
    assert (p - p).is_zero()
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p


def test_zero_coefficients_pruned():
    p = NCPoly({(q("1", "1"),): Fraction(0)})
    assert p.is_zero() and p.terms() == {}


def test_star_on_generators():
    enc = UNITARY.encode
    assert UNITARY.star(enc((u("1", "2"), ustar("2", "3")))) == enc((u("2", "3"), ustar("1", "2")))
    assert UNITARY.star(enc((FORMAL_UNITARY,))) == enc((FORMAL_UNITARY_STAR,))
    assert MAGIC.star(MAGIC.encode((q("1", "2"), q("2", "3")))) == \
        MAGIC.encode((q("2", "3"), q("1", "2")))


@settings(max_examples=80, deadline=None)
@given(_unitary_polys(), _unitary_polys())
def test_star_involution_and_antihomomorphism(p, r):
    assert _star(_star(p)) == p
    assert _star(p * r) == _star(r) * _star(p)
    assert _star(p + r) == _star(p) + _star(r)


@settings(max_examples=60, deadline=None)
@given(_polys(), _polys(), _polys())
def test_multiplication_laws(p, r, s):
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


def test_repr_is_readable():
    p = NCPoly.gen(q("1", "2")) - NCPoly.one().scale(Fraction(1, 3))
    text = repr(p)
    assert "q[1,2]" in text and "1/3" in text


def test_comultiply_unit():
    assert comultiply((), MAGIC.split) == [((), ())]


def test_comultiply_generator():
    enc = MAGIC.encode
    pairs = comultiply(enc((q("1", "2"),)), MAGIC.split)
    assert pairs == [(enc((q("1", k),)), enc((q(k, "2"),))) for k in IDS]


def test_comultiply_word_expands_legwise():
    pairs = comultiply(MAGIC.encode((q("1", "1"), q("1", "2"))), MAGIC.split)
    assert len(pairs) == len(set(pairs)) == 9
    gens = MAGIC.gens
    for w1, w2 in pairs:
        assert len(w1) == len(w2) == 2
        assert (gens[w1[0]].row, gens[w1[1]].row, gens[w2[0]].col, gens[w2[1]].col) == \
            ("1", "1", "1", "2")
        # the inner indices match across the legs, letter by letter
        assert [gens[a].col for a in w1] == [gens[b].row for b in w2]


def test_comultiply_rejects_formal_unitary():
    alpha = with_formal_unitary(magic_relations(IDS)).alphabet
    with pytest.raises(ValueError):
        comultiply(alpha.encode((FORMAL_UNITARY,)), alpha.split)
