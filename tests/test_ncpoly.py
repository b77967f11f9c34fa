from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qisograph.ncpoly import (
    FORMAL_UNITARY, Generator, NCPoly, comultiply, q, u, ustar,
)

IDS = ("1", "2", "3")


def _gens():
    return st.sampled_from(
        [q(a, b) for a in IDS for b in IDS]
        + [u(a, b) for a in IDS for b in IDS]
        + [ustar(a, b) for a in IDS for b in IDS])


def _polys():
    words = st.lists(_gens(), min_size=0, max_size=4).map(tuple)
    terms = st.dictionaries(words, st.fractions(min_value=-3, max_value=3), max_size=5)
    return terms.map(NCPoly)


def test_basic_algebra():
    p = NCPoly.gen(q("1", "2"))
    r = NCPoly.gen(q("2", "3"))
    assert (p + r) - r == p
    assert (p * r).coeff((q("1", "2"), q("2", "3"))) == 1
    assert p * NCPoly.one() == p
    assert (p - p).is_zero()
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p


def test_zero_coefficients_pruned():
    p = NCPoly({(q("1", "1"),): Fraction(0)})
    assert p.is_zero() and p.support_size == 0


def test_star_on_generators():
    w = NCPoly.word((u("1", "2"), q("2", "3")))
    s = w.star()
    assert s.coeff((q("2", "3"), ustar("1", "2"))) == 1
    assert NCPoly.gen(FORMAL_UNITARY).star().coeff((Generator("w*", "", ""),)) == 1


@settings(max_examples=80, deadline=None)
@given(_polys(), _polys())
def test_star_involution_and_antihomomorphism(p, r):
    assert p.star().star() == p
    assert (p * r).star() == r.star() * p.star()
    assert (p + r).star() == p.star() + r.star()


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
    assert comultiply((), IDS) == [((), ())]


def test_comultiply_generator():
    pairs = comultiply((q("1", "2"),), IDS)
    assert pairs == [((q("1", k),), (q(k, "2"),)) for k in IDS]


def test_comultiply_word_expands_legwise():
    pairs = comultiply((q("1", "1"), q("1", "2")), IDS)
    assert len(pairs) == len(set(pairs)) == 9
    for w1, w2 in pairs:
        assert len(w1) == len(w2) == 2
        assert (w1[0].row, w1[1].row, w2[0].col, w2[1].col) == ("1", "1", "1", "2")


def test_comultiply_rejects_formal_unitary():
    with pytest.raises(ValueError):
        comultiply((FORMAL_UNITARY,), IDS)
