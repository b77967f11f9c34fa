from fractions import Fraction

import pytest

from oracles import u, ustar
from qisograph.exprlang import ExpressionError, parse_expression
from qisograph.ncpoly import q
from qisograph.relations import free_unitary_relations, magic_relations
from qisograph.rewrite import is_zero
from qisograph.verdict import PROVED_ZERO

RELS = magic_relations(("1", "2", "3"))
URELS = free_unitary_relations(("1", "2"))
enc = RELS.alphabet.encode


def test_parse_generator():
    assert parse_expression("q[1,2]", RELS) == {enc((q("1", "2"),)): 1}


def test_parse_arithmetic():
    terms = parse_expression("2/3 * q[1,2] - q[2,1] + 1", RELS)
    assert list(terms) == [enc((q("1", "2"),)), enc((q("2", "1"),)), ()]
    assert terms[enc((q("1", "2"),))] == Fraction(2, 3)
    assert terms[enc((q("2", "1"),))] == -1
    assert terms[()] == 1
    # an integer literal stays an int; only the quotient is a Fraction
    assert type(terms[()]) is int
    # cancelled words and zero constants keep no term
    assert parse_expression("q[1,2] - q[1,2] + 0/3 - 0", RELS) == {}


def test_parse_product_word():
    p = parse_expression("q[1,2]*q[2,3]", RELS)
    assert p == {enc((q("1", "2"), q("2", "3"))): 1}


def test_parse_sum_binding():
    p = parse_expression("sum(k, q[1,k])", RELS)
    assert list(p.items()) == [(enc((q("1", k),)), 1) for k in ("1", "2", "3")]
    row = parse_expression("sum(k, q[1,k]) - 1", RELS)
    assert is_zero(row, RELS).kind == PROVED_ZERO


def test_parse_nested_sum():
    p = parse_expression("sum(i, sum(j, q[i,j]))", RELS)
    assert len(p) == 9


def test_parse_unitary_generators():
    p = parse_expression("sum(k, u*[k,1]*u[k,2])", URELS)
    assert p[URELS.alphabet.encode((ustar("1", "1"), u("1", "2")))] == 1
    assert is_zero(p, URELS).kind == PROVED_ZERO


def test_parse_parentheses_and_negation():
    p = parse_expression("-(q[1,1] - q[2,2])", RELS)
    assert p == {enc((q("1", "1"),)): -1, enc((q("2", "2"),)): 1}


def test_parse_errors():
    with pytest.raises(ExpressionError):
        parse_expression("q[1,9]", RELS)          # unknown index
    with pytest.raises(ExpressionError):
        parse_expression("q[1,2", RELS)           # unbalanced
    with pytest.raises(ExpressionError):
        parse_expression("u[1,2]", RELS)          # wrong generator family
    with pytest.raises(ExpressionError):
        parse_expression("q[1,2]", URELS)
    with pytest.raises(ExpressionError):
        parse_expression("sum(k, sum(k, q[k,k]))", RELS)
    with pytest.raises(ExpressionError):
        parse_expression("q[1,2] @", RELS)
