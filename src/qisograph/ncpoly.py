"""Noncommutative *-polynomials over abstract generators with exact
rational coefficients.

Generators come in three families: the self-adjoint idempotent entries
q[i,j] of a magic unitary, the entries u[i,j] of a free unitary together
with their adjoints u*[i,j], and a single formal unitary w used when a
derivation introduces "some unitary q".  Words are tuples of generators;
a polynomial is a finitely supported map from words to exact rationals.
Coefficients keep their own type: integer combinations stay Python
ints, and a Fraction enters only with a rational input (a Perron weight
or an expression-language constant).  ``NCPoly`` is the form text is
parsed into and printed from; the checker runs on ``IntTerms``.

The coproduct acts on the rewriter's int words (see ``rewrite``):
Delta(w) is a list of word pairs, the terms of an element of the
algebraic tensor square, each with coefficient 1, and each letter is
expanded through the alphabet's per-id table of (left, right) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

QKIND = "q"
UKIND = "u"
USTAR = "u*"
WKIND = "w"
WSTAR = "w*"

_ADJOINT = {QKIND: QKIND, UKIND: USTAR, USTAR: UKIND, WKIND: WSTAR, WSTAR: WKIND}


class Generator(NamedTuple):
    """One generator; ordered, hashed and compared as the tuple
    (kind, row, col)."""

    kind: str
    row: str
    col: str

    def __str__(self):
        if self.kind in (WKIND, WSTAR):
            return self.kind
        return f"{self.kind}[{self.row},{self.col}]"


def q(row: str, col: str) -> Generator:
    return Generator(QKIND, row, col)


def u(row: str, col: str) -> Generator:
    return Generator(UKIND, row, col)


def ustar(row: str, col: str) -> Generator:
    return Generator(USTAR, row, col)


FORMAL_UNITARY = Generator(WKIND, "", "")
FORMAL_UNITARY_STAR = Generator(WSTAR, "", "")


def adjoint_generator(g: Generator) -> Generator:
    return Generator(_ADJOINT[g.kind], g.row, g.col)


Word = tuple[Generator, ...]
#: an exact coefficient: an int, or a Fraction once a rational enters
Coeff = int | Fraction
#: a word over a relation set's alphabet (``rewrite.Alphabet``), and a
#: polynomial in that form: the format the checker runs on
IntWord = tuple[int, ...]
IntTerms = dict[IntWord, Coeff]


def word_str(w: Word) -> str:
    return "*".join(str(g) for g in w) if w else "1"


class NCPoly:
    """Finitely supported rational linear combination of words."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, Coeff] | None = None):
        self._terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({(): 1})

    @classmethod
    def gen(cls, g: Generator) -> "NCPoly":
        return cls({(g,): 1})

    def items(self):
        """Terms sorted by word length, then by the words' generator
        tuples (kind, row, col)."""
        return sorted(self._terms.items(), key=lambda t: (len(t[0]), t[0]))

    def terms(self) -> dict[Word, Coeff]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) - c
        return NCPoly(out)

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self._terms.items()})

    def scale(self, c: Coeff) -> "NCPoly":
        return NCPoly({w: c * v for w, v in self._terms.items()})

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        out: dict[Word, Coeff] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return NCPoly(out)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.items():
            if c == 1 and w:
                parts.append(word_str(w))
            elif w:
                parts.append(f"{c}*{word_str(w)}")
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")


def comultiply(word: IntWord, split) -> list[tuple[IntWord, IntWord]]:
    """Delta(word) as its (left, right) int-word pairs, each with
    coefficient 1: each letter expands through *split*, the alphabet's
    per-id (left, right) pairs of Delta(g[i,j]) = sum_k g[i,k] (x) g[k,j],
    extended multiplicatively; the empty word maps to the single pair of
    empty words."""
    pairs: list[tuple[IntWord, IntWord]] = [((), ())]
    for g in word:
        legs = split[g]
        if legs is None:
            raise ValueError(f"no coproduct for letter {g}")
        pairs = [(w1 + (a,), w2 + (b,)) for (w1, w2) in pairs for a, b in legs]
    return pairs
