"""Noncommutative *-polynomials over abstract generators with rational
coefficients.

Generators come in three families: the self-adjoint idempotent entries
q[i,j] of a magic unitary, the entries u[i,j] of a free unitary together
with their adjoints u*[i,j], and a single formal unitary w used when a
derivation introduces "some unitary q".  Words are tuples of generators;
a polynomial is a finitely supported map from words to Fractions.
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


def word_key(w: Word):
    return (len(w), tuple((g.kind, g.row, g.col) for g in w))


def word_str(w: Word) -> str:
    return "*".join(str(g) for g in w) if w else "1"


class NCPoly:
    """Finitely supported Fraction-linear combination of words."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        self._terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls()

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def gen(cls, g: Generator) -> "NCPoly":
        return cls({(g,): Fraction(1)})

    @classmethod
    def word(cls, w: Word, coeff=1) -> "NCPoly":
        return cls({tuple(w): Fraction(coeff)})

    def items(self):
        return sorted(self._terms.items(), key=lambda t: word_key(t[0]))

    def terms(self) -> dict[Word, Fraction]:
        return dict(self._terms)

    def coeff(self, w: Word) -> Fraction:
        return self._terms.get(tuple(w), Fraction(0))

    @property
    def support_size(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, Fraction(0)) + c
        return NCPoly(out)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, Fraction(0)) - c
        return NCPoly(out)

    def __neg__(self) -> "NCPoly":
        return NCPoly({w: -c for w, c in self._terms.items()})

    def scale(self, c) -> "NCPoly":
        c = Fraction(c)
        return NCPoly({w: c * v for w, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out: dict[Word, Fraction] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                out[w] = out.get(w, Fraction(0)) + c1 * c2
        return NCPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "NCPoly":
        """Formal adjoint: reverse words, adjoint generators (real coefficients)."""
        return NCPoly({tuple(adjoint_generator(g) for g in reversed(w)): c
                       for w, c in self._terms.items()})

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

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


class TensorPoly:
    """Element of the algebraic tensor square: map (word, word) -> Fraction."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[tuple[Word, Word], Fraction] | None = None):
        self._terms = {p: c for p, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "TensorPoly":
        return cls()

    @classmethod
    def tensor(cls, left: NCPoly, right: NCPoly) -> "TensorPoly":
        out: dict[tuple[Word, Word], Fraction] = {}
        for w1, c1 in left._terms.items():
            for w2, c2 in right._terms.items():
                key = (w1, w2)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return cls(out)

    def items(self):
        return sorted(self._terms.items(),
                      key=lambda t: (word_key(t[0][0]), word_key(t[0][1])))

    def __add__(self, other: "TensorPoly") -> "TensorPoly":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, Fraction(0)) + c
        return TensorPoly(out)

    def __sub__(self, other: "TensorPoly") -> "TensorPoly":
        out = dict(self._terms)
        for p, c in other._terms.items():
            out[p] = out.get(p, Fraction(0)) - c
        return TensorPoly(out)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def support_size(self) -> int:
        return len(self._terms)

    def __eq__(self, other):
        return isinstance(other, TensorPoly) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "0"
        return " + ".join(
            f"{c}*({word_str(w1)} (x) {word_str(w2)})" for (w1, w2), c in self.items())


def comultiply(p: NCPoly, universe: tuple[str, ...]) -> TensorPoly:
    """Coproduct Delta(g[i,j]) = sum_k g[i,k] (x) g[k,j], extended as an
    algebra homomorphism; the unit maps to unit (x) unit."""
    total: dict[tuple[Word, Word], Fraction] = {}
    for w, c in p._terms.items():
        pairs: list[tuple[Word, Word]] = [((), ())]
        for g in w:
            if g.kind not in (QKIND, UKIND, USTAR):
                raise ValueError(f"no coproduct for generator {g}")
            pairs = [
                (w1 + (Generator(g.kind, g.row, k),), w2 + (Generator(g.kind, k, g.col),))
                for (w1, w2) in pairs
                for k in universe
            ]
        for key in pairs:
            total[key] = total.get(key, Fraction(0)) + c
    return TensorPoly(total)
