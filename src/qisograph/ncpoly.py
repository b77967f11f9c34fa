"""Noncommutative *-polynomials over abstract generators with exact
rational coefficients.

Generators come in three families: the self-adjoint idempotent entries
q[i,j] of a magic unitary, the entries u[i,j] of a free unitary together
with their adjoints u*[i,j], and a single formal unitary w used when a
derivation introduces "some unitary q".  Words are tuples of generators;
a polynomial is a finitely supported map from words to exact rationals.
Coefficients keep their own type: integer combinations stay Python
ints, and a Fraction enters only with a rational input (a Perron weight
or an expression-language constant).  The one polynomial type is
``IntTerms``, a dict from words over a relation set's alphabet (see
``rewrite``) to coefficients, with no zero coefficient; the alphabet
alone turns ``Generator`` words into int words and terms into text.

``add`` and ``mul`` are the arithmetic the expression parser needs.
Each returns a new dict whose terms stand in the order the words first
appear, a word whose coefficients cancel being dropped only once the
whole result is formed.  A dict's order is the order the rewriter
reduces a polynomial's words in, and so the order of its trace: both
functions keep it exactly.

The coproduct acts on the rewriter's int words (see ``rewrite``):
Delta(w) is a list of word pairs, the terms of an element of the
algebraic tensor square, each with coefficient 1, and each letter is
expanded through the alphabet's per-id table of (left, right) pairs.
The expansion keeps only pairs whose left leg is alive: a pair is
dropped as soon as its left prefix rewrites to zero under the
alphabet's monomial rules, and a zero prefix stays zero in every
extension (``comultiply`` states why), so a dropped pair is one that
leg-wise reduction would drop anyway.
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


def add(p: IntTerms, r: IntTerms, scale: Coeff = 1) -> IntTerms:
    """p + scale * r as a new dict: p's terms first in p's order, then
    r's new words in r's order, with zero coefficients dropped."""
    out = dict(p)
    for w, c in r.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c}


def mul(p: IntTerms, r: IntTerms) -> IntTerms:
    """p * r: each term of p times each term of r, in that nested order;
    a word whose coefficients cancel keeps no term, and the rest keep
    the place they first appeared at."""
    out: IntTerms = {}
    for w1, c1 in p.items():
        for w2, c2 in r.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    return {w: c for w, c in out.items() if c}


def comultiply(word: IntWord, alpha, alive: dict) -> list[tuple[IntWord, IntWord]]:
    """The terms of Delta(word) whose left leg is alive, as (left,
    right) int-word pairs, each with coefficient 1, in the order of the
    full expansion.

    Each letter expands through ``alpha.split``, the alphabet's per-id
    (left, right) pairs of Delta(g[i,j]) = sum_k g[i,k] (x) g[k,j],
    extended multiplicatively; the empty word maps to the single pair
    of empty words.  A pair is dropped as soon as its left prefix p
    rewrites to zero (``alpha.rewrite(p) is None``).  *alive* is the
    caller's memo, shared by its calls: (live prefix, letter) -> the
    prefix's live one-letter extensions, each with its right letter, so
    each prefix is rewritten once.

    A dropped pair's whole left leg p + s rewrites to zero too, so
    leg-wise reduction (``rewrite.tensor_reduce``) would drop it anyway.
    ``rewrite`` first looks for a vanishing letter in the whole word,
    and p + s holds every letter of p.  Otherwise its leftmost-first
    pointer never passes a redex, and every step of its run on p reads
    a letter pair inside the current form of p; so on p + s it repeats
    that run step for step, up to the rule with no right-hand side
    that ends it.

    Every letter is looked up even once no pair is left, so a letter
    with no coproduct (the formal unitary w) is a ``ValueError``
    whatever its prefix.
    """
    split, rewrite = alpha.split, alpha.rewrite
    pairs: list[tuple[IntWord, IntWord]] = [((), ())]
    for g in word:
        legs = split[g]
        if legs is None:
            raise ValueError(f"no coproduct for letter {g}")
        grown: list[tuple[IntWord, IntWord]] = []
        for w1, w2 in pairs:
            live = alive.get((w1, g))
            if live is None:
                lefts = [(w1 + (a,), b) for a, b in legs]
                live = alive[w1, g] = [(p, b) for p, b in lefts if rewrite(p) is not None]
            grown += [(p, w2 + (b,)) for p, b in live]
        pairs = grown
    return pairs
