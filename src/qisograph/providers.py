"""Numeric representation providers: concrete assignments for the
abstract generators, validated against their relation set at
registration, used as nonzero-ness oracles and as cross-checks for the
symbolic prover.  Registration evaluates each of the relation set's
relators with ``value``, the evaluator every obligation's cross-check
runs, so a provider whose masks break a relation is refused.

Every provider is a direct sum of one-dimensional representations, so a
generator is stored as a tuple of exact numbers (ints and Fractions),
its value on each summand.  What is evaluated is the checker's int-word
-> coefficient dict, with its alphabet's ``gens`` as the letter table,
summand by summand; the operator norm of the direct sum is the largest
|value| over the summands.  There is one arithmetic, exact, so a value
is the same in any term order, registration demands exactly 0 and a
witness is an exactly nonzero value.  When every value is 0 or 1 (the
permutation providers), a word's values are the AND of its letters'
summand bitmasks (``word_mask``), and each coefficient is added to the
sum of every set bit; the Dirac check in ``corep`` reads each summand's
level matrix off the same masks.  The other providers, the point
evaluations, multiply rational values letter by letter.

The classical provider for a graph sums over its automorphism group:
q[i,j] takes the value delta_{i, sigma(j)} on the summand sigma.  Point
providers evaluate free-unitary generators at the entries of a rational
orthogonal matrix, which is a genuine one-dimensional *-representation
of the universal relations, so a nonzero value there is a sound
disproof.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .graphs import DirectedGraph, graph_automorphisms
from .ncpoly import Coeff, Generator, IntTerms, IntWord, QKIND, UKIND, USTAR
from .relations import RelationSet
from .verdict import UNKNOWN, WITNESSED_NONZERO, Verdict


class ProviderValidationError(ValueError):
    pass


@dataclass
class RepresentationProvider:
    """Direct sum of *dim* one-dimensional representations; *assignment*
    maps each generator to a tuple of its *dim* values, one per summand,
    as exact numbers.  If they are all exactly 0 or 1, ``_masks``
    maps each generator to the int whose bit s is set where its value on
    summand s is 1; otherwise evaluation multiplies the values."""

    name: str
    dim: int
    assignment: dict[Generator, tuple]

    def __post_init__(self):
        self._masks = None
        if all(x == 0 or x == 1 for v in self.assignment.values() for x in v):
            self._masks = {gen: sum(1 << s for s, x in enumerate(v) if x == 1)
                           for gen, v in self.assignment.items()}

    def values(self, gen: Generator) -> tuple:
        try:
            return self.assignment[gen]
        except KeyError:
            raise KeyError(f"provider {self.name} has no values for {gen}") from None

    def word_mask(self, word: IntWord, gens) -> int | None:
        """The summands on which *word* takes the value 1, as the AND of
        its letters' masks, stopped once it is 0; None unless every
        value is 0 or 1."""
        masks = self._masks
        if masks is None:
            return None
        mask = (1 << self.dim) - 1
        for g in word:
            try:
                mask &= masks[gens[g]]
            except KeyError:
                self.values(gens[g])                # raises the missing-generator error
            if not mask:
                break
        return mask

    def value(self, terms: IntTerms, gens) -> list[Coeff]:
        """The exact value of *terms* on each summand: on masks each
        coefficient is added on the summands its word's mask sets, else
        each word's values are multiplied letter by letter."""
        sums = [0] * self.dim
        if self._masks is None:
            for word, coeff in terms.items():
                v = [coeff] * self.dim
                for g in word:
                    v = [x * y for x, y in zip(v, self.values(gens[g]))]
                sums = [s + x for s, x in zip(sums, v)]
            return sums
        for word, coeff in terms.items():
            mask = self.word_mask(word, gens)
            while mask:
                low = mask & -mask
                sums[low.bit_length() - 1] += coeff
                mask ^= low
        return sums

    def norm(self, terms: IntTerms, gens) -> Coeff:
        return max(map(abs, self.value(terms, gens)))


def register(provider: RepresentationProvider, rels: RelationSet) -> RepresentationProvider:
    """Validate every relation of *rels* under the provider: each of
    ``rels.relators()`` must take exactly the value 0 on every summand,
    evaluated by ``value`` as any obligation is."""
    gens = rels.alphabet.gens
    for label, poly in rels.relators():
        for v in provider.value(poly, gens):
            if v != 0:
                raise ProviderValidationError(
                    f"provider {provider.name} violates {label} (residual {abs(v)})")
    return provider


def permutation_diag_rep(name: str, ids, permutations) -> RepresentationProvider:
    """Direct sum over a list of permutations (dicts): q[i,j] takes the
    value delta_{i, sigma(j)} on the summand sigma."""
    ids = tuple(ids)
    assignment = {Generator(QKIND, i, j): tuple(int(sigma[j] == i) for sigma in permutations)
                  for i in ids for j in ids}
    return RepresentationProvider(name, len(permutations), assignment)


def classical_rep(g: DirectedGraph, rels: RelationSet) -> RepresentationProvider:
    """Abelianization through the classical automorphism group of *g*,
    registered against *rels*.

    Dimension |Aut(g)|; a trivial automorphism group still yields a
    valid one-dimensional provider.
    """
    autos = graph_automorphisms(g)
    return register(permutation_diag_rep(f"classical({g.name})", g.vertices, autos), rels)


def loop_permutation_rep(ids, rels: RelationSet) -> RepresentationProvider:
    """Point evaluations at every permutation of *ids* (for edge-indexed
    magic unitaries on the one-vertex loop graphs), registered against
    *rels*."""
    ids = tuple(ids)
    perms = [dict(zip(ids, p)) for p in itertools.permutations(ids)]
    return register(permutation_diag_rep(f"perms({len(ids)})", ids, perms), rels)


def matrix_point_provider(name: str, ids, mat) -> RepresentationProvider:
    """Evaluate the free-unitary generators at the entries of a concrete
    rational matrix, any nested sequence: scalars, i.e. a
    one-dimensional representation.  An entry is real, so its adjoint
    entry is the entry itself."""
    ids = tuple(ids)
    assignment: dict[Generator, tuple] = {}
    for a, row in zip(ids, mat):
        for b, entry in zip(ids, row):
            assignment[Generator(UKIND, a, b)] = assignment[Generator(USTAR, a, b)] = (entry,)
    return RepresentationProvider(name, 1, assignment)


def unitary_provider_portfolio(ids, rels: RelationSet) -> list[RepresentationProvider]:
    """Two exact point evaluations, each registered against the
    free-unitary relations: -I, under which every row sum
    sum_i u[k,i] - 1 is -2, and the Cayley rotation
    [[3/5, -4/5], [4/5, 3/5]] in the first two coordinates, identity
    elsewhere."""
    n = len(ids)
    if n < 2:
        raise ValueError("the unitary portfolio needs n >= 2")
    minus_identity = [[-int(i == j) for j in range(n)] for i in range(n)]
    cayley = [[int(i == j) for j in range(n)] for i in range(n)]
    c, s = Fraction(3, 5), Fraction(4, 5)
    cayley[0][:2], cayley[1][:2] = [c, -s], [s, c]
    providers = [matrix_point_provider("minus-identity", ids, minus_identity),
                 matrix_point_provider("cayley", ids, cayley)]
    return [register(p, rels) for p in providers]


def witness_nonzero(terms: IntTerms, gens, providers) -> Verdict:
    """WitnessedNonzero when some provider maps *terms* to an exactly
    nonzero value, with its norm as the exact residual; otherwise
    Unknown."""
    for provider in providers:
        norm = provider.norm(terms, gens)
        if norm:
            return Verdict(WITNESSED_NONZERO, provider=provider.name, residual=Fraction(norm))
    return Verdict(UNKNOWN)
