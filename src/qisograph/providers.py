"""Numeric representation providers: concrete assignments for the
abstract generators, validated against their relation set at
registration, used as nonzero-ness oracles and as cross-checks for the
symbolic prover.

Every provider is a direct sum of one-dimensional representations, so a
generator is stored as a tuple of plain Python numbers, its value on
each summand.  What is evaluated is the checker's int-word ->
coefficient dict, with its alphabet's ``gens`` as the letter table,
summand by summand and words in (length, word) order; the operator norm
of the direct sum is the largest |value| over the summands.  When every
value is exactly 0 or 1 (the permutation providers), a word's values
are the AND of its letters' summand bitmasks (``word_mask``), and each
coefficient is added to the sum of every set bit, in plain Python; the
Dirac check in ``corep`` reads each summand's level matrix off the same
masks.  Point providers multiply numpy value vectors letter by letter;
that float path, and the Dirac check's dense fallback, which a
provider whose summands are permutations keeping the Gram form and
the Dirac projections never reaches, are the only places numpy is
imported, so building, registering and evaluating the permutation
providers, and certifying them, never load it.

The classical provider for a graph sums over its automorphism group:
q[i,j] takes the value delta_{i, sigma(j)} on the summand sigma.  Point
providers evaluate free-unitary generators at the entries of a concrete
unitary matrix, which is a genuine one-dimensional *-representation of
the universal relations, so a nonzero value there is a sound disproof.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

from .graphs import DirectedGraph, graph_automorphisms
from .ncpoly import Generator, IntTerms, IntWord, QKIND, UKIND, USTAR
from .relations import RelationSet
from .verdict import UNKNOWN, WITNESSED_NONZERO, Verdict


#: the tolerance every relation is validated to at registration; a
#: value ten times larger witnesses nonzero-ness
PROVIDER_TOL = 1e-10


class ProviderValidationError(ValueError):
    pass


@dataclass
class RepresentationProvider:
    """Direct sum of *dim* one-dimensional representations; *assignment*
    maps each generator to a tuple of its *dim* values, one per summand,
    as plain Python numbers.  If they are all exactly 0 or 1, ``_masks``
    maps each generator to the int whose bit s is set where its value on
    summand s is 1; otherwise evaluation runs on numpy vectors."""

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

    def value(self, terms: IntTerms, gens):
        """The value of *terms* on each summand, words in (length, word)
        order: a list of floats on masks, where the words whose mask is
        0 add nothing, else a complex numpy vector."""
        if self._masks is None:
            import numpy as np
            total = np.zeros(self.dim, dtype=complex)
            for word, coeff in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])):
                v = np.ones(self.dim, dtype=complex)
                for g in word:
                    v = v * np.array(self.values(gens[g]), dtype=complex)
                total += float(coeff) * v
            return total
        live = []
        for word, coeff in terms.items():
            mask = self.word_mask(word, gens)
            if mask:
                live.append((len(word), word, mask, float(coeff)))
        sums = [0.0] * self.dim
        for _, _, mask, c in sorted(live):
            while mask:
                low = mask & -mask
                sums[low.bit_length() - 1] += c
                mask ^= low
        return sums

    def norm(self, terms: IntTerms, gens) -> float:
        sums = self.value(terms, gens)
        if self._masks is None:
            import numpy as np
            return float(np.abs(sums).max())
        return max(map(abs, sums))


def _check(provider: RepresentationProvider, label: str, terms, target=0.0):
    """Raise unless sum(c * product of the word's values) over *terms*,
    pairs (c, generator word), is within PROVIDER_TOL of *target* on
    every summand; a NaN residual fails."""
    ones = [1] * provider.dim                   # the value of the empty word
    totals = [0] * provider.dim
    for c, word in terms:
        products = map(math.prod, zip(ones, *map(provider.values, word)))
        totals = [t + c * p for t, p in zip(totals, products)]
    for total in totals:
        err = abs(total - target)
        if not err <= PROVIDER_TOL:
            raise ProviderValidationError(
                f"provider {provider.name} violates {label} (residual {err:.3g})")


def register(provider: RepresentationProvider, rels: RelationSet) -> RepresentationProvider:
    """Validate every relation of *rels* under the provider's values."""
    for (g1, g2), rhs in rels.pair_rules.items():
        if rhs is None:
            _check(provider, f"rule {g1}{g2}->0", [(1, (g1, g2))])
        else:
            _check(provider, f"rule {g1}{g2}", [(1, (g1, g2)), (-1, rhs)])
    for schema in rels.sum_schemas:
        for fixed in rels.universe:
            terms = [(float(rels.weight_of(schema, var)),
                      (Generator(rels.gen_kind, var, fixed) if schema.varying_axis == "row"
                       else Generator(rels.gen_kind, fixed, var),))
                     for var in rels.universe]
            _check(provider, f"schema {schema.tag}@{fixed}", terms,
                   float(rels.weight_of(schema, fixed)))
    for schema in rels.unitary_schemas:
        kind1, kind2 = schema.kinds
        ax1, ax2 = schema.shared_axes
        for i in rels.universe:
            for j in rels.universe:
                terms = [(1, (Generator(kind1, k, i) if ax1 == "row" else Generator(kind1, i, k),
                              Generator(kind2, k, j) if ax2 == "row" else Generator(kind2, j, k)))
                         for k in rels.universe]
                _check(provider, f"schema {schema.tag}@({i},{j})", terms,
                       1.0 if i == j else 0.0)
    for idx, p in enumerate(rels.linear_relations):
        _check(provider, f"linear relation #{idx}", [(float(c), (g,)) for g, c in p.items()])
    for gen in sorted(rels.vanishing):
        _check(provider, f"vanishing generator {gen}", [(1, (gen,))])
    return provider


def permutation_diag_rep(name: str, ids, permutations,
                         kind: str = QKIND) -> RepresentationProvider:
    """Direct sum over a list of permutations (dicts): g[i,j] takes the
    value delta_{i, sigma(j)} on the summand sigma."""
    ids = tuple(ids)
    assignment = {Generator(kind, i, j): tuple(int(sigma[j] == i) for sigma in permutations)
                  for i in ids for j in ids}
    return RepresentationProvider(name, len(permutations), assignment)


def classical_rep(g: DirectedGraph, rels: RelationSet | None = None) -> RepresentationProvider:
    """Abelianization through the classical automorphism group of *g*.

    Dimension |Aut(g)|; a trivial automorphism group still yields a
    valid one-dimensional provider.
    """
    autos = graph_automorphisms(g)
    provider = permutation_diag_rep(f"classical({g.name})", g.vertices, autos)
    if rels is not None:
        register(provider, rels)
    return provider


def loop_permutation_rep(ids, rels: RelationSet | None = None) -> RepresentationProvider:
    """Point evaluations at every permutation of *ids* (for edge-indexed
    magic unitaries on the one-vertex loop graphs)."""
    ids = tuple(ids)
    perms = [dict(zip(ids, p)) for p in itertools.permutations(ids)]
    provider = permutation_diag_rep(f"perms({len(ids)})", ids, perms)
    if rels is not None:
        register(provider, rels)
    return provider


def matrix_point_provider(name: str, ids, mat, kind: str = UKIND) -> RepresentationProvider:
    """Evaluate generators at the entries of a concrete matrix, any
    nested sequence: scalars, i.e. a one-dimensional representation.
    For the free-unitary kind the adjoint entries are the conjugates."""
    ids = tuple(ids)
    assignment: dict[Generator, tuple] = {}
    for a, row in zip(ids, mat):
        for b, entry in zip(ids, row):
            z = complex(entry)
            assignment[Generator(kind, a, b)] = (z,)
            if kind == UKIND:
                assignment[Generator(USTAR, a, b)] = (z.conjugate(),)
    return RepresentationProvider(name, 1, assignment)


def identity_unitary(n: int) -> list[list[float]]:
    return [[float(i == j) for j in range(n)] for i in range(n)]


def rotation_unitary(n: int, theta: float = math.pi / 4) -> list[list[float]]:
    """Plane rotation in the first two coordinates, identity elsewhere."""
    if n < 2:
        raise ValueError("rotation needs n >= 2")
    m = identity_unitary(n)
    c, s = math.cos(theta), math.sin(theta)
    m[0][0], m[0][1], m[1][0], m[1][1] = c, -s, s, c
    return m


def fourier_unitary(n: int) -> list[list[complex]]:
    """Discrete-Fourier-type unitary F[j,k] = omega^{jk} / sqrt(n)."""
    omega = cmath.exp(2j * cmath.pi / n)
    return [[omega ** (j * k) / math.sqrt(n) for k in range(n)] for j in range(n)]


def unitary_provider_portfolio(ids, rels: RelationSet) -> list[RepresentationProvider]:
    """Identity, generic rotation, and Fourier-type point evaluations,
    each registered against the free-unitary relations."""
    n = len(ids)
    providers = [
        matrix_point_provider("identity", ids, identity_unitary(n)),
        matrix_point_provider("rotation", ids, rotation_unitary(n)),
        matrix_point_provider("fourier", ids, fourier_unitary(n)),
    ]
    return [register(p, rels) for p in providers]


def witness_nonzero(terms: IntTerms, gens, providers) -> Verdict:
    """WitnessedNonzero when some provider maps *terms* to a value of
    norm above ten times its tolerance; otherwise Unknown."""
    for provider in providers:
        norm = provider.norm(terms, gens)
        if norm > 10 * PROVIDER_TOL:
            return Verdict(WITNESSED_NONZERO, provider=provider.name, residual=norm)
    return Verdict(UNKNOWN)
