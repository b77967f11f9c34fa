"""Numeric representation providers: concrete assignments for the
abstract generators, validated against their relation set at
registration, used as nonzero-ness oracles and as cross-checks for the
symbolic prover.

Every provider is a direct sum of one-dimensional representations, so a
generator is stored as its value vector of shape (dim,), one entry per
summand.  What is evaluated is the checker's int-word -> coefficient
dict, with its alphabet's ``gens`` as the letter table, summand by
summand and words in (length, word) order; the operator norm of the
direct sum is the largest |value| over the summands.  When every value
is exactly 0 or 1 (the permutation providers), a word's values are the
AND of its letters' summand bitmasks, and each coefficient is added to
the sum of every set bit: the same floats as multiplying the value
vectors letter by letter, which point providers still do.

The classical provider for a graph sums over its automorphism group:
q[i,j] takes the value delta_{i, sigma(j)} on the summand sigma.  Point
providers evaluate free-unitary generators at the entries of a concrete
unitary matrix, which is a genuine one-dimensional *-representation of
the universal relations, so a nonzero value there is a sound disproof.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .graphs import DirectedGraph, graph_automorphisms
from .ncpoly import Generator, IntTerms, QKIND, UKIND, USTAR
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
    maps each generator to its values on the summands, shape (dim,).
    If they are all exactly 0 or 1, ``_masks`` maps each generator to
    the int whose bit s is set where its value on summand s is 1."""

    name: str
    dim: int
    assignment: dict[Generator, np.ndarray]

    def __post_init__(self):
        self._masks = None
        if all(np.isin(v, (0, 1)).all() for v in self.assignment.values()):
            self._masks = {gen: sum(1 << int(s) for s in np.flatnonzero(v))
                           for gen, v in self.assignment.items()}

    def values(self, gen: Generator) -> np.ndarray:
        try:
            return self.assignment[gen]
        except KeyError:
            raise KeyError(f"provider {self.name} has no values for {gen}") from None

    def _sums(self, terms: IntTerms, gens):
        """The value of *terms* on each summand, words in (length, word)
        order; on masks, the words whose mask is 0 add nothing."""
        if self._masks is None:
            total = np.zeros(self.dim, dtype=complex)
            for word, coeff in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])):
                v = np.ones(self.dim, dtype=complex)
                for g in word:
                    v = v * self.values(gens[g])
                total += float(coeff) * v
            return total
        live = []
        for word, coeff in terms.items():
            mask = (1 << self.dim) - 1
            for g in word:
                try:
                    mask &= self._masks[gens[g]]
                except KeyError:
                    self.values(gens[g])            # raises the missing-generator error
                if not mask:
                    break
            else:
                live.append((len(word), word, mask, float(coeff)))
        sums = [0.0] * self.dim
        for _, _, mask, c in sorted(live):
            while mask:
                low = mask & -mask
                sums[low.bit_length() - 1] += c
                mask ^= low
        return sums

    def value(self, terms: IntTerms, gens) -> np.ndarray:
        return np.array(self._sums(terms, gens), dtype=complex)

    def norm(self, terms: IntTerms, gens) -> float:
        sums = self._sums(terms, gens)
        return float(np.abs(sums).max()) if self._masks is None else max(map(abs, sums))


def _check_close(name: str, label: str, actual: np.ndarray,
                 expected: np.ndarray | float):
    err = float(np.abs(actual - expected).max())
    if err > PROVIDER_TOL:
        raise ProviderValidationError(
            f"provider {name} violates {label} (residual {err:.3g})")


def register(provider: RepresentationProvider, rels: RelationSet) -> RepresentationProvider:
    """Validate every relation of *rels* under the provider's values."""
    for (g1, g2), rhs in rels.pair_rules.items():
        lhs = provider.values(g1) * provider.values(g2)
        if rhs is None:
            _check_close(provider.name, f"rule {g1}{g2}->0", lhs, 0.0)
        else:
            v = np.ones(provider.dim, dtype=complex)
            for g in rhs:
                v = v * provider.values(g)
            _check_close(provider.name, f"rule {g1}{g2}", lhs, v)
    for schema in rels.sum_schemas:
        for fixed in rels.universe:
            total = np.zeros(provider.dim, dtype=complex)
            for var in rels.universe:
                gen = (Generator(rels.gen_kind, var, fixed) if schema.varying_axis == "row"
                       else Generator(rels.gen_kind, fixed, var))
                w = rels.weight_of(schema, var)
                total = total + float(w) * provider.values(gen)
            target = float(rels.weight_of(schema, fixed))
            _check_close(provider.name, f"schema {schema.tag}@{fixed}", total, target)
    for schema in rels.unitary_schemas:
        kind1, kind2 = schema.kinds
        ax1, ax2 = schema.shared_axes
        for i in rels.universe:
            for j in rels.universe:
                total = np.zeros(provider.dim, dtype=complex)
                for k in rels.universe:
                    g1 = Generator(kind1, k, i) if ax1 == "row" else Generator(kind1, i, k)
                    g2 = Generator(kind2, k, j) if ax2 == "row" else Generator(kind2, j, k)
                    total = total + provider.values(g1) * provider.values(g2)
                target = 1.0 if i == j else 0.0
                _check_close(provider.name, f"schema {schema.tag}@({i},{j})", total, target)
    for idx, p in enumerate(rels.linear_relations):
        total = sum(float(c) * provider.values(g) for g, c in p.items())
        _check_close(provider.name, f"linear relation #{idx}", total, 0.0)
    for gen in sorted(rels.vanishing):
        _check_close(provider.name, f"vanishing generator {gen}", provider.values(gen), 0.0)
    return provider


def permutation_diag_rep(name: str, ids, permutations,
                         kind: str = QKIND) -> RepresentationProvider:
    """Direct sum over a list of permutations (dicts): g[i,j] takes the
    value delta_{i, sigma(j)} on the summand sigma."""
    ids = tuple(ids)
    dim = len(permutations)
    assignment: dict[Generator, np.ndarray] = {}
    for i in ids:
        for j in ids:
            assignment[Generator(kind, i, j)] = np.array(
                [1.0 + 0j if sigma[j] == i else 0j for sigma in permutations])
    return RepresentationProvider(name, dim, assignment)


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
    import itertools
    ids = tuple(ids)
    perms = [dict(zip(ids, p)) for p in itertools.permutations(ids)]
    provider = permutation_diag_rep(f"perms({len(ids)})", ids, perms)
    if rels is not None:
        register(provider, rels)
    return provider


def matrix_point_provider(name: str, ids, mat, kind: str = UKIND) -> RepresentationProvider:
    """Evaluate generators at the entries of a concrete matrix: scalars,
    i.e. a one-dimensional representation.  For the free-unitary kind the
    adjoint entries are the conjugates."""
    ids = tuple(ids)
    mat = np.asarray(mat, dtype=complex)
    assignment: dict[Generator, np.ndarray] = {}
    for a, i in zip(ids, range(len(ids))):
        for b, j in zip(ids, range(len(ids))):
            assignment[Generator(kind, a, b)] = np.array([mat[i, j]])
            if kind == UKIND:
                assignment[Generator(USTAR, a, b)] = np.array([np.conj(mat[i, j])])
    return RepresentationProvider(name, 1, assignment)


def identity_unitary(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def rotation_unitary(n: int, theta: float = math.pi / 4) -> np.ndarray:
    """Plane rotation in the first two coordinates, identity elsewhere."""
    if n < 2:
        raise ValueError("rotation needs n >= 2")
    m = np.eye(n, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
    return m


def fourier_unitary(n: int) -> np.ndarray:
    """Discrete-Fourier-type unitary F[j,k] = omega^{jk} / sqrt(n)."""
    omega = cmath.exp(2j * cmath.pi / n)
    return np.array([[omega ** (j * k) / math.sqrt(n) for k in range(n)]
                     for j in range(n)])


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
