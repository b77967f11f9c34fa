"""Finite-rank truncations of the path-space L^2, the representation of
the graph algebra on them, embeddings, the level projections of the
truncated Dirac operator, and the heat-trace numerics.

The degree-k cylinder indicators form a basis of the level-k space; the
inner product is the diagonal Gram form with entries M([eta]), a tuple
in basis order (``level_gram``).  Maps
between levels carry an explicit half-integer power of the spectral
radius so that compositions such as S_e* S_e stay exactly rational.
The embeddings (source-append, the side the measure is additive on)
and the generators S_lambda, S_lambda*, p_v are all path maps: each is
its list of (source position, target position) pairs of basis paths,
read off the graph's shift maps (``graphs.shift_map``; p_v is S_v for
the vertex v as a degree-0 path, and the embedding of lam is the image
of S_lam), and one builder turns such a list into its 0/1 int matrix.
Products of path maps stay int; a word's power of rho is normalised
once, when ``represent`` returns.  Operator identities are
asserted only on interior levels: a finite window cannot represent
S_e on its top level.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    DirectedGraph, Path, SOURCE_APPEND, adjacency_matrix, basis_index, edge_path,
    enumerate_paths, shift_map, vertex_path,
)
from .perron import PerronData, additivity_residual, cylinder_measure
from .ratmat import Mat, rat_matmul, rat_max_abs, rat_zeros


class TruncationOverflowError(ValueError):
    pass


def level_gram(g: DirectedGraph, pf: PerronData, k: int) -> tuple[Fraction, ...]:
    """The diagonal Gram form of the level-k space: M([eta]) for each
    degree-k path eta, in enumerate_paths order."""
    return tuple(cylinder_measure(pf, eta) for eta in enumerate_paths(g, k))


@dataclass
class LevelMap:
    """Matrix from the level-l basis to the level-k basis times
    rho^{half_power/2}; ``compose`` adds the powers, and ``normalized``
    absorbs their even part into the matrix, leaving {0, 1}."""

    source_level: int
    target_level: int
    half_power: int
    mat: Mat

    def normalized(self, pf: PerronData) -> "LevelMap":
        half = self.half_power
        if half in (0, 1):
            return self
        even, rem = divmod(half, 2)
        scale = pf.rho ** even
        return LevelMap(self.source_level, self.target_level, rem,
                        [[scale * x for x in row] for row in self.mat])

    def compose(self, other: "LevelMap") -> "LevelMap":
        """self after other, with the powers of rho added unnormalised."""
        if other.target_level != self.source_level:
            raise ValueError("level mismatch in composition")
        return LevelMap(other.source_level, self.target_level,
                        self.half_power + other.half_power,
                        rat_matmul(self.mat, other.mat))

    def residual(self, other: "LevelMap") -> Fraction:
        if self.half_power != other.half_power:
            return rat_max_abs(self.mat) + rat_max_abs(other.mat)
        # rows that compare equal, a comparison made in C, add nothing
        return Fraction(max((abs(x - y) for ra, rb in zip(self.mat, other.mat) if ra != rb
                             for x, y in zip(ra, rb)), default=0))


def _path_map(g: DirectedGraph, l: int, k: int, pairs, half_power: int) -> LevelMap:
    """The 0/1 matrix from the level-l basis to the level-k basis with a
    one at (target, source) for each pair of basis positions (source,
    target) in *pairs*, times rho^{half_power/2}."""
    mat = rat_zeros(len(basis_index(g, k)), len(basis_index(g, l)))
    for src, tgt in pairs:
        mat[tgt][src] += 1
    return LevelMap(l, k, half_power, mat)


def embed(g: DirectedGraph, l: int, k: int) -> LevelMap:
    """Inclusion R_l -> R_k: columns are 0/1 source-append refinement
    indicators."""
    if l > k:
        raise ValueError("embedding goes upward in level")
    return _path_map(g, l, k, ((i, mu) for i, lam in enumerate(basis_index(g, l))
                               for _, mu in shift_map(g, "s", lam, k - l)), 0)


def embedding_gram_residual(g: DirectedGraph, pf: PerronData, l: int, k: int,
                            convention: str = SOURCE_APPEND) -> Fraction:
    """Max entry of E^T G_k E - G_l; exactly 0 for the measure-consistent
    convention (the embedding is then a Gram isometry).  Distinct paths
    have disjoint refinements, so the difference is the diagonal of
    additivity residuals of M."""
    if l == k:
        return Fraction(0)
    return max(additivity_residual(pf, g, lam, k - l, convention)
               for lam in enumerate_paths(g, l))


# ---------------------------------------------------------------------------
# the representation

def _map_s(g, lam: Path, k: int, n_cap: int) -> LevelMap:
    d = lam.degree
    if k + d > n_cap:
        raise TruncationOverflowError(f"S_{lam.label} on level {k} exceeds truncation {n_cap}")
    return _path_map(g, k, k + d, shift_map(g, "s", lam, k), d)


def _map_s_star(g, lam: Path, k: int) -> LevelMap:
    return _path_map(g, k, max(k - lam.degree, 0), shift_map(g, "s*", lam, k), -lam.degree)


def _map_p(g, v: str, k: int) -> LevelMap:
    return _path_map(g, k, k, shift_map(g, "s", vertex_path(v), k), 0)


def represent(g: DirectedGraph, pf: PerronData, ops, k: int, n_cap: int) -> LevelMap:
    """Matrix of a nonempty word in S_lambda, S_lambda*, p_v on the
    level-k basis.

    *ops* is a sequence of ("s", path), ("s*", path), ("p", vertex)
    applied right to left; intermediate levels must stay within the
    truncation window [0, n_cap].
    """
    cur = None
    for kind, arg in reversed(list(ops)):
        lvl = k if cur is None else cur.target_level
        if kind == "s":
            step = _map_s(g, arg, lvl, n_cap)
        elif kind == "s*":
            step = _map_s_star(g, arg, lvl)
        elif kind == "p":
            step = _map_p(g, arg, lvl)
        else:
            raise ValueError(f"unknown symbol {kind!r}")
        cur = step if cur is None else step.compose(cur)
    if cur is None:
        raise ValueError("represent needs at least one operator")
    return cur.normalized(pf)


@dataclass(frozen=True)
class CuntzKriegerReport:
    residual_annihilation: Fraction    # max over S_e* S_e = p_{s(e)}
    residual_completeness: Fraction    # max over p_v = sum S_e S_e*

    @property
    def exact(self) -> bool:
        return self.residual_annihilation == 0 and self.residual_completeness == 0


def cuntz_krieger_check(g: DirectedGraph, pf: PerronData, n_cap: int) -> CuntzKriegerReport:
    """Verify both defining relations exactly on interior levels.

    S_e* S_e = p_{s(e)} is checked on levels 0..N-1 (the image passes
    through level k+1) and p_v = sum_{r(e)=v} S_e S_e* on levels 1..N-1
    (through level k-1); at level 0 the latter is the refinement
    identity, which lives with the embeddings.
    """
    res1 = Fraction(0)
    res2 = Fraction(0)
    for k in range(n_cap):
        for e in g.sorted_edges:
            lam = edge_path(g, e.id)
            lhs = represent(g, pf, [("s*", lam), ("s", lam)], k, n_cap)
            rhs = represent(g, pf, [("p", e.source)], k, n_cap)
            res1 = max(res1, lhs.residual(rhs))
    for k in range(1, n_cap):
        for v in g.vertices:
            total = None
            for e in g.edges_into[v]:
                lam = edge_path(g, e.id)
                term = represent(g, pf, [("s", lam), ("s*", lam)], k, n_cap)
                total = term if total is None else LevelMap(
                    k, k, term.half_power,
                    [list(map(operator.add, ra, rb)) for ra, rb in zip(total.mat, term.mat)])
            rhs = represent(g, pf, [("p", v)], k, n_cap)
            res2 = max(res2, total.residual(rhs))
    return CuntzKriegerReport(res1, res2)


# ---------------------------------------------------------------------------
# Dirac operator and heat-trace numerics

def path_counts(g: DirectedGraph, up_to: int) -> list[int]:
    """#degree-k paths for k = 0..up_to, via powers of the vertex matrix."""
    a = adjacency_matrix(g)
    n = len(a)
    counts = [n]
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(up_to):
        power = [[sum(power[i][t] * a[t][j] for t in range(n)) for j in range(n)]
                 for i in range(n)]
        counts.append(sum(sum(row) for row in power))
    return counts


def multiplicities(g: DirectedGraph, up_to: int) -> list[int]:
    """n_q = dim R_q - dim R_{q-1}, with R_{-1} the constants, so
    n_0 = |V| - 1."""
    counts = path_counts(g, up_to)
    out = [counts[0] - 1]
    out += [counts[q] - counts[q - 1] for q in range(1, up_to + 1)]
    return out


def alpha_sequence(n_cap: int, eps: float) -> tuple[float, ...]:
    """Dirac eigenvalue scale q^{1/2+eps}, whose squares are the heat-trace
    exponents; for eps in (0, 1/2) its gaps lie in (0, 1]."""
    return tuple(float(q) ** (0.5 + eps) for q in range(n_cap + 1))


@dataclass
class TruncatedTriple:
    """What the Dirac commutation check reads of the truncated triple:
    the level-N Gram diagonal and the exact level projections."""

    gram: tuple[Fraction, ...]     # the level-N Gram diagonal
    projections: list[Mat]         # Xi_{-1} (the constants), Xi_0, ..., Xi_N


def dirac(g: DirectedGraph, pf: PerronData, n_cap: int) -> TruncatedTriple:
    """The exact Gram-orthogonal level projections of the truncated Dirac
    operator: Xi_{-1} onto the constants and Xi_q onto level q
    (source-append embeddings) for q = 0..N.  Its eigenprojections are
    the differences Xi_q - Xi_{q-1}, so a basis permutation keeps each of
    them exactly when it keeps each level projection."""
    gram = level_gram(g, pf, n_cap)
    ones = [[Fraction(1)] for _ in gram]
    projections = [rat_matmul(ones, [list(gram)])]   # u (Gu)^T, with u^T G u = 1
    for q in range(n_cap + 1):
        e = embed(g, q, n_cap).mat
        gq = level_gram(g, pf, q)
        # Xi_q = E G_q^{-1} E^T G_N with diagonal Gram blocks
        left = [[x and x / gq[j] for j, x in enumerate(row)] for row in e]
        right = [[x and x * gram[j] for j, x in enumerate(col)] for col in zip(*e)]
        projections.append(rat_matmul(left, right))
    return TruncatedTriple(gram, projections)


def theta_partial_sums(mults, t: float, eps: float, q_max: int) -> list[float]:
    """Every partial heat trace sum_{q<=Q} exp(-t q^{1+2 eps}) n_q for
    Q = 0..q_max over the multiplicity list *mults*, in one left-to-right
    pass.  Each term is w * n_q correctly rounded, formed exactly as
    Fraction(w) * n_q so that an n_q beyond float range is never
    converted on its own (below 2**53 this is the float product w * n_q);
    a term whose exponential underflows adds exactly 0.0 and is skipped.
    A term or a sum beyond float range reads inf."""
    sums = []
    total = 0.0
    for q in range(q_max + 1):
        w = math.exp(-t * q ** (1 + 2 * eps))
        if w:
            try:
                total += float(Fraction(w) * mults[q])
            except OverflowError:
                total = math.inf
        sums.append(total)
    return sums


def theta_tail_bound(rho: float, min_x: float, t: float, eps: float, q_max: int) -> float:
    """Upper bound on the heat-trace tail sum_{q > Q} exp(-t q^{1+2 eps}) n_q.

    n_q <= #degree-q paths <= rho^q / min x, with x the mass-one Perron
    vector, since 1^T A^q 1 <= 1^T A^q x / min x.  The ratio of
    consecutive terms of that bound, rho exp(-t((q+1)^p - q^p)) with
    p = 1 + 2 eps, decreases in q; the terms are summed up to the first
    q > Q where it is below 1, and a geometric series in that ratio
    bounds the rest.  Returns inf when a term overflows.
    """
    p = 1 + 2 * eps
    log_rho = math.log(rho) if rho > 0 else -math.inf
    log_scale = -math.log(min_x)
    total = 0.0
    q = q_max + 1
    while True:
        log_term = q * log_rho - t * q ** p + log_scale
        if log_term > 700:
            return math.inf
        term = math.exp(log_term)
        total += term
        ratio = rho * math.exp(-t * ((q + 1) ** p - q ** p))
        if ratio < 1:
            return total + term * ratio / (1 - ratio)
        q += 1
