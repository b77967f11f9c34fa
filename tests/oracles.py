"""Test oracles: exact and numeric recomputations that no command needs,
used to check the package's results from a second angle."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np

from qisograph import corep
from qisograph.graphs import enumerate_paths
from qisograph.hilbert import LevelMap, level_gram
from qisograph.ncpoly import Generator, QKIND, UKIND, USTAR
from qisograph.perron import cylinder_measure
from qisograph.providers import RepresentationProvider
from qisograph.ratmat import rat_matmul, rat_max_abs, rat_nullspace, rat_sub, rat_zeros


#: a strongly connected graph with rho = 2, the unequal Perron weights
#: x = (1/3, 2/9, 5/18, 1/6) and trivial Aut(G): every bundled graph has
#: a uniform Perron vector, so this one alone has weighted collapses
#: whose weights differ
UNEQUAL4_TEXT = ("graph unequal4\nv 1\nv 2\nv 3\nv 4\n"
                 "e e12 1 2\ne e13 1 3\ne e14 1 4\ne e23 2 3\n"
                 "e e24 2 4\ne e31 3 1\ne e32 3 2\ne e41 4 1\n")


def u(row: str, col: str) -> Generator:
    return Generator(UKIND, row, col)


def ustar(row: str, col: str) -> Generator:
    return Generator(USTAR, row, col)


def q_point_provider(name: str, ids, *mats) -> RepresentationProvider:
    """The direct sum of the point evaluations q[a,b] -> m[a][b], one
    summand per matrix m of *mats*, each any nested sequence of scalars:
    magic-unitary generators at points other than the permutations,
    which are all the package builds."""
    return RepresentationProvider(name, len(mats), {
        Generator(QKIND, a, b): tuple(complex(m[i][j]) for m in mats)
        for i, a in enumerate(ids) for j, b in enumerate(ids)})


def dense_matmul(a, b):
    """a b by the triple loop over every entry, skipping zero terms: the
    reference for ``rat_matmul``, which visits only nonzero entries."""
    n, k, m = len(a), len(b), len(b[0])
    out = rat_zeros(n, m)
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c:
                for j in range(m):
                    if b[t][j]:
                        out[i][j] += c * b[t][j]
    return out


def rat_rank(a) -> int:
    """Rank by rank-nullity: columns minus the nullspace dimension."""
    if not a:
        return 0
    return len(a[0]) - len(rat_nullspace(a))


def rat_identity(n: int):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def total_level_mass(pf, g, k: int):
    """Sum of M over all degree-k cylinders; equals 1 for every k."""
    return sum(cylinder_measure(pf, lam) for lam in enumerate_paths(g, k))


def gram_adjoint(g, pf, m: LevelMap) -> LevelMap:
    """Adjoint with respect to the diagonal Gram forms (not Euclidean)."""
    gs = level_gram(g, pf, m.source_level)
    gt = level_gram(g, pf, m.target_level)
    rows = len(m.mat)
    cols = len(m.mat[0]) if rows else 0
    out = rat_zeros(cols, rows)
    for i in range(rows):
        for j in range(cols):
            if m.mat[i][j]:
                out[j][i] = m.mat[i][j] * gt[i] / gs[j]
    return LevelMap(m.target_level, m.source_level, m.half_power, out).normalized(pf)


def level_projections(triple) -> list:
    """Xi_q for q = 0..N, as running sums of the constants block and
    Xi-hat_0..Xi-hat_q."""
    out = []
    total = triple.constants_projection
    for hat in triple.xi_hat:
        total = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(total, hat)]
        out.append(total)
    return out


def projection_invariant_residual(triple) -> Fraction:
    """Worst violation of: Xi idempotent, Gram-self-adjoint, nested,
    Xi_N the identity; Xi-hat pairwise orthogonal.  All exact."""
    gram = triple.gram
    dim = len(gram)
    xi = level_projections(triple)
    worst = Fraction(0)
    for p in xi + [triple.constants_projection]:
        worst = max(worst, rat_max_abs(rat_sub(rat_matmul(p, p), p)))
        gp = [[gram[i] * p[i][j] for j in range(dim)] for i in range(dim)]
        ptg = [[p[j][i] * gram[j] for j in range(dim)] for i in range(dim)]
        worst = max(worst, rat_max_abs(rat_sub(gp, ptg)))
    for q in range(1, len(xi)):
        worst = max(worst, rat_max_abs(rat_sub(rat_matmul(xi[q - 1], xi[q]), xi[q - 1])))
    for a in range(len(triple.xi_hat)):
        for b in range(a + 1, len(triple.xi_hat)):
            worst = max(worst, rat_max_abs(rat_matmul(triple.xi_hat[a], triple.xi_hat[b])))
    worst = max(worst, rat_max_abs(rat_sub(xi[-1], rat_identity(dim))))
    return worst


def xi_hat_ranks(triple) -> list[int]:
    return [rat_rank(m) for m in triple.xi_hat]


def dirac_matrix(triple, alpha) -> np.ndarray:
    """sum_q alpha_q Xi-hat_q as a float matrix."""
    n = len(triple.gram)
    d = np.zeros((n, n))
    for q, m in enumerate(triple.xi_hat):
        d += alpha[q] * np.array([[float(x) for x in row] for row in m])
    return d


def dense_dirac_residuals(ctx, provider, triple=None) -> dict[str, float]:
    """The numeric Dirac check done densely: the level-``ctx.n_cap``
    matrix under each one-dimensional summand of *provider*, entry
    [s, i, j] the value of the level table's rows[i][j] on summand s,
    and the largest 2-norm, by SVD, of U*GU - G and of UH - HU over the
    summands and the projections H of *triple* (default
    ``dirac(ctx.g, ctx.pf, ctx.n_cap)``).  The norm of a direct sum is
    its largest summand's."""
    from qisograph.hilbert import dirac
    triple = triple or dirac(ctx.g, ctx.pf, ctx.n_cap)
    gens = ctx.rels.alphabet.gens
    u = np.array([[provider.value({word: 1}, gens) for word in row]
                  for row in ctx.level(ctx.n_cap).rows], dtype=complex)
    u = u.transpose(2, 0, 1)
    gmat = np.diag([float(x) for x in triple.gram])

    def norm(stack) -> float:
        return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())

    comm = max(norm(u @ hat - hat @ u)
               for hat in (np.array([[float(x) for x in row] for row in m])
                           for m in (*triple.xi_hat, triple.constants_projection)))
    return {"commutator": comm,
            "gram_unitarity": norm(u.conj().transpose(0, 2, 1) @ gmat @ u - gmat)}


def theta_dominating_terms(m_edges: int, t: float, eps: float, q_max: int) -> list[float]:
    """Terms exp(-t q^{1+2 eps}) m^q of the dominating series, q >= 1.

    n_q <= m^q holds for q >= 1 (the degree-q indicators are a basis of
    R_q); the q = 0 term n_0 = |V| - 1 is excluded from the pointwise
    bound.
    """
    return [math.exp(-t * q ** (1 + 2 * eps)) * m_edges ** q for q in range(1, q_max + 1)]


def letter_by_letter_value(provider, terms, gens) -> np.ndarray:
    """A provider's value of *terms* on each summand, by multiplying its
    value vectors letter by letter, words in (length, word) order."""
    total = np.zeros(provider.dim, dtype=complex)
    for word, coeff in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])):
        v = np.ones(provider.dim, dtype=complex)
        for g in word:
            v = v * np.array(provider.values(gens[g]), dtype=complex)
        total += float(coeff) * v
    return total


def letter_by_letter_norm(provider, terms, gens) -> float:
    return float(np.abs(letter_by_letter_value(provider, terms, gens)).max())


def brute_force_automorphisms(g) -> tuple[dict[str, str], ...]:
    """Every vertex permutation, in itertools order, that carries the
    multiset of (range, source) pairs onto itself."""
    pair_counts: dict[tuple[str, str], int] = {}
    for e in g.edges:
        key = (e.range, e.source)
        pair_counts[key] = pair_counts.get(key, 0) + 1
    autos = []
    for perm in itertools.permutations(g.vertices):
        sigma = dict(zip(g.vertices, perm))
        if all(pair_counts.get((sigma[r], sigma[s]), 0) == c
               for (r, s), c in pair_counts.items()):
            autos.append(sigma)
    return tuple(autos)


def all_pairs_transport(alpha) -> tuple[tuple[int, ...], ...]:
    """Every pair (sigma, tau) of *alpha*'s symmetries checked one by one:
    the id permutations q[a,b] -> q[sigma a, tau b] (generators outside
    the index set fixed), sigma outer, or () unless each carries every
    pair rule onto a rule with the same tag and the permuted right-hand
    side and the vanishing set onto itself, and each symmetry fixes
    every schema weight."""
    from qisograph.rewrite import _MISS
    maps = [{alpha.rank[a]: alpha.rank[b] for a, b in s.items()} for s in alpha.symmetries]
    for table in alpha.sum_axes:
        for _, weights in table.schemas:
            if weights and any(weights[m[r]] != w for m in maps for r, w in weights.items()):
                return ()
    n = alpha.size
    ruled = [at for at, rhs in enumerate(alpha.pair_rules) if rhs is not _MISS]
    perms = []
    for sigma in alpha.symmetries:
        for tau in alpha.symmetries:
            perm = tuple(gid if alpha.schema_kind[gid] is None
                         else alpha.ids[Generator(kind, sigma[row], tau[col])]
                         for gid, (kind, row, col) in enumerate(alpha.gens))
            for at in ruled:
                image = perm[at // n] * n + perm[at % n]
                rhs = alpha.pair_rules[at]
                if (alpha.pair_tags[image] != alpha.pair_tags[at]
                        or alpha.pair_rules[image] != (
                            None if rhs is None else tuple(map(perm.__getitem__, rhs)))):
                    return ()
            if {perm[g] for g in alpha.vanishing} != alpha.vanishing:
                return ()
            perms.append(perm)
    return tuple(perms)


def unreplayed_suite(ctx, k_max: int):
    """``run_identity_suite`` with every row computed: with no path
    maps, no orbit of rows has a second member to replay."""
    with mock.patch.object(corep, "path_maps", lambda ctx, degree: ()):
        return corep.run_identity_suite(ctx, k_max)


def stripped_rows(results) -> list[dict]:
    """Each check's report record without its wall time."""
    return [{k: v for k, v in r.to_dict().items() if k != "wall_ms"} for r in results]
