"""Test oracles: exact and numeric recomputations that no command needs,
used to check the package's results from a second angle."""

import cmath
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np

from qisograph import corep
from qisograph.cuntz import MAGIC, cuntz_setup, sn_plus_context
from qisograph.graphs import enumerate_paths, parse_graph
from qisograph.hilbert import LevelMap, level_gram
from qisograph.ncpoly import Generator, IntWord, QKIND, UKIND, USTAR
from qisograph.perron import cylinder_measure, perron
from qisograph.providers import RepresentationProvider, classical_rep
from qisograph.ratmat import rat_matmul, rat_max_abs, rat_nullspace, rat_zeros
from qisograph.relations import qaut_relations


#: a strongly connected graph with rho = 2, the unequal Perron weights
#: x = (1/3, 2/9, 5/18, 1/6) and trivial Aut(G): every bundled graph has
#: a uniform Perron vector, so this one alone has weighted collapses
#: whose weights differ
UNEQUAL4_TEXT = ("graph unequal4\nv 1\nv 2\nv 3\nv 4\n"
                 "e e12 1 2\ne e13 1 3\ne e14 1 4\ne e23 2 3\n"
                 "e e24 2 4\ne e31 3 1\ne e32 3 2\ne e41 4 1\n")

#: the complete digraph on four vertices, the loop graph with four
#: loops, and the undirected and directed 8-cycles
K4 = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
LOOPS4 = "graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5))
UCYCLE8 = "graph ucycle8\n" + "".join(f"v {v}\n" for v in range(8)) + "".join(
    f"e e{r}_{s} {r} {s}\n" for r in range(8) for s in range(8) if (r - s) % 8 in (1, 7))
DCYCLE8 = "graph dcycle8\n" + "".join(f"v {v}\n" for v in range(8)) + "".join(
    f"e e{r} {r} {(r + 1) % 8}\n" for r in range(8))


def suite_context(text: str, magic: bool, n_cap: int = 3) -> corep.VerificationContext:
    """A fresh context on the graph *text*, with its own relation set and
    so its own proof store: the magic suite on a loop graph (*magic*),
    otherwise qaut(G) with the automorphism provider in the vertex-pair
    scheme."""
    g = parse_graph(text)
    if magic:
        return sn_plus_context(cuntz_setup(g, MAGIC), n_cap)
    pf = perron(g)
    rels = qaut_relations(g, pf)
    return corep.VerificationContext(g, pf, rels, corep.VERTEX_PAIR,
                                     [classical_rep(g, rels)], n_cap)


def full_comultiply(word: IntWord, split) -> list[tuple[IntWord, IntWord]]:
    """Delta(word) in full, as its (left, right) int-word pairs, each
    with coefficient 1: each letter expands through *split*, the
    alphabet's per-id (left, right) pairs, and nothing is dropped.  The
    reference for ``ncpoly.comultiply``, which keeps the pairs whose
    left leg is alive."""
    pairs: list[tuple[IntWord, IntWord]] = [((), ())]
    for g in word:
        legs = split[g]
        if legs is None:
            raise ValueError(f"no coproduct for letter {g}")
        pairs = [(w1 + (a,), w2 + (b,)) for (w1, w2) in pairs for a, b in legs]
    return pairs


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


def rotation_unitary(n: int) -> list[list[float]]:
    """Rotation by pi/4 in the first two coordinates, identity elsewhere."""
    m = [[float(i == j) for j in range(n)] for i in range(n)]
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    m[0][:2], m[1][:2] = [c, -s], [s, c]
    return m


def fourier_unitary(n: int) -> list[list[complex]]:
    """Discrete-Fourier-type unitary F[j,k] = omega^{jk} / sqrt(n)."""
    omega = cmath.exp(2j * cmath.pi / n)
    return [[omega ** (j * k) / math.sqrt(n) for k in range(n)] for j in range(n)]


def fourier_point(ids) -> RepresentationProvider:
    """The free-unitary generators at the Fourier matrix times the phase
    e^{i pi/3}: u[a,b] -> z and u*[a,b] -> its conjugate.  The phase
    keeps the point complex on two ids, where the Fourier matrix is
    real, so unlike the package's real rational points it tells u from
    its adjoint: u u^T = e^{2 i pi/3} F F^T is not 1.  Its values are
    floats, so it is unregistered and evaluated by ``numpy_norm`` within
    a tolerance."""
    ids = tuple(ids)
    phase = cmath.exp(1j * cmath.pi / 3)
    assignment = {}
    for a, row in zip(ids, fourier_unitary(len(ids))):
        for b, z in zip(ids, row):
            assignment[Generator(UKIND, a, b)] = (phase * z,)
            assignment[Generator(USTAR, a, b)] = ((phase * z).conjugate(),)
    return RepresentationProvider("fourier", 1, assignment)


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


def rat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def eigenprojections(triple) -> list:
    """Xi-hat_q = Xi_q - Xi_{q-1} for q = 0..N, the truncated Dirac
    operator's eigenprojections, as differences of consecutive level
    projections (Xi_{-1} the constants)."""
    xi = triple.projections
    return [rat_sub(b, a) for a, b in zip(xi, xi[1:])]


def projection_invariant_residual(triple) -> Fraction:
    """Worst violation of: Xi idempotent, Gram-self-adjoint, nested,
    Xi_N the identity; Xi-hat pairwise orthogonal.  All exact."""
    gram = triple.gram
    dim = len(gram)
    xi = triple.projections
    hats = eigenprojections(triple)
    worst = Fraction(0)
    for p in xi:
        worst = max(worst, rat_max_abs(rat_sub(rat_matmul(p, p), p)))
        gp = [[gram[i] * p[i][j] for j in range(dim)] for i in range(dim)]
        ptg = [[p[j][i] * gram[j] for j in range(dim)] for i in range(dim)]
        worst = max(worst, rat_max_abs(rat_sub(gp, ptg)))
    for q in range(1, len(xi)):
        worst = max(worst, rat_max_abs(rat_sub(rat_matmul(xi[q - 1], xi[q]), xi[q - 1])))
    for a in range(len(hats)):
        for b in range(a + 1, len(hats)):
            worst = max(worst, rat_max_abs(rat_matmul(hats[a], hats[b])))
    worst = max(worst, rat_max_abs(rat_sub(xi[-1], rat_identity(dim))))
    return worst


def xi_hat_ranks(triple) -> list[int]:
    return [rat_rank(m) for m in eigenprojections(triple)]


def dirac_matrix(triple, alpha) -> np.ndarray:
    """sum_q alpha_q Xi-hat_q as a float matrix."""
    n = len(triple.gram)
    d = np.zeros((n, n))
    for q, m in enumerate(eigenprojections(triple)):
        d += alpha[q] * np.array([[float(x) for x in row] for row in m])
    return d


def dense_dirac_residuals(ctx, provider, triple=None) -> dict[str, float]:
    """The numeric Dirac check done densely: the level-``ctx.n_cap``
    matrix under each one-dimensional summand of *provider*, entry
    [s, i, j] the value of the level table's rows[i][j] on summand s,
    and the largest 2-norm, by SVD, of U*GU - G and of UH - HU over the
    summands and, for H, the eigenprojections of *triple* and its
    constants projection (default
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
                           for m in (*eigenprojections(triple), triple.projections[0])))
    return {"commutator": comm,
            "gram_unitarity": norm(u.conj().transpose(0, 2, 1) @ gmat @ u - gmat)}


def theta_dominating_terms(m_edges: int, t: float, eps: float, q_max: int) -> list[float]:
    """Terms exp(-t q^{1+2 eps}) m^q of the dominating series, q >= 1.

    n_q <= m^q holds for q >= 1 (the degree-q indicators are a basis of
    R_q); the q = 0 term n_0 = |V| - 1 is excluded from the pointwise
    bound.
    """
    return [math.exp(-t * q ** (1 + 2 * eps)) * m_edges ** q for q in range(1, q_max + 1)]


def letter_by_letter_value(provider, terms, gens) -> list[Fraction]:
    """A provider's exact value of *terms* on each summand, by
    multiplying its value vectors letter by letter in Fraction
    arithmetic, words in (length, word) order."""
    total = [Fraction(0)] * provider.dim
    for word, coeff in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])):
        v = [Fraction(coeff)] * provider.dim
        for g in word:
            v = [x * Fraction(y) for x, y in zip(v, provider.values(gens[g]))]
        total = [t + x for t, x in zip(total, v)]
    return total


def letter_by_letter_norm(provider, terms, gens) -> Fraction:
    return max(map(abs, letter_by_letter_value(provider, terms, gens)))


def numpy_norm(provider, terms, gens) -> float:
    """A provider's float norm of *terms*, its complex value vectors
    multiplied letter by letter with numpy: the evaluation for a float
    point such as ``fourier_point``."""
    total = np.zeros(provider.dim, dtype=complex)
    for word, coeff in terms.items():
        v = np.full(provider.dim, float(coeff), dtype=complex)
        for g in word:
            v = v * np.array(provider.values(gens[g]), dtype=complex)
        total += v
    return float(np.abs(total).max())


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
    maps = [{alpha.rank[a]: alpha.rank[b] for a, b in s.items()} for s in alpha.symmetries]
    for table in alpha.sum_axes:
        for _, weights in table.schemas:
            if weights and any(weights[m[r]] != w for m in maps for r, w in weights.items()):
                return ()
    n = alpha.size
    perms = []
    for sigma in alpha.symmetries:
        for tau in alpha.symmetries:
            perm = tuple(gid if alpha.schema_kind[gid] is None
                         else alpha.ids[Generator(kind, sigma[row], tau[col])]
                         for gid, (kind, row, col) in enumerate(alpha.gens))
            for at, (rhs, tag) in alpha.pair_rules.items():
                image = alpha.pair_rules.get(perm[at // n] * n + perm[at % n])
                if image != (None if rhs is None else tuple(map(perm.__getitem__, rhs)), tag):
                    return ()
            if {perm[g] for g in alpha.vanishing} != alpha.vanishing:
                return ()
            perms.append(perm)
    return tuple(perms)


def unreplayed_suite(ctx, k_max: int):
    """``run_identity_suite`` with every obligation group built: with no
    path maps, no group is replayed."""
    with mock.patch.object(corep, "path_maps", lambda ctx, degree: ()):
        return corep.run_identity_suite(ctx, k_max)


def stripped_rows(results) -> list[dict]:
    """Each check's report record without its wall time."""
    return [{k: v for k, v in r.to_dict().items() if k != "wall_ms"} for r in results]
