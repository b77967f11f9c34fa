"""The corepresentation of the quantum symmetry algebra on level spaces
and the identity suite behind the isometry theorem.

On a loop-free graph the level-k matrix has entry
Q[eta,lambda] = q[r(eta_1),r(lambda_1)] q[s(eta_1),s(lambda_1)] ...
(vertex-pair scheme); the level-0 matrix is the magic unitary itself.
On the one-vertex loop graphs the entries are indexed by the edges
directly (edge-index scheme), matching the linear action on the
generating isometries.  The same words are the coefficients of the
action on the algebra, which is exactly why the corepresentation
implements it.

``VerificationContext.level(k)`` is the one source of the level-k
matrix: built once per context, it holds the degree-k basis in
``enumerate_paths`` order, the graph's index of that basis (path ->
position) and the rows of Q_k by position, each entry word encoded once
as an int word over the relation set's alphabet (see ``rewrite``).
Levels 0 and 1 are encoded from their generator words.  Entry words are
per-edge products in both schemes, so the row of a path of degree
k >= 2 is the level-1 row of its first edge followed, entry by entry,
by the level-(k-1) row of its tail.  The level-1 table is also the
action on the edge isometries, alpha(S_e) = sum_f S_f (x) Q[f,e], and
the level-0 table its action on the vertex projections.  Every check
reads the tables, and the path shifts, by basis position: the shift
maps of S_xi and S_xi* (``graphs.shift_map``) are built once per graph
and shared with the path maps of ``hilbert``.

Each identity of the isometry theorem is a matrix identity over these
tables, with X = diag(x_{s(zeta)}) the Perron weights:

- isometry: Q_k* X Q_k = X (across degrees, through the refinement of
  both arguments, against the cylinder-intersection measure);
- density: Q_k Q_k* = 1, row by row (vertex-pair scheme, degrees 1, 2);
- KMS invariance: sum_xi x_{s(xi)} Q[xi,lam] Q[xi,mu]* = delta x_{s(lam)};
- well-definedness: Q_l followed by the embedding equals the embedding
  followed by Q_k;
- implementation: alpha(S_lam*) and alpha(S_lam) intertwine Q under the
  path shifts, each given by its shift map of (position, image
  position) pairs;
- comultiplicativity: sum_eta Q[xi,eta] (x) Q[eta,lam] = Delta(Q[xi,lam]),
  leg-wise; every term on both sides is a word pair with coefficient 1,
  so each entry is a signed count of word pairs, reduced leg by leg.
  Delta is expanded letter by letter and a pair dropped once its left
  prefix rewrites to zero: monomial rewriting of a zero prefix p
  reaches zero on p + s by the same steps, so the pair is one leg-wise
  reduction drops, and the reduced difference is unchanged.

Every entry of every such difference is an obligation: one int word ->
coefficient dict accumulated straight from the level tables (a product
of entries concatenates their words, an adjoint is ``Alphabet.star``, a
Perron weight is the coefficient).  Positive terms go in first and
subtractions last, so the dict's insertion order is the term order the
rewriter and its trace digest see.  A check's obligations go through
one collector, which drops zero coefficients, reduces each nonzero
obligation symbolically once and evaluates it under the registered
numeric providers; a check passes only when every symbolic verdict is
ProvedZero (and the stated structural condition holds) and the numeric
residual, an exact provider value, is exactly 0; the report writes it
as a float.  The truncation level is the context's n_cap.  Every
refinement is source-append, the side the Perron measure is additive
on; only the negative control of well-definedness refines the argument
on the other side.

The Dirac check needs well-definedness for every pair l < k <= n_cap.
Source-append refinement composes, so the one-step pairs (l, l+1)
suffice, and each of them lifts from (0, 1) along the level tables:
for l >= 1 the (l, l+1) obligation at (mu_1 mu', lam_1 lam') is the
level-1 entry Q[mu_1,lam_1] times the (l-1, l) obligation at
(mu', lam'), term for term and in the same term order (exactly for
l >= 2 and in the edge-index scheme; at l = 1 in the vertex-pair
scheme after the monomial pass, by q^2 = q), and the embedding's Gram
residual depends on s(lam) alone.  So the check reads the suite's pass
flags and runs the (0, 1) check only when they lack it; no search runs
above the suite's levels.  Its numeric part reads each summand of a
0/1 provider off the bitmasks of the level-n_cap entry words: a
permutation of the basis that keeps the exact Gram diagonal and level
projections gives residuals of exactly 0, and when the summands form a
group only its generators are compared.  A provider it
cannot certify that way fails the check as Unknown with null residuals;
the dense evaluation that measures such a provider is a test oracle
(``tests/oracles.py``).

Obligations are replayed along graph symmetries, by one rule for every
family.  The relation set's symmetries (Aut(G) on the vertices for
qaut, the edge-id permutations of the loop graph for magic) act on
paths edge by edge (``path_maps``, each image built on first lookup, so
a map holds only the paths that replay keys name), and the level tables
are equivariant: Q[sigma xi, sigma lam] is the image of Q[xi, lam]
under the letter map q[a,b] -> q[sigma a, sigma b], since sigma commutes
with the range and source maps, hence with the shift maps, and keeps x.
So the obligations that a family tag and some paths fix are, at the
image paths, their images term for term.  ``_Obligations.replay``
builds such a group (an isometry obligation (lam, eta), a density
obligation (lam, zeta), a KMS-invariance row (lam, mu), an
``_intertwining`` call (kind, lam, eta)) only when no group of its
key's orbit was proved on the context, and otherwise appends that
group's trace events and largest provider norm.  It replays only when:

1. ``Alphabet.transport`` is not empty: the letter maps carry the
   relation ideal onto itself, so a zero proof carries;
2. every provider's summands, read as permutations off the level-0
   (vertex-pair) or level-1 (edge-index) table, are carried onto
   themselves by pi -> sigma^-1 pi sigma: an image obligation takes on
   summand pi the original's value on sigma^-1 pi sigma, so the largest
   value is the same.  ``classical_rep`` (Aut(G)) and
   ``loop_permutation_rep`` (every permutation) qualify; a point
   provider blocks replay;
3. the group is proved.  A failed search proves nothing and is not
   equivariant (its candidate order reads letter order), so a failed
   group's orbit is built member by member.

What is proved.  Rule tags are sigma-invariant (``transport`` checks
tags), so an image obligation has the image monomial fixed point and as
many tags, and its primitive form lies in the stored orbit of the
representative's, so ``ProofStore.find`` replays the same winning tags:
verdicts and reduction counts carry, and the proof store is that of a
run building every group.  Provider values are exact, so each summand's
sum, Perron weights included, is the same in any term order.

What is only checked.  The trace digest hashes the tags in term order,
which follows basis loops that sigma permutes, and terms with different
tag sequences share obligations (162 of k3's 3,780 implementation
obligations).  Each group's event list is orbit-invariant on every
bundled graph, K4, the undirected 8-cycle, K5 minus a directed 5-cycle,
4 and 5 loops and relabelled copies, where stripped reports are
identical with and without replay (``tests/test_replay.py``).  A single
intertwining obligation's is not: on 4 loops, 48 differ from the
orbit-mate they would be replayed from, so the implementation group is
the whole call.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .graphs import (
    DirectedGraph, Path, SOURCE_APPEND, basis_index, extends, refine, shift_map, vertex_path,
)
from .hilbert import TruncatedTriple, dirac, embedding_gram_residual
from .ncpoly import Coeff, Generator, IntTerms, IntWord, Word, comultiply
from .perron import PerronData, cylinder_intersection_measure
from .providers import RepresentationProvider
from .relations import RelationSet
from .report import CheckResult
from .rewrite import ReductionTrace, is_zero, tensor_reduce
from .verdict import PROVED_ZERO, UNKNOWN

VERTEX_PAIR = "vertex-pair"
EDGE_INDEX = "edge-index"

COMULTIPLICATIVE_MAX_LEVEL = 2


def corep_entry_word(g: DirectedGraph, scheme: str, kind: str,
                     eta: Path, lam: Path) -> Word:
    """Coefficient word of chi_[eta] in U(chi_[lambda]); also the
    coefficient of S_eta in the action applied to S_lambda."""
    if eta.degree != lam.degree:
        raise ValueError("corepresentation entries pair same-degree paths")
    if scheme == VERTEX_PAIR:
        if eta.degree == 0:
            return (Generator(kind, eta.range, lam.range),)
        word = []
        for e_id, l_id in zip(eta.edges, lam.edges):
            word.append(Generator(kind, g.range_of(e_id), g.range_of(l_id)))
            word.append(Generator(kind, g.source_of(e_id), g.source_of(l_id)))
        return tuple(word)
    if scheme == EDGE_INDEX:
        return tuple(Generator(kind, e_id, l_id)
                     for e_id, l_id in zip(eta.edges, lam.edges))
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class LevelCorep:
    """The level-k corepresentation matrix addressed by basis position:
    the degree-k basis in enumerate_paths order, its index (path ->
    position, ``graphs.basis_index``) and ``rows``, where rows[i][j] is
    the entry word Q[basis[i], basis[j]] as an int word over the
    relation set's alphabet."""

    basis: tuple[Path, ...]
    index: dict[Path, int]
    rows: tuple[tuple[IntWord, ...], ...]


def require_exact(pf: PerronData):
    """Refuse inexact Perron data: the obligations carry state weights
    as exact coefficients, and an irrational spectral radius would force
    silent rounding."""
    if not pf.exact:
        raise ValueError("the symbolic identity suite requires exact Perron data")


@dataclass
class VerificationContext:
    g: DirectedGraph
    pf: PerronData
    rels: RelationSet
    scheme: str
    providers: list[RepresentationProvider]
    n_cap: int
    _levels: list[LevelCorep] = field(default_factory=list, init=False, repr=False,
                                      compare=False)
    _replayed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_exact(self.pf)

    @cached_property
    def replay_maps(self) -> tuple[dict[Path, Path], ...]:
        """The path maps obligations are replayed along (``_orbit_maps``)."""
        return _orbit_maps(self)

    def level(self, k: int) -> LevelCorep:
        """The level-k corepresentation table, built on first use with
        every level below it, bottom-up; a level j >= 2 is built from
        levels 1 and j - 1."""
        levels = self._levels
        for j in range(len(levels), k + 1):
            index = basis_index(self.g, j)
            basis = tuple(index)
            if j <= 1:
                encode, kind = self.rels.alphabet.encode, self.rels.gen_kind
                rows = tuple(tuple(encode(corep_entry_word(self.g, self.scheme, kind, eta, lam))
                                   for lam in basis) for eta in basis)
            else:
                first, rest = levels[1], levels[j - 1]
                # each path e t as the positions (e, t): enumerate_paths lists
                # the paths by first edge e, each with its tails t in the
                # order of S_e on level j - 1
                parts = [(e, t) for e, edge in enumerate(first.basis)
                         for t, _ in shift_map(self.g, "s", edge, j - 1)]
                rows = tuple(tuple(first.rows[a][e] + rest.rows[b][t] for e, t in parts)
                             for a, b in parts)
            levels.append(LevelCorep(basis, index, rows))
        return levels[k]


def _add(ob: IntTerms, w: IntWord, c: Coeff):
    ob[w] = ob.get(w, 0) + c


class _Obligations:
    """One check's obligations: each nonempty dict, zero coefficients
    dropped, is reduced once (``unproved`` counts the failures) and
    evaluated under the context's providers (``numeric``, the largest)."""

    def __init__(self, ctx: VerificationContext):
        self.ctx = ctx
        self.started = time.monotonic()
        self.trace = ReductionTrace()
        self.unproved = 0
        self.numeric = 0

    def add(self, terms: IntTerms):
        terms = {w: c for w, c in terms.items() if c}
        if not terms:
            return
        rels = self.ctx.rels
        if is_zero(terms, rels, self.trace).kind != PROVED_ZERO:
            self.unproved += 1
        for provider in self.ctx.providers:
            norm = provider.norm(terms, rels.alphabet.gens)
            if norm > self.numeric:
                self.numeric = norm

    def replay(self, key: tuple, build):
        """Run *build*, which adds one group of obligations, unless a
        proved group is filed under *key* (a family tag and the paths
        fixing the group) in the context's memo: then append its trace
        events and provider norm.  A built group with no unproved
        verdict is filed under each replay map's image of *key*; with no
        replay maps nothing is filed, and every group is built."""
        filed = self.ctx._replayed.get(key)
        if filed is not None:
            self.trace.events += filed[0]
            self.numeric = max(self.numeric, filed[1])
            return
        unproved, at, before = self.unproved, len(self.trace.events), self.numeric
        self.numeric = 0
        build()
        group = self.trace.events[at:], self.numeric
        self.numeric = max(before, self.numeric)
        if self.unproved == unproved:
            for m in self.ctx.replay_maps:
                self.ctx._replayed[(key[0], *map(m.__getitem__, key[1:]))] = group

    def result(self, name: str, inputs: dict, extra_residuals: dict | None = None,
               structural_ok: bool = True, detail: dict | None = None) -> CheckResult:
        all_proved = not self.unproved
        residuals = {"numeric": float(self.numeric), **(extra_residuals or {})}
        passed = all_proved and structural_ok and self.numeric == 0
        return CheckResult(name, inputs, passed, PROVED_ZERO if all_proved else UNKNOWN,
                           residuals, self.trace.count, self.trace.digest(),
                           (time.monotonic() - self.started) * 1000.0,
                           detail=detail or {})


def level_pairs(k_max: int) -> list[tuple[int, int]]:
    """The (l, k) pairs l < k <= k_max that well-definedness is checked
    on, in suite order."""
    return [(l, k) for k in range(1, k_max + 1) for l in range(k)]


def check_welldefined(ctx: VerificationContext, l: int, k: int,
                      convention: str = SOURCE_APPEND) -> CheckResult:
    """U_l agrees with U_k through the refinement of every degree-l
    basis vector.

    The level-l outputs are rewritten in the level-k basis through the
    source-append (measure-consistent) embedding; *convention* selects
    the refinement identity applied to the argument, so forcing the
    rejected side is the negative control and must fail.
    """
    obs = _Obligations(ctx)
    table_l, table_k = ctx.level(l), ctx.level(k)
    # the source-append refinements of each level-l path: the image of S_xi
    refinements = [[ext for _, ext in shift_map(ctx.g, "s", xi, k - l)]
                   for xi in table_l.basis]
    for j, lam in enumerate(table_l.basis):
        diff: list[IntTerms] = [{} for _ in table_k.basis]
        for row, exts in zip(table_l.rows, refinements):
            for ext in exts:
                _add(diff[ext], row[j], 1)
        for mu in refine(ctx.g, lam, k - l, convention):
            at = table_k.index[mu]
            for ob, row in zip(diff, table_k.rows):
                _add(ob, row[at], -1)
        for ob in diff:
            obs.add(ob)
    gram = embedding_gram_residual(ctx.g, ctx.pf, l, k, convention)
    return obs.result("welldefined", {"l": l, "k": k, "convention": convention},
                      extra_residuals={"embedding_gram": gram}, structural_ok=(gram == 0))


def _weighted_products(ctx: VerificationContext, pairs, star_first: bool,
                       unit: Coeff) -> IntTerms:
    """sum over (lam, eta) in *pairs* and zeta in the common level
    basis of x_{s(zeta)} Q[zeta,lam]* Q[zeta,eta] (*star_first*) or
    x_{s(zeta)} Q[zeta,lam] Q[zeta,eta]*, accumulated in that order,
    minus *unit* times 1."""
    star = ctx.rels.alphabet.star
    ob: IntTerms = {}
    for lam, eta in pairs:
        table = ctx.level(lam.degree)
        i, j = table.index[lam], table.index[eta]
        for zeta, row in zip(table.basis, table.rows):
            w1, w2 = row[i], row[j]
            word = star(w1) + w2 if star_first else w1 + star(w2)
            _add(ob, word, ctx.pf.x[zeta.source])
    if unit:
        _add(ob, (), -unit)
    return ob


def isometry_obligation(ctx: VerificationContext, lam: Path, eta: Path) -> IntTerms:
    """(Q* X Q - X)[lam, eta] with X = diag(x_{s(zeta)}); the common
    rho^{-k} factor cancels."""
    return _weighted_products(ctx, [(lam, eta)], star_first=True,
                              unit=ctx.pf.x[lam.source] if lam == eta else 0)


def check_isometry(ctx: VerificationContext, k: int) -> CheckResult:
    """Inner-product preservation over all same-degree basis pairs."""
    obs = _Obligations(ctx)
    basis = ctx.level(k).basis
    for lam in basis:
        for eta in basis:
            obs.replay(("isometry", lam, eta), lambda: obs.add(isometry_obligation(ctx, lam, eta)))
    return obs.result("isometry", {"k": k})


def check_isometry_mixed(ctx: VerificationContext, lam: Path, eta: Path) -> CheckResult:
    """Inner-product preservation across degrees: both arguments are
    expanded in the top basis and the total is matched against the
    cylinder-intersection measure, which is convention-free."""
    obs = _Obligations(ctx)
    top = max(lam.degree, eta.degree)
    pairs = ((lam2, eta2)
             for lam2 in refine(ctx.g, lam, top - lam.degree, SOURCE_APPEND)
             for eta2 in refine(ctx.g, eta, top - eta.degree, SOURCE_APPEND))
    target = cylinder_intersection_measure(ctx.pf, lam, eta) * ctx.pf.rho ** top
    obs.add(_weighted_products(ctx, pairs, star_first=True, unit=target))
    return obs.result("isometry-mixed", {"lam": lam.label, "eta": eta.label})


def check_comultiplicative(ctx: VerificationContext, k: int) -> CheckResult:
    """(U (x) id) U = (id (x) Delta) U, leg-wise, per basis vector: the
    pair counts of both sides must cancel once each leg is reduced.

    Delta(Q[xi,lam]) comes without the pairs whose left leg dies: a
    zero prefix stays zero in every extension (``comultiply``), so
    ``tensor_reduce`` would drop each such pair, and a + pair
    (Q[xi,eta], Q[eta,lam]) with its key has the same dead left leg.
    Every entry's reduced difference, hence ``failed_pairs``,
    ``worst_terms`` and the trace, is that of the full expansion.  The
    memo of live prefixes lives for this call."""
    started = time.monotonic()
    trace = ReductionTrace()
    rows = ctx.level(k).rows
    alive: dict = {}
    failures = 0
    worst_terms = 0
    for lam, column in enumerate(zip(*rows)):
        for row in rows:
            # +1 per pair Q[xi,eta] (x) Q[eta,lam], -1 per pair of Delta(Q[xi,lam])
            counts: dict[tuple[IntWord, IntWord], int] = {}
            for key in zip(row, column):
                counts[key] = counts.get(key, 0) + 1
            for key in comultiply(row[lam], ctx.rels.alphabet, alive):
                counts[key] = counts.get(key, 0) - 1
            diff = tensor_reduce(counts, ctx.rels)
            if diff:
                failures += 1
                worst_terms = max(worst_terms, len(diff))
            trace.add("tensor:legwise")
    passed = failures == 0
    verdict = PROVED_ZERO if passed else UNKNOWN
    return CheckResult("comultiplicative", {"k": k}, passed, verdict,
                       {"failed_pairs": failures, "worst_terms": worst_terms},
                       trace.count, trace.digest(),
                       (time.monotonic() - started) * 1000.0)


def check_density(ctx: VerificationContext, lam: Path) -> CheckResult:
    """Row lam of Q Q* = 1: the finite combination
    sum_zeta U(chi_[zeta]) Q[lam,zeta]* recovers chi_[lam] (x) 1;
    degree 1 or 2."""
    obs = _Obligations(ctx)
    table = ctx.level(lam.degree)
    at = table.index[lam]
    mults = list(map(ctx.rels.alphabet.star, table.rows[at]))

    def row_obligation(i: int):
        ob: IntTerms = {}
        for w, mult in zip(table.rows[i], mults):
            _add(ob, w + mult, 1)
        if i == at:
            _add(ob, (), -1)
        obs.add(ob)
    for i, zeta in enumerate(table.basis):
        obs.replay(("density", lam, zeta), lambda: row_obligation(i))
    return obs.result("density", {"lam": lam.label})


# ---------------------------------------------------------------------------
# implementation on the spectral data

def _intertwining(obs: _Obligations, ctx: VerificationContext, kind: str, lam: Path,
                  eta: Path):
    """(pi (x) .) alpha(T_lam) U(chi_eta) = U(pi(T_lam) chi_eta) on the
    level max(d(eta) - d(lam), 0) (*kind* "s*") or d(lam) + d(eta)
    ("s"), where T_xi is S_xi* or S_xi: it sends the basis path at
    position a to the one at b for each (a, b) of shift_map(g, kind, xi,
    d(eta)) and kills every other, and alpha(T_lam) = sum_xi T_xi (x)
    Q[xi, lam]*, or Q[xi, lam] for "s".  One obligation per output
    position, in output basis order."""
    n, m = lam.degree, eta.degree
    star = ctx.rels.alphabet.star if kind == "s*" else None
    table_lam, table_eta = ctx.level(n), ctx.level(m)
    table_out = ctx.level(max(m - n, 0) if star else n + m)
    j, col, eta_rows = table_lam.index[lam], table_eta.index[eta], table_eta.rows
    diff: list[IntTerms] = [{} for _ in table_out.rows]
    for xi, row in zip(table_lam.basis, table_lam.rows):
        c = star(row[j]) if star else row[j]
        for zeta, out in shift_map(ctx.g, kind, xi, m):
            _add(diff[out], c + eta_rows[zeta][col], 1)
    target = next((out for zeta, out in shift_map(ctx.g, kind, lam, m) if zeta == col), None)
    for ob, row in zip(diff, table_out.rows):
        if target is not None:
            _add(ob, row[target], -1)
        obs.add(ob)


def check_implementation(ctx: VerificationContext, lam: Path, eta: Path) -> CheckResult:
    """Both intertwining identities on a basis vector: the starred one
    (with its four cases) and its non-starred counterpart, which is
    checked explicitly rather than trusted by symmetry."""
    obs = _Obligations(ctx)
    n, m = lam.degree, eta.degree
    # the non-starred identity is asserted only when its image level
    # stays inside the truncation window
    non_starred = n + m <= ctx.n_cap
    for kind in ("s*", "s") if non_starred else ("s*",):
        obs.replay((kind, lam, eta), lambda: _intertwining(obs, ctx, kind, lam, eta))
    if n >= m:
        case = "extends" if extends(lam, eta) else "incompatible-long"
    else:
        case = "prefix" if extends(eta, lam) else "incompatible-short"
    return obs.result("implementation", {"lam": lam.label, "eta": eta.label, "case": case},
                      detail={"non_starred_checked": non_starred})


def check_kms_invariance(ctx: VerificationContext, lam: Path, mu: Path) -> CheckResult:
    """(phi (x) id) alpha(S_lam S_mu*) = phi(S_lam S_mu*) 1, with
    phi(S_lam S_mu*) = delta_{lam,mu} rho^{-d} x_{s(lam)}: the
    identity sum_xi x_{s(xi)} Q[xi,lam] Q[xi,mu]* = delta x_{s(lam)}."""
    obs = _Obligations(ctx)
    # different degrees: the state kills every term on both sides
    if lam.degree == mu.degree:
        unit = ctx.pf.x[lam.source] if lam == mu else 0
        obs.replay(("kms-invariance", lam, mu), lambda: obs.add(
            _weighted_products(ctx, [(lam, mu)], star_first=False, unit=unit)))
    return obs.result("kms-invariance", {"lam": lam.label, "mu": mu.label})


# ---------------------------------------------------------------------------
# Dirac commutation

def _summand_permutations(ctx: VerificationContext, provider: RepresentationProvider,
                          k: int):
    """For a provider whose values are all 0 or 1: per summand, the
    permutation pi of the level-*k* basis (as a list of indices) whose
    matrix the summand evaluates to, Q[pi(j), j] = 1 and every other
    entry 0.  None for any other provider, or when some summand's
    matrix is not a permutation."""
    rows = ctx.level(k).rows
    n = len(rows)
    gens = ctx.rels.alphabet.gens
    perms = [[None] * n for _ in range(provider.dim)]
    for j in range(n):
        for i, row in enumerate(rows):
            mask = provider.word_mask(row[j], gens)
            if mask is None:
                return None
            while mask:
                low = mask & -mask
                perm = perms[low.bit_length() - 1]
                if perm[j] is not None:             # two ones in column j
                    return None
                perm[j] = i
                mask ^= low
    if any(None in perm or len(set(perm)) < n for perm in perms):
        return None
    return perms


def _generators(perms: list[list[int]]) -> list[tuple[int, ...]] | None:
    """Summands generating a group that holds every summand: each one
    not in the group generated by those before it is added, and the
    group regrown from its generators.  None once that group holds more
    permutations than there are distinct summands, so *perms* is no
    group; growing stops there."""
    summands = {tuple(p) for p in perms}
    group = {tuple(range(len(perms[0])))}
    gens: list[tuple[int, ...]] = []
    for perm in map(tuple, perms):
        if perm in group:
            continue
        gens.append(perm)
        frontier = list(group)
        while frontier:
            new = []
            for a in frontier:
                for b in gens:
                    c = itemgetter(*b)(a)           # a after b
                    if c not in group:
                        group.add(c)
                        new.append(c)
            if len(group) > len(summands):
                return None
            frontier = new
    return gens


def _certified(ctx: VerificationContext, provider: RepresentationProvider,
               triple: TruncatedTriple) -> bool:
    """Every summand of *provider* evaluates the level-n_cap matrix to a
    permutation pi that keeps the Gram diagonal and every level
    projection exactly: gram[pi j] == gram[j] and
    Xi[pi a][pi l] == Xi[a][l].

    The permutations that keep them form a group, so when the summands
    form a group (``_generators``), its generators are checked alone;
    otherwise every summand is.  On a one-element basis, which no
    command builds, ``itemgetter`` returns a bare entry, never equal to
    a tuple, so nothing is certified there."""
    perms = _summand_permutations(ctx, provider, ctx.n_cap)
    if perms is None:
        return False
    gram = triple.gram
    for perm in _generators(perms) or perms:
        permute = itemgetter(*perm)
        if permute(gram) != gram:
            return False
        if any(permute(xi[p]) != tuple(row)
               for xi in triple.projections for p, row in zip(perm, xi)):
            return False
    return True


def check_dirac_commutation(ctx: VerificationContext,
                            welldefined: dict[tuple[int, int], bool]) -> CheckResult:
    """Structural: the corepresentation preserves each level and is
    compatible with every embedding (well-definedness for all l < k).
    Numeric: under each provider the evaluated level-n_cap matrix is
    Gram-unitary and commutes with every eigenprojection of the
    truncated Dirac operator.

    Source-append refinement composes, E_{l->k} = E_{k-1->k} ... E_{l->l+1},
    so U_k E_{l->k} = E_{l->k} U_l follows from the one-step pairs
    (l, l+1), and so does the embedding's Gram isometry.  Every one-step
    pair follows from (0, 1), since the level tables factor
    (``VerificationContext.level``): Q_k[a b, e t] = Q_1[a,e] Q_{k-1}[b,t]
    for k >= 2.  For l >= 1 the (l, l+1) obligation at
    (mu_1 mu', lam_1 lam') is Q_1[mu_1,lam_1] times the (l-1, l) one at
    (mu', lam'), term for term: its + term Q_l[mu_1 xi', lam_1 lam'],
    with xi' the first l - 1 edges of mu', and its - terms
    Q_{l+1}[mu_1 mu', lam_1 lam' e], over the edges e into s(lam') in
    ``refine`` order, all factor through the first edges.  At l = 1 in
    the vertex-pair scheme the lifted + term is Q_1[mu_1,lam_1]
    q[s(mu_1),s(lam_1)], whose last two letters are equal, so the two
    agree after the monomial pass (q^2 = q); in the edge-index scheme
    level 0 is the empty word.  A multiple of a zero is zero in the
    relation ideal and under every provider, and the Gram residual of
    (l, l+1) at lam is rho^-l times that of (0, 1) at s(lam).  So the
    structural part is the AND of the pass flags in *welldefined*, which
    maps (l, k) to the result of a well-definedness check already run,
    over the pairs with k <= n_cap (pairs above n_cap are ignored), and
    of a check of (0, 1) run here only when *welldefined* lacks it and
    n_cap >= 1.  Each pair l < k <= n_cap counts as one reduction, the
    pair accounted for, and the digest hashes the events
    "welldefined:l->k" in suite order one level k at a time, holding no
    list of them.

    The numeric part is ``_certified``: a provider whose values are all
    0 or 1 and whose every summand evaluates the level-n_cap matrix to a
    permutation pi of the basis, with the Gram diagonal and every level
    projection Xi_q exactly invariant under pi, is Gram-unitary and
    commutes with every eigenprojection Xi_q - Xi_{q-1}, so both
    residuals are exactly 0.  The providers that ``verify`` and
    ``cuntz`` build are all such sums of graph automorphisms, so the
    residuals are reported as 0.0.  Any other provider fails the check
    as Unknown and is named in ``detail["uncertified"]``; nothing
    measured its residuals, so both read None (``null`` in the report).
    """
    started = time.monotonic()
    n_cap = ctx.n_cap
    flags = [passed for (_, k), passed in welldefined.items() if k <= n_cap]
    if n_cap >= 1 and (0, 1) not in welldefined:
        flags.append(check_welldefined(ctx, 0, 1).passed)
    structural_ok = all(flags)
    # the trace digest of the events "welldefined:l->k" in suite order,
    # joined by newlines, hashed one level k at a time; the slice drops
    # the newline before the first event
    digest = hashlib.sha256()
    for k in range(1, n_cap + 1):
        digest.update("".join(f"\nwelldefined:{l}->{k}" for l in range(k))[k == 1:].encode())

    triple = dirac(ctx.g, ctx.pf, n_cap)
    uncertified = [p.name for p in ctx.providers if not _certified(ctx, p, triple)]

    passed = structural_ok and not uncertified
    detail = {"welldefined_passed": structural_ok}
    if uncertified:
        detail["uncertified"] = uncertified
    # "negative_control" and both residual keys are fixed fields of the
    # report schema, kept so that reports stay comparable across versions;
    # a residual is the certified 0.0, or None when no value was measured
    residual = None if uncertified else 0.0
    return CheckResult("dirac-commutation", {"n_cap": n_cap, "negative_control": False},
                       passed, PROVED_ZERO if passed else UNKNOWN,
                       {"commutator": residual, "gram_unitarity": residual},
                       n_cap * (n_cap + 1) // 2, digest.hexdigest()[:16],
                       (time.monotonic() - started) * 1000.0, detail=detail)


# ---------------------------------------------------------------------------
# the full suite

class _PathMap(dict):
    """A symmetry's map of paths, given by its vertex and edge maps: the
    image of a path is built edge by edge on first lookup and kept, so
    the map holds only the paths it was asked for."""

    def __init__(self, vmap: dict[str, str], emap: dict[str, str]):
        self.vmap, self.emap = vmap, emap

    def __missing__(self, p: Path) -> Path:
        return self.setdefault(p, Path(tuple(map(self.emap.__getitem__, p.edges)),
                                       self.vmap[p.range], self.vmap[p.source]))


def path_maps(ctx: VerificationContext) -> tuple[dict[Path, Path], ...]:
    """The relation set's symmetries as maps of paths, one per symmetry,
    edge by edge, each image built on first use (``_PathMap``).  In the
    vertex-pair scheme a symmetry sigma is a vertex map and sends an edge
    e to the edge (sigma r(e), sigma s(e)); in the edge-index scheme, on
    a one-vertex graph, it is the edge-id permutation.  Empty unless each
    is a graph automorphism that keeps the Perron vector: no multiple
    edges (vertex-pair), both maps bijections, x_{sigma v} = x_v."""
    g, x = ctx.g, ctx.pf.x
    by_ends = {(e.range, e.source): e.id for e in g.edges}
    if (len(by_ends) < len(g.edges) if ctx.scheme == VERTEX_PAIR else len(g.vertices) > 1):
        return ()
    maps = []
    for sigma in ctx.rels.symmetries:
        if ctx.scheme == VERTEX_PAIR:
            vmap = sigma
            emap = {e.id: by_ends.get((sigma[e.range], sigma[e.source])) for e in g.edges}
        else:
            vmap, emap = {v: v for v in g.vertices}, sigma
        if (set(vmap) != set(g.vertices) or set(vmap.values()) != set(g.vertices)
                or set(emap.values()) != set(g.edge_by_id)
                or any(x[vmap[v]] != xv for v, xv in x.items())):
            return ()
        maps.append(_PathMap(vmap, emap))
    return tuple(maps)


def _orbit_maps(ctx: VerificationContext) -> tuple[dict[Path, Path], ...]:
    """The path maps that obligations are replayed along, or none when
    Aut is trivial or a replay condition fails: the letter maps must
    carry the relation ideal onto itself (``Alphabet.transport`` is not
    empty), and every provider's summand permutations, read off the
    level-0 table (vertex-pair) or level-1 table (edge-index), must be
    carried onto themselves by pi -> sigma^-1 pi sigma.  The maps build
    no image here beyond the paths of that level."""
    maps = path_maps(ctx)
    if len(maps) < 2 or not ctx.rels.alphabet.transport:
        return ()
    k = 0 if ctx.scheme == VERTEX_PAIR else 1
    basis, index = ctx.level(k).basis, ctx.level(k).index
    sigmas = [[index[m[p]] for p in basis] for m in maps]
    for provider in ctx.providers:
        perms = _summand_permutations(ctx, provider, k)
        if perms is None:
            return ()
        summands = set(map(tuple, perms))
        for sigma in sigmas:
            inverse = sorted(range(len(sigma)), key=sigma.__getitem__)
            if {tuple(inverse[pi[j]] for j in sigma) for pi in summands} != summands:
                return ()
    return maps


def run_identity_suite(ctx: VerificationContext, k_max: int) -> list[CheckResult]:
    """Every identity check at levels l < k <= k_max, truncation
    ctx.n_cap; density runs on the vertex-pair scheme only.  Isometry,
    density, implementation and KMS-invariance obligations are replayed
    along the path symmetries (``_Obligations.replay``)."""
    results = []
    welldefined = {}
    for l, k in level_pairs(k_max):
        results.append(check_welldefined(ctx, l, k))
        welldefined[(l, k)] = results[-1].passed
    for k in range(k_max + 1):
        results.append(check_isometry(ctx, k))
    edges1, paths2 = ctx.level(1).basis, ctx.level(2).basis
    lam0 = edges1[0]
    for eta in paths2[:2]:
        results.append(check_isometry_mixed(ctx, lam0, eta))
    for k in range(min(k_max, COMULTIPLICATIVE_MAX_LEVEL) + 1):
        results.append(check_comultiplicative(ctx, k))
    if ctx.scheme == VERTEX_PAIR:
        for lam in edges1 + paths2:
            results.append(check_density(ctx, lam))
    deg_cap = min(2, k_max)
    for dl in range(1, deg_cap + 1):
        for dm in range(1, deg_cap + 1):
            for lam in ctx.level(dl).basis:
                for eta in ctx.level(dm).basis:
                    results.append(check_implementation(ctx, lam, eta))
    for v in ctx.g.vertices:
        results.append(check_kms_invariance(ctx, vertex_path(v), vertex_path(v)))
    for lam in edges1:
        for mu in edges1:
            results.append(check_kms_invariance(ctx, lam, mu))
    for lam in paths2:
        results.append(check_kms_invariance(ctx, lam, lam))
    results.append(check_kms_invariance(ctx, paths2[0], paths2[-1]))
    results.append(check_kms_invariance(ctx, edges1[0], paths2[0]))
    results.append(check_dirac_commutation(ctx, welldefined=welldefined))
    return results
