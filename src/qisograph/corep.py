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
``enumerate_paths`` order and the entry word Q[eta,lambda] for every
pair of basis paths, encoded once as an int word over the relation
set's alphabet (see ``rewrite``).  The level-1 table is also the action
on the edge isometries, alpha(S_e) = sum_f S_f (x) Q[f,e], and the
level-0 table its action on the vertex projections.

Each identity of the isometry theorem is a matrix identity over these
tables, with X = diag(x_{s(zeta)}) the Perron weights:

- isometry: Q_k* X Q_k = X (across degrees, through the refinement of
  both arguments, against the cylinder-intersection measure);
- density: Q_k Q_k* = 1, row by row (vertex-pair scheme, degrees 1, 2);
- KMS invariance: sum_xi x_{s(xi)} Q[xi,lam] Q[xi,mu]* = delta x_{s(lam)};
- well-definedness: Q_l followed by the embedding equals the embedding
  followed by Q_k;
- implementation: alpha(S_lam*) and alpha(S_lam) intertwine Q under the
  path shifts, each given by its nonzero (path, image) pairs
  (s_star_pairs, s_pairs);
- comultiplicativity: sum_eta Q[xi,eta] (x) Q[eta,lam] = Delta(Q[xi,lam]),
  leg-wise; every term on both sides is a word pair with coefficient 1,
  so each entry is a signed count of word pairs, reduced leg by leg.

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
residual stays below NUMERIC_TOL.  The truncation level is the
context's n_cap.  Every refinement is source-append, the side the
Perron measure is additive on; only the negative control of
well-definedness refines the argument on the other side.

The Dirac check needs well-definedness for every pair l < k <= n_cap.
Source-append refinement composes, so it runs only the one-step pairs
(l, l+1) that the suite has not run.  Its numeric part reads each
summand of a 0/1 provider off the bitmasks of the level-n_cap entry
words: a permutation of the basis that keeps the float Gram diagonal
and projections gives residuals of exactly 0.0, as the dense stacks
would.  Every other provider goes through those complex numpy stacks,
the one place this module imports numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter

from .graphs import (
    DirectedGraph, Path, SOURCE_APPEND, enumerate_paths, extends, refine, s_pairs,
    s_star_pairs, vertex_path,
)
from .hilbert import dirac, embedding_gram_residual
from .ncpoly import Coeff, Generator, IntTerms, IntWord, Word, comultiply
from .perron import PerronData, cylinder_intersection_measure
from .providers import RepresentationProvider, matrix_point_provider
from .relations import RelationSet
from .report import CheckResult
from .rewrite import ReductionTrace, is_zero, tensor_reduce
from .verdict import PROVED_ZERO, UNKNOWN

VERTEX_PAIR = "vertex-pair"
EDGE_INDEX = "edge-index"

NUMERIC_TOL = 1e-10
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
    """The level-k corepresentation matrix: the degree-k basis in
    enumerate_paths order and the entry word Q[eta, lam], as an int word
    over the relation set's alphabet, keyed by the pair of basis paths."""

    basis: tuple[Path, ...]
    entries: dict[tuple[Path, Path], IntWord]


def build_corep(g: DirectedGraph, k: int, scheme: str, rels: RelationSet) -> LevelCorep:
    basis = tuple(enumerate_paths(g, k))
    encode = rels.alphabet.encode
    entries = {(eta, lam): encode(corep_entry_word(g, scheme, rels.gen_kind, eta, lam))
               for eta in basis for lam in basis}
    return LevelCorep(basis, entries)


@dataclass
class VerificationContext:
    g: DirectedGraph
    pf: PerronData
    rels: RelationSet
    scheme: str = VERTEX_PAIR
    providers: list[RepresentationProvider] = field(default_factory=list)
    n_cap: int = 3
    _levels: dict[int, LevelCorep] = field(default_factory=dict, init=False,
                                           repr=False, compare=False)

    def __post_init__(self):
        # the obligations carry state weights as exact coefficients;
        # an irrational spectral radius would force silent rounding
        if not self.pf.exact:
            raise ValueError("the symbolic identity suite requires exact Perron data")

    def level(self, k: int) -> LevelCorep:
        """The level-k corepresentation table, built on first use."""
        table = self._levels.get(k)
        if table is None:
            table = self._levels[k] = build_corep(self.g, k, self.scheme, self.rels)
        return table


def _add(ob: IntTerms, w: IntWord, c: Coeff):
    ob[w] = ob.get(w, 0) + c


class _Obligations:
    """One check's obligations: each dict, its zero coefficients
    dropped, is reduced symbolically once and evaluated under the
    context's providers unless nothing is left of it."""

    def __init__(self, ctx: VerificationContext):
        self.ctx = ctx
        self.started = time.monotonic()
        self.trace = ReductionTrace()
        self.verdicts = []
        self.diffs = []

    def add(self, terms: IntTerms):
        terms = {w: c for w, c in terms.items() if c}
        if not terms:
            return
        self.diffs.append(terms)
        self.verdicts.append(is_zero(terms, self.ctx.rels, self.trace))

    def result(self, name: str, inputs: dict, extra_residuals: dict | None = None,
               structural_ok: bool = True, detail: dict | None = None) -> CheckResult:
        all_proved = all(v.kind == PROVED_ZERO for v in self.verdicts)
        gens = self.ctx.rels.alphabet.gens
        numeric = max((provider.norm(terms, gens) for provider in self.ctx.providers
                       for terms in self.diffs), default=0.0)
        residuals = {"numeric": numeric}
        residuals.update(extra_residuals or {})
        passed = all_proved and structural_ok and numeric < NUMERIC_TOL
        return CheckResult(name, inputs, passed, PROVED_ZERO if all_proved else UNKNOWN,
                           residuals, self.trace.count, self.trace.digest(),
                           (time.monotonic() - self.started) * 1000.0,
                           detail=detail or {})


def level_pairs(k_max: int, l_max: int | None = None) -> list[tuple[int, int]]:
    """The (l, k) pairs l < k <= k_max, l <= l_max, that
    well-definedness is checked on, in suite order."""
    return [(l, k) for k in range(1, k_max + 1)
            for l in range(k if l_max is None else min(k, l_max + 1))]


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
    for lam in table_l.basis:
        diff: dict[Path, IntTerms] = {eta: {} for eta in table_k.basis}
        for xi in table_l.basis:
            word = table_l.entries[(xi, lam)]
            for ext in refine(ctx.g, xi, k - l, SOURCE_APPEND):
                _add(diff[ext], word, 1)
        for mu in refine(ctx.g, lam, k - l, convention):
            for eta in table_k.basis:
                _add(diff[eta], table_k.entries[(eta, mu)], -1)
        for ob in diff.values():
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
        for zeta in table.basis:
            w1, w2 = table.entries[(zeta, lam)], table.entries[(zeta, eta)]
            word = star(w1) + w2 if star_first else w1 + star(w2)
            _add(ob, word, ctx.pf.x_of(zeta.source))
    if unit:
        _add(ob, (), -unit)
    return ob


def isometry_obligation(ctx: VerificationContext, lam: Path, eta: Path) -> IntTerms:
    """(Q* X Q - X)[lam, eta] with X = diag(x_{s(zeta)}); the common
    rho^{-k} factor cancels."""
    return _weighted_products(ctx, [(lam, eta)], star_first=True,
                              unit=ctx.pf.x_of(lam.source) if lam == eta else 0)


def check_isometry(ctx: VerificationContext, k: int) -> CheckResult:
    """Inner-product preservation over all same-degree basis pairs."""
    obs = _Obligations(ctx)
    basis = ctx.level(k).basis
    for lam in basis:
        for eta in basis:
            obs.add(isometry_obligation(ctx, lam, eta))
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
    target = cylinder_intersection_measure(ctx.pf, lam, eta) * ctx.pf.exact_rho ** top
    obs.add(_weighted_products(ctx, pairs, star_first=True, unit=target))
    return obs.result("isometry-mixed", {"lam": lam.label, "eta": eta.label})


def check_comultiplicative(ctx: VerificationContext, k: int) -> CheckResult:
    """(U (x) id) U = (id (x) Delta) U, leg-wise, per basis vector: the
    pair counts of both sides must cancel once each leg is reduced."""
    started = time.monotonic()
    if k > COMULTIPLICATIVE_MAX_LEVEL:
        raise ValueError(f"comultiplicativity guarded to level {COMULTIPLICATIVE_MAX_LEVEL}")
    trace = ReductionTrace()
    table = ctx.level(k)
    basis, entries = table.basis, table.entries
    failures = 0
    worst_terms = 0
    for lam in basis:
        for xi in basis:
            # +1 per pair Q[xi,eta] (x) Q[eta,lam], -1 per pair of Delta(Q[xi,lam])
            counts: dict[tuple[IntWord, IntWord], int] = {}
            for eta in basis:
                key = (entries[(xi, eta)], entries[(eta, lam)])
                counts[key] = counts.get(key, 0) + 1
            for key in comultiply(entries[(xi, lam)], ctx.rels.alphabet.split):
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
    if ctx.scheme != VERTEX_PAIR:
        raise ValueError("density combination is defined for the vertex-pair scheme")
    if lam.degree not in (1, 2):
        raise ValueError("density check covers degrees 1 and 2")
    obs = _Obligations(ctx)
    table = ctx.level(lam.degree)
    star = ctx.rels.alphabet.star
    mults = [star(table.entries[(lam, zeta)]) for zeta in table.basis]
    for eta in table.basis:
        ob: IntTerms = {}
        for zeta, mult in zip(table.basis, mults):
            _add(ob, table.entries[(eta, zeta)] + mult, 1)
        if eta == lam:
            _add(ob, (), -1)
        obs.add(ob)
    return obs.result("density", {"lam": lam.label})


# ---------------------------------------------------------------------------
# implementation on the spectral data

def _intertwining(obs: _Obligations, ctx: VerificationContext, lam: Path, eta: Path,
                  pairs, coeff, out_level: int):
    """(pi (x) .) alpha(T_lam) U(chi_eta) = U(pi(T_lam) chi_eta) on the
    level-*out_level* basis, where T_xi sends chi_zeta to chi_out for
    each (zeta, out) in pairs(g, xi, d(eta)) and kills every other
    basis path, and alpha(T_lam) = sum_xi T_xi (x) coeff(Q[xi, lam]),
    *coeff* a map on words."""
    m = eta.degree
    table_lam, table_eta, table_out = (ctx.level(lam.degree), ctx.level(m),
                                       ctx.level(out_level))
    diff: dict[Path, IntTerms] = {out: {} for out in table_out.basis}
    for xi in table_lam.basis:
        c = coeff(table_lam.entries[(xi, lam)])
        for zeta, out in pairs(ctx.g, xi, m):
            _add(diff[out], c + table_eta.entries[(zeta, eta)], 1)
    target = dict(pairs(ctx.g, lam, m)).get(eta)
    for out, ob in diff.items():
        if target is not None:
            _add(ob, table_out.entries[(out, target)], -1)
        obs.add(ob)


def check_implementation(ctx: VerificationContext, lam: Path, eta: Path) -> CheckResult:
    """Both intertwining identities on a basis vector: the starred one
    (with its four cases) and its non-starred counterpart, which is
    checked explicitly rather than trusted by symmetry."""
    obs = _Obligations(ctx)
    n, m = lam.degree, eta.degree
    _intertwining(obs, ctx, lam, eta, s_star_pairs, ctx.rels.alphabet.star, max(m - n, 0))
    # the non-starred identity is asserted only when its image level
    # stays inside the truncation window
    non_starred = n + m <= ctx.n_cap
    if non_starred:
        _intertwining(obs, ctx, lam, eta, s_pairs, lambda w: w, n + m)
    return obs.result("implementation",
                      {"lam": lam.label, "eta": eta.label,
                       "case": _implementation_case(lam, eta)},
                      detail={"non_starred_checked": non_starred})


def _implementation_case(lam: Path, eta: Path) -> str:
    if lam.degree >= eta.degree:
        return "extends" if extends(lam, eta) else "incompatible-long"
    return "prefix" if extends(eta, lam) else "incompatible-short"


def check_kms_invariance(ctx: VerificationContext, lam: Path, mu: Path) -> CheckResult:
    """(phi (x) id) alpha(S_lam S_mu*) = phi(S_lam S_mu*) 1, with
    phi(S_lam S_mu*) = delta_{lam,mu} rho^{-d} x_{s(lam)}: the
    identity sum_xi x_{s(xi)} Q[xi,lam] Q[xi,mu]* = delta x_{s(lam)}."""
    obs = _Obligations(ctx)
    # different degrees: the state kills every term on both sides
    if lam.degree == mu.degree:
        obs.add(_weighted_products(ctx, [(lam, mu)], star_first=False,
                                   unit=ctx.pf.x_of(lam.source) if lam == mu else 0))
    return obs.result("kms-invariance", {"lam": lam.label, "mu": mu.label})


# ---------------------------------------------------------------------------
# Dirac commutation

def evaluate_corep_matrix(ctx: VerificationContext, k: int, provider: RepresentationProvider):
    """The level-k corepresentation under a provider, one level matrix
    per one-dimensional summand: a complex numpy array of shape (dim,
    paths, paths), with entry [s, eta, lam] the value of Q[eta, lam] on
    summand s."""
    import numpy as np
    table = ctx.level(k)
    out = np.zeros((provider.dim, len(table.basis), len(table.basis)), dtype=complex)
    for i, eta in enumerate(table.basis):
        for j, lam in enumerate(table.basis):
            out[:, i, j] = provider.value({table.entries[(eta, lam)]: 1}, ctx.rels.alphabet.gens)
    return out


def _max_norm(stack) -> float:
    """Operator 2-norm of the direct sum of a numpy stack of matrices:
    the largest norm among them, exactly 0.0 for an all-zero stack
    without an SVD."""
    import numpy as np
    if not stack.any():
        return 0.0
    return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())


def _summand_permutations(ctx: VerificationContext, provider: RepresentationProvider):
    """For a provider whose values are all 0 or 1: per summand, the
    permutation pi of the level-n_cap basis (as a list of indices) whose
    matrix the summand evaluates to, Q[pi(j), j] = 1 and every other
    entry 0.  None for any other provider, or when some summand's
    matrix is not a permutation."""
    table = ctx.level(ctx.n_cap)
    n = len(table.basis)
    gens = ctx.rels.alphabet.gens
    perms = [[None] * n for _ in range(provider.dim)]
    for j, lam in enumerate(table.basis):
        for i, eta in enumerate(table.basis):
            mask = provider.word_mask(table.entries[(eta, lam)], gens)
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


def _certified(ctx: VerificationContext, provider: RepresentationProvider,
               gram: tuple[float, ...], hats: list[list[tuple[float, ...]]]) -> bool:
    """Every summand of *provider* evaluates the level-n_cap matrix to a
    permutation pi that keeps the float Gram diagonal and every float
    projection: gram[pi j] == gram[j] and H[pi a][pi l] == H[a][l].
    On a one-element basis ``itemgetter`` returns a bare float, never
    equal to a tuple, so that case is left to the dense stacks."""
    perms = _summand_permutations(ctx, provider)
    if perms is None:
        return False
    for perm in perms:
        permute = itemgetter(*perm)
        if permute(gram) != gram:
            return False
        if any(permute(hat[p]) != row for hat in hats for p, row in zip(perm, hat)):
            return False
    return True


def check_dirac_commutation(ctx: VerificationContext, scalar_override=None,
                            welldefined: dict[tuple[int, int], bool] | None = None
                            ) -> CheckResult:
    """Structural: the corepresentation preserves each level and is
    compatible with every embedding (well-definedness for all l < k).
    Numeric: under each provider the evaluated level-n_cap matrix is
    Gram-unitary and commutes with every eigenprojection of the
    truncated Dirac operator.  Providers are direct sums of
    one-dimensional representations, so both norms are taken per
    summand and the largest is kept, which is the norm of the sum.

    Source-append refinement composes, E_{l->k} = E_{k-1->k} ... E_{l->l+1},
    so U_k E_{l->k} = E_{l->k} U_l follows from the one-step pairs
    (l, l+1), and so does the embedding's Gram isometry.  The structural
    part is therefore the pass flags in *welldefined*, which maps (l, k)
    to the result of a well-definedness check already run, for the pairs
    with k <= n_cap (pairs above n_cap are ignored), ANDed with the
    one-step pairs, of which only the ones missing from *welldefined*
    are run, stopping at the first failure.  Each pair l < k <= n_cap
    is one trace event, the pair accounted for.

    A provider whose values are all 0 or 1 and whose every summand
    evaluates the level-n_cap matrix to a permutation pi of the basis,
    with the float Gram diagonal and every float projection invariant
    under pi, contributes exactly 0.0 to both residuals: the float
    products with a permutation matrix are exact, so the dense stacks
    would be all zero.  Every other provider, and *scalar_override*,
    runs through the dense numpy stacks; that is the only place the
    check imports numpy.

    *scalar_override* replaces the providers by the point evaluation at
    a concrete matrix, any nested sequence (negative control: a
    non-magic unitary must fail).
    """
    started = time.monotonic()
    n_cap = ctx.n_cap
    trace = ReductionTrace()
    structural_ok = True
    providers = ctx.providers
    if scalar_override is None:
        known = welldefined or {}
        for l, k in level_pairs(n_cap):
            if structural_ok:
                passed = known.get((l, k))
                if passed is None and k == l + 1:
                    passed = check_welldefined(ctx, l, k).passed
                if passed is not None:
                    structural_ok = passed
            trace.add(f"welldefined:{l}->{k}")
    else:
        providers = [matrix_point_provider("scalar-override", ctx.rels.universe,
                                           scalar_override, kind=ctx.rels.gen_kind)]

    triple = dirac(ctx.g, ctx.pf, n_cap)
    gram = tuple(float(x) for x in triple.gram)
    hats = [[tuple(float(x) for x in row) for row in m]
            for m in (*triple.xi_hat, triple.constants_projection)]

    if scalar_override is None:
        providers = [p for p in providers if not _certified(ctx, p, gram, hats)]
    worst_comm = 0.0
    worst_unitary = 0.0
    if providers:
        import numpy as np
        gmat = np.diag(gram)
        hat_arrays = [np.array(hat) for hat in hats]
    for provider in providers:
        u = evaluate_corep_matrix(ctx, n_cap, provider)
        u_adj = u.conj().transpose(0, 2, 1)
        worst_unitary = max(worst_unitary, _max_norm(u_adj @ gmat @ u - gmat))
        for hat in hat_arrays:
            worst_comm = max(worst_comm, _max_norm(u @ hat - hat @ u))

    passed = structural_ok and worst_comm < NUMERIC_TOL and worst_unitary < NUMERIC_TOL
    verdict = PROVED_ZERO if passed else UNKNOWN
    return CheckResult("dirac-commutation",
                       {"n_cap": n_cap, "negative_control": scalar_override is not None},
                       passed, verdict,
                       {"commutator": worst_comm, "gram_unitarity": worst_unitary},
                       trace.count, trace.digest(),
                       (time.monotonic() - started) * 1000.0,
                       detail={"welldefined_passed": structural_ok})


# ---------------------------------------------------------------------------
# the full suite

def run_identity_suite(ctx: VerificationContext, k_max: int = 2,
                       l_max: int | None = None) -> list[CheckResult]:
    """Every identity check at levels l < k <= k_max, truncation
    ctx.n_cap; density runs on the vertex-pair scheme only."""
    results = []
    welldefined = {}
    for l, k in level_pairs(k_max, l_max):
        results.append(check_welldefined(ctx, l, k))
        welldefined[(l, k)] = results[-1].passed
    for k in range(k_max + 1):
        results.append(check_isometry(ctx, k))
    edges1, paths2 = ctx.level(1).basis, ctx.level(2).basis
    lam0 = edges1[0]
    for eta in paths2[:2]:
        results.append(check_isometry_mixed(ctx, lam0, eta))
    for k in range(min(k_max, 2) + 1):
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
