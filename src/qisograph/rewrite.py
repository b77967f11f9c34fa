"""Normal forms for noncommutative polynomials modulo a relation set.

Reduction alternates two passes:

* a monomial pass applying the two-letter rewrite rules leftmost-first
  inside every word (these rules shorten words, so it terminates);

* a collapse pass detecting full-index sums.  A group of words sharing
  a prefix and a suffix and differing in one generator slot collapses to
  prefix*suffix once the slot runs over the whole index set; indices
  missing from the group are admitted when the completed word already
  rewrites to zero by monomial rules alone, which is how sums over
  edges become sums over all vertex pairs.

Several sound collapses can compete and only some telescope an identity
to zero, so zero-proving is a bounded depth-first search over collapse
choices (largest groups and innermost slots first); every explored path
applies only sound rewrites, hence an empty form reached on any path
certifies zero.  The reported normal form is the monomial fixed point,
replaced by zero when the search certifies it; collapse results are
never reported otherwise, because distinct sound collapse paths can
rewrite a word to different representatives of the same element.  A
nonzero normal form certifies nothing: the system is not proved
confluent.

Rewriting runs on an interned alphabet (:class:`Alphabet`), built once
per relation set: generators become the ints 0..n-1 in ``Generator``
order, so words are tuples of small ints that sort exactly like the
generator words they encode, and the rules, the vanishing set, the
schema slots, the adjoint and the coproduct become tables indexed by
id.  The alphabet alone maps ``Generator`` words to int words
(``encode``, where a level table or a relation's word is built) and
polynomials to text (``text``); everything here takes and returns int
words and int-word -> coefficient dicts.  Within one search the
monomial reduction of int words is memoised, which serves the many
repeated completion checks of the sum schemas; and since a collapse
adds a single word to a monomial fixed point, each search child needs
only that word reduced.  Encoding a generator outside the alphabet is
a ``ValueError`` that names it: every word the package builds lies over
its relation set's universe, and the formal unitary w enters the
alphabet through its rules.

Zero proofs are transported along the relation set's symmetries.  For
index permutations sigma, tau (graph automorphisms for ``qaut``, every
permutation of up to six indices for ``magic``), the letter map
q[a,b] -> q[sigma a, tau b] extends to an algebra automorphism; when it
carries every rule, the vanishing set and every schema onto themselves,
it maps the relation ideal onto itself, so a polynomial is zero exactly
when its image is.  ``Alphabet.transport`` checks that mechanically on
the id tables for the one-sided pairs (sigma, id) and (id, tau), which
compose to every pair, and is empty when any check fails.

Every search runs on its key, the start form scaled to coprime integer
coefficients (its primitive form), and each weighted sum schema holds
its weights scaled to coprime ints, so the search's forms, groups and
``seen`` set hold ints unless a collapse leaves a fraction.  The search
is scale-equivariant: groups and candidate sort keys never read a
coefficient, a group fits a schema at c*f exactly when it fits at f and
collapses to c times the value, and children scale with their parent;
so the primitive form wins with the start form's tags.

The alphabet's ``proofs`` (a :class:`ProofStore`) answers every
(sigma, tau) image of a proved form, and of its nonzero multiples, by
exact lookups; a nonzero multiple of a primitive form P has primitive
form P or -P.  The one-sided maps (sigma, id) and (id, tau) commute,
so F = (sigma, tau) P exactly when (id, tau^-1) F = (sigma^-1, id) P:
a proof files P and -P under each of their row images (sigma, id),
and a start form is looked up under its column images (id, tau), only
those whose column profile some proof has.  Soundness needs only that
every listed map carries the relation ideal onto itself; completeness
needs the listed symmetries to form a group, as Aut(G) and S_n do.  A
hit is (sigma, tau)^-1 of a nonzero multiple of a proved form, so it
replays the stored winning tags instead of searching.  Only proofs are
stored: a failed search proves nothing, so an unproved form is always
searched again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter

from .ncpoly import Coeff, Generator, IntTerms, IntWord, Word, adjoint_generator
from .relations import RelationSet
from .verdict import PROVED_ZERO, UNKNOWN, Verdict

#: node budget for the zero-certificate search
SEARCH_LIMIT = 3000

_MISS = object()


@dataclass
class ReductionTrace:
    """Ordered log of applied rules; digests identify a reduction path."""

    events: list[str] = field(default_factory=list, init=False)

    def add(self, tag: str):
        self.events.append(tag)

    @property
    def count(self) -> int:
        return len(self.events)

    def digest(self) -> str:
        h = hashlib.sha256("\n".join(self.events).encode()).hexdigest()
        return h[:16]


class Alphabet:
    """A relation set's generators interned as ints, with id-keyed tables.

    Index strings are ranked in string order and generators numbered in
    ``(kind, row, col)`` order, so comparing int words or ranks orders
    exactly as comparing the generator words or strings they encode.
    The alphabet holds every generator of the relation set's schema
    kinds over the index set, every generator named by a rule, and
    their adjoints.  Only generators over the index set take part in
    the schemas.
    """

    def __init__(self, rels: RelationSet):
        universe = rels.universe
        kinds = {rels.gen_kind} | {k for s in rels.unitary_schemas for k in s.kinds}
        gens = {Generator(k, i, j) for k in kinds for i in universe for j in universe}
        for lhs, (rhs, _) in rels.pair_rules.items():
            gens.update(lhs)
            gens.update(rhs or ())
        gens.update(rels.vanishing)
        gens.update([adjoint_generator(g) for g in gens])
        self.gens = tuple(sorted(gens))
        self.ids = {g: i for i, g in enumerate(self.gens)}
        n = self.size = len(self.gens)
        self.names = sorted({g.row for g in gens} | {g.col for g in gens})
        self.rank = {s: r for r, s in enumerate(self.names)}
        self.row = [self.rank[g.row] for g in self.gens]
        self.col = [self.rank[g.col] for g in self.gens]
        self.universe = tuple(self.rank[i] for i in universe)

        #: pair (a, b) at a * n + b -> (RHS word, or None for zero; tag)
        self.pair_rules: dict[int, tuple[IntWord | None, str]] = {
            self.ids[g1] * n + self.ids[g2]: (None if rhs is None else self.encode(rhs),
                                              "mono:" + tag)
            for (g1, g2), (rhs, tag) in rels.pair_rules.items()}
        self.vanishing = frozenset(self.ids[g] for g in rels.vanishing)

        indexed = set(universe)
        #: per id, the generator's kind if both its indices lie in the index set
        self.schema_kind = [g.kind if g.row in indexed and g.col in indexed else None
                            for g in self.gens]
        self.adjoint = [self.ids[adjoint_generator(g)] for g in self.gens]
        #: per id, Delta(g[i,j]) = sum_k g[i,k] (x) g[k,j] as (left, right) id
        #: pairs, k in universe order; None off the index set (w)
        self.split = [None if self.schema_kind[g] is None else tuple(
            (self.substitute(g, "col", k), self.substitute(g, "row", k)) for k in self.universe)
            for g in range(n)]
        self.sum_axes = tuple(
            _SumAxis(self, rels, axis, [s for s in rels.sum_schemas if s.varying_axis == axis])
            for axis in dict.fromkeys(s.varying_axis for s in rels.sum_schemas))
        self.unitary_tables = tuple(
            _UnitaryTable(self, schema) for schema in rels.unitary_schemas)
        self.symmetries = rels.symmetries
        self.proofs = ProofStore(self)

    @cached_property
    def transport(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]:
        """The symmetries, each as (rank map, row letter map, column
        letter map): the rank map fixes ranks off the index set, and the
        letter maps, indexed by id, are q[a,b] -> q[sigma a, b] and
        q[a,b] -> q[a, sigma b] (generators outside the index set fixed).
        Empty unless each symmetry fixes every schema weight and each
        letter map carries every pair rule onto a rule with the same tag
        and the permuted right-hand side, and the vanishing set onto
        itself.

        The letter map of a pair (sigma, tau) is the composite of its
        two one-sided maps, and a composite of maps that permute the
        ruled pairs tag for tag, commute with the right-hand sides and
        fix the vanishing set does the same; so these 2|G| checks stand
        for all |G|^2 pairs.  Unitary schemas sum a full index on both
        factors, so any index permutations preserve them."""
        ident = tuple(range(len(self.names)))
        maps = []
        for s in self.symmetries:
            m = list(ident)
            for a, b in s.items():
                m[self.rank[a]] = self.rank[b]
            maps.append(tuple(m))
        for table in self.sum_axes:
            for _, weights in table.schemas:
                if weights and any(weights[m[r]] != w for m in maps for r, w in weights.items()):
                    return ()
        n = self.size
        at_index = {(kind, self.row[g], self.col[g]): g
                    for g, kind in enumerate(self.schema_kind) if kind is not None}
        out = []
        for m in maps:
            letters = []
            for rows, cols in ((m, ident), (ident, m)):
                perm = tuple(
                    g if kind is None else at_index[kind, rows[self.row[g]], cols[self.col[g]]]
                    for g, kind in enumerate(self.schema_kind))
                for at, (rhs, tag) in self.pair_rules.items():
                    image = None if rhs is None else tuple(map(perm.__getitem__, rhs))
                    if self.pair_rules.get(perm[at // n] * n + perm[at % n]) != (image, tag):
                        return ()
                if {perm[g] for g in self.vanishing} != self.vanishing:
                    return ()
                letters.append(perm)
            out.append((m, *letters))
        return tuple(out)

    def axis(self, axis: str) -> list[int]:
        return self.row if axis == "row" else self.col

    def substitute(self, gid: int, axis: str, idx: int) -> int:
        """Id of generator *gid* with its *axis* index replaced by rank *idx*."""
        kind, row, col = self.gens[gid]
        if axis == "row":
            return self.ids[Generator(kind, self.names[idx], col)]
        return self.ids[Generator(kind, row, self.names[idx])]

    # -- the Generator edge ------------------------------------------------

    def encode(self, word: Word) -> IntWord:
        try:
            return tuple(map(self.ids.__getitem__, word))
        except KeyError as exc:
            raise ValueError(f"generator {exc.args[0]} is outside the alphabet") from None

    def text(self, terms: IntTerms) -> str:
        """*terms* as text, shortest words first and words of one length
        in letter order: ``-2/3 + 1/2*q[1,2] + q[2,1]*q[1,2]``; ``0``
        when empty."""
        parts = []
        for w, c in sorted(terms.items(), key=lambda t: (len(t[0]), t[0])):
            word = "*".join(str(self.gens[g]) for g in w)
            parts.append(str(c) if not w else word if c == 1 else f"{c}*{word}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def star(self, word: IntWord) -> IntWord:
        """Formal adjoint of a word: reversed, each letter adjoined."""
        return tuple(map(self.adjoint.__getitem__, reversed(word)))

    # -- monomial reduction --------------------------------------------------

    def rewrite(self, w: IntWord, trace: ReductionTrace | None = None) -> IntWord | None:
        """Monomial fixed point of *w*; None means it rewrote to zero."""
        if self.vanishing and not self.vanishing.isdisjoint(w):
            if trace is not None:
                trace.add("mono:vanishing-generator")
            return None
        rules, n = self.pair_rules, self.size
        i = 0
        while i + 1 < len(w):
            hit = rules.get(w[i] * n + w[i + 1])
            if hit is None:
                i += 1
                continue
            rhs, tag = hit
            if trace is not None:
                trace.add(tag)
            if rhs is None:
                return None
            w = w[:i] + rhs + w[i + 2:]
            i = max(i - 1, 0)
        return w

    # -- collapse candidates -------------------------------------------------

    def collapses(self, terms: IntTerms, reduce) -> list[tuple]:
        """All applicable collapses ``(tag, removed words, added word,
        added coefficient)``, largest groups and innermost slots first;
        *reduce* is the monomial reduction used on completion words.
        Prefix and suffix enter the sort keys length first, then letter
        by letter, the order the generator words they encode sort in."""
        out: list = []
        for table in self.sum_axes:
            table.candidates(terms, reduce, out)
        for table in self.unitary_tables:
            table.candidates(terms, out)
        out.sort(key=itemgetter(0))
        return [c for _, c in out]


class _SumAxis:
    """The sum schemas varying one axis of the relation set's kind.

    They share their groups, words equal but for the varying index of
    one generator, and the completions of a group over the index set;
    each schema only tests the group's coefficients."""

    def __init__(self, alpha: Alphabet, rels: RelationSet, axis: str, schemas):
        var, fixed = alpha.axis(axis), alpha.axis("col" if axis == "row" else "row")
        ours = [kind == rels.gen_kind for kind in alpha.schema_kind]
        self.slot = [(var[g], fixed[g]) if ours[g] else None for g in range(alpha.size)]
        self.completions = [
            tuple((m, alpha.substitute(g, axis, m)) for m in alpha.universe) if ours[g] else None
            for g in range(alpha.size)]
        self.schemas = tuple(
            ("collapse:" + s.tag,
             None if s.weights is None else _coprime_ints(
                 {alpha.rank[i]: w for i, w in s.weights.items()}))
            for s in schemas)

    def candidates(self, terms: IntTerms, reduce, out: list):
        slot = self.slot
        groups: dict[tuple, dict[int, tuple]] = {}
        for w, c in terms.items():
            for t, g in enumerate(w):
                s = slot[g]
                if s is None:
                    continue
                key = (w[:t], w[t + 1:], s[1])
                members = groups.get(key)
                if members is None:
                    members = groups[key] = {}
                members[s[0]] = (c, w, g)
        for (prefix, suffix, fixed), members in groups.items():
            complete = None
            for tag, weights in self.schemas:
                value = _collapsed_value(members, fixed, weights)
                if value is None:
                    continue
                if complete is None:
                    g0 = next(iter(members.values()))[2]
                    complete = not any(
                        m not in members and reduce(prefix + (gid,) + suffix) is not None
                        for m, gid in self.completions[g0])
                if not complete:
                    break
                removed = tuple(w for _, w, _ in members.values())
                sort_key = (-len(members), -len(prefix), prefix, len(suffix), suffix,
                            tag, fixed)
                out.append((sort_key, (tag, removed, prefix + suffix, value)))


def _collapsed_value(members: dict, fixed: int, weights: dict | None) -> Coeff | None:
    """What a sum group collapses to under a plain (weights None) or
    weighted schema, or None when its coefficients do not fit it.

    Weights are the schema's coprime ints W, a positive multiple of its
    weights: the group fits when every c * W[first] equals
    c0 * W[idx], and collapses to c0 * W[fixed] / W[first], an int when
    the division is exact and an exact Fraction otherwise."""
    rest = iter(members.items())
    first_idx, (c0, _, _) = next(rest)
    if weights is None:
        return None if any(c != c0 for _, (c, _, _) in rest) else c0
    w0 = weights[first_idx]
    if any(c * w0 != c0 * weights[idx] for idx, (c, _, _) in rest):
        return None
    value = c0 * weights[fixed]
    return value // w0 if value % w0 == 0 else Fraction(value, w0)


class _UnitaryTable:
    """One unitary schema over an alphabet: for each generator of either
    factor's kind, its (shared index, other index)."""

    def __init__(self, alpha: Alphabet, schema):
        self.tag = "collapse:" + schema.tag
        self.sides = []
        for kind, axis in zip(schema.kinds, schema.shared_axes):
            shared = alpha.axis(axis)
            other = alpha.axis("col" if axis == "row" else "row")
            self.sides.append([(shared[g], other[g]) if alpha.schema_kind[g] == kind else None
                               for g in range(alpha.size)])
        self.universe = frozenset(alpha.universe)

    def candidates(self, terms: IntTerms, out: list):
        left, right = self.sides
        groups: dict[tuple, dict[int, tuple]] = {}
        for w, c in terms.items():
            for t in range(len(w) - 1):
                a = left[w[t]]
                if a is None:
                    continue
                b = right[w[t + 1]]
                if b is None or a[0] != b[0]:
                    continue
                groups.setdefault((w[:t], w[t + 2:], a[1], b[1]), {})[a[0]] = (c, w)
        for (prefix, suffix, i, j), members in groups.items():
            if members.keys() != self.universe:
                continue  # u-words have no zero rules, so only full sums collapse
            rest = iter(members.values())
            base = next(rest)[0]
            if any(c != base for c, _ in rest):
                continue
            removed = tuple(w for _, w in members.values())
            coeff = base if i == j else 0
            sort_key = (-len(members), -len(prefix), prefix, len(suffix), suffix,
                        self.tag, i, j)
            out.append((sort_key, (self.tag, removed, prefix + suffix, coeff)))


def _search_zero(start: IntTerms, alpha: Alphabet, limit: int):
    """Depth-first search over collapse choices for an empty form,
    starting from a nonzero monomial fixed point (the primitive integer
    form, when ``_prove_zero`` calls it: any nonzero multiple returns the
    same tags); returns the applied collapse tags on success, None on
    failure.

    A collapse deletes its group and adds one shorter word, so a child
    is again a monomial fixed point once that word alone is reduced.
    Reductions are memoised for this search only: completion words recur
    within one search far more than across searches, so the memo dies
    with it and memory stays flat.  Pending forms wait on the stack as
    the frozen item sets ``seen`` already holds, not as second copies.
    Candidate sort keys are unique per schema tag, so a form's
    candidates do not depend on the order of its terms.
    """
    memo: dict[IntWord, IntWord | None] = {}

    def reduce(w: IntWord) -> IntWord | None:
        r = memo.get(w, _MISS)
        if r is _MISS:
            r = memo[w] = alpha.rewrite(w)
        return r

    key = frozenset(start.items())
    seen = {key}
    stack = [(key, ())]
    budget = limit
    while stack and budget > 0:
        key, tags = stack.pop()
        cur = dict(key)
        budget -= 1
        for tag, removed, added, coeff in reversed(alpha.collapses(cur, reduce)):
            child = dict(cur)
            for w in removed:
                del child[w]
            r = reduce(added) if coeff else None
            if r is not None:
                c = child.get(r, 0) + coeff
                if c:
                    child[r] = c
                else:
                    del child[r]
            if not child:
                return tags + (tag,)
            key = frozenset(child.items())
            if key not in seen:
                seen.add(key)
                stack.append((key, tags + (tag,)))
    return None


def _coprime_ints(values: dict) -> dict:
    """*values* scaled to coprime ints, sign kept: times the lcm of
    their denominators, then divided by the gcd of the products."""
    den = lcm(*(c.denominator for c in values.values()))
    ints = {k: c.numerator * (den // c.denominator) for k, c in values.items()}
    common = gcd(*ints.values())
    return {k: c // common for k, c in ints.items()}


def _primitive(terms: IntTerms) -> frozenset:
    """The items of *terms* scaled to coprime int coefficients, sign kept."""
    return frozenset(_coprime_ints(terms).items())


class ProofStore(dict):
    """Proved primitive forms under their row images, filed by column
    profile: profile -> {form: winning tags}.

    A form's column profile counts, for each column rank, its letters
    over the index set with that column.  Row maps keep it, so a proof's
    row images and their negations share one profile; ``turns`` lists,
    for a profile p, each column letter map (id, tau) that carries p to
    a filed profile, with that profile's forms, so ``find`` looks up
    only those column images.  Orbits are disjoint and a form is only
    searched when no stored orbit holds it, so each orbit keeps the
    tags of the one search that proved it."""

    def __init__(self, alpha: Alphabet):
        super().__init__()
        self.alpha = alpha
        #: per id, the column rank of a letter over the index set, else None
        self.column = [None if kind is None else c
                       for kind, c in zip(alpha.schema_kind, alpha.col)]
        self.turns: dict[tuple[int, ...], list[tuple[tuple[int, ...], dict]]] = {}

    def _profile(self, key: frozenset) -> tuple[int, ...]:
        counts = [0] * len(self.alpha.names)
        for w, _ in key:
            for g in w:
                c = self.column[g]
                if c is not None:
                    counts[c] += 1
        return tuple(counts)

    @staticmethod
    def _image(key: frozenset, letters: tuple[int, ...]) -> frozenset:
        return frozenset((tuple(map(letters.__getitem__, w)), c) for w, c in key)

    def find(self, key: frozenset) -> tuple[str, ...] | None:
        """The winning tags of the stored orbit holding *key*, or None."""
        for cols, filed in self.turns.get(self._profile(key), ()):
            winning = filed.get(self._image(key, cols))
            if winning is not None:
                return winning
        return None

    def add(self, key: frozenset, winning: tuple[str, ...]):
        """File *key* and its negation under each of their row images."""
        negation = frozenset((w, -c) for w, c in key)
        images = {self._image(form, rows): winning
                  for _, rows, _ in self.alpha.transport for form in (key, negation)}
        if not images:
            return
        profile = self._profile(key)
        filed = self.get(profile)
        if filed is None:
            filed = self[profile] = {}
            for ranks, _, cols in self.alpha.transport:
                # (id, tau) sends column c to ranks[c], so it carries
                # profile[ranks[c]] for each c onto this profile
                turned = tuple(map(profile.__getitem__, ranks))
                self.turns.setdefault(turned, []).append((cols, filed))
        filed.update(images)


def _prove_zero(start: IntTerms, alpha: Alphabet):
    """The winning collapse tags for *start*, or None.

    Every search runs on the primitive integer form of *start*, which
    is also the proof store's key.  A start form that ``alpha.proofs``
    answers is a (sigma, tau) image of a nonzero multiple of a proved
    form, and those permutations map the relation ideal onto itself, so
    it takes that proof's tags.  Otherwise it is searched, and a proof
    is stored; a failed search, or a relation set without transport,
    stores nothing.
    """
    key = _primitive(start)
    winning = alpha.proofs.find(key)
    if winning is None:
        winning = _search_zero(dict(key), alpha, SEARCH_LIMIT)
        if winning is not None:
            alpha.proofs.add(key, winning)
    return winning


def reduce_word(word: IntWord, rels: RelationSet, trace: ReductionTrace | None = None):
    """Monomial fixed point of *word*; None means it rewrote to zero."""
    return rels.alphabet.rewrite(word, trace)


def normal_form(terms: IntTerms, rels: RelationSet,
                trace: ReductionTrace | None = None) -> IntTerms:
    """Deterministic reduced form of *terms* (nonzero coefficients),
    idempotent and compatible with the formal adjoint.

    The visible form is the monomial fixed point (that layer is
    confluent for these rule sets), reduced word by word in *terms*'
    order; collapses are applied inside the zero-certificate search,
    whose sound paths may rewrite a word to either of two distinct
    representatives of the same element, so their result is only
    reported when it is the zero certificate.
    """
    cur: IntTerms = {}
    for w, c in terms.items():
        r = reduce_word(w, rels, trace)
        if r is not None:
            cur[r] = cur.get(r, 0) + c
    cur = {w: c for w, c in cur.items() if c}
    if not cur:
        return cur
    winning = _prove_zero(cur, rels.alphabet)
    if winning is not None:
        if trace is not None:
            for tag in winning:
                trace.add(tag)
            trace.add("search:zero-certificate")
        return {}
    return cur


def is_zero(terms: IntTerms, rels: RelationSet, trace: ReductionTrace | None = None) -> Verdict:
    return normal_form_verdict(normal_form(terms, rels, trace))


def normal_form_verdict(nf: IntTerms) -> Verdict:
    """The verdict a normal form carries: the search already ran inside
    normal_form, so only a zero form is proved."""
    if not nf:
        return Verdict(PROVED_ZERO)
    return Verdict(UNKNOWN, detail=f"normal form has {len(nf)} terms")


def tensor_reduce(pairs: dict[tuple[IntWord, IntWord], int],
                  rels: RelationSet) -> dict[tuple[IntWord, IntWord], int]:
    """Leg-wise monomial reduction of a tensor-square element given as
    word-pair counts; returns the nonzero counts of the reduced pairs."""
    out: dict[tuple[IntWord, IntWord], int] = {}
    for (w1, w2), c in pairs.items():
        if not c:
            continue
        r1 = reduce_word(w1, rels)
        if r1 is None:
            continue
        r2 = reduce_word(w2, rels)
        if r2 is None:
            continue
        key = (r1, r2)
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}
