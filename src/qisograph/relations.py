"""Relation sets for the generator families: magic-unitary rules,
graph-derived edge-compatibility rules, free-unitary relations, and the
weighted Perron sum schema.

A monomial rule maps its two-letter left-hand side to one record, its
right-hand side (a word, possibly empty for the unit, or ``ZERO``) and
its tag; the rules are closed under the formal adjoint.  Full-index
sums cannot be oriented as terminating word rules, so they live as sum
schemas consumed by a polynomial-level collapse pass in the rewriter.
The linear relations (adjacency commutation) are single-letter
combinations, ``dict[Generator, int]``s that only providers read.
``RelationSet.relators`` states every relation as a polynomial over the
rewriter's alphabet that must vanish; registration evaluates those.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product

from .graphs import (
    PROFILES, DirectedGraph, adjacency_matrix, graph_automorphisms, hypothesis_witnesses,
)
from .ncpoly import FORMAL_UNITARY, FORMAL_UNITARY_STAR, Generator, QKIND, UKIND, USTAR, q

#: sentinel RHS meaning the monomial rewrites to zero
ZERO = None

PairRule = tuple[Generator, Generator]
#: a pair rule's record: the right-hand side word (ZERO for zero) and its tag
RuleRecord = tuple[tuple[Generator, ...] | None, str]


@dataclass(frozen=True)
class SumSchema:
    """Single-generator full-index sum: over the varying axis of a
    q-generator, sum_k (weight_k * g) collapses to value * unit, where
    value is the weight at the fixed index; *weights* maps each index
    to its weight, and is None for a plain row/column sum (all 1)."""

    tag: str
    varying_axis: str                      # "row" or "col"
    weights: dict[str, Fraction] | None


@dataclass(frozen=True)
class UnitarySchema:
    """Adjacent-pair full-index sum encoding unitarity of u and u-bar:
    sum_k g1 g2 (sharing index k on the stated axes) = delta_{ij}."""

    tag: str
    kinds: tuple[str, str]
    shared_axes: tuple[str, str]           # axis of the shared index in each factor


UNITARY_SCHEMAS = (
    UnitarySchema("u-star-u-rows", (USTAR, UKIND), ("row", "row")),
    UnitarySchema("u-u-star-cols", (UKIND, USTAR), ("col", "col")),
    UnitarySchema("u-u-star-rows", (UKIND, USTAR), ("row", "row")),
    UnitarySchema("u-star-u-cols", (USTAR, UKIND), ("col", "col")),
)


@dataclass(frozen=True)
class RelationSet:
    """One generator family's relations over *universe*.  Each pair rule
    maps its left-hand side to its ``(rhs, tag)`` record, and
    ``relators`` states every relation as a polynomial that must vanish."""

    name: str
    gen_kind: str                          # "q" or "u"
    universe: tuple[str, ...]
    pair_rules: dict[PairRule, RuleRecord]
    sum_schemas: tuple[SumSchema, ...]
    unitary_schemas: tuple[UnitarySchema, ...]
    linear_relations: tuple[dict[Generator, int], ...] = ()
    events: tuple[dict, ...] = ()
    #: generators proved zero by unit-insertion closure (see below)
    vanishing: frozenset[Generator] = frozenset()
    #: a group of index permutations (Aut(G) for ``qaut``, every
    #: permutation of a small index set for ``magic``) whose pairs
    #: (sigma, tau) may preserve the relations; the rewriter checks that
    #: before it transports a zero proof along q[a,b] -> q[sigma a, tau b]
    symmetries: tuple[dict[str, str], ...] = ()

    @cached_property
    def alphabet(self):
        """The rewriter's interned integer alphabet, built on first use."""
        from .rewrite import Alphabet
        return Alphabet(self)

    def relators(self):
        """Each relation as ``(label, poly)``, *poly* an int-word ->
        coefficient dict over ``alphabet`` that must vanish."""
        enc, ids, kind = self.alphabet.encode, self.universe, self.gen_kind
        for (g1, g2), (rhs, _) in self.pair_rules.items():
            yield ((f"rule {g1}{g2}->0", {enc((g1, g2)): 1}) if rhs is ZERO
                   else (f"rule {g1}{g2}", {enc((g1, g2)): 1, enc(rhs): -1}))
        for schema in self.sum_schemas:
            w = schema.weights or dict.fromkeys(ids, 1)
            for fixed in ids:
                poly = {enc((_placed(kind, schema.varying_axis, k, fixed),)): w[k] for k in ids}
                yield f"schema {schema.tag}@{fixed}", {**poly, (): -w[fixed]}
        for schema in self.unitary_schemas:
            (kind1, kind2), (ax1, ax2) = schema.kinds, schema.shared_axes
            for i, j in product(ids, ids):
                poly = {enc((_placed(kind1, ax1, k, i), _placed(kind2, ax2, k, j))): 1 for k in ids}
                yield f"schema {schema.tag}@({i},{j})", {**poly, (): -1} if i == j else poly
        for idx, p in enumerate(self.linear_relations):
            yield f"linear relation #{idx}", {enc((g,)): c for g, c in p.items()}
        for gen in sorted(self.vanishing):
            yield f"vanishing generator {gen}", {enc((gen,)): 1}


def _placed(kind: str, axis: str, idx: str, other: str) -> Generator:
    """The generator of *kind* with *idx* on *axis*, *other* on the other."""
    return Generator(kind, idx, other) if axis == "row" else Generator(kind, other, idx)


def _magic_pair_rules(ids: tuple[str, ...]):
    """Idempotency, row orthogonality, column orthogonality."""
    rules: dict[PairRule, RuleRecord] = {}
    for a in ids:
        for b in ids:
            gen = q(a, b)
            rules[(gen, gen)] = ((gen,), "idem")
            for c in ids:
                if c != b:
                    rules[(q(a, b), q(a, c))] = (ZERO, "row-orth")
                if c != a:
                    rules[(q(a, b), q(c, b))] = (ZERO, "col-orth")
    return rules


#: the most indices whose permutations ``magic_relations`` lists as
#: symmetries: the rewriter validates 720 of them (six loops) in about
#: 0.25 s, but 8! in about 30 s, far longer than a reduction on such a
#: graph takes without them
MAGIC_SYMMETRY_MAX_IDS = 6


def magic_relations(ids, name: str = "magic") -> RelationSet:
    """Relations of a magic unitary of order len(ids): entries are
    self-adjoint idempotents, rows and columns sum to the unit.

    Every permutation of *ids* is a symmetry: these are the edge
    automorphisms of the one-vertex loop graph.  Each rule family
    (idempotency, row and column orthogonality) and both plain sums are
    stated for all indices alike, so q[a,b] -> q[sigma a, tau b] carries
    them onto themselves for any pair sigma, tau; the rewriter re-checks
    that on its tables before it transports a zero proof.  Beyond
    ``MAGIC_SYMMETRY_MAX_IDS`` indices none are listed, and zero proofs
    are searched one by one.
    """
    ids = tuple(ids)
    rules = _magic_pair_rules(ids)
    schemas = (
        SumSchema("row-sum", "col", None),
        SumSchema("col-sum", "row", None),
    )
    symmetries = (tuple(dict(zip(ids, p)) for p in permutations(ids))
                  if len(ids) <= MAGIC_SYMMETRY_MAX_IDS else ())
    return RelationSet(name, QKIND, ids, rules, schemas, (), symmetries=symmetries)


def _edge_rule_candidates(g: DirectedGraph, reading: str):
    """Zero rules q[a,b] q[c,d] -> 0 from the edge-compatibility
    relations, generated under one reading of the non-edge pair.

    The row pair and the column pair of the two-letter word are both
    read in the same role order; "rs" reads a pair (x, y) as an edge
    with r(e)=x, s(e)=y, and "sr" reads it with s(e)=x, r(e)=y.
    """
    rs = g.range_source_pairs
    ids = g.vertices

    def is_edge(x, y):
        return ((x, y) in rs) if reading == "rs" else ((y, x) in rs)

    out = []
    for a in ids:
        for c in ids:
            for b in ids:
                for d in ids:
                    if a == c or b == d:
                        continue  # covered by orthogonality rules
                    if is_edge(a, c) != is_edge(b, d):
                        out.append((q(a, b), q(c, d)))
    return out


def _vanishing_closure(ids, rules, vanishing: set[Generator]) -> int:
    """Derive single generators that the relations force to zero.

    If for some fixed index r every completed two-letter word
    g*q[r,w] (w over the whole index set) is already zero, then
    g = g * sum_w q[r,w] = 0; same with the column axis and with
    left-side insertion.  Iterated to a fixed point: each new vanishing
    generator zeroes more completed words.  Standard consequence: for
    rigid enough graphs many q[i,j] vanish outright, and the identity
    suite needs exactly these vanishings to telescope.
    """

    def pair_zero(g1: Generator, g2: Generator) -> bool:
        if g1 in vanishing or g2 in vanishing:
            return True
        return (g1, g2) in rules and rules[(g1, g2)][0] is ZERO

    def annihilated(gen: Generator) -> bool:
        for r in ids:
            if all(pair_zero(gen, q(r, w)) for w in ids):
                return True
            if all(pair_zero(gen, q(w, r)) for w in ids):
                return True
            if all(pair_zero(q(r, w), gen) for w in ids):
                return True
            if all(pair_zero(q(w, r), gen) for w in ids):
                return True
        return False

    added = 0
    changed = True
    while changed:
        changed = False
        for i in ids:
            for j in ids:
                gen = q(i, j)
                if gen in vanishing:
                    continue
                if annihilated(gen):
                    vanishing.add(gen)
                    added += 1
                    changed = True
    return added


def qaut_relations(g: DirectedGraph, pf) -> RelationSet:
    """Relation set of the quantum automorphism algebra of *g*.

    Magic-unitary rules over the vertex set, the edge-compatibility zero
    rules under both readings of the non-edge index pair, the adjacency
    commutation linear relations, and, when the Perron data *pf* is
    exact, the weighted sum schema sum_k x_k q[k,j] = x_j * 1 (an
    invariance theorem, not an axiom); on inexact data a "disabled"
    event records its absence.  Both readings hold classically:
    a rule q[a,b] q[c,d] -> 0 has exactly one of the pairs (a,c), (b,d)
    an edge in its reading, and an automorphism sigma with sigma(b) = a
    and sigma(d) = c would carry (b,d) onto (a,c), so the rule vanishes
    under the automorphism representation.

    The graph's vertex automorphisms are the set's ``symmetries``.  A
    graph automorphism commutes with the adjacency matrix and fixes the
    Perron vector, so every rule family above, the vanishing closure
    and the weighted schema are carried onto themselves by
    q[a,b] -> q[sigma a, tau b] for any pair sigma, tau of them; the
    rewriter re-checks exactly that on the built tables before it uses
    the pairs to transport zero proofs (see ``rewrite``).
    """
    witnesses = hypothesis_witnesses(g)
    failed = [h for h in PROFILES["aut-plus"] if witnesses[h] is not None]
    if failed:
        raise ValueError(f"graph {g.name} fails aut-plus validation: {', '.join(failed)}")

    ids = g.vertices
    rules = _magic_pair_rules(ids)
    events = []
    for reading in ("sr", "rs"):
        added = 0
        for rule in _edge_rule_candidates(g, reading):
            if rule not in rules:
                rules[rule] = (ZERO, "edge-zero")
                added += 1
        events.append({"family": f"edge-zero[{reading}]", "action": "installed",
                       "rules": added})

    # adjacency commutation UA = AU, stored for provider validation
    a = adjacency_matrix(g)
    linear = []
    for i, vi in enumerate(ids):
        for j, vj in enumerate(ids):
            p: dict[Generator, int] = {}
            for k, vk in enumerate(ids):
                if a[i][k]:
                    p[q(vk, vj)] = p.get(q(vk, vj), 0) + a[i][k]
                if a[k][j]:
                    p[q(vi, vk)] = p.get(q(vi, vk), 0) - a[k][j]
            p = {gen: c for gen, c in p.items() if c}
            if p:
                linear.append(p)

    schemas = [
        SumSchema("row-sum", "col", None),
        SumSchema("col-sum", "row", None),
    ]
    if pf.exact:
        schemas.append(SumSchema("weighted-col-sum", "row", dict(pf.x)))
    else:
        events.append({"family": "weighted-col-sum", "action": "disabled",
                       "reason": "Perron data not exact; numeric checks only"})

    vanishing: set[Generator] = set()
    derived = _vanishing_closure(ids, rules, vanishing)
    if derived:
        autos = graph_automorphisms(g)
        for gen in vanishing:
            for sigma in autos:
                if sigma[gen.col] == gen.row:
                    raise ValueError(
                        f"derived vanishing {gen} contradicts automorphism on {g.name}")
        events.append({"family": "vanishing-generators", "action": "derived",
                       "generators": sorted(str(v) for v in vanishing)})

    return RelationSet(f"qaut({g.name})", QKIND, ids, rules,
                       tuple(schemas), (), tuple(linear), tuple(events),
                       vanishing=frozenset(vanishing), symmetries=graph_automorphisms(g))


def free_unitary_relations(ids, name: str = "free-unitary") -> RelationSet:
    """Universal relations making (u[i,j]) and its entrywise adjoint
    unitary; there are no monomial rules, only the four sum schemas."""
    ids = tuple(ids)
    return RelationSet(name, UKIND, ids, {}, (), UNITARY_SCHEMAS)


def with_formal_unitary(rels: RelationSet) -> RelationSet:
    """Adjoin one formal unitary w with w w* = w* w = 1."""
    rules = dict(rels.pair_rules)
    rules[(FORMAL_UNITARY, FORMAL_UNITARY_STAR)] = ((), "w-unitary")
    rules[(FORMAL_UNITARY_STAR, FORMAL_UNITARY)] = ((), "w-unitary")
    return replace(rels, name=rels.name + "+w", pair_rules=rules)
