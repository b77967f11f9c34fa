
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import UNEQUAL4_TEXT, full_comultiply, u
from qisograph.corep import EDGE_INDEX, VERTEX_PAIR, VerificationContext, run_identity_suite
from qisograph.cuntz import MAGIC, cuntz_setup
from qisograph.exprlang import parse_expression
from qisograph.graphs import parse_graph
from qisograph.ncpoly import q
from qisograph.providers import classical_rep, loop_permutation_rep
from qisograph.relations import free_unitary_relations, magic_relations, qaut_relations
from qisograph.rewrite import (
    SEARCH_LIMIT, ReductionTrace, _collapsed_value, _search_zero, is_zero, normal_form,
    reduce_word,
)
from qisograph.verdict import PROVED_ZERO, UNKNOWN
from soundness import record_proofs

IDS = ("1", "2", "3")


def test_magic_monomial_rules():
    rels = magic_relations(IDS)
    enc = rels.alphabet.encode
    gen = q("1", "2")
    assert reduce_word(enc((gen, gen)), rels) == enc((gen,))
    assert reduce_word(enc((q("1", "1"), q("1", "2"))), rels) is None   # row orthogonality
    assert reduce_word(enc((q("1", "1"), q("2", "1"))), rels) is None   # column orthogonality
    word = enc((q("1", "2"), q("2", "3")))
    assert reduce_word(word, rels) == word


def test_row_sum_collapse(qaut_rels):
    rels = qaut_rels["k3"]
    p = parse_expression("sum(k, q[1,k]) * q[2,3] - q[2,3]", rels)
    assert is_zero(p, rels).kind == PROVED_ZERO


def test_orthogonality_plus_idempotency(qaut_rels):
    rels = qaut_rels["k3"]
    p = parse_expression("q[1,2]*q[1,3] + q[1,2]*q[1,2] - q[1,2]", rels)
    assert is_zero(p, rels).kind == PROVED_ZERO


def test_inner_product_sum_reduces(graphs, perron_data, qaut_rels):
    # sum_f x_{s(f)} Q[f,e]* Q[f,e] = x_{s(e)} on the complete graph
    g, pf, rels = graphs["k3"], perron_data["k3"], qaut_rels["k3"]
    from qisograph.graphs import enumerate_paths
    e = enumerate_paths(g, 1)[0]
    alpha = rels.alphabet
    ob = {}
    for f in enumerate_paths(g, 1):
        w = alpha.encode((q(f.range, e.range), q(f.source, e.source)))
        ob[alpha.star(w) + w] = pf.x[f.source]
    ob[()] = -pf.x[e.source]
    tr = ReductionTrace()
    assert is_zero(ob, rels, tr).kind == PROVED_ZERO
    assert tr.count > 0 and len(tr.digest()) == 16
    # numeric oracle: the same element vanishes under the automorphism rep
    assert classical_rep(g, rels).norm(ob, alpha.gens) < 1e-12


def test_generator_is_unknown(qaut_rels):
    rels = qaut_rels["k3"]
    assert is_zero({rels.alphabet.encode((q("1", "1"),)): 1}, rels).kind == UNKNOWN


def test_weighted_schema():
    # synthetic non-uniform weights exercise the weighted collapse
    from qisograph.relations import RelationSet, SumSchema
    weights = dict(zip(IDS, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))))
    base = magic_relations(IDS)
    rels = RelationSet(
        "weighted", base.gen_kind, base.universe, base.pair_rules,
        base.sum_schemas + (SumSchema("weighted-col-sum", "row", weights),),
        ())
    p = {rels.alphabet.encode((q(k, "2"),)): w for k, w in weights.items()}
    p[()] = -weights["2"]
    assert is_zero(p, rels).kind == PROVED_ZERO


def _unequal4_rels():
    from qisograph.perron import perron
    g = parse_graph(UNEQUAL4_TEXT)
    return qaut_relations(g, perron(g))


def test_collapsed_value_keeps_a_non_integral_collapse_exact():
    rels = _unequal4_rels()
    (x,) = [s.weights for s in rels.sum_schemas if s.weights]
    (weights,) = [w for table in rels.alphabet.sum_axes for _, w in table.schemas if w]
    rank = rels.alphabet.rank
    # x = (1/3, 2/9, 5/18, 1/6) scales to the coprime ints (6, 4, 5, 3)
    assert weights == {rank[v]: w for v, w in zip("1234", (6, 4, 5, 3))}
    # 3 q[1,j] + 2 q[2,j] fits x (3 : 2 = 1/3 : 2/9); at j = 3 it
    # collapses to 3 * 5 / 6, at j = 1 to 3 * 6 / 6
    members = {rank["1"]: (3, (), None), rank["2"]: (2, (), None)}
    value = _collapsed_value(members, rank["3"], weights)
    assert value == Fraction(5, 2) == 3 / x["1"] * x["3"]
    assert type(_collapsed_value(members, rank["1"], weights)) is int
    assert _collapsed_value({**members, rank["4"]: (2, (), None)}, rank["3"], weights) is None


@pytest.fixture(scope="module")
def scaling_sets(graphs, perron_data):
    return {"k3": qaut_relations(graphs["k3"], perron_data["k3"]),
            "magic4": magic_relations(("1", "2", "3", "4")),
            "unequal4": _unequal4_rels()}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(("k3", "magic4", "unequal4")), data=st.data())
def test_search_is_scale_equivariant(scaling_sets, name, data):
    """A search finds the same winning tags, or fails alike, on a form
    and on any nonzero multiple of it, so it may run on the primitive
    integer form.  Forms are random multiples of schema relators with
    random words around them, maybe plus a stray word, reduced by the
    monomial pass."""
    rels = scaling_sets[name]
    alpha = rels.alphabet
    relators = [poly for label, poly in rels.relators() if label.startswith("schema")]
    letters = [alpha.ids[q(a, b)] for a in rels.universe for b in rels.universe]
    words = st.lists(st.sampled_from(letters), max_size=2).map(tuple)
    coeffs = st.sampled_from((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    pieces = data.draw(st.lists(st.tuples(st.sampled_from(relators), words, words, coeffs),
                                min_size=1, max_size=3))
    terms = data.draw(st.lists(st.tuples(words, coeffs), max_size=1))
    terms += [(left + w + right, c * a) for poly, left, right, c in pieces
              for w, a in poly.items()]
    form = {}
    for w, c in terms:
        r = alpha.rewrite(w)
        if r is not None:
            form[r] = form.get(r, 0) + c
    form = {w: c for w, c in form.items() if c}
    assume(form)
    winning = _search_zero(form, alpha, 300)
    for s in (2, -3, Fraction(5, 7)):
        assert _search_zero({w: s * c for w, c in form.items()}, alpha, 300) == winning


def test_rewriter_proves_the_relations_it_installs(graphs, perron_data):
    """Every relator of fresh relation sets is ProvedZero, except the
    adjacency commutation UA = AU wherever the vanishing generators do
    not reduce it: the rewriter uses UA = AU only through the edge-zero
    rules it implies.  ROADMAP item 2 is to close that gap, which changes
    this set on purpose."""
    from qisograph.perron import perron
    from qisograph.relations import with_formal_unitary
    sets = []
    for name, g in graphs.items():
        try:
            sets.append(qaut_relations(g, perron_data[name]))
        except ValueError:      # the loop graphs fail aut-plus validation
            pass
    k4 = parse_graph("graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
        f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s))
    free = free_unitary_relations(IDS)
    sets += [qaut_relations(k4, perron(k4)), magic_relations(("1", "2", "3", "4")),
             free, with_formal_unitary(free)]
    unproved = {(rels.name, label) for rels in sets for label, poly in rels.relators()
                if is_zero(poly, rels).kind != PROVED_ZERO}
    assert unproved == {(f"qaut({name})", f"linear relation #{i}")
                        for name, count in (("k3", 9), ("three-cycle", 9), ("two-cycle", 4),
                                            ("k4", 16))
                        for i in range(count)}


def test_free_unitary_schemas():
    rels = free_unitary_relations(("1", "2"))
    for text in ("sum(k, u*[k,1]*u[k,1]) - 1", "sum(k, u*[k,1]*u[k,2])",
                 "sum(k, u[k,1]*u*[k,2])"):     # the last: conjugate-unitary counterpart
        assert is_zero(parse_expression(text, rels), rels).kind == PROVED_ZERO, text
    # no idempotency for free unitaries
    w = parse_expression("u[1,1]*u[1,1]", rels)
    assert normal_form(w, rels) == w


def test_vanishing_generators_drive_reductions(graphs, qaut_rels):
    rels = qaut_rels["asym4"]
    assert len(rels.vanishing) == 12       # the graph is quantum-rigid
    assert is_zero(parse_expression("q[3,1]", rels), rels).kind == PROVED_ZERO
    assert is_zero(parse_expression("q[1,1]", rels), rels).kind == UNKNOWN
    # diagonal entries collapse to the unit: q[1,1] - 1 = -(sum of vanished row)
    assert is_zero(parse_expression("q[1,1] - 1", rels), rels).kind == PROVED_ZERO


def test_engine_soundness_random(graphs, perron_data):
    """200 random polynomials per relation set: ProvedZero implies
    numerically zero under every provider; normal form idempotent;
    star-closure."""
    from soundness import run_soundness_battery
    run_soundness_battery(graphs, perron_data)


def test_edge_rule_orientations_sound_under_classical(graphs, qaut_rels):
    """Every installed edge-compatibility rule evaluates to zero under
    the automorphism representation."""
    for name in ("three-cycle", "k3", "asym4"):
        rels = qaut_rels[name]
        provider = classical_rep(graphs[name], rels)
        alpha = rels.alphabet
        for (g1, g2), (rhs, tag) in rels.pair_rules.items():
            if tag != "edge-zero":
                continue
            assert rhs is None
            assert provider.norm({alpha.encode((g1, g2)): 1}, alpha.gens) < 1e-12


def test_trace_reports_applied_rules(qaut_rels):
    rels = qaut_rels["k3"]
    tr = ReductionTrace()
    normal_form({rels.alphabet.encode((q("1", "2"), q("1", "2"))): 1}, rels, tr)
    assert tr.events.count("mono:idem") == 1


def test_comultiply_of_zero_word_reduces_legwise(qaut_rels):
    # Delta(q11 q12) expands to sum_{k,l} q1k q1l (x) qk1 ql2; row
    # orthogonality on the legs kills every pair
    from qisograph.rewrite import tensor_reduce
    rels = qaut_rels["k3"]
    alpha = rels.alphabet
    pairs = full_comultiply(alpha.encode((q("1", "1"), q("1", "2"))), alpha.split)
    assert len(set(pairs)) == 9
    assert tensor_reduce(dict.fromkeys(pairs, 1), rels) == {}


def test_alphabet_int_order_is_generator_order():
    # vertex ids in file order "z", "10", "9" sort as "10" < "9" < "z"
    from itertools import product
    from qisograph.graphs import parse_graph
    from qisograph.perron import perron
    from qisograph.relations import qaut_relations
    g = parse_graph("graph relabelled\nv z\nv 10\nv 9\n"
                    "e a 9 z\ne b z 9\ne c 10 z\ne d z 10\ne e 9 10\ne f 10 9\n")
    assert list(g.vertices) != sorted(g.vertices)
    rels = qaut_relations(g, perron(g))
    alpha = rels.alphabet
    assert list(alpha.gens) == sorted(alpha.gens)
    assert alpha.names == sorted(alpha.names)
    assert [alpha.names[r] for r in alpha.universe] == list(g.vertices)
    words = [tuple(w) for n in (1, 2) for w in product(alpha.gens, repeat=n)]
    assert sorted(words, key=alpha.encode) == sorted(words)
    # text lists the words as the generator words sort
    assert alpha.text(dict.fromkeys(map(alpha.encode, words), 1)) == " + ".join(
        "*".join(map(str, w)) for w in sorted(words, key=lambda w: (len(w), w)))


def test_generator_outside_alphabet_is_rejected():
    alpha = magic_relations(IDS).alphabet
    for stranger in (q("1", "9"), u("2", "2")):
        assert stranger not in alpha.ids
        word = (q("1", "1"), stranger)
        with pytest.raises(ValueError, match=re.escape(str(stranger))):
            alpha.encode(word)



def _orbit(rels):
    """The (sigma, tau) images of (sum_k q[k,a] - 1) q[b,b] (times 2/3),
    a zero polynomial whose proof needs the collapse search, as int-word
    dicts over the alphabet of *rels*."""
    a, b = rels.universe[:2]
    base = parse_expression(f"2/3 * (sum(k, q[k,{a}]) - 1) * q[{b},{b}]", rels)
    alpha = rels.alphabet

    def image(w, sigma, tau):
        return alpha.encode(tuple(q(sigma[alpha.gens[g].row], tau[alpha.gens[g].col])
                                  for g in w))

    return [{image(w, sigma, tau): c for w, c in base.items()}
            for sigma in rels.symmetries for tau in rels.symmetries]


def _mutants(rels):
    """The relation set with one edge-zero rule dropped, and with one
    Perron weight perturbed: neither is invariant under its symmetries."""
    from qisograph.relations import SumSchema
    dropped = next(lhs for lhs, (_, tag) in rels.pair_rules.items() if tag == "edge-zero")
    rules = {lhs: rule for lhs, rule in rels.pair_rules.items() if lhs != dropped}
    first = rels.universe[0]
    schemas = tuple(
        s if s.weights is None
        else SumSchema(s.tag, s.varying_axis, {**s.weights, first: s.weights[first] * 2})
        for s in rels.sum_schemas)
    assert schemas != rels.sum_schemas
    return {"edge-zero dropped": replace(rels, pair_rules=rules),
            "weight perturbed": replace(rels, sum_schemas=schemas)}


def test_transport_off_for_relations_that_are_not_invariant(graphs, qaut_rels):
    rels = qaut_rels["three-cycle"]
    polys = _orbit(rels)
    intact = replace(rels)                 # a fresh alphabet: its proof dict is empty
    assert intact.alphabet.gens == rels.alphabet.gens   # so the int words carry over
    recorder = record_proofs(intact)
    assert all(is_zero(p, intact).kind == PROVED_ZERO for p in polys)
    assert len(recorder.hits) == len(polys) - 1 == 8    # one search for the orbit
    mutants = _mutants(rels)
    for name, mutant in mutants.items():
        assert len(mutant.symmetries) == 3 and mutant.alphabet.transport == (), name
        assert mutant.alphabet.gens == rels.alphabet.gens, name
        plain = replace(mutant, symmetries=())
        for p in polys:
            got, want = ReductionTrace(), ReductionTrace()
            assert is_zero(p, mutant, got) == is_zero(p, plain, want), name
            assert got.events == want.events, name
        assert mutant.alphabet.proofs == {}, name
    # dropping a rule keeps the relations sound, so its proofs still hold
    dropped = mutants["edge-zero dropped"]
    provider = classical_rep(graphs["three-cycle"], rels)
    proved = [p for p in polys if is_zero(p, dropped).kind == PROVED_ZERO]
    assert proved and all(provider.norm(p, dropped.alphabet.gens) < 1e-12 for p in proved)


LOOPS4 = "graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5))


def _suite_input(name, graphs, perron_data):
    """Graph, Perron data, relation set, index scheme and provider
    builder of the identity suite on *name*: qaut(G) on a bundled graph,
    the magic suite on the 4-loop graph."""
    if name == "loops4":
        setup = cuntz_setup(parse_graph(LOOPS4), MAGIC)
        return (setup.graph, setup.pf, setup.rels, EDGE_INDEX,
                lambda rels: loop_permutation_rep(setup.loop_ids, rels))
    g, pf = graphs[name], perron_data[name]
    return g, pf, qaut_relations(g, pf), VERTEX_PAIR, lambda rels: classical_rep(g, rels)


@pytest.mark.parametrize("name", ["three-cycle", "k3", "asym4", "loops4"])
def test_transport_keeps_every_suite_result(name, graphs, perron_data):
    g, pf, rels, scheme, provider = _suite_input(name, graphs, perron_data)
    recorder = record_proofs(rels)
    results = {}
    for side, side_rels in (("on", rels), ("off", replace(rels, symmetries=()))):
        ctx = VerificationContext(g, pf, side_rels, scheme, [provider(side_rels)], 3)
        results[side] = [(c.name, c.inputs, c.verdict, c.reductions, c.trace_digest,
                          c.residuals) for c in run_identity_suite(ctx, k_max=2)]
    assert results["on"] == results["off"]
    # every symmetry passed validation and is held as one rank map
    assert len(rels.alphabet.transport) == len(rels.symmetries)
    if name != "asym4":   # Aut(asym4) is trivial
        assert recorder.hits


def test_transported_forms_prove_zero_from_scratch(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    rels = qaut_relations(g, pf)
    recorder = record_proofs(rels)
    run_identity_suite(VerificationContext(g, pf, rels, VERTEX_PAIR, [], 3), k_max=2)
    hits = set(recorder.hits)
    assert len(hits) > 100
    for key, winning in hits:
        assert _search_zero(dict(key), rels.alphabet, SEARCH_LIMIT) == winning


def _counting_searches(monkeypatch) -> list:
    from qisograph import rewrite
    calls = []
    search = rewrite._search_zero

    def counting(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(rewrite, "_search_zero", counting)
    return calls


def test_store_answers_every_image_of_a_proved_orbit(monkeypatch):
    rels = magic_relations(("1", "2", "3", "4"))
    polys = _orbit(rels)
    assert len(polys) == 576
    scales = (1, -1, Fraction(5, 2), Fraction(-3, 7))
    searches = _counting_searches(monkeypatch)
    for i, p in enumerate(polys):
        scaled = {w: c * scales[i % 4] for w, c in p.items()}
        assert is_zero(scaled, rels).kind == PROVED_ZERO
    assert len(searches) == 1
    # the store grows with the proof's row images, not with its 2 * 576
    # signed images: at most 2|G| forms
    assert sum(map(len, rels.alphabet.proofs.values())) <= 2 * len(rels.symmetries) == 48


def _shape_counts(alpha, form) -> Counter:
    """The multiset of (coefficient, word shape) of *form*, a word's
    shape being its generators with the row and the column indices each
    renumbered by first appearance.  Every (sigma, tau) keeps it, so a
    form with the same shape counts as a stored one is a hard case for
    the store."""
    def shape(w):
        rows, cols = {}, {}
        return tuple((alpha.gens[g].kind, rows.setdefault(alpha.gens[g].row, len(rows)),
                      cols.setdefault(alpha.gens[g].col, len(cols))) for g in w)
    return Counter((c, shape(w)) for w, c in form)


def test_store_answers_images_and_refuses_inconsistent_relabellings():
    from qisograph.rewrite import ProofStore
    rels = magic_relations(("1", "2", "3", "4"))
    alpha = rels.alphabet
    ident = rels.symmetries[0]
    path = (("1", "2"), ("2", "3"), ("3", "4"))

    def form(rows, cols, sigma=ident, tau=ident, sign=1):
        """The sum over i of q[sigma r, tau c] q[sigma r', tau c'], where
        (r, r') = rows[i] and (c, c') = cols[i]."""
        return frozenset(
            (alpha.encode((q(sigma[r], tau[c]), q(sigma[r2], tau[c2]))), sign)
            for (r, r2), (c, c2) in zip(rows, cols))

    store = ProofStore(alpha)
    store.add(form(path, path), ("proved",))
    for sigma in rels.symmetries:
        for tau in rels.symmetries:
            for sign in (1, -1):
                assert store.find(form(path, path, sigma, tau, sign)) == ("proved",)
    # two words on the same two row indices against two on four: the
    # same shape counts, but a row map would have to send 1 to both 1
    # and 3; the same on the columns.  The first stranger also has the
    # stored form's letter count on every column, so only the exact
    # lookup refuses it
    same, apart = (("1", "2"), ("1", "2")), (("1", "2"), ("3", "4"))
    store = ProofStore(alpha)
    store.add(form(apart, apart), ("proved",))
    for stranger in (form(same, apart), form(apart, same)):
        assert _shape_counts(alpha, stranger) == _shape_counts(alpha, form(apart, apart))
        assert store.find(stranger) is None


@pytest.mark.parametrize("name", ["qaut(k3)", "magic(3)"])
def test_store_answers_exactly_the_images_of_stored_proofs(name, qaut_rels):
    """On random small forms, ``find`` answers exactly the images, under
    every pair (sigma, tau) the all-pairs oracle lists, of a stored
    proof or of its negation, with that proof's tags."""
    import random
    from oracles import all_pairs_transport
    from qisograph.rewrite import ProofStore, _primitive
    rels = qaut_rels["k3"] if name == "qaut(k3)" else magic_relations(IDS)
    alpha = rels.alphabet
    perms = all_pairs_transport(alpha)
    assert len(perms) == 36
    letters = [g for g, kind in enumerate(alpha.schema_kind) if kind is not None]
    rng = random.Random(20240817)

    def image(form, perm):
        return frozenset((tuple(map(perm.__getitem__, w)), c) for w, c in form)

    def negation(form):
        return frozenset((w, -c) for w, c in form)

    def random_form():
        terms = {tuple(rng.choice(letters) for _ in range(rng.randint(0, 2))):
                 rng.choice((-2, -1, 1, 3)) for _ in range(rng.randint(1, 3))}
        return _primitive(terms)

    store = ProofStore(alpha)
    oracle: dict = {}
    stored = 0
    for i in range(40):
        key, winning = random_form(), (f"proof {i}",)
        if store.find(key) is None:      # as _prove_zero stores: a form no orbit holds
            store.add(key, winning)
            stored += 1
            for perm in perms:
                for form in (key, negation(key)):
                    # the stored orbits are disjoint
                    assert oracle.setdefault(image(form, perm), winning) == winning
    assert stored > 20 and len(oracle) > 500
    queries = list(oracle)
    for form in rng.sample(queries, 300):
        # the same words with one letter replaced: mostly outside every orbit
        w, c = rng.choice(sorted(form))
        if w:
            at = rng.randrange(len(w))
            moved = (w[:at] + (rng.choice(letters),) + w[at + 1:], c)
            queries.append(frozenset(form - {(w, c)} | {moved}))
    queries += [random_form() for _ in range(300)]
    misses = 0
    for form in queries:
        assert store.find(form) == oracle.get(form), name
        misses += form not in oracle
    assert misses > 300


def test_store_searches_a_relabelling_outside_the_symmetries(monkeypatch):
    from qisograph.perron import perron
    from qisograph.rewrite import _primitive, _prove_zero
    # the undirected 8-cycle: Aut(G) is the dihedral group of order 16
    g = parse_graph("graph cycle8\n" + "".join(f"v {i}\n" for i in range(1, 9)) + "".join(
        f"e a{i} {i % 8 + 1} {i}\ne b{i} {i} {i % 8 + 1}\n" for i in range(1, 9)))
    rels = qaut_relations(g, perron(g))
    alpha = rels.alphabet
    assert len(rels.symmetries) == len(alpha.transport) == 16
    recorder = record_proofs(rels)
    searches = _counting_searches(monkeypatch)
    assert is_zero(_orbit(rels)[0], rels).kind == PROVED_ZERO
    assert len(searches) == 1
    key = _primitive(searches[0])

    def relabelled(rows, cols):
        def letter(gid):
            gen = alpha.gens[gid]
            return alpha.ids[q(rows.get(gen.row, gen.row), cols.get(gen.col, gen.col))]
        return frozenset((tuple(map(letter, w)), c) for w, c in key)

    # a rotation is a symmetry: its image is answered without a search
    rotation = {str(i): str(i % 8 + 1) for i in range(1, 9)}
    assert rotation in rels.symmetries
    assert _prove_zero(dict(relabelled(rotation, rotation)), alpha) == recorder.hits[-1][1]
    # swapping 2 and 5 is not: the start form (q[1,1] + q[3,1] - 1) q[2,2]
    # has its rows 1, 2, 3 on a path and its columns 1, 2 adjacent, and
    # no symmetry sends them to rows 1, 5, 3 or columns 1, 5
    swap = {"2": "5", "5": "2"}
    assert swap not in rels.symmetries
    for rows, cols in ((swap, {}), ({}, swap), (swap, swap)):
        stranger = relabelled(rows, cols)
        assert stranger != key and _shape_counts(alpha, stranger) == _shape_counts(alpha, key)
        hits = len(recorder.hits)
        assert alpha.proofs.find(stranger) is None
        _prove_zero(dict(stranger), alpha)
        assert len(recorder.hits) == hits
    assert len(searches) == 4


def _dropping(rels, dropped):
    """*rels* without the pair rules *dropped* selects."""
    return replace(rels,
                   pair_rules={k: v for k, v in rels.pair_rules.items() if not dropped(k)})


def test_generator_validation_agrees_with_all_pairs(graphs, perron_data):
    from oracles import all_pairs_transport
    from qisograph.ncpoly import Generator
    from qisograph.perron import perron
    from qisograph.relations import with_formal_unitary
    sets = []
    for name, g in graphs.items():
        try:
            sets.append(qaut_relations(g, perron_data[name]))
        except ValueError:      # the loop graphs fail aut-plus validation
            pass
    k4 = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
        f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
    cycle8 = "graph cycle8\n" + "".join(f"v {i}\n" for i in range(1, 9)) + "".join(
        f"e e{i} {i % 8 + 1} {i}\n" for i in range(1, 9))
    for text in (k4, cycle8):
        g = parse_graph(text)
        sets.append(qaut_relations(g, perron(g)))
    magic4 = magic_relations(("1", "2", "3", "4"))
    sets += [magic_relations(tuple(str(i) for i in range(1, n + 1))) for n in (2, 3)]
    row_orth = next(lhs for lhs, (_, tag) in magic4.pair_rules.items() if tag == "row-orth")
    sets += [magic4, with_formal_unitary(magic4),
             _dropping(magic4, lambda lhs: lhs == row_orth),
             # invariant under every (sigma, id), but under no (id, tau) moving 1 or 2
             _dropping(magic4, lambda lhs: (lhs[0].col, lhs[1].col) == ("1", "2")
                       and lhs[0].row == lhs[1].row),
             # the same with rows and columns exchanged
             _dropping(magic4, lambda lhs: (lhs[0].row, lhs[1].row) == ("1", "2")
                       and lhs[0].col == lhs[1].col)]
    mutants = _mutants(qaut_relations(graphs["three-cycle"], perron_data["three-cycle"]))
    sets += list(mutants.values())
    valid = []
    for rels in sets:
        alpha = rels.alphabet
        want = all_pairs_transport(alpha)
        assert bool(want) == bool(alpha.transport), rels.name
        if want:
            valid.append(rels.name)

            def letter(gid, sigma, tau):
                gen = alpha.gens[gid]
                if alpha.schema_kind[gid] is None:
                    return gid
                row, col = alpha.names[sigma[alpha.row[gid]]], alpha.names[tau[alpha.col[gid]]]
                return alpha.ids[Generator(gen.kind, row, col)]

            # the rank maps compose to exactly the oracle's id permutations,
            # and so do the one-sided letter maps
            assert want == tuple(tuple(letter(g, sigma, tau) for g in range(alpha.size))
                                 for sigma, _, _ in alpha.transport
                                 for tau, _, _ in alpha.transport), rels.name
            assert want == tuple(tuple(cols[rows[g]] for g in range(alpha.size))
                                 for _, rows, _ in alpha.transport
                                 for _, _, cols in alpha.transport), rels.name
    assert len(valid) == len(sets) - 5     # the mutants and the dropped rules
