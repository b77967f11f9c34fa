from dataclasses import replace
from fractions import Fraction

import pytest

from oracles import dense_dirac_residuals, q_point_provider
from qisograph.corep import (
    VERTEX_PAIR, VerificationContext, check_comultiplicative, check_density,
    check_dirac_commutation, check_implementation, check_isometry, check_isometry_mixed,
    check_kms_invariance, check_welldefined, corep_entry_word, isometry_obligation, level_pairs,
    run_identity_suite,
)
from qisograph.graphs import (
    RANGE_PREPEND, SOURCE_APPEND, basis_index, edge_path, enumerate_paths, s_pairs, s_star_pairs,
    shift_map, vertex_path,
)
from qisograph.exprlang import parse_expression
from qisograph.ncpoly import q
from qisograph.providers import fourier_unitary, permutation_diag_rep
from qisograph.relations import magic_relations
from qisograph.rewrite import is_zero, normal_form
from qisograph.verdict import PROVED_ZERO, UNKNOWN


def test_corep_level0_is_magic_unitary(contexts):
    ctx = contexts["three-cycle"]
    corep = ctx.level(0)
    assert len(corep.basis) == 3
    assert [len(row) for row in corep.rows] == [3, 3, 3]
    for eta, row in zip(corep.basis, corep.rows):
        for lam, word in zip(corep.basis, row):
            assert word == ctx.rels.alphabet.encode((q(eta.range, lam.range),))


def test_corep_level1_entries(contexts):
    ctx = contexts["k3"]
    corep = ctx.level(1)
    assert len(corep.basis) == 6
    eta, lam = corep.basis[0], corep.basis[3]
    assert (corep.index[eta], corep.index[lam]) == (0, 3)
    word = corep.rows[0][3]
    assert word == ctx.rels.alphabet.encode((q(eta.range, lam.range), q(eta.source, lam.source)))


def test_corep_level2_word_lengths(contexts):
    ctx = contexts["k3"]
    alpha = ctx.rels.alphabet
    corep = ctx.level(2)
    assert len(corep.basis) == 12
    assert [len(row) for row in corep.rows] == [12] * 12
    words = [w for row in corep.rows for w in row]
    assert all(len(w) == 4 for w in words)
    # entries are words of self-adjoint generators: star reverses them
    for word in words:
        assert alpha.star(word) == word[::-1]


def test_corep_rows_and_columns_collapse(contexts):
    ctx = contexts["k3"]
    for i in ctx.g.vertices:
        for text in (f"sum(j, q[{i},j]) - 1", f"sum(j, q[j,{i}]) - 1"):
            assert is_zero(parse_expression(text, ctx.rels), ctx.rels).kind == PROVED_ZERO


def test_action_image_counts(contexts):
    # alpha(S_e) = sum_f S_f (x) Q[f,e] over all edges f (level 1), and
    # alpha(p_v) = sum_w p_w (x) q[w,v] over all vertices w (level 0)
    ctx = contexts["k3"]
    g, enc = ctx.g, ctx.rels.alphabet.encode
    edges, vertices = ctx.level(1), ctx.level(0)
    assert edges.basis == tuple(edge_path(g, e.id) for e in g.sorted_edges)
    for j, lam in enumerate(edges.basis):
        column = [(f, row[j]) for f, row in zip(edges.basis, edges.rows)]
        assert len(column) == 6
        for f, word in column:
            assert word == enc((q(f.range, lam.range), q(f.source, lam.source)))
    assert vertices.basis == tuple(vertex_path(v) for v in g.vertices)
    for j, v in enumerate(vertices.basis):
        column = [(w, row[j]) for w, row in zip(vertices.basis, vertices.rows)]
        assert len(column) == 3
        assert all(word == enc((q(w.range, v.range),)) for w, word in column)


def test_action_consistent_with_classical(contexts):
    # evaluated under the automorphism representation, the action
    # coefficient of edge f in alpha(S_e) is the indicator sigma(e) = f
    ctx = contexts["three-cycle"]
    provider = ctx.providers[0]
    from qisograph.graphs import graph_automorphisms
    autos = graph_automorphisms(ctx.g)
    table = ctx.level(1)
    for j, e in enumerate(table.basis):
        for f, row in zip(table.basis, table.rows):
            values = provider.value({row[j]: 1}, ctx.rels.alphabet.gens)
            assert len(values) == len(autos)
            for sigma, val in zip(autos, values):
                expected = 1.0 if (sigma[e.range], sigma[e.source]) == (f.range, f.source) else 0.0
                assert abs(val - expected) < 1e-12


def test_welldefined_explicit_levels(contexts):
    for name in ("three-cycle", "k3"):
        ctx = contexts[name]
        for l, k in ((0, 1), (0, 2), (1, 2)):
            res = check_welldefined(ctx, l, k)
            assert res.passed and res.verdict == PROVED_ZERO
            assert res.residuals["embedding_gram"] == 0
            assert res.residuals["numeric"] < 1e-10


def test_welldefined_negative_control(contexts):
    res = check_welldefined(contexts["asym4"], 0, 1, convention=RANGE_PREPEND)
    assert not res.passed
    assert res.verdict == UNKNOWN
    assert res.residuals["numeric"] > 0.1
    assert res.residuals["embedding_gram"] > 0


def test_isometry_same_degree(contexts):
    for name in ("three-cycle", "k3"):
        ctx = contexts[name]
        for k in (0, 1, 2):
            res = check_isometry(ctx, k)
            assert res.passed, (name, k)


def test_isometry_obligation_shape(contexts):
    ctx = contexts["k3"]
    lam, eta = enumerate_paths(ctx.g, 1)[:2]
    ob = isometry_obligation(ctx, lam, eta)
    # one word -> coefficient dict: x_{s(zeta)} on each starred product
    assert len(ob) == len(ctx.level(1).basis)
    assert all(len(w) == 4 for w in ob)
    assert is_zero(ob, ctx.rels).kind == PROVED_ZERO


def test_isometry_mixed_degrees(contexts):
    ctx = contexts["k3"]
    lam = enumerate_paths(ctx.g, 1)[0]
    for eta in enumerate_paths(ctx.g, 2)[:3]:
        res = check_isometry_mixed(ctx, lam, eta)
        assert res.passed
    v = vertex_path("1")
    assert check_isometry_mixed(ctx, v, lam).passed


def test_comultiplicative(contexts):
    for name in ("three-cycle", "k3"):
        ctx = contexts[name]
        for k in (0, 1, 2):
            assert check_comultiplicative(ctx, k).passed


@pytest.mark.parametrize("name, k, failed_pairs, worst_terms", [
    ("asym4", 1, 64, 4), ("asym4", 2, 256, 20),
    ("three-cycle", 1, 9, 3), ("three-cycle", 2, 9, 9),
])
def test_comultiplicative_fails_without_edge_rules(graphs, perron_data, name, k,
                                                   failed_pairs, worst_terms):
    # the bare magic relations on the vertices have no edge-zero rules,
    # so the leg-wise difference survives reduction
    g = graphs[name]
    ctx = VerificationContext(g, perron_data[name], magic_relations(tuple(g.vertices)),
                              VERTEX_PAIR, [], 3)
    res = check_comultiplicative(ctx, k)
    assert not res.passed and res.verdict == UNKNOWN
    assert res.residuals == {"failed_pairs": failed_pairs, "worst_terms": worst_terms}


def test_coefficients_stay_native(contexts):
    # integer combinations keep int coefficients; Perron weights bring Fractions
    ctx = contexts["asym4"]
    basis = ctx.level(1).basis
    a, b = basis[0], basis[1]
    rows = ctx.level(1).rows
    ob = {rows[0][0]: 2, rows[1][1]: -1}
    nf = normal_form(ob, ctx.rels)
    assert nf
    assert all(type(c) is int for c in nf.values())
    weighted = isometry_obligation(ctx, a, a)
    assert any(isinstance(c, Fraction) and c.denominator > 1 for c in weighted.values())
    assert all(isinstance(c, (int, Fraction)) for c in weighted.values())


def test_density(contexts):
    for name in ("three-cycle", "k3"):
        ctx = contexts[name]
        for lam in enumerate_paths(ctx.g, 1):
            assert check_density(ctx, lam).passed
        for lam in enumerate_paths(ctx.g, 2)[:4]:
            assert check_density(ctx, lam).passed


def test_implementation_paper_case(contexts):
    # d(lam) = d(eta) = 1, lam = eta: both sides carry coefficient
    # q[i, s(lam)] on the vertex indicators
    ctx = contexts["k3"]
    lam = edge_path(ctx.g, "e12")
    res = check_implementation(ctx, lam, lam)
    assert res.passed and res.inputs["case"] == "extends"


def test_implementation_all_cases(contexts):
    ctx = contexts["k3"]
    seen = set()
    for lam in enumerate_paths(ctx.g, 1):
        for eta in list(enumerate_paths(ctx.g, 1)) + list(enumerate_paths(ctx.g, 2)):
            res = check_implementation(ctx, lam, eta)
            assert res.passed, (lam.label, eta.label)
            seen.add(res.inputs["case"])
    lam2 = enumerate_paths(ctx.g, 2)[0]
    for eta in enumerate_paths(ctx.g, 1):
        res = check_implementation(ctx, lam2, eta)
        assert res.passed
        seen.add(res.inputs["case"])
    assert seen == {"extends", "incompatible-long", "prefix", "incompatible-short"}


def test_kms_invariance(contexts):
    ctx = contexts["k3"]
    for v in ctx.g.vertices:
        assert check_kms_invariance(ctx, vertex_path(v), vertex_path(v)).passed
    e, f = enumerate_paths(ctx.g, 1)[:2]
    assert check_kms_invariance(ctx, e, e).passed
    assert check_kms_invariance(ctx, e, f).passed
    assert check_kms_invariance(ctx, e, enumerate_paths(ctx.g, 2)[0]).passed


def test_kms_vertex_is_weighted_schema(contexts):
    # (phi (x) id) alpha(p_v) - phi(p_v) 1 is literally the weighted sum
    ctx = contexts["k3"]
    v = "2"
    ob = {ctx.rels.alphabet.encode((q(k, v),)): ctx.pf.x[k] for k in ctx.g.vertices}
    ob[()] = -ctx.pf.x[v]
    assert is_zero(ob, ctx.rels).kind == PROVED_ZERO


def test_dirac_commutation(contexts):
    for name in ("three-cycle", "k3"):
        res = check_dirac_commutation(contexts[name], {})
        assert res.passed
        assert res.residuals["commutator"] < 1e-10
        assert res.residuals["gram_unitarity"] < 1e-10


def test_suite_checks_each_welldefined_pair_once(contexts, monkeypatch):
    from qisograph import corep
    calls = []
    original = corep.check_welldefined

    def counting(ctx, l, k, convention=SOURCE_APPEND):
        calls.append((l, k))
        return original(ctx, l, k, convention)

    monkeypatch.setattr(corep, "check_welldefined", counting)
    ctx = contexts["three-cycle"]
    results = run_identity_suite(ctx, k_max=2)
    # the suite checks l < k <= 2; the Dirac check adds only the one-step
    # pair (2, 3), since (0, 3) and (1, 3) compose from one-step pairs
    assert sorted(calls) == [(0, 1), (0, 2), (1, 2), (2, 3)]
    shared = results[-1]
    calls.clear()
    alone = check_dirac_commutation(ctx, {})
    assert calls == [(0, 1), (1, 2), (2, 3)]
    assert (shared.reductions, shared.trace_digest, shared.detail) == \
        (alone.reductions, alone.trace_digest, alone.detail)


def test_dirac_commutation_uses_given_welldefined_flags(contexts, monkeypatch):
    from qisograph import corep
    monkeypatch.setattr(corep, "check_welldefined", None)   # must not be called
    res = check_dirac_commutation(replace(contexts["three-cycle"], n_cap=2), {(0, 1): False})
    assert not res.passed
    assert res.detail["welldefined_passed"] is False
    assert res.reductions == 3                    # tags for 0->1, 0->2, 1->2


def _failed_uncertified(res, name):
    """The Dirac check failed as Unknown on the uncertified provider
    *name* alone, and reports no residual value."""
    return (not res.passed and res.verdict == UNKNOWN
            and res.detail["uncertified"] == [name]
            and res.residuals == {"commutator": None, "gram_unitarity": None})


def test_dirac_commutation_negative_control(contexts):
    """The point evaluation at a non-magic unitary is no sum of graph
    automorphisms: the check fails, naming it, and the dense oracle
    reads a nonzero commutator."""
    ctx = replace(contexts["k3"], n_cap=2)
    fourier = q_point_provider("fourier", ctx.rels.universe, fourier_unitary(3))
    ctx = replace(ctx, providers=[fourier])
    assert _failed_uncertified(check_dirac_commutation(ctx, {}), "fourier")
    assert dense_dirac_residuals(ctx, fourier)["commutator"] > 1e-3


def test_dirac_commutation_matches_dense_oracle(contexts):
    """At every truncation level the automorphism provider passes with
    the oracle's residuals, which are zero, so its level matrices are
    Gram-unitary; a sum of two non-magic point evaluations fails as
    uncertified, and the oracle reads it nonzero."""
    from qisograph.providers import rotation_unitary
    for name in ("three-cycle", "k3", "asym4"):
        ctx = contexts[name]
        ids = ctx.rels.universe
        skew = q_point_provider("skew", ids, fourier_unitary(len(ids)), rotation_unitary(len(ids)))
        for provider in (ctx.providers[0], skew):
            for n_cap in (1, 2, 3):
                sub = replace(ctx, providers=[provider], n_cap=n_cap)
                res = check_dirac_commutation(sub, {})
                oracle = dense_dirac_residuals(sub, provider)
                if provider is skew:
                    assert _failed_uncertified(res, "skew"), name
                    assert oracle["gram_unitarity"] > 1e-3, name
                else:
                    assert res.passed and "uncertified" not in res.detail, name
                    assert res.residuals == oracle == {"commutator": 0.0,
                                                       "gram_unitarity": 0.0}, name


def test_non_automorphism_dirac_residuals_are_the_svd_values(graphs, perron_data, qaut_rels):
    """asym4 has trivial Aut(G); a vertex swap that is not an
    automorphism is no certified provider, so the check fails, naming
    it, and the oracle's SVD values are nonzero."""
    g, pf = graphs["asym4"], perron_data["asym4"]
    provider = permutation_diag_rep("swap(1,2)", g.vertices,
                                    [{"1": "2", "2": "1", "3": "3", "4": "4"}])
    ctx = VerificationContext(g, pf, qaut_rels["asym4"], VERTEX_PAIR, [provider], 3)
    res = check_dirac_commutation(ctx, dict.fromkeys(level_pairs(3), True))
    assert _failed_uncertified(res, "swap(1,2)")
    oracle = dense_dirac_residuals(ctx, provider)
    assert oracle["commutator"] > 1e-3 and oracle["gram_unitarity"] > 1e-3


K4 = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
LOOPS4 = "graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5))


def _known_welldefined(ctx):
    return dict.fromkeys(level_pairs(ctx.n_cap), True)


def _every_graph_context(contexts, graphs) -> dict:
    """A truncation-3 context on every bundled graph, K4 and 4 loops:
    the aut-plus graphs and K4 with their automorphism provider in the
    vertex-pair scheme, the loop graphs with the magic suite's
    loop-permutation provider in the edge-index scheme."""
    from qisograph.cuntz import MAGIC, cuntz_setup, sn_plus_context
    from qisograph.graphs import parse_graph
    from qisograph.perron import perron
    from qisograph.providers import classical_rep
    from qisograph.relations import qaut_relations
    k4 = parse_graph(K4)
    k4_pf = perron(k4)
    k4_rels = qaut_relations(k4, k4_pf)
    cases = dict(contexts)
    cases["k4"] = VerificationContext(k4, k4_pf, k4_rels, VERTEX_PAIR,
                                      [classical_rep(k4, k4_rels)], 3)
    for name, g in (("cuntz2", graphs["cuntz2"]), ("cuntz3", graphs["cuntz3"]),
                    ("loops4", parse_graph(LOOPS4))):
        cases[name] = sn_plus_context(cuntz_setup(g, MAGIC), 3)
    assert len(cases) == 8
    return cases


def test_level_rows_and_shift_maps_match_their_definitions(contexts, graphs):
    """On every bundled graph, K4 and 4 loops, each level table row is
    the encoded entry word of its pair of basis paths, in both schemes,
    and each memoised shift map is the pairs of ``s_pairs`` or
    ``s_star_pairs`` through the basis index."""
    definitions = {"s": s_pairs, "s*": s_star_pairs}
    for name, ctx in _every_graph_context(contexts, graphs).items():
        g, encode = ctx.g, ctx.rels.alphabet.encode
        for k in range(ctx.n_cap + 1):
            table = ctx.level(k)
            assert table.basis == tuple(enumerate_paths(g, k)), (name, k)
            assert table.index == {p: i for i, p in enumerate(table.basis)}, (name, k)
            assert table.rows == tuple(
                tuple(encode(corep_entry_word(g, ctx.scheme, ctx.rels.gen_kind, eta, lam))
                      for lam in table.basis) for eta in table.basis), (name, k)
        for d in range(3):
            for lam in enumerate_paths(g, d):
                for k in range(ctx.n_cap + 1 - d):
                    shift_map(g, "s", lam, k)
                    shift_map(g, "s*", lam, k + d)
        check_implementation(ctx, ctx.level(1).basis[0], ctx.level(2).basis[-1])
        shifts = [key for key in g.memo if key[0] == "shift"]
        assert len(shifts) > 0, name
        for _, kind, lam, k in shifts:
            pairs = definitions[kind](g, lam, k)
            out = basis_index(g, pairs[0][1].degree) if pairs else {}
            assert g.memo[("shift", kind, lam, k)] == tuple(
                (basis_index(g, k)[eta], out[image]) for eta, image in pairs), (name, kind, lam, k)


def test_permutation_certificate_matches_the_dense_residuals(contexts, graphs):
    """The automorphism and loop-permutation providers are certified on
    every bundled graph, K4 and the 4-loop magic suite, and report the
    dense oracle's residuals bit for bit."""
    for name, ctx in _every_graph_context(contexts, graphs).items():
        res = check_dirac_commutation(ctx, _known_welldefined(ctx))
        assert res.passed and "uncertified" not in res.detail, name
        assert [dense_dirac_residuals(ctx, p) for p in ctx.providers] == [res.residuals], name


def test_non_injective_zero_one_provider_takes_the_dense_path(contexts):
    """q[i,j] = delta_{i,f(j)} for a non-injective f is 0/1 but no
    summand is a permutation: that provider alone is uncertified, and
    only the dense oracle can measure it."""
    ctx = contexts["k3"]
    collapse = permutation_diag_rep("collapse", ctx.g.vertices, [{"1": "1", "2": "1", "3": "3"}])
    ctx = replace(ctx, providers=[ctx.providers[0], collapse])
    res = check_dirac_commutation(ctx, _known_welldefined(ctx))
    assert _failed_uncertified(res, "collapse")
    oracle = dense_dirac_residuals(ctx, collapse)
    assert oracle["commutator"] > 1e-3 and oracle["gram_unitarity"] > 1e-3


def test_function_summand_is_not_a_permutation(monkeypatch):
    """On the undirected 4-cycle, folding 3 onto 1 and 4 onto 2 is a
    graph map: each column of its level matrix holds one 1, but two
    columns share a row.  A constant Gram diagonal and
    constant projections are kept by any map of the basis, yet the
    summand is no permutation: it is uncertified, and the dense oracle
    reads nonzero."""
    from qisograph import corep
    from qisograph.graphs import parse_graph
    from qisograph.hilbert import TruncatedTriple, dirac
    from qisograph.perron import perron
    from qisograph.relations import qaut_relations
    g = parse_graph("graph ucyc4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
        f"e e{r}{s} {r} {s}\n" for r in "1234" for s in "1234" if (int(r) - int(s)) % 2))
    pf = perron(g)
    rels = qaut_relations(g, pf)
    collapse = permutation_diag_rep("collapse", g.vertices, [{"1": "1", "2": "2", "3": "1", "4": "2"}])
    ctx = VerificationContext(g, pf, rels, VERTEX_PAIR, [collapse], 3)
    triple = dirac(g, pf, ctx.n_cap)
    n = len(triple.gram)
    constant = [[Fraction(1, n)] * n for _ in range(n)]
    flat = TruncatedTriple((Fraction(1),) * n, [constant] * len(triple.xi_hat), constant)
    monkeypatch.setattr(corep, "dirac", lambda g, pf, n_cap: flat)
    res = check_dirac_commutation(ctx, _known_welldefined(ctx))
    assert _failed_uncertified(res, "collapse")
    oracle = dense_dirac_residuals(ctx, collapse, flat)
    assert oracle["commutator"] > 1e-3 and oracle["gram_unitarity"] > 1e-3


@pytest.mark.parametrize("part", ["gram", "xi-hat"])
def test_invariance_miss_takes_the_dense_path(contexts, monkeypatch, part):
    """A Gram diagonal or a projection that the automorphisms do not
    keep leaves the classical provider uncertified, and the dense oracle
    reads the matching residual nonzero."""
    from qisograph import corep
    from qisograph.hilbert import TruncatedTriple, dirac
    ctx = contexts["k3"]
    triple = dirac(ctx.g, ctx.pf, ctx.n_cap)
    gram, xi_hat = list(triple.gram), [[list(row) for row in m] for m in triple.xi_hat]
    if part == "gram":
        gram[0] *= 2
    else:
        xi_hat[-1][0][1] += Fraction(1, 3)
    skewed = TruncatedTriple(tuple(gram), xi_hat, triple.constants_projection)
    monkeypatch.setattr(corep, "dirac", lambda g, pf, n_cap: skewed)
    res = check_dirac_commutation(ctx, _known_welldefined(ctx))
    assert _failed_uncertified(res, ctx.providers[0].name)
    key = "gram_unitarity" if part == "gram" else "commutator"
    assert dense_dirac_residuals(ctx, ctx.providers[0], skewed)[key] > 1e-3


def _float_triple(ctx):
    """The Gram diagonal and the projections as ``check_dirac_commutation``
    hands them to ``_certified``."""
    from qisograph.hilbert import dirac
    triple = dirac(ctx.g, ctx.pf, ctx.n_cap)
    return (tuple(float(x) for x in triple.gram),
            [[tuple(float(x) for x in row) for row in m]
             for m in (*triple.xi_hat, triple.constants_projection)])


def test_certificate_on_generators_matches_every_summand(contexts, graphs, monkeypatch):
    """On every bundled graph, K4, and 4 and 5 loops the summands form a
    group, and checking its generators gives the verdict of checking
    every summand, on the true Gram diagonal and on one doubled at a
    path."""
    from qisograph import corep
    from qisograph.cuntz import MAGIC, cuntz_setup, sn_plus_context
    from qisograph.graphs import parse_graph
    cases = _every_graph_context(contexts, graphs)
    loops5 = "graph cuntz5\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 6))
    cases["loops5"] = sn_plus_context(cuntz_setup(parse_graph(loops5), MAGIC), 3)
    grown = corep._generators
    for name, ctx in cases.items():
        provider = ctx.providers[0]
        perms = corep._summand_permutations(ctx, provider, ctx.n_cap)
        gens = grown(perms)
        assert gens is not None and len(gens) < max(len(perms), 2), name
        gram, hats = _float_triple(ctx)
        verdicts = []
        for generators in (grown, lambda perms: None):
            monkeypatch.setattr(corep, "_generators", generators)
            verdicts.append([corep._certified(ctx, provider, g, hats)
                             for g in (gram, (2 * gram[0],) + gram[1:])])
        assert verdicts[0] == verdicts[1], name
        assert verdicts[0][0], name


def test_non_closed_summands_are_each_checked(contexts, monkeypatch):
    """Summands id, c, c^2 and t on a three-path basis, c a 3-cycle that
    keeps a circulant projection and t a transposition that does not:
    they form no group, so every summand is checked and the provider
    fails.  Checking only the generators grown before the group outgrew
    the summands, c alone, would pass it."""
    from qisograph import corep
    ident, c, c2, t = (0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2)
    perms = [list(p) for p in (ident, c, c2, t)]
    gram = (1.0, 1.0, 1.0)
    hats = [[(0.0, 1.0, 2.0), (2.0, 0.0, 1.0), (1.0, 2.0, 0.0)]]
    ctx = contexts["k3"]
    monkeypatch.setattr(corep, "_summand_permutations", lambda ctx, provider, k: perms)
    assert corep._generators(perms) is None
    assert not corep._certified(ctx, ctx.providers[0], gram, hats)
    monkeypatch.setattr(corep, "_generators", lambda perms: [c])
    assert corep._certified(ctx, ctx.providers[0], gram, hats)


def test_dirac_commutation_fails_on_a_failing_one_step_pair(contexts, monkeypatch):
    from qisograph import corep
    ctx = contexts["three-cycle"]
    passing = check_dirac_commutation(ctx, {})
    calls = []
    original = corep.check_welldefined

    def failing_1_2(ctx, l, k, convention=SOURCE_APPEND):
        calls.append((l, k))
        res = original(ctx, l, k, convention)
        return replace(res, passed=False) if (l, k) == (1, 2) else res

    monkeypatch.setattr(corep, "check_welldefined", failing_1_2)
    res = check_dirac_commutation(ctx, {})
    assert calls == [(0, 1), (1, 2)]                # stops at the first failure
    assert not res.passed and res.detail["welldefined_passed"] is False
    assert res.reductions == 6                      # every pair l < k <= 3
    assert res.trace_digest == passing.trace_digest


def test_dirac_commutation_ignores_known_pairs_above_n_cap(contexts, monkeypatch):
    from qisograph import corep
    ctx = replace(contexts["three-cycle"], n_cap=2)
    known = _known_welldefined(ctx)
    expected = check_dirac_commutation(ctx, known)
    monkeypatch.setattr(corep, "check_welldefined", None)   # must not be called
    res = check_dirac_commutation(ctx, {**known, (2, 3): False, (0, 3): False})
    assert res.passed
    assert (res.residuals, res.reductions, res.trace_digest, res.detail) == \
        (expected.residuals, expected.reductions, expected.trace_digest, expected.detail)


def test_suite_builds_each_entry_once(contexts, monkeypatch):
    from collections import Counter
    from qisograph import corep
    calls = Counter()
    tables = Counter()
    original_word, original_table = corep.corep_entry_word, corep.LevelCorep

    def counting_word(g, scheme, kind, eta, lam):
        calls[(eta, lam)] += 1
        return original_word(g, scheme, kind, eta, lam)

    def counting_table(basis, index, rows):
        tables[len(basis[0].edges)] += 1
        return original_table(basis, index, rows)

    monkeypatch.setattr(corep, "corep_entry_word", counting_word)
    monkeypatch.setattr(corep, "LevelCorep", counting_table)
    ctx = replace(contexts["three-cycle"])          # no level tables yet
    run_identity_suite(ctx, k_max=2)
    # levels 0..n_cap, each built once; only levels 0 and 1 are encoded
    # from generator words, each pair of same-degree paths exactly once
    assert tables == {k: 1 for k in range(4)}
    assert set(calls.values()) == {1}
    assert set(calls) == {(eta, lam) for k in range(2)
                          for eta in enumerate_paths(ctx.g, k)
                          for lam in enumerate_paths(ctx.g, k)}


def test_suite_all_pass(contexts):
    # every aut-plus test graph; k3 runs in the acceptance gate
    for name in ("three-cycle", "two-cycle", "asym4"):
        results = run_identity_suite(contexts[name], k_max=2)
        assert all(r.passed for r in results)
        names = {r.name for r in results}
        assert names == {"welldefined", "isometry", "isometry-mixed", "comultiplicative",
                         "density", "implementation", "kms-invariance", "dirac-commutation"}


@pytest.mark.parametrize("name", ["k3", "asym4", "loops4"])
def test_numeric_cross_check_sees_every_obligation(name, graphs, perron_data, monkeypatch):
    # every obligation reduced symbolically is also evaluated under every provider
    from qisograph import corep
    from qisograph.cuntz import MAGIC, cuntz_setup, sn_plus_context
    from qisograph.graphs import parse_graph
    from qisograph.providers import RepresentationProvider, classical_rep
    from qisograph.relations import qaut_relations
    if name == "loops4":
        g = parse_graph("graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5)))
        ctx = sn_plus_context(cuntz_setup(g, MAGIC), 3)
    else:
        g, pf = graphs[name], perron_data[name]
        rels = qaut_relations(g, pf)
        ctx = VerificationContext(g, pf, rels, VERTEX_PAIR, [classical_rep(g, rels)], 3)
    calls = {"is_zero": 0, "norm": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(corep, "is_zero", counted("is_zero", corep.is_zero))
    monkeypatch.setattr(RepresentationProvider, "norm",
                        counted("norm", RepresentationProvider.norm))
    assert all(r.passed for r in run_identity_suite(ctx, k_max=2))
    assert calls["is_zero"] > 0 and len(ctx.providers) == 1
    assert calls["norm"] == calls["is_zero"] * len(ctx.providers)
