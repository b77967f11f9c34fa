from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qisograph.corep import (
    VERTEX_PAIR, VerificationContext, build_corep,
    check_comultiplicative, check_density, check_dirac_commutation,
    check_implementation, check_isometry, check_isometry_mixed, check_kms_invariance,
    check_welldefined, evaluate_corep_matrix, isometry_obligation, level_pairs,
    run_identity_suite,
)
from qisograph.graphs import RANGE_PREPEND, SOURCE_APPEND, edge_path, enumerate_paths, vertex_path
from qisograph.exprlang import parse_expression
from qisograph.ncpoly import q
from qisograph.providers import fourier_unitary, permutation_diag_rep
from qisograph.relations import magic_relations
from qisograph.rewrite import is_zero, normal_form
from qisograph.verdict import PROVED_ZERO, UNKNOWN


def test_corep_level0_is_magic_unitary(graphs, qaut_rels):
    g, rels = graphs["three-cycle"], qaut_rels["three-cycle"]
    corep = build_corep(g, 0, VERTEX_PAIR, rels)
    assert len(corep.basis) == 3
    assert len(corep.entries) == 9
    for (eta, lam), word in corep.entries.items():
        assert word == rels.alphabet.encode((q(eta.range, lam.range),))


def test_corep_level1_entries(graphs, qaut_rels):
    g, rels = graphs["k3"], qaut_rels["k3"]
    corep = build_corep(g, 1, VERTEX_PAIR, rels)
    assert len(corep.basis) == 6
    eta, lam = corep.basis[0], corep.basis[3]
    word = corep.entries[(eta, lam)]
    assert word == rels.alphabet.encode((q(eta.range, lam.range), q(eta.source, lam.source)))


def test_corep_level2_word_lengths(graphs, qaut_rels):
    alpha = qaut_rels["k3"].alphabet
    corep = build_corep(graphs["k3"], 2, VERTEX_PAIR, qaut_rels["k3"])
    assert len(corep.basis) == 12
    assert set(corep.entries) == {(eta, lam) for eta in corep.basis for lam in corep.basis}
    assert all(len(w) == 4 for w in corep.entries.values())
    # entries are words of self-adjoint generators: star reverses them
    for word in corep.entries.values():
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
    for lam in edges.basis:
        row = [(f, word) for (f, e), word in edges.entries.items() if e == lam]
        assert len(row) == 6
        for f, word in row:
            assert word == enc((q(f.range, lam.range), q(f.source, lam.source)))
    assert vertices.basis == tuple(vertex_path(v) for v in g.vertices)
    for v in vertices.basis:
        row = [(w, word) for (w, u), word in vertices.entries.items() if u == v]
        assert len(row) == 3
        assert all(word == enc((q(w.range, v.range),)) for w, word in row)


def test_action_consistent_with_classical(contexts):
    # evaluated under the automorphism representation, the action
    # coefficient of edge f in alpha(S_e) is the indicator sigma(e) = f
    ctx = contexts["three-cycle"]
    provider = ctx.providers[0]
    from qisograph.graphs import graph_automorphisms
    autos = graph_automorphisms(ctx.g)
    for e in ctx.level(1).basis:
        for f in ctx.level(1).basis:
            values = provider.value({ctx.level(1).entries[(f, e)]: 1}, ctx.rels.alphabet.gens)
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
    with pytest.raises(ValueError):
        check_comultiplicative(contexts["k3"], 3)


@pytest.mark.parametrize("name, k, failed_pairs, worst_terms", [
    ("asym4", 1, 64, 4), ("asym4", 2, 256, 20),
    ("three-cycle", 1, 9, 3), ("three-cycle", 2, 9, 9),
])
def test_comultiplicative_fails_without_edge_rules(graphs, perron_data, name, k,
                                                   failed_pairs, worst_terms):
    # the bare magic relations on the vertices have no edge-zero rules,
    # so the leg-wise difference survives reduction
    g = graphs[name]
    ctx = VerificationContext(g, perron_data[name], magic_relations(tuple(g.vertices)))
    res = check_comultiplicative(ctx, k)
    assert not res.passed and res.verdict == UNKNOWN
    assert res.residuals == {"failed_pairs": failed_pairs, "worst_terms": worst_terms}


def test_coefficients_stay_native(contexts):
    # integer combinations keep int coefficients; Perron weights bring Fractions
    ctx = contexts["asym4"]
    basis = ctx.level(1).basis
    a, b = basis[0], basis[1]
    ob = {ctx.level(1).entries[(a, a)]: 2, ctx.level(1).entries[(b, b)]: -1}
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
    with pytest.raises(ValueError):
        check_density(contexts["k3"], vertex_path("1"))


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
    ob = {ctx.rels.alphabet.encode((q(k, v),)): ctx.pf.x_of(k) for k in ctx.g.vertices}
    ob[()] = -ctx.pf.x_of(v)
    assert is_zero(ob, ctx.rels).kind == PROVED_ZERO


def test_dirac_commutation(contexts):
    for name in ("three-cycle", "k3"):
        res = check_dirac_commutation(contexts[name])
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
    alone = check_dirac_commutation(ctx)
    assert calls == [(0, 1), (1, 2), (2, 3)]
    assert (shared.reductions, shared.trace_digest, shared.detail) == \
        (alone.reductions, alone.trace_digest, alone.detail)


def test_dirac_commutation_uses_given_welldefined_flags(contexts, monkeypatch):
    from qisograph import corep
    monkeypatch.setattr(corep, "check_welldefined", None)   # must not be called
    res = check_dirac_commutation(replace(contexts["three-cycle"], n_cap=2),
                                  welldefined={(0, 1): False})
    assert not res.passed
    assert res.detail["welldefined_passed"] is False
    assert res.reductions == 3                    # tags for 0->1, 0->2, 1->2


def test_dirac_commutation_negative_control(contexts):
    ctx = contexts["k3"]
    res = check_dirac_commutation(replace(ctx, n_cap=2), scalar_override=fourier_unitary(3))
    assert not res.passed
    assert res.residuals["commutator"] > 1e-3


def test_evaluated_corep_gram_unitary(contexts):
    from qisograph.hilbert import level_space
    for name in ("three-cycle", "k3", "asym4"):
        ctx = contexts[name]
        provider = ctx.providers[0]
        for k in (1, 2):
            stack = evaluate_corep_matrix(ctx, k, provider)
            gram = np.diag([float(x) for x in level_space(ctx.g, ctx.pf, k).gram])
            assert stack.shape == (provider.dim,) + gram.shape
            for mat in stack:     # one level matrix per one-dimensional summand
                assert np.linalg.norm(mat.conj().T @ gram @ mat - gram, 2) < 1e-10


def _dense_dirac_residuals(ctx, n_cap, provider):
    """The block-matrix form of the numeric Dirac check: entry (eta, lam)
    as a dim x dim diagonal block, projections tensored with the
    identity, norms by full SVD."""
    from qisograph.hilbert import dirac
    basis = enumerate_paths(ctx.g, n_cap)
    d = provider.dim
    u_mat = np.zeros((len(basis) * d, len(basis) * d), dtype=complex)
    for i, eta in enumerate(basis):
        for j, lam in enumerate(basis):
            u_mat[i * d:(i + 1) * d, j * d:(j + 1) * d] = \
                np.diag(provider.value({ctx.level(n_cap).entries[(eta, lam)]: 1},
                                       ctx.rels.alphabet.gens))
    triple = dirac(ctx.g, ctx.pf, n_cap)
    gmat = np.diag(np.kron([float(x) for x in triple.gram], np.ones(d)))
    unitary = np.linalg.norm(u_mat.conj().T @ gmat @ u_mat - gmat, 2)
    hats = list(triple.xi_hat) + [triple.constants_projection]
    comm = 0.0
    for hat in hats:
        big = np.kron(np.array([[float(x) for x in row] for row in hat]), np.eye(d))
        comm = max(comm, np.linalg.norm(u_mat @ big - big @ u_mat, 2))
    return comm, unitary


def test_dirac_commutation_matches_dense_oracle(contexts):
    from qisograph.providers import RepresentationProvider, rotation_unitary
    for name in ("three-cycle", "k3"):
        ctx = contexts[name]
        # a sum of two non-magic point evaluations: the residuals are
        # nonzero and differ between the summands
        ids = ctx.rels.universe
        mats = (fourier_unitary(len(ids)), rotation_unitary(len(ids), 0.3))
        skew = RepresentationProvider("skew", 2, {
            q(a, b): tuple(m[i][j] for m in mats)
            for i, a in enumerate(ids) for j, b in enumerate(ids)})
        for provider in (ctx.providers[0], skew):
            for n_cap in (1, 2, 3):
                res = check_dirac_commutation(replace(ctx, providers=[provider], n_cap=n_cap))
                comm, unitary = _dense_dirac_residuals(ctx, n_cap, provider)
                assert abs(res.residuals["commutator"] - comm) < 1e-12
                assert abs(res.residuals["gram_unitarity"] - unitary) < 1e-12
                assert (unitary > 1e-3) == (provider is skew)


def test_max_norm_skips_the_svd_of_a_zero_stack(monkeypatch):
    from qisograph.corep import _max_norm
    monkeypatch.setattr(np.linalg, "norm", None)        # must not be called
    assert _max_norm(np.zeros((2, 3, 3), dtype=complex)) == 0.0


def test_non_automorphism_dirac_residuals_are_the_svd_values(graphs, perron_data, qaut_rels):
    """asym4 has trivial Aut(G); under a vertex swap that is not an
    automorphism the stacks are nonzero, and the check reports their
    largest 2-norms, taken by SVD."""
    from qisograph.hilbert import dirac
    g, pf = graphs["asym4"], perron_data["asym4"]
    provider = permutation_diag_rep("swap(1,2)", g.vertices,
                                    [{"1": "2", "2": "1", "3": "3", "4": "4"}])
    ctx = VerificationContext(g, pf, qaut_rels["asym4"], VERTEX_PAIR, [provider], 3)
    res = check_dirac_commutation(ctx, welldefined=dict.fromkeys(level_pairs(3), True))
    u = evaluate_corep_matrix(ctx, 3, provider)
    triple = dirac(g, pf, 3)
    gmat = np.diag([float(x) for x in triple.gram])
    hats = [np.array([[float(x) for x in row] for row in m])
            for m in (*triple.xi_hat, triple.constants_projection)]

    def svd_norm(stack):
        return float(np.linalg.norm(stack, 2, axis=(1, 2)).max())

    unitary = svd_norm(u.conj().transpose(0, 2, 1) @ gmat @ u - gmat)
    comm = max(svd_norm(u @ hat - hat @ u) for hat in hats)
    assert res.residuals == {"commutator": comm, "gram_unitarity": unitary}
    assert comm > 1e-3 and unitary > 1e-3 and not res.passed


K4 = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
LOOPS4 = "graph cuntz4\nv w\n" + "".join(f"e l{i} w w\n" for i in range(1, 5))


def _float_dirac_residuals(ctx, triple=None):
    """The dense float form of the numeric Dirac check under every
    provider of *ctx*: ``evaluate_corep_matrix`` stacks and ``_max_norm``."""
    from qisograph.corep import _max_norm
    from qisograph.hilbert import dirac
    triple = triple or dirac(ctx.g, ctx.pf, ctx.n_cap)
    gmat = np.diag([float(x) for x in triple.gram])
    hats = [np.array([[float(x) for x in row] for row in m])
            for m in (*triple.xi_hat, triple.constants_projection)]
    comm = unitary = 0.0
    for provider in ctx.providers:
        u = evaluate_corep_matrix(ctx, ctx.n_cap, provider)
        unitary = max(unitary, _max_norm(u.conj().transpose(0, 2, 1) @ gmat @ u - gmat))
        for hat in hats:
            comm = max(comm, _max_norm(u @ hat - hat @ u))
    return {"commutator": comm, "gram_unitarity": unitary}


def _count_dense_evaluations(monkeypatch):
    from qisograph import corep
    calls = []
    original = corep.evaluate_corep_matrix

    def counting(ctx, k, provider):
        calls.append(provider.name)
        return original(ctx, k, provider)

    monkeypatch.setattr(corep, "evaluate_corep_matrix", counting)
    return calls


def _known_welldefined(ctx):
    return dict.fromkeys(level_pairs(ctx.n_cap), True)


def test_permutation_certificate_matches_the_dense_residuals(contexts, graphs, monkeypatch):
    """The automorphism and loop-permutation providers are certified
    without a dense stack, on every bundled graph, K4 and the 4-loop
    magic suite, and report the dense residuals bit for bit."""
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
        cases[name] = sn_plus_context(cuntz_setup(g, MAGIC))
    assert len(cases) == 8
    for name, ctx in cases.items():
        calls = _count_dense_evaluations(monkeypatch)
        res = check_dirac_commutation(ctx, welldefined=_known_welldefined(ctx))
        assert calls == [], name
        monkeypatch.undo()
        assert res.residuals == _float_dirac_residuals(ctx), name
        assert res.passed, name


def test_non_injective_zero_one_provider_takes_the_dense_path(contexts, monkeypatch):
    """q[i,j] = delta_{i,f(j)} for a non-injective f is 0/1 but no
    summand is a permutation: that provider alone is evaluated densely
    and the check reports the SVD values of the oracle."""
    ctx = contexts["k3"]
    collapse = permutation_diag_rep("collapse", ctx.g.vertices, [{"1": "1", "2": "1", "3": "3"}])
    ctx = replace(ctx, providers=[ctx.providers[0], collapse])
    oracle = _float_dirac_residuals(ctx)
    calls = _count_dense_evaluations(monkeypatch)
    res = check_dirac_commutation(ctx, welldefined=_known_welldefined(ctx))
    assert calls == ["collapse"]
    assert res.residuals == oracle
    assert oracle["commutator"] > 1e-3 and oracle["gram_unitarity"] > 1e-3 and not res.passed


def test_function_summand_is_not_a_permutation(monkeypatch):
    """On the undirected 4-cycle, folding 3 onto 1 and 4 onto 2 is a
    graph map: each column of its level matrix holds one 1, but two
    columns share a row.  A constant Gram diagonal and
    constant projections are kept by any map of the basis, yet the
    summand is no permutation, and the dense stacks read nonzero."""
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
    oracle = _float_dirac_residuals(ctx, flat)
    monkeypatch.setattr(corep, "dirac", lambda g, pf, n_cap: flat)
    calls = _count_dense_evaluations(monkeypatch)
    res = check_dirac_commutation(ctx, welldefined=_known_welldefined(ctx))
    assert calls == ["collapse"]
    assert res.residuals == oracle
    assert oracle["commutator"] > 1e-3 and oracle["gram_unitarity"] > 1e-3 and not res.passed


@pytest.mark.parametrize("part", ["gram", "xi-hat"])
def test_invariance_miss_takes_the_dense_path(contexts, monkeypatch, part):
    """A Gram diagonal or a projection that the automorphisms do not
    keep sends the classical provider to the dense stacks, which
    report the oracle's nonzero residuals."""
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
    oracle = _float_dirac_residuals(ctx, skewed)
    monkeypatch.setattr(corep, "dirac", lambda g, pf, n_cap: skewed)
    calls = _count_dense_evaluations(monkeypatch)
    res = check_dirac_commutation(ctx, welldefined=_known_welldefined(ctx))
    assert calls == [ctx.providers[0].name]
    assert res.residuals == oracle and not res.passed
    key = "gram_unitarity" if part == "gram" else "commutator"
    assert oracle[key] > 1e-3


def test_dirac_commutation_fails_on_a_failing_one_step_pair(contexts, monkeypatch):
    from qisograph import corep
    ctx = contexts["three-cycle"]
    passing = check_dirac_commutation(ctx)
    calls = []
    original = corep.check_welldefined

    def failing_1_2(ctx, l, k, convention=SOURCE_APPEND):
        calls.append((l, k))
        res = original(ctx, l, k, convention)
        return replace(res, passed=False) if (l, k) == (1, 2) else res

    monkeypatch.setattr(corep, "check_welldefined", failing_1_2)
    res = check_dirac_commutation(ctx)
    assert calls == [(0, 1), (1, 2)]                # stops at the first failure
    assert not res.passed and res.detail["welldefined_passed"] is False
    assert res.reductions == 6                      # every pair l < k <= 3
    assert res.trace_digest == passing.trace_digest


def test_dirac_commutation_ignores_known_pairs_above_n_cap(contexts, monkeypatch):
    from qisograph import corep
    ctx = replace(contexts["three-cycle"], n_cap=2)
    known = _known_welldefined(ctx)
    expected = check_dirac_commutation(ctx, welldefined=known)
    monkeypatch.setattr(corep, "check_welldefined", None)   # must not be called
    res = check_dirac_commutation(ctx, welldefined={**known, (2, 3): False, (0, 3): False})
    assert res.passed
    assert (res.residuals, res.reductions, res.trace_digest, res.detail) == \
        (expected.residuals, expected.reductions, expected.trace_digest, expected.detail)


def test_suite_builds_each_entry_once(contexts, monkeypatch):
    from collections import Counter
    from qisograph import corep
    calls = Counter()
    original = corep.corep_entry_word

    def counting(g, scheme, kind, eta, lam):
        calls[(eta, lam)] += 1
        return original(g, scheme, kind, eta, lam)

    monkeypatch.setattr(corep, "corep_entry_word", counting)
    ctx = replace(contexts["three-cycle"])          # no level tables yet
    run_identity_suite(ctx, k_max=2)
    assert set(calls.values()) == {1}
    # levels 0..n_cap, each pair of same-degree basis paths exactly once
    assert set(calls) == {(eta, lam) for k in range(4)
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
        ctx = sn_plus_context(cuntz_setup(g, MAGIC))
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
