import math
from fractions import Fraction

import numpy as np
import pytest

from qisograph.graphs import (
    RANGE_PREPEND, SOURCE_APPEND, edge_path, enumerate_paths, path_from_edges, refine,
    vertex_path,
)
from qisograph import hilbert
from qisograph.hilbert import (
    LevelMap, TruncationOverflowError, alpha_sequence, cuntz_krieger_check, dirac, embed,
    embedding_gram_residual, level_gram, multiplicities, path_counts, represent,
    theta_partial_sums, theta_tail_bound,
)
from qisograph.ratmat import rat_matmul
from oracles import (
    dirac_matrix, gram_adjoint, projection_invariant_residual, rat_rank,
    theta_dominating_terms, xi_hat_ranks,
)


def test_level_space_dims(graphs, perron_data):
    assert len(level_gram(graphs["three-cycle"], perron_data["three-cycle"], 4)) == 3
    assert len(level_gram(graphs["k3"], perron_data["k3"], 2)) == 12
    gram0 = level_gram(graphs["k3"], perron_data["k3"], 0)
    assert len(gram0) == 3 and set(gram0) == {Fraction(1, 3)}


def test_level_space_dimension_bound(graphs, perron_data):
    for name in ("three-cycle", "k3", "asym4", "cuntz2", "cuntz3"):
        g, pf = graphs[name], perron_data[name]
        m = len(g.edges)
        for k in range(1, 7):
            count = path_counts(g, k)[k]
            assert count == len(enumerate_paths(g, k)) <= m ** k


def test_degree_k_indicators_are_independent(graphs, perron_data):
    """Brute-force dimension oracle: the coordinates of every indicator
    of degree <= k in the level-k basis span a space of dimension
    exactly the number of degree-k paths."""
    for name, kmax in (("k3", 3), ("asym4", 3), ("cuntz2", 4), ("three-cycle", 4)):
        g, pf = graphs[name], perron_data[name]
        cols = []
        for l in range(kmax + 1):
            e = embed(g, l, kmax)
            for j in range(len(e.mat[0])):
                cols.append([e.mat[i][j] for i in range(len(e.mat))])
        rank = rat_rank([list(row) for row in zip(*cols)])
        assert rank == len(enumerate_paths(g, kmax))


def test_embed_identity_and_columns(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    e_same = embed(g, 2, 2)
    assert all(e_same.mat[i][j] == (1 if i == j else 0)
               for i in range(12) for j in range(12))
    e12 = embed(g, 1, 2)
    for j in range(6):
        assert sum(e12.mat[i][j] for i in range(12)) == 2
    g3, pf3 = graphs["three-cycle"], perron_data["three-cycle"]
    e_cyc = embed(g3, 0, 3)
    for j in range(3):
        assert sum(e_cyc.mat[i][j] for i in range(3)) == 1


def test_embed_gram_isometry_exact(graphs, perron_data):
    for name in ("three-cycle", "k3", "asym4", "cuntz2"):
        g, pf = graphs[name], perron_data[name]
        for l in range(4):
            for k in range(l, 5):
                assert embedding_gram_residual(g, pf, l, k) == 0


def test_embed_composition(graphs):
    """Source-append refinement composes: E_{l->k} = E_{k-1->k} ... E_{l->l+1},
    exactly, which is what lets well-definedness follow from the
    one-step pairs."""
    for g in graphs.values():
        for l in range(4):
            product = embed(g, l, l + 1).mat
            for k in range(l + 1, 5):
                if k > l + 1:
                    product = rat_matmul(embed(g, k - 1, k).mat, product)
                assert embed(g, l, k).mat == product
    g = graphs["k3"]
    assert embed(g, 1, 3).mat == embed(g, 2, 3).compose(embed(g, 1, 2)).mat


def test_embed_prepend_not_isometric_on_asym4(graphs, perron_data):
    g, pf = graphs["asym4"], perron_data["asym4"]
    assert embedding_gram_residual(g, pf, 1, 2, RANGE_PREPEND) > 0


def test_embedding_gram_residual_matches_dense_product(graphs, perron_data):
    # the additivity form against max |E^T G_k E - G_l| from the 0/1
    # refinement matrices E of either convention
    for name, g in graphs.items():
        pf = perron_data[name]
        for convention in (SOURCE_APPEND, RANGE_PREPEND):
            for k in range(4):
                gk = level_gram(g, pf, k)
                row = {eta: i for i, eta in enumerate(enumerate_paths(g, k))}
                for l in range(k + 1):
                    e = [[0] * len(enumerate_paths(g, l)) for _ in row]
                    for j, lam in enumerate(enumerate_paths(g, l)):
                        for mu in refine(g, lam, k - l, convention):
                            e[row[mu]][j] = 1
                    if convention == SOURCE_APPEND:
                        assert e == embed(g, l, k).mat
                    gl = level_gram(g, pf, l)
                    dense = max(abs(sum(e[i][a] * gk[i] * e[i][b] for i in range(len(gk)))
                                    - (gl[a] if a == b else 0))
                                for a in range(len(gl)) for b in range(len(gl)))
                    got = embedding_gram_residual(g, pf, l, k, convention)
                    assert type(got) is Fraction and got == dense, (name, convention, l, k)


def test_represent_creation(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    e = edge_path(g, "e12")
    m = represent(g, pf, [("s", e)], 1, 3)
    assert m.half_power == 1
    src = enumerate_paths(g, 1)
    tgt = enumerate_paths(g, 2)
    for j, eta in enumerate(src):
        col = [m.mat[i][j] for i in range(len(tgt))]
        if eta.range == e.source:
            composed = path_from_edges(g, e.edges + eta.edges)
            assert col[tgt.index(composed)] == 1 and sum(col) == 1
        else:
            assert all(c == 0 for c in col)


def test_represent_star_cases(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    lam = path_from_edges(g, ("e12", "e21"))
    # lam = eta beta with d(lam) >= d(eta): image is the source vertex
    m = represent(g, pf, [("s*", lam)], 1, 3)
    src = enumerate_paths(g, 1)
    verts = enumerate_paths(g, 0)
    eta = src[src.index(edge_path(g, "e12"))]
    col = [m.mat[i][src.index(eta)] for i in range(3)]
    # rho^{-2/2} = 1/2 is absorbed into the matrix on normalization
    assert m.half_power == 0
    assert col[verts.index(vertex_path(lam.source))] == Fraction(1, 2)
    # same degree, different path: zero
    other = path_from_edges(g, ("e13", "e31"))
    m2 = represent(g, pf, [("s*", lam)], 2, 3)
    col2 = [m2.mat[i][enumerate_paths(g, 2).index(other)] for i in range(3)]
    assert all(c == 0 for c in col2)
    # d(lam) < d(eta), eta = lam beta: image is beta
    eta3 = path_from_edges(g, ("e12", "e21", "e12"))
    m3 = represent(g, pf, [("s*", edge_path(g, "e12"))], 3, 3)
    col3 = [m3.mat[i][enumerate_paths(g, 3).index(eta3)]
            for i in range(12)]
    beta = path_from_edges(g, ("e21", "e12"))
    # value rho^{-1/2} stored as (1/2) * rho^{1/2}
    assert m3.half_power == 1
    assert col3[enumerate_paths(g, 2).index(beta)] == Fraction(1, 2)
    assert sum(col3) == Fraction(1, 2)


def test_represent_composition_property(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    lam, mu = edge_path(g, "e21"), edge_path(g, "e32")   # composable
    left = represent(g, pf, [("s", lam), ("s", mu)], 0, 3)
    joint = represent(g, pf, [("s", path_from_edges(g, ("e21", "e32")))], 0, 3)
    assert (left.source_level, left.target_level) == (joint.source_level, joint.target_level)
    assert left.residual(joint) == 0
    # s(e12) = 1 != 3 = r(e13): the factors never compose, product is zero
    bad = represent(g, pf, [("s", edge_path(g, "e12")), ("s", edge_path(g, "e13"))], 0, 3)
    assert all(x == 0 for row in bad.mat for x in row)


def test_represent_adjoint_matches_star(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    for eid in ("e12", "e23"):
        lam = edge_path(g, eid)
        fwd = represent(g, pf, [("s", lam)], 1, 3)
        star = represent(g, pf, [("s*", lam)], 2, 3)
        adj = gram_adjoint(g, pf, fwd)
        assert (adj.source_level, adj.target_level) == (star.source_level, star.target_level)
        assert adj.residual(star) == 0


def test_path_maps_stay_integral(graphs, perron_data):
    # 0/1 path maps and their products keep int entries; a Fraction
    # enters only where the normalisation absorbs a power of rho
    g, pf = graphs["k3"], perron_data["k3"]
    e = edge_path(g, "e12")
    for ops in ([("s*", e), ("s", e)], [("p", e.source)], [("s", e), ("s*", e)]):
        m = represent(g, pf, ops, 1, 3)
        assert m.half_power == 0
        assert all(type(x) is int for row in m.mat for x in row), ops
    star = represent(g, pf, [("s*", e)], 2, 3)
    assert star.half_power in (0, 1)
    ck = cuntz_krieger_check(g, pf, 3)
    assert type(ck.residual_annihilation) is Fraction
    assert type(ck.residual_completeness) is Fraction


def test_represent_overflow(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    with pytest.raises(TruncationOverflowError):
        represent(g, pf, [("s", edge_path(g, "e12"))], 3, 3)
    with pytest.raises(ValueError):
        represent(g, pf, [], 1, 3)


def test_cuntz_krieger_exact(graphs, perron_data):
    for name in ("three-cycle", "k3", "cuntz2"):
        rep = cuntz_krieger_check(graphs[name], perron_data[name], 3)
        assert rep.exact
    rep4 = cuntz_krieger_check(graphs["three-cycle"], perron_data["three-cycle"], 4)
    assert rep4.exact


def test_cuntz_krieger_check_sees_a_dropped_entry(graphs, perron_data, monkeypatch):
    """Negative control: p_v on level 2 of k3 with one of its 1s set to 0
    breaks both relations by exactly 1."""
    g, pf = graphs["k3"], perron_data["k3"]
    map_p = hilbert._map_p

    def dropped(g, v, k):
        m = map_p(g, v, k)
        if k != 2 or v != g.vertices[0]:
            return m
        mat = [row[:] for row in m.mat]
        i, j = next((i, j) for i, row in enumerate(mat) for j, x in enumerate(row) if x)
        mat[i][j] = 0
        return LevelMap(m.source_level, m.target_level, m.half_power, mat)

    monkeypatch.setattr(hilbert, "_map_p", dropped)
    rep = cuntz_krieger_check(g, pf, 4)
    assert rep.residual_annihilation == Fraction(1)
    assert rep.residual_completeness == Fraction(1)
    assert not rep.exact


def test_dirac_multiplicities(graphs, perron_data):
    assert multiplicities(graphs["three-cycle"], 3) == [2, 0, 0, 0]
    assert multiplicities(graphs["k3"], 3) == [2, 3, 6, 12]
    for name in ("three-cycle", "k3", "asym4", "cuntz2"):
        g, pf = graphs[name], perron_data[name]
        mults = multiplicities(g, 3)
        assert mults[0] == len(g.vertices) - 1
        assert xi_hat_ranks(dirac(g, pf, 3)) == mults
        counts = path_counts(g, 3)
        assert mults[1:] == [counts[q] - counts[q - 1] for q in (1, 2, 3)]


def test_dirac_projection_invariants(graphs, perron_data):
    for name in ("three-cycle", "k3", "cuntz2"):
        tri = dirac(graphs[name], perron_data[name], 3)
        assert projection_invariant_residual(tri) == 0


def test_dirac_matrix_selfadjoint_wrt_gram(graphs, perron_data):
    tri = dirac(graphs["k3"], perron_data["k3"], 3)
    d = dirac_matrix(tri, alpha_sequence(3, 0.25))
    gram = np.diag([float(x) for x in tri.gram])
    assert np.linalg.norm(gram @ d - d.T @ gram) < 1e-12


def test_alpha_sequences():
    seq = alpha_sequence(5, 0.25)
    assert seq[0] == 0 and abs(seq[2] - 2 ** 0.75) < 1e-12


@pytest.mark.parametrize("eps", [0.01, 0.25, 0.49])
def test_alpha_increases_with_gaps_at_most_one(eps):
    # the Dirac spectrum q^{1/2+eps} of the triple: the first gap is
    # exactly 1 and every later one is below 1/2 + eps
    seq = alpha_sequence(200, eps)
    gaps = [b - a for a, b in zip(seq, seq[1:])]
    assert gaps[0] == 1
    assert all(0 < gap < 0.5 + eps for gap in gaps[1:])


def test_theta_partial_sums_oracle(graphs):
    """Direct-summation oracle against independently recomputed terms."""
    mults = multiplicities(graphs["k3"], 12)
    t, eps = 1.0, 0.25
    sums = theta_partial_sums(mults, t, eps, 12)
    oracle = 0.0
    for q in range(13):
        n_q = (2 if q == 0 else 3 * 2 ** (q - 1))
        oracle += math.exp(-t * q ** 1.5) * n_q
    assert abs(sums[12] - oracle) < 1e-12
    # successive increments are already below 1e-9 by Q = 12
    assert sums[12] - sums[11] < 1e-9


def test_theta_partial_sums_match_separate_float_sums(graphs):
    """Each partial sum is bit-identical to adding its own float terms
    w * n_q left to right from zero, while every n_q is below 2**53."""
    mults = multiplicities(graphs["k3"], 40)
    assert mults[40] < 2 ** 53
    for t in (0.01, 0.5, 1.0, 2.0):
        expected = []
        for top in range(41):
            total = 0.0
            for q in range(top + 1):
                if w := math.exp(-t * q ** 1.5):
                    total += w * mults[q]
            expected.append(total)
        assert theta_partial_sums(mults, t, 0.25, 40) == expected


def test_theta_partial_sums_beyond_float_range(graphs):
    """A multiplicity beyond float range is never converted on its own;
    only a term or a sum beyond float range reads inf."""
    mults = multiplicities(graphs["k3"], 1100)
    assert mults[1100] > 2 ** 1100
    sums = theta_partial_sums(mults, 0.01, 0.25, 1100)
    assert 4e173 < sums[-1] < 5e173
    assert all(b >= a for a, b in zip(sums, sums[1:]))
    assert theta_partial_sums(mults, 0.001, 0.25, 1100)[-1] == math.inf


def test_theta_constant_tail_on_cycle(graphs):
    mults = multiplicities(graphs["three-cycle"], 10)
    vals = theta_partial_sums(mults, 0.7, 0.25, 10)
    assert all(v == vals[2] for v in vals[2:])


def test_theta_convergence_and_domination(graphs):
    mults = multiplicities(graphs["k3"], 20)
    for t in (0.5, 1.0, 2.0):
        vals = theta_partial_sums(mults, t, 0.25, 20)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] - vals[-2] < 1e-9
        dom = theta_dominating_terms(6, t, 0.25, 20)
        for q in range(1, 21):
            assert math.exp(-t * q ** 1.5) * mults[q] <= dom[q - 1] + 1e-15


def test_theta_ratio_test(graphs):
    terms = theta_dominating_terms(6, 1.0, 0.25, 20)
    ratios = [b / a for a, b in zip(terms, terms[1:])]
    assert all(r < 1 for r in ratios[2:])
    roots = [term ** (1.0 / q) for q, term in enumerate(terms, start=1)]
    assert roots[-1] < 1 and roots[-1] < roots[5]


def test_theta_tail_bound_encloses_longer_partial_sums(graphs):
    from qisograph.graphs import parse_graph
    from qisograph.perron import perron
    k5 = parse_graph("graph k5\n" + "".join(f"v {v}\n" for v in "12345") + "".join(
        f"e e{r}{s} {r} {s}\n" for s in "12345" for r in "12345" if r != s))
    for g in (k5, graphs["k3"], graphs["asym4"]):
        pf = perron(g)
        mults = multiplicities(g, 40)
        for t in (0.5, 1.0, 2.0):
            tail = theta_tail_bound(pf.rho, min(pf.x.values()), t, 0.25, 20)
            sums = theta_partial_sums(mults, t, 0.25, 40)
            at20, at40 = sums[20], sums[40]
            assert math.isfinite(tail)
            assert at20 + tail >= at40, (g.name, t)
