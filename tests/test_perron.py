from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qisograph.graphs import (
    RANGE_PREPEND, SOURCE_APPEND, adjacency_matrix, edge_path, enumerate_paths,
    parse_graph, path_from_edges, vertex_path,
)
from qisograph.perron import (
    PerronError, additivity_residual, convention_residuals, cylinder_intersection_measure,
    cylinder_measure, perron, select_convention,
)
from oracles import total_level_mass


def test_perron_three_cycle(perron_data):
    pf = perron_data["three-cycle"]
    assert pf.exact and pf.rho == 1
    assert list(pf.x.values()) == [Fraction(1, 3)] * 3


def test_perron_two_cycle(perron_data):
    pf = perron_data["two-cycle"]
    assert pf.exact and pf.rho == 1
    assert list(pf.x.values()) == [Fraction(1, 2), Fraction(1, 2)]


def test_perron_k3_against_dense_eigensolver(graphs, perron_data):
    pf = perron_data["k3"]
    assert pf.exact and pf.rho == 2
    assert list(pf.x.values()) == [Fraction(1, 3)] * 3
    a = np.array(adjacency_matrix(graphs["k3"]), dtype=float)
    eigvals, eigvecs = np.linalg.eig(a)
    top = np.argmax(eigvals.real)
    assert abs(eigvals[top].real - float(pf.rho)) < 1e-12
    vec = np.abs(eigvecs[:, top].real)
    vec /= vec.sum()
    assert np.allclose(vec, [float(x) for x in pf.x.values()], atol=1e-12)


def test_perron_invariants(graphs, perron_data):
    for name, pf in perron_data.items():
        a = adjacency_matrix(graphs[name])
        assert pf.exact and list(pf.x) == list(graphs[name].vertices)
        x = list(pf.x.values())
        n = len(x)
        assert sum(x) == 1
        assert all(c > 0 for c in x)
        for i in range(n):
            assert sum(Fraction(a[i][j]) * x[j] for j in range(n)) == pf.rho * x[i]


def test_perron_rejects_disconnected():
    g = parse_graph("graph t\nv 1\nv 2\ne a 2 1\n")
    with pytest.raises(PerronError):
        perron(g)


def test_perron_determinism(graphs):
    first = perron(graphs["asym4"])
    second = perron(graphs["asym4"])
    assert first == second


def test_doubled_multiplicities_scale_rho(graphs):
    # doubling every edge doubles the spectral radius, same eigenvector
    base = graphs["two-cycle"]
    doubled = parse_graph("graph t2\nv 1\nv 2\ne f 2 1\ne f2 2 1\ne g 1 2\ne g2 1 2\n")
    pf1, pf2 = perron(base), perron(doubled)
    assert pf1.exact and pf2.exact and pf2.rho == 2 * pf1.rho
    assert pf2.x == pf1.x


def test_exactness_follows_integer_radius():
    # a rational eigenvalue of an integer matrix is an integer
    integer = parse_graph("graph int2\nv 1\nv 2\ne a 1 1\ne b 1 2\ne c 1 2\ne d 2 1\n")
    pf = perron(integer)
    assert pf.exact and pf.rho == 2
    assert sorted(pf.x.values()) == [Fraction(1, 3), Fraction(2, 3)]
    # the number type carries exactness: rho, x and every measure share it
    lam = enumerate_paths(integer, 2)[0]
    for value in (pf.rho, *pf.x.values(), cylinder_measure(pf, lam)):
        assert isinstance(value, Fraction)
    golden = parse_graph("graph golden\nv 1\nv 2\ne a 1 1\ne b 2 1\ne c 1 2\n")
    pf = perron(golden)
    assert not pf.exact
    assert abs(pf.rho - (1 + 5 ** 0.5) / 2) < 1e-9
    lam = enumerate_paths(golden, 2)[0]
    for value in (pf.rho, *pf.x.values(), cylinder_measure(pf, lam)):
        assert isinstance(value, float)


def test_cylinder_measures(graphs, perron_data):
    k3, pfk = graphs["k3"], perron_data["k3"]
    lam = path_from_edges(k3, ("e12", "e21"))
    assert cylinder_measure(pfk, lam) == Fraction(1, 12)
    g3, pf3 = graphs["three-cycle"], perron_data["three-cycle"]
    assert cylinder_measure(pf3, vertex_path("2")) == Fraction(1, 3)
    c2, pfc = graphs["cuntz2"], perron_data["cuntz2"]
    lam3 = path_from_edges(c2, ("l1", "l2", "l1"))
    assert cylinder_measure(pfc, lam3) == Fraction(1, 8)


def test_cuntz_measure_formula(graphs, perron_data):
    for name, n in (("cuntz2", 2), ("cuntz3", 3)):
        g, pf = graphs[name], perron_data[name]
        for d in range(7):
            for lam in enumerate_paths(g, d):
                assert cylinder_measure(pf, lam) == Fraction(1, n ** d)


def test_kms_vertex_values(graphs, perron_data):
    assert perron_data["three-cycle"].x["2"] == Fraction(1, 3)
    assert perron_data["k3"].x["1"] == Fraction(1, 3)
    assert perron_data["cuntz2"].exact and perron_data["cuntz2"].x["w"] == 1
    for name, pf in perron_data.items():
        assert pf.exact and sum(pf.x.values()) == 1


def test_additivity_source_append_exact_zero(graphs, perron_data):
    for name in ("three-cycle", "k3", "asym4", "cuntz2", "cuntz3"):
        g, pf = graphs[name], perron_data[name]
        for d in range(3):
            for lam in enumerate_paths(g, d):
                for n in range(1, 3):
                    assert additivity_residual(pf, g, lam, n, SOURCE_APPEND) == 0


def test_additivity_k3_prepend_coincidence(graphs, perron_data):
    # K3 is in- and out-regular, so even the rejected side is consistent
    g, pf = graphs["k3"], perron_data["k3"]
    lam = edge_path(g, "e12")
    assert additivity_residual(pf, g, lam, 1, RANGE_PREPEND) == 0


def test_additivity_asym4_prepend_nonzero(graphs, perron_data):
    g, pf = graphs["asym4"], perron_data["asym4"]
    lam = edge_path(g, "g41")   # range 1 has out-degree three
    res = additivity_residual(pf, g, lam, 1, RANGE_PREPEND)
    # brute force: prepends are the three edges leaving vertex 1
    prepends = [p for p in enumerate_paths(g, 2) if p.edges[1:] == lam.edges]
    assert len(prepends) == 3
    expected = abs(cylinder_measure(pf, lam) - sum(cylinder_measure(pf, p) for p in prepends))
    assert res == expected == Fraction(1, 16)
    lam2 = edge_path(g, "g14")  # range 4 has out-degree one
    assert additivity_residual(pf, g, lam2, 1, RANGE_PREPEND) == Fraction(1, 16)


def test_total_level_mass(graphs, perron_data):
    for name in ("three-cycle", "k3", "asym4", "cuntz2", "cuntz3"):
        g, pf = graphs[name], perron_data[name]
        for k in range(7):
            assert total_level_mass(pf, g, k) == 1


def test_select_convention(graphs, perron_data):
    for name in ("three-cycle", "k3", "asym4", "cuntz2"):
        side, residuals = select_convention(perron_data[name], graphs[name])
        assert side == SOURCE_APPEND
        assert residuals[SOURCE_APPEND] == 0
    res4 = convention_residuals(perron_data["asym4"], graphs["asym4"])
    assert res4[RANGE_PREPEND] > 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_source_append_additive_on_strongly_connected_multigraphs(data):
    # a closed walk through every vertex keeps the graph strongly
    # connected; the walk and the extra edges may add loops and multi-edges
    n = data.draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    walk = data.draw(st.permutations(range(n))) + data.draw(st.lists(vertex, max_size=4))
    pairs = [(walk[i], walk[i - 1]) for i in range(len(walk))]        # (range, source)
    pairs += data.draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    g = parse_graph("graph random\n" + "".join(f"v {v}\n" for v in range(n)) + "".join(
        f"e e{i} {r} {s}\n" for i, (r, s) in enumerate(pairs)))
    pf = perron(g)
    residual = convention_residuals(pf, g)[SOURCE_APPEND]
    if pf.exact:
        assert residual == 0
    else:
        assert residual <= 1e-9
    assert select_convention(pf, g)[0] == SOURCE_APPEND


def test_cylinder_intersection(graphs, perron_data):
    g, pf = graphs["k3"], perron_data["k3"]
    lam = edge_path(g, "e12")
    ext = path_from_edges(g, ("e12", "e21"))
    other = path_from_edges(g, ("e13", "e31"))
    assert cylinder_intersection_measure(pf, lam, ext) == cylinder_measure(pf, ext)
    assert cylinder_intersection_measure(pf, ext, lam) == cylinder_measure(pf, ext)
    assert cylinder_intersection_measure(pf, lam, other) == 0
    v = vertex_path("2")
    assert cylinder_intersection_measure(pf, v, lam) == cylinder_measure(pf, lam)
    assert cylinder_intersection_measure(pf, vertex_path("3"), lam) == 0
