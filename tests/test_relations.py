import pytest
from hypothesis import assume, given, settings, strategies as st

from qisograph.graphs import hypothesis_witnesses, parse_graph
from qisograph.ncpoly import FORMAL_UNITARY, FORMAL_UNITARY_STAR, q
from qisograph.perron import perron
from qisograph.providers import classical_rep
from qisograph.relations import (
    free_unitary_relations, magic_relations, qaut_relations, with_formal_unitary,
)
from qisograph.rewrite import reduce_word


def test_magic_rule_inventory():
    rels = magic_relations(("1", "2"))
    assert rels.pair_rules[(q("1", "1"), q("1", "1"))] == ((q("1", "1"),), "idem")
    assert rels.pair_rules[(q("1", "1"), q("1", "2"))] == (None, "row-orth")
    assert rels.pair_rules[(q("1", "1"), q("2", "1"))] == (None, "col-orth")
    assert (q("1", "1"), q("2", "2")) not in rels.pair_rules
    tags = {tag for _, tag in rels.pair_rules.values()}
    assert tags == {"idem", "row-orth", "col-orth"}
    assert {s.tag for s in rels.sum_schemas} == {"row-sum", "col-sum"}


def test_magic_symmetries_are_the_index_permutations_up_to_the_limit():
    from qisograph.relations import MAGIC_SYMMETRY_MAX_IDS
    ids = tuple(f"l{i}" for i in range(MAGIC_SYMMETRY_MAX_IDS + 1))
    small = magic_relations(ids[:3])
    assert sorted(tuple(s.values()) for s in small.symmetries) == sorted(
        [("l0", "l1", "l2"), ("l0", "l2", "l1"), ("l1", "l0", "l2"),
         ("l1", "l2", "l0"), ("l2", "l0", "l1"), ("l2", "l1", "l0")])
    assert len(magic_relations(ids[:-1]).symmetries) == 720
    # 7! maps would cost a reduction on seven loops seconds of validation
    assert magic_relations(ids).symmetries == ()
    assert magic_relations(ids).alphabet.transport == ()


def test_qaut_requires_aut_plus(graphs, perron_data):
    with pytest.raises(ValueError) as exc:
        qaut_relations(graphs["cuntz2"], perron_data["cuntz2"])
    assert "no-loops" in str(exc.value)


def test_qaut_k3_edge_rules_degenerate(qaut_rels):
    # on the complete graph the edge relations reduce to the
    # orthogonality rules: non-edge pairs are exactly the diagonal
    rels = qaut_rels["k3"]
    assert not any(tag == "edge-zero" for _, tag in rels.pair_rules.values())
    # the specialization q[s(gamma),i] q[r(gamma),i] -> 0 is column
    # orthogonality, present for every edge and vertex
    for gamma_r, gamma_s in (("2", "1"), ("3", "2")):
        for i in ("1", "2", "3"):
            assert reduce_word(rels.alphabet.encode((q(gamma_s, i), q(gamma_r, i))), rels) is None


def test_qaut_three_cycle_edge_rules_present(qaut_rels):
    rels = qaut_rels["three-cycle"]
    assert sum(1 for _, tag in rels.pair_rules.values() if tag == "edge-zero") == 18
    installed = {e["family"] for e in rels.events if e["action"] == "installed"}
    assert installed == {"edge-zero[sr]", "edge-zero[rs]"}
    # the worked instance: rows are an edge pair, columns are not
    assert rels.pair_rules[(q("2", "1"), q("1", "2"))] == (None, "edge-zero")


@st.composite
def _aut_plus_graphs(draw):
    """Strongly connected graphs on 2-5 vertices without loops, multiple
    edges or sources; half of them circulant, so that Aut(G) is not
    trivial."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        offsets = draw(st.sets(st.integers(1, n - 1), min_size=1))
        edges = [((s + d) % n, s) for d in sorted(offsets) for s in range(n)]
    else:
        pairs = [(r, s) for r in range(n) for s in range(n) if r != s]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=n))
    g = parse_graph("\n".join(["graph random"] + [f"v {v}" for v in range(n)]
                              + [f"e e{i} {r} {s}" for i, (r, s) in enumerate(edges)]))
    assume(all(w is None for w in hypothesis_witnesses(g).values()))
    return g


@settings(max_examples=80, deadline=None)
@given(_aut_plus_graphs())
def test_both_edge_readings_installed_and_classically_sound(g):
    rels = qaut_relations(g, perron(g))
    assert [(e["family"], e["action"]) for e in rels.events if "rules" in e] == [
        ("edge-zero[sr]", "installed"), ("edge-zero[rs]", "installed")]
    # registration checks every pair rule, schema and linear relation
    classical_rep(g, rels)


def test_qaut_star_closure_of_rules(qaut_rels):
    from qisograph.ncpoly import adjoint_generator
    for rels in qaut_rels.values():
        for (g1, g2), (rhs, _) in rels.pair_rules.items():
            mirrored = (adjoint_generator(g2), adjoint_generator(g1))
            assert mirrored in rels.pair_rules
            if rhs is None:
                assert rels.pair_rules[mirrored][0] is None


def test_qaut_adjacency_commutation_stored(qaut_rels):
    rels = qaut_rels["k3"]
    assert len(rels.linear_relations) > 0


def test_weighted_schema_only_with_exact_perron(graphs, perron_data):
    rels = qaut_relations(graphs["k3"], perron_data["k3"])
    assert any(s.tag == "weighted-col-sum" for s in rels.sum_schemas)
    assert not any(e["family"] == "weighted-col-sum" for e in rels.events)
    # an aut-plus graph whose spectral radius is the plastic number 1.3247...
    g = parse_graph("graph plastic\nv 1\nv 2\nv 3\ne a 2 1\ne b 1 2\ne c 3 2\ne d 1 3\n")
    pf = perron(g)
    assert not pf.exact and abs(pf.rho - 1.3247179572) < 1e-9
    inexact = qaut_relations(g, pf)
    assert not any(s.tag == "weighted-col-sum" for s in inexact.sum_schemas)
    assert [e["action"] for e in inexact.events if e["family"] == "weighted-col-sum"] == [
        "disabled"]


def test_vanishing_closure_on_rigid_graph(qaut_rels):
    rels = qaut_rels["asym4"]
    vanished = {(g.row, g.col) for g in rels.vanishing}
    assert vanished == {(a, b) for a in rels.universe for b in rels.universe if a != b}
    assert not qaut_rels["k3"].vanishing
    assert not qaut_rels["three-cycle"].vanishing


def test_free_unitary_has_no_monomial_rules():
    rels = free_unitary_relations(("1", "2"))
    assert not rels.pair_rules
    assert len(rels.unitary_schemas) == 4


def test_formal_unitary_extension():
    rels = with_formal_unitary(magic_relations(("1", "2")))
    assert [pair for pair, (_, tag) in rels.pair_rules.items() if tag == "w-unitary"] == [
        (FORMAL_UNITARY, FORMAL_UNITARY_STAR), (FORMAL_UNITARY_STAR, FORMAL_UNITARY)]
    enc = rels.alphabet.encode
    assert reduce_word(enc((FORMAL_UNITARY, FORMAL_UNITARY_STAR)), rels) == ()
    assert reduce_word(enc((FORMAL_UNITARY_STAR, FORMAL_UNITARY)), rels) == ()


def test_formal_unitary_keeps_vanishing_closure(qaut_rels):
    rels = qaut_rels["asym4"]
    extended = with_formal_unitary(rels)
    assert len(rels.vanishing) == 12
    assert extended.vanishing == rels.vanishing
    assert reduce_word(extended.alphabet.encode((q("1", "2"), FORMAL_UNITARY)), extended) is None
