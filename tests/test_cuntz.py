from fractions import Fraction

import pytest

from qisograph.corep import run_identity_suite
from qisograph.cuntz import (
    FREE_UNITARY, MAGIC, cuntz_setup, derive_contradiction, non_isometry_verdict, sn_plus_context,
)
from qisograph.hilbert import multiplicities
from qisograph.exprlang import parse_expression
from qisograph.perron import cylinder_measure
from qisograph.providers import (
    matrix_point_provider, register, unitary_provider_portfolio, witness_nonzero,
)
from qisograph.graphs import enumerate_paths, parse_graph
from qisograph.rewrite import is_zero
from qisograph.verdict import PROVED_ZERO, UNKNOWN, WITNESSED_NONZERO


def test_setup_basics(graphs):
    setup = cuntz_setup(graphs["cuntz2"], FREE_UNITARY)
    assert setup.pf.exact and setup.pf.rho == 2
    assert setup.pf.x == {"w": Fraction(1)}
    assert setup.rels.gen_kind == "u"
    magic = cuntz_setup(graphs["cuntz2"], MAGIC)
    assert magic.rels.gen_kind == "q"
    pf3 = cuntz_setup(graphs["cuntz3"], FREE_UNITARY).pf
    assert pf3.exact and pf3.rho == 3


def test_setup_rejects_small_n(graphs):
    with pytest.raises(ValueError):
        cuntz_setup(parse_graph("graph cuntz1\nv w\ne l1 w w\n"), FREE_UNITARY)
    with pytest.raises(ValueError):
        cuntz_setup(graphs["k3"], FREE_UNITARY)  # not a loop graph


def test_measure_formula(graphs, perron_data):
    for name, n in (("cuntz2", 2), ("cuntz3", 3)):
        g, pf = graphs[name], perron_data[name]
        for d in range(7):
            for lam in enumerate_paths(g, d):
                assert cylinder_measure(pf, lam) == Fraction(1, n ** d)


def test_derivation_emits_row_sum_obligations(graphs):
    for n in (2, 3):
        setup = cuntz_setup(graphs[f"cuntz{n}"], FREE_UNITARY)
        der = derive_contradiction(setup)
        assert len(der.obligations) == n
        assert len(der.steps) == 4
        for k, ob in der.obligations.items():
            assert ob == parse_expression(f"sum(i, u[{k},i]) - 1", der.rels)
            assert der.verdicts[k].kind == UNKNOWN
        assert der.contradiction_pending


def test_derivation_searches_each_obligation_once(graphs, monkeypatch):
    from qisograph import rewrite
    calls = []
    search = rewrite._search_zero

    def counting_search(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(rewrite, "_search_zero", counting_search)
    setup = cuntz_setup(graphs["cuntz3"], FREE_UNITARY)
    der = derive_contradiction(setup)
    assert len(calls) == 3
    for k, ob in der.obligations.items():
        assert str(der.verdicts[k]) == f"Unknown (normal form has {len(ob)} terms)"


def test_derivation_collapses_for_magic(graphs):
    for n in (2, 3):
        setup = cuntz_setup(graphs[f"cuntz{n}"], MAGIC)
        der = derive_contradiction(setup)
        assert all(v.kind == PROVED_ZERO for v in der.verdicts.values())
        assert not der.contradiction_pending


def test_obligation_never_proved_zero_but_witnessed(graphs):
    setup = cuntz_setup(graphs["cuntz2"], FREE_UNITARY)
    der = derive_contradiction(setup)
    providers = unitary_provider_portfolio(setup.loop_ids, setup.rels)
    alpha = setup.rels.alphabet
    for ob in der.obligations.values():
        # printed, then parsed into the w-free relation set's alphabet
        ob = parse_expression(der.rels.alphabet.text(ob), setup.rels)
        assert is_zero(ob, setup.rels).kind == UNKNOWN
        assert witness_nonzero(ob, alpha.gens, providers).kind == WITNESSED_NONZERO


def test_non_isometry_verdict(graphs):
    for n in (2, 3):
        setup = cuntz_setup(graphs[f"cuntz{n}"], FREE_UNITARY)
        verdict = non_isometry_verdict(setup, derive_contradiction(setup))
        assert verdict.not_isometric
        assert all(v.witnessed for v in verdict.witnesses.values())
        assert all(v.residual >= 0.4 for v in verdict.witnesses.values())
        assert {str(v) for v in verdict.witnesses.values()} == {
            "WitnessedNonzero (provider=minus-identity, residual=2)"}


def test_identity_provider_alone_is_inconclusive(graphs):
    """A permutation's rows sum to one, so the identity point leaves every
    obligation sum_i u[k,i] - 1 exactly 0.  Under -I each is exactly -2;
    under the Cayley rotation the two rotated rows give -6/5 and 2/5 and
    the third 0, which no witness may read as nonzero."""
    setup = cuntz_setup(graphs["cuntz3"], FREE_UNITARY)
    derivation = derive_contradiction(setup)
    gens = derivation.rels.alphabet.gens
    identity = register(matrix_point_provider(
        "identity", setup.loop_ids, [[int(i == j) for j in range(3)] for i in range(3)]),
        setup.rels)
    providers = {p.name: p for p in unitary_provider_portfolio(setup.loop_ids, setup.rels)}
    obligations = [derivation.obligations[k] for k in setup.loop_ids]
    assert all(not witness_nonzero(ob, gens, [identity]).witnessed for ob in obligations)
    assert [witness_nonzero(ob, gens, [providers["minus-identity"]]).residual
            for ob in obligations] == [2, 2, 2]
    cayley = [witness_nonzero(ob, gens, [providers["cayley"]]) for ob in obligations]
    assert [v.residual for v in cayley] == [Fraction(6, 5), Fraction(2, 5), None]
    assert cayley[2].kind == UNKNOWN


def test_derivation_transcript_is_jsonable(graphs):
    import json
    setup = cuntz_setup(graphs["cuntz2"], FREE_UNITARY)
    verdict = non_isometry_verdict(setup, derive_contradiction(setup))
    text = json.dumps(verdict.to_dict())
    assert "obligation" in text and "NotIsometric" in text


def test_sn_plus_suite_passes(graphs):
    for n, k_max in ((2, 2), (3, 1)):
        results = run_identity_suite(sn_plus_context(cuntz_setup(graphs[f"cuntz{n}"], MAGIC), 3),
                                     k_max=k_max)
        assert all(r.passed for r in results), [
            (r.name, r.inputs) for r in results if not r.passed]
        names = {r.name for r in results}
        assert "isometry" in names and "dirac-commutation" in names
        assert "density" not in names


def test_sn_plus_obligation_contrast(graphs):
    # the same row-sum polynomial, proved zero in the magic algebra
    setup = cuntz_setup(graphs["cuntz2"], MAGIC)
    ob = parse_expression("sum(i, q[l1,i]) - 1", setup.rels)
    assert is_zero(ob, setup.rels).kind == PROVED_ZERO


def test_cuntz_dirac_multiplicities(graphs):
    mults = multiplicities(graphs["cuntz2"], 6)
    assert mults[0] == 0                   # single vertex: constants fill R_0
    assert mults[1:] == [2 ** q - 2 ** (q - 1) for q in range(1, 7)]


def test_free_unitary_fails_suite_welldefined(graphs):
    """The suite itself distinguishes the flavors: with free-unitary
    coefficients the level-0/level-1 compatibility check is not provable
    and is witnessed nonzero (the special case w = 1 of the derivation:
    the obligation is exactly 1 - sum_i u[e,i])."""
    from qisograph.corep import EDGE_INDEX, VerificationContext, check_welldefined
    setup = cuntz_setup(graphs["cuntz2"], FREE_UNITARY)
    providers = [p for p in unitary_provider_portfolio(setup.loop_ids, setup.rels)
                 if p.name == "cayley"]
    ctx = VerificationContext(setup.graph, setup.pf, setup.rels, EDGE_INDEX, providers, 2)
    res = check_welldefined(ctx, 0, 1)
    assert not res.passed
    assert res.verdict == UNKNOWN
    assert res.residuals["numeric"] >= 0.4
    # the same check is provable for the magic flavor
    magic_ctx = sn_plus_context(cuntz_setup(graphs["cuntz2"], MAGIC), n_cap=2)
    assert check_welldefined(magic_ctx, 0, 1).passed
