import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import letter_by_letter_norm, letter_by_letter_value, q_point_provider, u, ustar
from qisograph.corep import VERTEX_PAIR, VerificationContext, run_identity_suite
from qisograph.exprlang import parse_expression
from qisograph.graphs import graph_automorphisms, parse_graph
from qisograph.ncpoly import q
from qisograph.perron import perron
from qisograph.providers import (
    ProviderValidationError, RepresentationProvider, classical_rep, loop_permutation_rep,
    matrix_point_provider, permutation_diag_rep, register, unitary_provider_portfolio,
    witness_nonzero,
)
from qisograph.relations import free_unitary_relations, magic_relations, qaut_relations
from qisograph.verdict import UNKNOWN, WITNESSED_NONZERO, Verdict


def test_classical_rep_dimensions(graphs, qaut_rels):
    assert classical_rep(graphs["three-cycle"], qaut_rels["three-cycle"]).dim == 3
    assert classical_rep(graphs["k3"], qaut_rels["k3"]).dim == 6
    assert classical_rep(graphs["asym4"], qaut_rels["asym4"]).dim == 1


def test_classical_rep_values(graphs, qaut_rels):
    provider = classical_rep(graphs["three-cycle"], qaut_rels["three-cycle"])
    values = provider.values(q("1", "1"))
    assert len(values) == 3                    # one value per automorphism
    assert sum(values) == 1                    # only the identity fixes vertex 1


def test_registration_rejects_bad_assignment():
    rels = magic_relations(("1", "2"))
    bad = q_point_provider("bad", ("1", "2"), np.array([[0.5, 0.5], [0.5, 0.5]]))
    with pytest.raises(ProviderValidationError):
        register(bad, rels)


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(math.nan, 0.0), -math.inf])
def test_registration_rejects_non_finite_entries(entry):
    """Registration demands exactly 0, which no NaN or infinity is."""
    rels = magic_relations(("1", "2"))
    bad = q_point_provider("non-finite", ("1", "2"), [[entry, 0.0], [0.0, 1.0]])
    with pytest.raises(ProviderValidationError):
        register(bad, rels)


def test_registration_runs_the_mask_engine(graphs, qaut_rels):
    """Registration evaluates the relators with ``value``, as every
    obligation's cross-check does, so a bit flipped in a generator's
    mask is refused although its ``values`` still satisfy the relations."""
    rels = qaut_rels["k3"]
    provider = classical_rep(graphs["k3"], rels)
    provider._masks[q("1", "1")] ^= 1
    with pytest.raises(ProviderValidationError, match=r"violates schema row-sum@1 \(residual 1\)"):
        register(provider, rels)


@pytest.mark.parametrize("off", [Fraction(1, 10 ** 12), 1e-12])
def test_registration_refuses_a_value_off_by_1e_12(off):
    """Registration demands exactly 0: one value of -I or of a
    permutation moved by 1e-12 breaks a relation by about that much,
    and is refused."""
    ids = ("1", "2")
    unitary = matrix_point_provider("off", ids, [[-1 + off, 0], [0, -1]])
    with pytest.raises(ProviderValidationError, match="provider off violates"):
        register(unitary, free_unitary_relations(ids))
    swap = q_point_provider("off-swap", ids, [[off, 1], [1, 0]])
    with pytest.raises(ProviderValidationError, match="provider off-swap violates"):
        register(swap, magic_relations(ids))


def test_permutation_point_provider_is_valid_magic_rep():
    rels = magic_relations(("1", "2"))
    swap = q_point_provider("swap", ("1", "2"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    register(swap, rels)


def test_loop_permutation_rep(graphs):
    rels = magic_relations(("l1", "l2"))
    provider = loop_permutation_rep(("l1", "l2"), rels)
    assert provider.dim == 2


def test_unitary_matrices():
    """Both portfolio points are rational, and M M^T = I holds exactly;
    u* takes the value of u, the conjugate of a real entry."""
    for n in (2, 3, 5):
        ids = tuple(str(i) for i in range(1, n + 1))
        for provider in unitary_provider_portfolio(ids, free_unitary_relations(ids)):
            m = [[provider.values(u(a, b))[0] for b in ids] for a in ids]
            assert all(type(x) in (int, Fraction) for row in m for x in row)
            assert [[sum(x * y for x, y in zip(r1, r2)) for r2 in m] for r1 in m] == \
                [[int(i == j) for j in range(n)] for i in range(n)]
            assert all(provider.values(ustar(a, b)) == provider.values(u(a, b))
                       for a in ids for b in ids)


def test_unitary_portfolio_registers():
    rels = free_unitary_relations(("1", "2", "3"))
    providers = unitary_provider_portfolio(("1", "2", "3"), rels)
    assert [p.name for p in providers] == ["minus-identity", "cayley"]
    with pytest.raises(ValueError, match="n >= 2"):
        unitary_provider_portfolio(("1",), free_unitary_relations(("1",)))


def test_witness_row_sum_under_rotation():
    """Under the Cayley rotation the two row sums minus 1 are exactly
    -6/5 and 2/5; under -I each is exactly -2."""
    rels = free_unitary_relations(("1", "2"))
    minus_identity, cayley = unitary_provider_portfolio(("1", "2"), rels)
    gens = rels.alphabet.gens
    for row, rotated in (("1", Fraction(6, 5)), ("2", Fraction(2, 5))):
        poly = parse_expression(f"u[{row},1] + u[{row},2] - 1", rels)
        verdict = witness_nonzero(poly, gens, [cayley])
        assert verdict.kind == WITNESSED_NONZERO and verdict.residual == rotated
        assert str(verdict) == f"WitnessedNonzero (provider=cayley, residual={float(rotated):.3g})"
        assert witness_nonzero(poly, gens, [minus_identity]) == Verdict(
            WITNESSED_NONZERO, provider="minus-identity", residual=Fraction(2))


def test_witness_skips_identity_provider():
    """A registered identity point leaves every row sum minus 1 exactly
    0, so it witnesses nothing and the next provider is asked."""
    ids = ("1", "2")
    rels = free_unitary_relations(ids)
    identity = register(matrix_point_provider("identity", ids, [[1, 0], [0, 1]]), rels)
    row, gens = parse_expression("u[1,1] + u[1,2] - 1", rels), rels.alphabet.gens
    assert witness_nonzero(row, gens, [identity]).kind == UNKNOWN
    verdict = witness_nonzero(row, gens, [identity, *unitary_provider_portfolio(ids, rels)])
    assert verdict.provider == "minus-identity"


def test_witness_zero_poly_never_witnessed():
    rels = free_unitary_relations(("1", "2"))
    providers = unitary_provider_portfolio(("1", "2"), rels)
    assert witness_nonzero({}, rels.alphabet.gens, providers).kind == UNKNOWN


def test_witness_generator_under_classical(graphs, qaut_rels):
    rels = qaut_rels["three-cycle"]
    provider = classical_rep(graphs["three-cycle"], rels)
    verdict = witness_nonzero({rels.alphabet.encode((q("1", "1"),)): 1}, rels.alphabet.gens,
                              [provider])
    assert verdict.kind == WITNESSED_NONZERO and verdict.residual == 1


# --- the mask engine against the letter-by-letter oracle -------------------

K4 = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
LOOPS = ("l1", "l2", "l3", "l4")

#: Perron-like fractional weights and negatives
COEFFS = (1, -1, 2, Fraction(1, 3), Fraction(-1, 3), Fraction(2, 7), Fraction(1, 10),
          Fraction(-3, 10), Fraction(5, 11), Fraction(-22, 7))


def _random_obligation(rng: random.Random, gens, diagonal) -> dict:
    """A random int-word dict; half its letters are diagonal generators,
    which every identity summand maps to 1, and one word set sums a
    fraction several times against its negated total, which cancels
    exactly on the summands where every letter is 1."""
    letters = range(len(gens))

    def word():
        return tuple(rng.choice(diagonal) if rng.random() < 0.5 else rng.choice(letters)
                     for _ in range(rng.randrange(5)))

    terms = {word(): rng.choice(COEFFS) for _ in range(rng.randrange(1, 8))}
    part = Fraction(1, rng.choice((3, 7, 10)))
    cancelling = {word() for _ in range(rng.randrange(2, 6))}
    for w in cancelling:
        terms[w] = terms.get(w, 0) + part
    terms[tuple(rng.choice(diagonal) for _ in range(5))] = -part * len(cancelling)
    return {w: c for w, c in terms.items() if c}


def _engine_cases(graphs, qaut_rels):
    k4 = parse_graph(K4)
    k4_rels = qaut_relations(k4, perron(k4))
    magic = magic_relations(LOOPS)
    unitary = free_unitary_relations(("1", "2", "3"))
    portfolio = unitary_provider_portfolio(("1", "2", "3"), unitary)
    return [
        (classical_rep(graphs["k3"], qaut_rels["k3"]), qaut_rels["k3"].alphabet),
        (classical_rep(graphs["asym4"], qaut_rels["asym4"]), qaut_rels["asym4"].alphabet),
        (classical_rep(k4, k4_rels), k4_rels.alphabet),
        (loop_permutation_rep(LOOPS, magic), magic.alphabet),
    ] + [(provider, unitary.alphabet) for provider in portfolio]


def test_norm_and_value_equal_the_letter_by_letter_oracle(graphs, qaut_rels):
    """Exactly, on the masks and on the point providers alike."""
    rng = random.Random(16)
    cases = _engine_cases(graphs, qaut_rels)
    assert [p._masks is not None for p, _ in cases] == [True] * 4 + [False, False]
    for provider, alpha in cases:
        diagonal = [g for g, gen in enumerate(alpha.gens) if gen.row == gen.col]
        for _ in range(300):
            terms = _random_obligation(rng, alpha.gens, diagonal)
            assert provider.value(terms, alpha.gens) == \
                letter_by_letter_value(provider, terms, alpha.gens)
            assert provider.norm(terms, alpha.gens) == \
                letter_by_letter_norm(provider, terms, alpha.gens)


def test_cuntz_witnesses_equal_the_fraction_oracle():
    """The free-unitary derivation obligations of ``cuntz`` on 2 to 8
    loops are the only point-provider values that reach a report: every
    witness's residual is its provider's norm re-evaluated letter by
    letter in Fraction arithmetic, and so is each of the 70 norms under
    the two portfolio providers."""
    from qisograph.cuntz import FREE_UNITARY, cuntz_setup, derive_contradiction
    from qisograph.cuntz import non_isometry_verdict
    norms = 0
    for n in range(2, 9):
        g = parse_graph(f"graph cuntz{n}\nv w\n"
                        + "".join(f"e l{i} w w\n" for i in range(1, n + 1)))
        setup = cuntz_setup(g, FREE_UNITARY)
        derivation = derive_contradiction(setup)
        gens = derivation.rels.alphabet.gens
        portfolio = {p.name: p for p in unitary_provider_portfolio(setup.loop_ids, setup.rels)}
        for provider in portfolio.values():
            for ob in derivation.obligations.values():
                assert provider.norm(ob, gens) == letter_by_letter_norm(provider, ob, gens)
                norms += 1
        verdict = non_isometry_verdict(setup, derivation)
        assert verdict.not_isometric and len(verdict.witnesses) == n
        for k, v in verdict.witnesses.items():
            exact = letter_by_letter_norm(portfolio[v.provider], derivation.obligations[k], gens)
            assert type(v.residual) is Fraction and v.residual == exact >= Fraction(2, 5)
    assert norms == 70


def test_mask_engine_keeps_the_missing_generator_error(graphs, qaut_rels):
    provider = classical_rep(graphs["k3"], qaut_rels["k3"])
    rels = free_unitary_relations(("1", "2"))
    with pytest.raises(KeyError, match=r"provider classical\(k3\) has no values for u\[1,1\]"):
        provider.norm({(0,): 1}, rels.alphabet.gens)


def test_non_automorphism_fails_on_the_mask_engine(graphs, perron_data, qaut_rels,
                                                   monkeypatch):
    """asym4 has trivial Aut(G); the 0/1 provider at a vertex swap that
    is not an automorphism must leave a numeric residual, the one the
    oracle gives."""
    g, rels = graphs["asym4"], qaut_rels["asym4"]
    swap = {"1": "2", "2": "1", "3": "3", "4": "4"}
    assert swap not in graph_automorphisms(g)
    provider = permutation_diag_rep("swap(1,2)", g.vertices, [swap])
    assert provider._masks is not None
    ctx = VerificationContext(g, perron_data["asym4"], rels, VERTEX_PAIR, [provider], 3)
    results = run_identity_suite(ctx, k_max=2)
    assert any(not r.passed and r.residuals.get("numeric", 0.0) > 0 for r in results)
    residuals = {(r.name, str(r.inputs)): r.residuals.get("numeric") for r in results}
    monkeypatch.setattr(RepresentationProvider, "norm", letter_by_letter_norm)
    oracle = {(r.name, str(r.inputs)): r.residuals.get("numeric")
              for r in run_identity_suite(ctx, k_max=2)}
    assert residuals == oracle
