import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import letter_by_letter_norm, letter_by_letter_value, q_point_provider
from qisograph.corep import VERTEX_PAIR, VerificationContext, run_identity_suite
from qisograph.exprlang import parse_expression
from qisograph.graphs import graph_automorphisms, parse_graph
from qisograph.ncpoly import q
from qisograph.perron import perron
from qisograph.providers import (
    PROVIDER_TOL, ProviderValidationError, RepresentationProvider, classical_rep, fourier_unitary,
    identity_unitary, loop_permutation_rep, permutation_diag_rep,
    register, rotation_unitary, unitary_provider_portfolio, witness_nonzero,
)
from qisograph.relations import free_unitary_relations, magic_relations, qaut_relations
from qisograph.verdict import UNKNOWN, WITNESSED_NONZERO


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
    """A NaN residual compares False against any tolerance; registration
    must still fail."""
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


def test_permutation_point_provider_is_valid_magic_rep():
    rels = magic_relations(("1", "2"))
    swap = q_point_provider("swap", ("1", "2"), np.array([[0.0, 1.0], [1.0, 0.0]]))
    register(swap, rels)


def test_loop_permutation_rep(graphs):
    rels = magic_relations(("l1", "l2"))
    provider = loop_permutation_rep(("l1", "l2"), rels)
    assert provider.dim == 2


def test_unitary_matrices():
    for n in (2, 3):
        for mat in (identity_unitary(n), rotation_unitary(n), fourier_unitary(n)):
            mat = np.array(mat, dtype=complex)
            assert np.allclose(mat @ mat.conj().T, np.eye(n), atol=1e-12)


def test_unitary_portfolio_registers():
    rels = free_unitary_relations(("1", "2", "3"))
    providers = unitary_provider_portfolio(("1", "2", "3"), rels)
    assert [p.name for p in providers] == ["identity", "rotation", "fourier"]


def test_witness_row_sum_under_rotation():
    rels = free_unitary_relations(("1", "2"))
    providers = unitary_provider_portfolio(("1", "2"), rels)
    row = parse_expression("u[1,1] + u[1,2] - 1", rels)
    verdict = witness_nonzero(row, rels.alphabet.gens, providers[1:2])
    assert verdict.kind == WITNESSED_NONZERO
    # rotation by 45 degrees: first row sums to zero, so the deviation is 1
    assert abs(verdict.residual - 1.0) < 1e-12


def test_witness_skips_identity_provider():
    rels = free_unitary_relations(("1", "2"))
    providers = unitary_provider_portfolio(("1", "2"), rels)
    row, gens = parse_expression("u[1,1] + u[1,2] - 1", rels), rels.alphabet.gens
    assert witness_nonzero(row, gens, providers[:1]).kind == UNKNOWN   # permutation rows sum to 1
    assert witness_nonzero(row, gens, providers).kind == WITNESSED_NONZERO


def test_witness_zero_poly_never_witnessed():
    rels = free_unitary_relations(("1", "2"))
    providers = unitary_provider_portfolio(("1", "2"), rels)
    assert witness_nonzero({}, rels.alphabet.gens, providers).kind == UNKNOWN


def test_witness_generator_under_classical(graphs, qaut_rels):
    rels = qaut_rels["three-cycle"]
    provider = classical_rep(graphs["three-cycle"], rels)
    verdict = witness_nonzero({rels.alphabet.encode((q("1", "1"),)): 1}, rels.alphabet.gens,
                              [provider])
    assert verdict.kind == WITNESSED_NONZERO and abs(verdict.residual - 1.0) < 1e-12


# --- the mask engine against the letter-by-letter oracle -------------------

K4 = "graph k4\n" + "".join(f"v {v}\n" for v in "1234") + "".join(
    f"e e{r}{s} {r} {s}\n" for s in "1234" for r in "1234" if r != s)
LOOPS = ("l1", "l2", "l3", "l4")

#: Perron-like fractional weights, negatives, and sums that cancel only
#: up to rounding, so that a change of summation order shows
COEFFS = (1, -1, 2, Fraction(1, 3), Fraction(-1, 3), Fraction(2, 7), Fraction(1, 10),
          Fraction(-3, 10), Fraction(5, 11), Fraction(-22, 7))


def _random_obligation(rng: random.Random, gens, diagonal) -> dict:
    """A random int-word dict; half its letters are diagonal generators,
    which every identity summand maps to 1, and one word set sums a
    fraction several times against its negated total."""
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
    """Bit for bit on the masks; within 1e-12 on the point providers,
    since numpy's vectorised complex multiply and CPython's can differ
    in the last bit on random operands."""
    rng = random.Random(16)
    cases = _engine_cases(graphs, qaut_rels)
    assert [p._masks is not None for p, _ in cases] == [True] * 5 + [False, False]
    for provider, alpha in cases:
        diagonal = [g for g, gen in enumerate(alpha.gens) if gen.row == gen.col]
        for _ in range(300):
            terms = _random_obligation(rng, alpha.gens, diagonal)
            expected = letter_by_letter_value(provider, terms, alpha.gens)
            value = np.array(provider.value(terms, alpha.gens), dtype=complex)
            norm = provider.norm(terms, alpha.gens)
            expected_norm = letter_by_letter_norm(provider, terms, alpha.gens)
            if provider._masks is not None:
                assert value.tobytes() == expected.tobytes()
                assert norm == expected_norm
            else:
                assert np.abs(value - expected).max() < 1e-12
                assert abs(norm - expected_norm) < 1e-12


def test_cuntz_witness_norms_equal_the_numpy_oracle_bit_for_bit():
    """The free-unitary derivation obligations of ``cuntz`` on 2 to 8
    loops are the only point-provider values that reach a report: under
    each of the three portfolio providers, all 105 norms equal the numpy
    letter-by-letter oracle's."""
    from qisograph.cuntz import FREE_UNITARY, cuntz_setup, derive_contradiction
    norms = 0
    for n in range(2, 9):
        g = parse_graph(f"graph cuntz{n}\nv w\n"
                        + "".join(f"e l{i} w w\n" for i in range(1, n + 1)))
        setup = cuntz_setup(g, FREE_UNITARY)
        derivation = derive_contradiction(setup)
        gens = derivation.rels.alphabet.gens
        for provider in unitary_provider_portfolio(setup.loop_ids, setup.rels):
            for ob in derivation.obligations.values():
                assert provider.norm(ob, gens) == letter_by_letter_norm(provider, ob, gens)
                norms += 1
    assert norms == 105


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
    assert any(not r.passed and r.residuals.get("numeric", 0.0) > PROVIDER_TOL for r in results)
    residuals = {(r.name, str(r.inputs)): r.residuals.get("numeric") for r in results}
    monkeypatch.setattr(RepresentationProvider, "norm", letter_by_letter_norm)
    oracle = {(r.name, str(r.inputs)): r.residuals.get("numeric")
              for r in run_identity_suite(ctx, k_max=2)}
    assert residuals == oracle
