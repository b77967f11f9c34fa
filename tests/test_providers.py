import numpy as np
import pytest

from qisograph.exprlang import parse_expression
from qisograph.ncpoly import q
from qisograph.providers import (
    ProviderValidationError, classical_rep, fourier_unitary, identity_unitary,
    loop_permutation_rep, matrix_point_provider, register, rotation_unitary,
    unitary_provider_portfolio, witness_nonzero,
)
from qisograph.relations import free_unitary_relations, magic_relations
from qisograph.verdict import UNKNOWN, WITNESSED_NONZERO


def test_classical_rep_dimensions(graphs, qaut_rels):
    assert classical_rep(graphs["three-cycle"], qaut_rels["three-cycle"]).dim == 3
    assert classical_rep(graphs["k3"], qaut_rels["k3"]).dim == 6
    assert classical_rep(graphs["asym4"], qaut_rels["asym4"]).dim == 1


def test_classical_rep_values(graphs, qaut_rels):
    provider = classical_rep(graphs["three-cycle"], qaut_rels["three-cycle"])
    values = provider.values(q("1", "1"))
    assert values.shape == (3,)                # one value per automorphism
    assert abs(values.sum() - 1) < 1e-12       # only the identity fixes vertex 1


def test_registration_rejects_bad_assignment():
    rels = magic_relations(("1", "2"))
    bad = matrix_point_provider("bad", ("1", "2"),
                                np.array([[0.5, 0.5], [0.5, 0.5]]), kind="q")
    with pytest.raises(ProviderValidationError):
        register(bad, rels)


def test_permutation_point_provider_is_valid_magic_rep():
    rels = magic_relations(("1", "2"))
    swap = matrix_point_provider("swap", ("1", "2"),
                                 np.array([[0.0, 1.0], [1.0, 0.0]]), kind="q")
    register(swap, rels)


def test_loop_permutation_rep(graphs):
    rels = magic_relations(("l1", "l2"))
    provider = loop_permutation_rep(("l1", "l2"), rels)
    assert provider.dim == 2


def test_unitary_matrices():
    for n in (2, 3):
        for mat in (identity_unitary(n), rotation_unitary(n), fourier_unitary(n)):
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
