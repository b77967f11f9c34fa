"""Well-definedness lifts along the level tables: for l >= 1 the
(l, l+1) obligation at (mu_1 mu', lam_1 lam') is the level-1 entry
Q[mu_1, lam_1] times the (l-1, l) obligation at (mu', lam'), term for
term, so every one-step pair follows from (0, 1) and the Dirac check
runs none above the suite's levels (``corep.check_dirac_commutation``).

The factorization is checked on the built tables, and a direct check
of every one-step pair is the oracle for the lifted verdict."""

from unittest import mock

import pytest

from oracles import suite_context
from qisograph import corep
from qisograph.corep import EDGE_INDEX, LevelCorep, VerificationContext, check_welldefined
from qisograph.graphs import basis_index, edge_path, path_from_edges, shift_map, vertex_path
from test_replay import GRAPHS, SUITES

N_CAP = 4

#: the graphs whose tables the factorization is checked on
FACTORED = ("asym4", "k3", "k4", "loops4", "three_cycle")


def _obligations(ctx: VerificationContext, l: int) -> dict:
    """(mu, lam) -> the (l, l+1) well-definedness obligation at output
    mu and argument lam, as ``check_welldefined`` builds it, zero
    coefficients kept and nothing reduced."""
    built = []

    class Recording(corep._Obligations):
        def add(self, terms):
            built.append(terms)

    with mock.patch.object(corep, "_Obligations", Recording):
        check_welldefined(ctx, l, l + 1)
    outputs, arguments = ctx.level(l + 1).basis, ctx.level(l).basis
    assert len(built) == len(outputs) * len(arguments)
    return {(mu, lam): built[j * len(outputs) + i]
            for j, lam in enumerate(arguments) for i, mu in enumerate(outputs)}


def _split(ctx: VerificationContext, path):
    """A path of degree >= 1 as its first edge and its tail."""
    g = ctx.g
    first = edge_path(g, path.edges[0])
    tail = path_from_edges(g, path.edges[1:]) if path.degree > 1 else vertex_path(first.source)
    return first, tail


def factorization_mismatches(ctx: VerificationContext) -> int:
    """The (mu, lam) over every pair (l, l+1), 1 <= l < n_cap, whose
    obligation is not Q_1[mu_1, lam_1] times the (l-1, l) obligation at
    (mu', lam'), term for term in the same order; at l = 1 in the
    vertex-pair scheme each word is compared after the monomial pass."""
    alpha, edges = ctx.rels.alphabet, ctx.level(1)
    below = _obligations(ctx, 0)
    mismatches = 0
    for l in range(1, ctx.n_cap):
        exact = l >= 2 or ctx.scheme == EDGE_INDEX
        here = _obligations(ctx, l)
        for (mu, lam), terms in here.items():
            (mu_1, mu_t), (lam_1, lam_t) = _split(ctx, mu), _split(ctx, lam)
            head = edges.rows[edges.index[mu_1]][edges.index[lam_1]]
            lifted = [(head + w, c) for w, c in below[(mu_t, lam_t)].items()]
            got = list(terms.items())
            if not exact:
                got, lifted = ([(alpha.rewrite(w), c) for w, c in ts] for ts in (got, lifted))
            mismatches += got != lifted
        below = here
    return mismatches


@pytest.mark.parametrize("name", FACTORED)
def test_one_step_obligations_factor_through_the_first_edges(name):
    ctx = suite_context(*SUITES[name], n_cap=N_CAP)
    assert factorization_mismatches(ctx) == 0


def test_tail_first_tables_do_not_factor(monkeypatch):
    """A level table that concatenates each tail's entry before the
    first edge's breaks the factorization the lift rests on."""
    original = VerificationContext.level

    def tail_first(self, k):
        if k <= 1 or k < len(self._levels):
            return original(self, k)
        first, rest = tail_first(self, 1), tail_first(self, k - 1)
        index = basis_index(self.g, k)
        parts = [(e, t) for e, edge in enumerate(first.basis)
                 for t, _ in shift_map(self.g, "s", edge, k - 1)]
        rows = tuple(tuple(rest.rows[b][t] + first.rows[a][e] for e, t in parts)
                     for a, b in parts)
        self._levels.append(LevelCorep(tuple(index), index, rows))
        return self._levels[k]

    monkeypatch.setattr(VerificationContext, "level", tail_first)
    for name in ("k3", "loops4"):
        assert factorization_mismatches(suite_context(*SUITES[name], n_cap=N_CAP)) > 0, name


@pytest.mark.parametrize("name", [
    *sorted(path.stem for path in GRAPHS.glob("*.g")), "k4", "loops4", "loops5",
    pytest.param("k5-c5", marks=pytest.mark.slow),
])
def test_direct_one_step_checks_pass_wherever_the_first_does(name):
    """The oracle for the lift: where (0, 1) passes, so does a direct
    check of every pair (l, l+1), l < n_cap."""
    ctx = suite_context(*SUITES[name], n_cap=N_CAP)
    assert check_welldefined(ctx, 0, 1).passed
    for l in range(1, N_CAP):
        res = check_welldefined(ctx, l, l + 1)
        assert res.passed and res.residuals["embedding_gram"] == 0, (name, l)
