"""Shared randomized soundness battery for the rewriting engine.

Every registered provider is exact, so a proved-zero polynomial must
take exactly the value 0 under it.  The exact points of the free-unitary
relations are real, so u*[a,b] = u[a,b] there and they cannot tell a
word from its letter-wise adjoint; the complex Fourier point
(``oracles.fourier_point``) can, and is checked beside them in float
arithmetic within ``FLOAT_TOL``."""

import random
from fractions import Fraction

from oracles import fourier_point, numpy_norm, u, ustar
from qisograph.ncpoly import add, mul, q
from qisograph.providers import classical_rep, loop_permutation_rep, unitary_provider_portfolio
from qisograph.relations import free_unitary_relations, magic_relations, qaut_relations
from qisograph.rewrite import ProofStore, normal_form

SEED = 20240817

#: the tolerance of the float Fourier point's evaluation
FLOAT_TOL = 1e-10


def random_poly(rng, alpha, gens, max_words=4, max_len=4):
    """Random int-word terms over *alpha*, its words drawn from *gens*."""
    terms = {}
    for _ in range(rng.randint(1, max_words)):
        word = alpha.encode(tuple(rng.choice(gens) for _ in range(rng.randint(0, max_len))))
        coeff = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
        terms[word] = terms.get(word, Fraction(0)) + coeff
    return {w: c for w, c in terms.items() if c}


def relation_suites(graphs, perron_data):
    suites = []
    for name in ("three-cycle", "k3", "asym4"):
        rels = qaut_relations(graphs[name], perron_data[name])
        gens = [q(a, b) for a in rels.universe for b in rels.universe]
        providers = [classical_rep(graphs[name], rels)]
        suites.append((rels, gens, providers, []))
    urels = free_unitary_relations(("1", "2"))
    ugens = [u(a, b) for a in ("1", "2") for b in ("1", "2")]
    ugens += [ustar(a, b) for a in ("1", "2") for b in ("1", "2")]
    suites.append((urels, ugens, unitary_provider_portfolio(("1", "2"), urels),
                   [fourier_point(("1", "2"))]))
    # S_4^+: every index permutation is a symmetry (last, so the sets
    # above draw the same polynomials as without it)
    ids = ("1", "2", "3", "4")
    mrels = magic_relations(ids, name="magic(4)")
    suites.append((mrels, [q(a, b) for a in ids for b in ids],
                   [loop_permutation_rep(ids, mrels)], []))
    return suites


class ProofRecorder(ProofStore):
    """A proof store that records each primitive start form it answers
    from a stored proof, with the winning tags it answered."""

    def __init__(self, alpha):
        super().__init__(alpha)
        self.hits = []

    def find(self, key):
        found = super().find(key)
        if found is not None:
            self.hits.append((key, found))
        return found


def record_proofs(rels) -> ProofRecorder:
    """Install a recorder as the (still empty) proof store of *rels*."""
    assert not rels.alphabet.proofs
    rels.alphabet.proofs = recorder = ProofRecorder(rels.alphabet)
    return recorder


#: relation sets whose symmetries must answer some battery search
TRANSPORTING = ("qaut(three-cycle)", "qaut(k3)", "magic(4)")


def run_soundness_battery(graphs, perron_data, per_set=200):
    """ProvedZero implies exactly zero under every provider and zero
    within FLOAT_TOL under every float point, for searched and
    transported proofs alike; the normal form is idempotent and
    commutes with the formal adjoint."""
    rng = random.Random(SEED)
    for rels, gens, providers, points in relation_suites(graphs, perron_data):
        recorder = record_proofs(rels)
        alpha = rels.alphabet

        def star(terms):
            return {alpha.star(w): c for w, c in terms.items()}

        relators = [poly for _, poly in rels.relators()]
        proved = 0
        for i in range(per_set):
            p = random_poly(rng, alpha, gens)
            if i % 3 == 0 and rels.gen_kind == "q":
                # engineered zero: a row-sum difference times a random word
                row = rng.choice(rels.universe)
                s = {}
                for k in rels.universe:
                    s = add(s, {alpha.encode((q(row, k),)): 1})
                p = mul(add(s, {(): 1}, -1), p)
            elif i % 3 == 0:
                # engineered zero, drawing nothing so that the later sets
                # keep their polynomials: a unitarity relator times p
                p = mul(relators[i // 3 % len(relators)], p)
            nf = normal_form(p, rels)
            assert normal_form(nf, rels) == nf
            assert normal_form(star(p), rels) == star(nf)
            if not nf:
                proved += 1
                for provider in providers:
                    assert provider.norm(p, alpha.gens) == 0
                for point in points:
                    assert numpy_norm(point, p, alpha.gens) < FLOAT_TOL
        assert proved > 0
        assert recorder.hits or rels.name not in TRANSPORTING, rels.name
