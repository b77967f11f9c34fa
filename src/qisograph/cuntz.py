"""The one-vertex loop graphs: the linear action of the free unitary
family on the generating isometries, the mechanical derivation showing
that no Dirac-commuting unitary corepresentation can implement it, and
the magic-unitary counterpart where the same identity suite passes.

The derivation replays the proof steps over the relation set extended
by one formal unitary w: a corepresentation commuting with the Dirac
operator fixes the one-dimensional constants eigenspace, forcing
U(1) = 1 (x) w; the implementation identity then pins U on the loop
indicators, and comparing coefficients in the refinement of 1 leaves
the obligations sum_i q[k,i] w - w, hence (times w*) sum_i q[k,i] - 1.
For the magic family these collapse to zero; for the free-unitary
family they are witnessed nonzero, exactly, by rational orthogonal
matrices, which are genuine representations, so the witness is a sound
disproof.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corep import EDGE_INDEX, VerificationContext
from .graphs import DirectedGraph
from .ncpoly import FORMAL_UNITARY, FORMAL_UNITARY_STAR, Generator, IntTerms
from .perron import PerronData, perron
from .providers import loop_permutation_rep, unitary_provider_portfolio, witness_nonzero
from .relations import RelationSet, free_unitary_relations, magic_relations, with_formal_unitary
from .rewrite import normal_form, normal_form_verdict
from .verdict import Verdict

FREE_UNITARY = "free-unitary"
MAGIC = "magic"


@dataclass
class CuntzSetup:
    n: int
    flavor: str
    graph: DirectedGraph
    pf: PerronData
    rels: RelationSet
    loop_ids: tuple[str, ...]


def cuntz_setup(g: DirectedGraph, flavor: str) -> CuntzSetup:
    """The loop graph *g*: one vertex with n >= 2 loops, spectral radius
    n, unit Perron vector, M([lambda]) = n^{-d(lambda)}.  Relations and
    checks are indexed by the graph's own loop ids."""
    n = len(g.edges)
    if len(g.vertices) != 1 or any(e.range != e.source for e in g.edges) or n < 2:
        raise ValueError("the loop-graph contrast needs a one-vertex graph with n >= 2 loops")
    pf = perron(g)
    loop_ids = tuple(e.id for e in g.sorted_edges)
    if flavor == FREE_UNITARY:
        rels = free_unitary_relations(loop_ids, name=f"free-unitary({n})")
    else:
        rels = magic_relations(loop_ids, name=f"magic({n})")
    return CuntzSetup(n, flavor, g, pf, rels, loop_ids)


@dataclass
class DerivationStep:
    label: str
    polys: dict[str, str]

    def to_dict(self) -> dict:
        return {"label": self.label, "polys": self.polys}


@dataclass
class DerivationReport:
    n: int
    flavor: str
    steps: list[DerivationStep]
    obligations: dict[str, IntTerms]
    verdicts: dict[str, Verdict]
    rels: RelationSet                # extended by w; the obligations' alphabet

    @property
    def contradiction_pending(self) -> bool:
        """True when some obligation is not provably zero, so the
        existence assumption stands refutable by a numeric witness."""
        return any(not v.proved_zero for v in self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "flavor": self.flavor,
            "steps": [s.to_dict() for s in self.steps],
            "obligations": {k: self.rels.alphabet.text(p) for k, p in self.obligations.items()},
            "verdicts": {k: str(v) for k, v in self.verdicts.items()},
        }


def derive_contradiction(setup: CuntzSetup) -> DerivationReport:
    """Replay the proof steps as polynomial identities.

    The obligations sum_i q[k,i] - 1 reduce to zero under the magic
    relations (rows sum to one) and remain open under the free-unitary
    relations, where a witness settles them nonzero.
    """
    rels_w = with_formal_unitary(setup.rels)
    alpha = rels_w.alphabet
    kind = setup.rels.gen_kind
    w, wstar = alpha.encode((FORMAL_UNITARY, FORMAL_UNITARY_STAR))
    steps = []
    steps.append(DerivationStep(
        "corepresentation commuting with the Dirac operator fixes the "
        "one-dimensional constants eigenspace",
        {"U(1)": "1 (x) w, w unitary"}))
    # the word q[j,i] w of chi_[j] in U(chi_[i])
    row_images = {i: {j: alpha.encode((Generator(kind, j, i), FORMAL_UNITARY))
                      for j in setup.loop_ids}
                  for i in setup.loop_ids}
    steps.append(DerivationStep(
        "implementation identity on the loop indicators",
        {f"U(chi_[{i}])": " + ".join(f"chi_[{j}] (x) {alpha.text({img: 1})}"
                                     for j, img in sorted(row.items()))
         for i, row in row_images.items()}))
    obligations = {}
    raw: dict[str, IntTerms] = {}
    for k in setup.loop_ids:
        raw[k] = dict.fromkeys((row_images[i][k] for i in setup.loop_ids), 1)
        raw[k][(w,)] = -1
    steps.append(DerivationStep(
        "compare coefficients of each loop indicator in the refinement of 1",
        {f"coeff chi_[{k}]": alpha.text(p) for k, p in sorted(raw.items())}))
    for k, p in raw.items():
        obligations[k] = normal_form({word + (wstar,): c for word, c in p.items()}, rels_w)
    steps.append(DerivationStep(
        "right-multiply by w* and reduce",
        {f"obligation[{k}]": alpha.text(p) for k, p in sorted(obligations.items())}))
    verdicts = {k: normal_form_verdict(p) for k, p in obligations.items()}
    return DerivationReport(setup.n, setup.flavor, steps, obligations, verdicts, rels_w)


@dataclass
class NonIsometryVerdict:
    verdict: str                     # "NotIsometric" or "Inconclusive"
    witnesses: dict[str, Verdict]
    derivation: DerivationReport

    @property
    def not_isometric(self) -> bool:
        return self.verdict == "NotIsometric"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
            "derivation": self.derivation.to_dict(),
        }


def non_isometry_verdict(setup: CuntzSetup, derivation: DerivationReport) -> NonIsometryVerdict:
    """NotIsometric when some obligation of *derivation* is witnessed
    nonzero under a point evaluation of the unitary provider portfolio,
    a concrete representation of the relations."""
    providers = unitary_provider_portfolio(setup.loop_ids, setup.rels)
    witnesses = {}
    found = False
    for k, ob in sorted(derivation.obligations.items()):
        v = witness_nonzero(ob, derivation.rels.alphabet.gens, providers)
        witnesses[k] = v
        found = found or v.witnessed
    return NonIsometryVerdict("NotIsometric" if found else "Inconclusive",
                              witnesses, derivation)


def sn_plus_context(setup: CuntzSetup, n_cap: int) -> VerificationContext:
    """The edge-index verification context of a magic setup, for the
    identity suite of the magic-unitary action on the n-loop graph; the
    Perron vector is the unit, so the weighted sum schema degenerates to
    plain row sums."""
    providers = [loop_permutation_rep(setup.loop_ids, setup.rels)]
    return VerificationContext(setup.graph, setup.pf, setup.rels, EDGE_INDEX,
                               providers, n_cap)
