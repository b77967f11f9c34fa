"""Acceptance gate: one test per criterion, each printing a pass/fail
line and enforcing its runtime bound.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time
from contextlib import contextmanager
import pytest

from qisograph.corep import run_identity_suite, check_welldefined
from qisograph.cuntz import (
    FREE_UNITARY, MAGIC, cuntz_setup, derive_contradiction, non_isometry_verdict, sn_plus_context,
)
from qisograph.graphs import RANGE_PREPEND, SOURCE_APPEND, enumerate_paths
from qisograph.hilbert import (
    cuntz_krieger_check, dirac, multiplicities, path_counts, theta_partial_sums,
)
from qisograph.perron import additivity_residual, cylinder_measure, select_convention
from qisograph.verdict import UNKNOWN
from oracles import theta_dominating_terms, xi_hat_ranks

MEASURE_GRAPHS = ("three-cycle", "k3", "asym4", "cuntz2", "cuntz3")


@contextmanager
def criterion(number: int, name: str, seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s < {seconds:g}s]")
    assert elapsed < seconds, f"criterion {number} exceeded its runtime bound"


def test_criterion_1_measure_correctness(graphs, perron_data):
    with criterion(1, "measure correctness", 1.0):
        for name in MEASURE_GRAPHS:
            g, pf = graphs[name], perron_data[name]
            side, _ = select_convention(pf, g)
            assert side == SOURCE_APPEND
            assert pf.exact, name
            rho, x = pf.rho, pf.x
            for d in range(6):
                for lam in enumerate_paths(g, d):
                    value = cylinder_measure(pf, lam)
                    assert value == rho ** (-d) * x[lam.source]
                    assert 0 < value <= 1
                    for n in range(1, 4):
                        assert additivity_residual(pf, g, lam, n, side) == 0


def test_criterion_2_basis_dimensions(graphs, perron_data):
    with criterion(2, "basis and dimensions", 5.0):
        for name in MEASURE_GRAPHS:
            g, pf = graphs[name], perron_data[name]
            m = len(g.edges)
            counts = path_counts(g, 6)
            for k in range(7):
                brute = len(enumerate_paths(g, k))
                assert counts[k] == brute
                if k >= 1:
                    assert brute <= m ** k
            mults = multiplicities(g, 6)
            assert mults[0] == len(g.vertices) - 1
            assert mults[1:] == [counts[q] - counts[q - 1] for q in range(1, 7)]
            tri = dirac(g, pf, 3)
            assert xi_hat_ranks(tri) == mults[:4]


def test_criterion_3_cuntz_krieger(graphs, perron_data):
    with criterion(3, "Cuntz-Krieger relations", 10.0):
        for name in MEASURE_GRAPHS:
            report = cuntz_krieger_check(graphs[name], perron_data[name], 4)
            assert report.exact, name


def test_criterion_4_theta_summability(graphs):
    with criterion(4, "theta-summability numerics", 1.0):
        mults = multiplicities(graphs["k3"], 20)
        for t in (0.5, 1.0, 2.0):
            values = theta_partial_sums(mults, t, 0.25, 20)
            assert all(b >= a for a, b in zip(values, values[1:]))
            assert values[20] - values[19] < 1e-9
            # pointwise domination for q >= 1 (n_0 = |V|-1 exceeds m^0)
            dom = theta_dominating_terms(6, t, 0.25, 20)
            for q in range(1, 21):
                assert math.exp(-t * q ** 1.5) * mults[q] <= dom[q - 1] + 1e-15


def test_criterion_5_identity_suite(contexts):
    with criterion(5, "main-theorem identity suite", 300.0):
        for name in ("three-cycle", "k3"):
            results = run_identity_suite(contexts[name], k_max=2)
            for r in results:
                assert r.passed, (name, r.name, r.inputs, r.verdict, r.residuals)
                numeric = r.residuals.get("numeric")
                if numeric is not None:
                    assert numeric == 0.0
                if r.name == "dirac-commutation":
                    assert r.residuals["commutator"] == 0.0


def test_criterion_6_convention_negative_control(contexts):
    with criterion(6, "refinement-convention negative control", 30.0):
        ctx = contexts["asym4"]
        for l, k in ((0, 1), (0, 2), (1, 2)):
            res = check_welldefined(ctx, l, k, convention=RANGE_PREPEND)
            assert not res.passed
            assert res.verdict == UNKNOWN
            assert res.residuals["numeric"] > 1e-3
            assert res.residuals["embedding_gram"] > 0
            good = check_welldefined(ctx, l, k)
            assert good.passed


def test_criterion_7_cuntz_contrast(graphs):
    with criterion(7, "Cuntz contrast", 30.0):
        for n in (2, 3):
            setup = cuntz_setup(graphs[f"cuntz{n}"], FREE_UNITARY)
            derivation = derive_contradiction(setup)
            assert set(derivation.obligations) == set(setup.loop_ids)
            for ob in derivation.obligations.values():
                assert ob.get(()) == -1 and len(ob) == n + 1
            verdict = non_isometry_verdict(setup, derivation=derivation)
            assert verdict.not_isometric
            assert any(v.residual >= 0.4 for v in verdict.witnesses.values())
            assert all(v.residual >= 0.4 for v in verdict.witnesses.values() if v.witnessed)
            results = run_identity_suite(
                sn_plus_context(cuntz_setup(graphs[f"cuntz{n}"], MAGIC), 3), k_max=2)
            assert all(r.passed for r in results)


def test_criterion_8_engine_soundness(graphs, perron_data):
    with criterion(8, "engine soundness", 60.0):
        from soundness import run_soundness_battery
        run_soundness_battery(graphs, perron_data)
