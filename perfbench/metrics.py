"""Metric declarations, the layer coverage map, and the per-layer metrics
derived from a traced run.

The coverage map says which CLI invocation kinds exercise each traced
boundary.  A workload must see calls on a boundary exactly when one of
its invocations is of a listed kind: a boundary that stays at 0 where
work is predicted (a rename or a move) or fires where none is (for
example ``rewrite.is_zero`` on ``spectral-stress``) fails the run.
"""

from __future__ import annotations

from tracer import COUNTERS, SPANS

#: name -> (unit, better, bound); measured with tracing off
END_TO_END = {
    "verdict_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

VERIFY, CONTROL, CUNTZ, SPECTRAL = "verify", "control", "cuntz", "spectral"
SYMBOLIC = {VERIFY, CONTROL, CUNTZ}
SUITE = {VERIFY, CUNTZ}
ALL = {VERIFY, CONTROL, CUNTZ, SPECTRAL}

#: traced boundary -> invocation kinds that call it
COVERAGE = {
    "cli.main": ALL,
    "rewrite.is_zero": SYMBOLIC,
    "rewrite.reduce_word": SYMBOLIC,
    "rewrite.normal_form": SYMBOLIC,
    "rewrite.tensor_reduce": SUITE,
    "ncpoly.comultiply": SUITE,
    "corep.welldefined": SYMBOLIC,
    "corep.isometry": SUITE,
    "corep.isometry_mixed": SUITE,
    "corep.comultiplicative": SUITE,
    "corep.density": {VERIFY},          # the loop-graph suite has no density identity
    "corep.implementation": SUITE,
    "corep.kms_invariance": SUITE,
    "corep.dirac_commutation": SUITE,
    "providers.norm": SYMBOLIC,
    "providers.witness_nonzero": {CUNTZ},
    "providers.classical_rep": {VERIFY, CONTROL},
    "providers.register": SYMBOLIC,
    "hilbert.cuntz_krieger_check": {SPECTRAL},
    "hilbert.represent": {SPECTRAL},
    "hilbert.dirac": SUITE,
    "hilbert.embedding_gram_residual": SYMBOLIC,
    "ratmat.rat_matmul": ALL,
    "cuntz.derive_contradiction": {CUNTZ},
    "cuntz.non_isometry_verdict": {CUNTZ},
    "graphs.enumerate_paths": ALL,
    "graphs.graph_automorphisms": {VERIFY, CONTROL},
    "perron.perron": ALL,
    "perron.select_convention": {VERIFY, SPECTRAL},   # a forced convention skips it
    "relations.build": SYMBOLIC,
    "report.to_json": ALL,
}


def _per_layer_declarations() -> dict:
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.s"] = ("s", "lower")
    for name, (_, timed) in COUNTERS.items():
        out[f"{name}.calls"] = ("count", "lower")
        if timed:
            out[f"{name}.s"] = ("s", "lower")
    out["rewrite.is_zero.proved_ratio"] = ("ratio", "higher")
    out["corep.self_s"] = ("s", "lower")
    out["cli.traced_s"] = ("s", "lower")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    return out


#: name -> (unit, better); from the traced run
PER_LAYER = _per_layer_declarations()


def per_layer_values(summary: dict, untraced_s: float) -> dict[str, float]:
    """Per-layer metric values from a tracer summary.  A span's ``.s`` is
    its self time; a timed counter's ``.s`` is its inclusive time, which
    is also part of its caller's self time."""
    spans, calls, busy = summary["spans"], summary["calls"], summary["busy_s"]
    out: dict[str, float] = {}
    for name, agg in spans.items():
        out[f"{name}.calls"] = agg["calls"]
        out[f"{name}.s"] = agg["self_s"]
    for name, n in calls.items():
        out[f"{name}.calls"] = n
    for name, seconds in busy.items():
        out[f"{name}.s"] = seconds
    attempts = spans["rewrite.is_zero"]["calls"]
    out["rewrite.is_zero.proved_ratio"] = summary["proved"] / attempts if attempts else 0.0
    out["corep.self_s"] = sum(agg["self_s"] for name, agg in spans.items()
                              if name.startswith("corep."))
    out["cli.traced_s"] = spans["cli.main"]["total_s"]
    out["trace.overhead_ratio"] = out["cli.traced_s"] / untraced_s
    return out


def coverage_problems(values: dict[str, float], kinds: set[str]) -> list[str]:
    """Boundaries whose call count disagrees with the coverage map for a
    workload made of invocations of *kinds*."""
    problems = []
    for name in [*SPANS, *COUNTERS]:
        calls = values[f"{name}.calls"]
        expected = bool(COVERAGE[name] & kinds)
        if expected and calls == 0:
            problems.append(f"coverage: {name} never called")
        elif not expected and calls:
            problems.append(f"coverage: {name} called {calls} times where no work is predicted")
    return problems
