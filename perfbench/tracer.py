"""Traced in-process run of a workload's CLI invocations.

Usage: ``python3 tracer.py <plan.json> <trace-out.json>``, where the plan
is a JSON list of CLI argument lists.  The package must be importable
(the harness puts the checkout's ``src`` first on ``PYTHONPATH``).

Each layer boundary named below is wrapped from outside the package.
``from .rewrite import is_zero`` leaves a private binding in ``corep``
and ``cuntz``, so a wrapper replaces every module global of the package
that is the original function, not only the defining one.  A SPAN
records (name, start, end, parent span, invocation) in memory; a
COUNTER only counts calls (and, when timed, sums their inclusive time)
because it sits on a path too hot for a span per call, and its time
stays part of the calling span's self time.  Everything is written out
once, when the run ends.  A boundary that no longer exists is an error,
so a rename or a move fails the benchmark instead of reading 0.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

#: span name -> (module, attribute) boundaries; "Class.method" for methods
SPANS = {
    "cli.main": [("cli", "main")],
    "rewrite.is_zero": [("rewrite", "is_zero")],
    "rewrite.tensor_reduce": [("rewrite", "tensor_reduce")],
    "ncpoly.comultiply": [("ncpoly", "comultiply")],
    "corep.welldefined": [("corep", "check_welldefined")],
    "corep.isometry": [("corep", "check_isometry")],
    "corep.isometry_mixed": [("corep", "check_isometry_mixed")],
    "corep.comultiplicative": [("corep", "check_comultiplicative")],
    "corep.density": [("corep", "check_density")],
    "corep.implementation": [("corep", "check_implementation")],
    "corep.kms_invariance": [("corep", "check_kms_invariance")],
    "corep.dirac_commutation": [("corep", "check_dirac_commutation")],
    "providers.norm": [("providers", "RepresentationProvider.norm")],
    "providers.witness_nonzero": [("providers", "witness_nonzero")],
    "providers.classical_rep": [("providers", "classical_rep")],
    "providers.register": [("providers", "register")],
    "hilbert.cuntz_krieger_check": [("hilbert", "cuntz_krieger_check")],
    "hilbert.dirac": [("hilbert", "dirac")],
    "hilbert.embedding_gram_residual": [("hilbert", "embedding_gram_residual")],
    "cuntz.derive_contradiction": [("cuntz", "derive_contradiction")],
    "cuntz.non_isometry_verdict": [("cuntz", "non_isometry_verdict")],
    "graphs.graph_automorphisms": [("graphs", "graph_automorphisms")],
    "perron.perron": [("perron", "perron")],
    "perron.select_convention": [("perron", "select_convention")],
    "relations.build": [("relations", "qaut_relations"), ("relations", "magic_relations"),
                        ("relations", "free_unitary_relations"),
                        ("relations", "with_formal_unitary")],
    "report.to_json": [("report", "SuiteReport.to_json")],
}

#: counter name -> ((module, attribute), timed)
COUNTERS = {
    "rewrite.reduce_word": (("rewrite", "reduce_word"), False),
    "rewrite.normal_form": (("rewrite", "normal_form"), False),
    "graphs.enumerate_paths": (("graphs", "enumerate_paths"), False),
    "hilbert.represent": (("hilbert", "represent"), False),
    "ratmat.rat_matmul": (("ratmat", "rat_matmul"), True),
}

PACKAGE = "qisograph"
PROVED_ZERO = "ProvedZero"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, invocation]
        self.stack: list[int] = []
        self.calls = {name: 0 for name in COUNTERS}
        self.busy = {name: 0.0 for name, (_, timed) in COUNTERS.items() if timed}
        self.proved = 0
        self.invocation = 0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count_proved = name == "rewrite.is_zero"

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.invocation]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count_proved and result.kind == PROVED_ZERO:
                self.proved += 1
            return result
        return wrapper

    def counter(self, name, fn, timed):
        calls = self.calls
        if not timed:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        busy, clock = self.busy, time.perf_counter

        def timed_wrapper(*args, **kwargs):
            calls[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += clock() - start
        return timed_wrapper

    def install(self):
        """Rebind every boundary at every import site in the package."""
        importlib.import_module(f"{PACKAGE}.cli")   # imports every layer
        targets = [(name, site, lambda fn, n=name: self.span(n, fn))
                   for name, sites in SPANS.items() for site in sites]
        targets += [(name, site, lambda fn, n=name, t=timed: self.counter(n, fn, t))
                    for name, (site, timed) in COUNTERS.items()]
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, (module_name, attr), make in targets:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name, None)
            if not callable(original):
                raise SystemExit(f"trace boundary {name}: {module.__name__}.{attr} not found")
            wrapped = make(original)
            if owner_name:
                setattr(owner, fn_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        """Per-name call counts and self times (span minus the part its
        direct children cover), plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        spans = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPANS}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = spans[name]
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child[i]
        return {"spans": spans, "calls": self.calls, "busy_s": self.busy,
                "proved": self.proved}


def main(argv: list[str]) -> int:
    plan_path, out_path = argv
    plan = json.loads(open(plan_path).read())
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    exit_codes = []
    for i, cli_argv in enumerate(plan):
        tracer.invocation = i
        exit_codes.append(cli.main(cli_argv))
    out = tracer.summary()
    out["exit_codes"] = exit_codes
    out["span_log"] = tracer.spans
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
