"""The known-answer gate: the verdicts the paper predicts for each CLI
invocation, written down here and never taken from a run of the program.

* ``verify`` (auto convention): exit 0, and every check of the identity
  suite is passed with ``ProvedZero``.
* ``verify --convention range-prepend`` (the negative control): exit 1,
  and each ``welldefined`` check is ``Unknown`` with a numeric residual
  above 1e-3 and a positive embedding Gram residual.
* ``cuntz``: exit 0; the free-unitary ``non-isometry`` check is
  ``NotIsometric`` with every witness residual at least 0.4, and every
  check of the magic-unitary suite is passed with ``ProvedZero``.
* ``spectral``: exit 0, every check passes, and the Cuntz-Krieger
  relations hold exactly.

The suite layout (which identities, at which levels, how many of each)
follows from the graph's vertex, edge and path counts, so a check that
silently disappears also trips the gate.  Path labels are left out of
the comparison: they depend on the seed's relabelling.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction

from workloads import CONTROL_CONVENTION as RANGE_PREPEND, GraphText, Invocation

SOURCE_APPEND = "source-append"
PROVED_ZERO = "ProvedZero"
#: input keys that carry path labels
LABEL_KEYS = ("lam", "eta", "mu")
WITNESS_FLOOR = 0.4
CONTROL_NUMERIC_FLOOR = 1e-3


def check_key(name: str, inputs: dict) -> str:
    """A check's identity with its path labels left out."""
    kept = {k: v for k, v in inputs.items() if k not in LABEL_KEYS}
    return json.dumps([name, kept], sort_keys=True)


def suite_layout(g: GraphText, density: bool) -> Counter:
    """Expected check keys of the identity suite at levels l < k <= 2
    and truncation level 3, the CLI's defaults."""
    v, e, p2 = len(g.vertices), len(g.edges), g.n_paths2
    out = Counter()
    for l, k in ((0, 1), (0, 2), (1, 2)):
        out[check_key("welldefined", {"l": l, "k": k, "convention": SOURCE_APPEND})] += 1
    for k in range(3):
        out[check_key("isometry", {"k": k})] += 1
        out[check_key("comultiplicative", {"k": k})] += 1
    out[check_key("isometry-mixed", {})] += 2
    if density:
        out[check_key("density", {})] += e + p2
    # the four cases of the starred implementation identity over all
    # pairs of degree-1 and degree-2 paths
    cases = {
        "extends": e + 2 * p2,
        "incompatible-long": (e * e - e) + (p2 * p2 - p2) + (p2 * e - p2),
        "prefix": p2,
        "incompatible-short": e * p2 - p2,
    }
    for case, n in cases.items():
        if n:
            out[check_key("implementation", {"case": case})] += n
    out[check_key("kms-invariance", {})] += v + e * e + p2 + 2
    out[check_key("dirac-commutation", {"n_cap": 3, "negative_control": False})] += 1
    return out


def _keys(checks) -> Counter:
    return Counter(check_key(c["name"], c["inputs"]) for c in checks)


def _layout_problems(checks, expected: Counter) -> list[str]:
    got = _keys(checks)
    if got == expected:
        return []
    missing = expected - got
    extra = got - expected
    return [f"suite layout differs: missing {dict(missing)}, unexpected {dict(extra)}"]


def _all_proved(checks) -> list[str]:
    return [f"{check_key(c['name'], c['inputs'])}: passed={c['passed']} verdict={c['verdict']}"
            for c in checks if not (c["passed"] and c["verdict"] == PROVED_ZERO)]


def _verify(report: dict, g: GraphText) -> list[str]:
    problems = []
    if report.get("convention") != SOURCE_APPEND:
        problems.append(f"convention {report.get('convention')!r}, expected {SOURCE_APPEND}")
    checks = report["checks"]
    return problems + _layout_problems(checks, suite_layout(g, density=True)) + _all_proved(checks)


def _control(report: dict, g: GraphText) -> list[str]:
    checks = report["checks"]
    expected = Counter(check_key("welldefined", {"l": l, "k": k, "convention": RANGE_PREPEND})
                       for l, k in ((0, 1), (0, 2), (1, 2)))
    problems = _layout_problems(checks, expected)
    for c in checks:
        res = c["residuals"]
        if c["passed"] or c["verdict"] != "Unknown":
            problems.append(f"control {c['inputs']}: passed={c['passed']} verdict={c['verdict']}")
        if not float(res.get("numeric", 0)) > CONTROL_NUMERIC_FLOOR:
            problems.append(f"control {c['inputs']}: numeric residual {res.get('numeric')}")
        if not Fraction(str(res.get("embedding_gram", 0))) > 0:
            problems.append(f"control {c['inputs']}: embedding_gram {res.get('embedding_gram')}")
    return problems


_RESIDUAL = re.compile(r"residual=([0-9.eE+-]+)")


def _cuntz(report: dict, g: GraphText) -> list[str]:
    n = len(g.edges)
    checks = report["checks"]
    head = {c["name"]: c for c in checks[:2]}
    problems = []
    ni = head.get("non-isometry")
    if ni is None or ni["inputs"] != {"n": n, "flavor": "free-unitary"}:
        problems.append("first check is not the free-unitary non-isometry verdict")
    else:
        if not ni["passed"] or ni["verdict"] != "NotIsometric":
            problems.append(f"non-isometry: passed={ni['passed']} verdict={ni['verdict']}")
        witnesses = ni["detail"].get("witnesses", {})
        if len(witnesses) != n:
            problems.append(f"non-isometry: {len(witnesses)} witnesses for {n} loops")
        for loop, text in witnesses.items():
            m = _RESIDUAL.search(text)
            if not text.startswith("WitnessedNonzero") or not m \
                    or float(m.group(1)) < WITNESS_FLOOR:
                problems.append(f"non-isometry witness {loop}: {text}")
    dc = head.get("derivation-collapses")
    if dc is None or dc["inputs"] != {"n": n, "flavor": "magic"}:
        problems.append("second check is not the magic derivation collapse")
    suite = checks[2:]
    return (problems + _all_proved(checks[1:2])
            + _layout_problems(suite, suite_layout(g, density=False))
            + _all_proved(suite))


def _spectral(report: dict, g: GraphText) -> list[str]:
    checks = {c["name"]: c for c in report["checks"]}
    problems = [f"{name}: not passed" for name, c in checks.items() if not c["passed"]]
    ck = checks.get("cuntz-krieger")
    if ck is None:
        problems.append("no cuntz-krieger check")
    elif any(Fraction(str(v)) != 0 for v in ck["residuals"].values()):
        problems.append(f"cuntz-krieger residuals {ck['residuals']}")
    return problems


def expected_exit(inv: Invocation) -> int:
    return 1 if inv.kind == "control" else 0


def check_invocation(inv: Invocation, g: GraphText, exit_code: int,
                     report: dict | None) -> list[str]:
    """Every way the invocation's outcome differs from the known answer;
    an empty list means it matches."""
    want = expected_exit(inv)
    problems = [] if exit_code == want else [f"exit code {exit_code}, expected {want}"]
    if report is None:
        return problems + ["no report written"]
    judge = {"verify": _verify, "control": _control, "cuntz": _cuntz,
             "spectral": _spectral}[inv.kind]
    try:
        return problems + judge(report, g)
    except (KeyError, TypeError, ValueError) as exc:
        return problems + [f"report does not have the expected shape: {exc!r}"]
