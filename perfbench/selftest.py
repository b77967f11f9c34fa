"""Fast self-test of the benchmark harness.

Usage (from the root of a checkout): ``python3 perfbench/selftest.py``.
It runs the harness on a small workload (``verify`` on three_cycle and
``cuntz`` on cuntz2, a relabelled seed) with tracing off and on, and
checks that

* every metric declared in ``BENCHMARK.json`` is reported, and printed
  with its unit, and no other metric is;
* the known answers hold and the traced run's coverage check passes;
* the known-answer gate trips when it is handed a wrong expected verdict.

Exit code 0 means every check held.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import answers
import run
from workloads import SMOKE

SEED = 7


def declared(kind: str) -> dict[str, str]:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def measured(trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        result = run.measure(SMOKE, SEED, 0.0, trace)
    return result, out.getvalue()


def problems_with(result: dict, printed: str, want: dict[str, str]) -> list[str]:
    problems = []
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(got)} with units differ from {sorted(want)}")
    for name, unit in want.items():
        if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in printed.splitlines()):
            problems.append(f"{name} is not printed with its unit {unit}")
    if not result["correct"] or result["failed"]:
        problems.append(f"correct={result['correct']} failed={result['failed']}:\n{printed}")
    return problems


def main() -> int:
    if not (run.SRC / "qisograph" / "cli.py").is_file():
        print(f"error: no qisograph sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    problems = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, printed = measured(trace)
        problems += problems_with(result, printed, declared(kind))

    # a deliberately wrong known answer: the gate must count every
    # invocation that reports a ProvedZero check as failed
    right = answers.PROVED_ZERO
    answers.PROVED_ZERO = "WitnessedNonzero"
    try:
        result, _ = measured(0)
    finally:
        answers.PROVED_ZERO = right
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append(f"gate did not trip on a wrong expected verdict: {result}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
