"""Machine-readable check records and suite reports.

Reports are reproducible byte-for-byte for a fixed configuration except
for wall times, which live under keys the golden-file comparison
strips.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

SCHEMA_VERSION = 1
TOOL_NAME = "qisograph"


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class CheckResult:
    name: str
    inputs: dict
    passed: bool
    verdict: str
    residuals: dict = field(default_factory=dict)
    reductions: int = 0
    trace_digest: str = ""
    wall_ms: float = 0.0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "inputs": _jsonable(self.inputs),
            "passed": self.passed,
            "verdict": self.verdict,
            "residuals": _jsonable(self.residuals),
            "reductions": self.reductions,
            "trace_digest": self.trace_digest,
            "wall_ms": round(self.wall_ms, 3),
            "detail": _jsonable(self.detail),
        }


@dataclass
class SuiteReport:
    command: str
    version: str
    graph_name: str
    graph_digest: str
    convention: str | None
    config: dict
    checks: list[CheckResult]
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": self.version},
            "command": self.command,
            "graph": {"name": self.graph_name, "digest": self.graph_digest},
            "convention": self.convention,
            "config": _jsonable(self.config),
            "checks": [c.to_dict() for c in self.checks],
            "notes": _jsonable(self.notes),
            "overall": "pass" if self.passed else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def strip_wall_times(report_dict: dict) -> dict:
    """Copy of a report dict with wall-time keys removed, for golden
    comparisons."""
    out = json.loads(json.dumps(report_dict))
    for check in out.get("checks", []):
        check.pop("wall_ms", None)
    return out


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
