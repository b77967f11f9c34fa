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
from json.encoder import encode_basestring_ascii

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
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)`` and a
        newline, written by ``_write_json``: with an indent the standard
        library leaves its C encoder for a pure-Python one."""
        out: list[str] = []
        _write_json(self.to_dict(), "\n", out)
        out.append("\n")
        return "".join(out)


_INF = float("inf")


def _write_json(value, newline: str, out: list[str]):
    """Append *value*'s text, as ``json.dumps(indent=2, sort_keys=True)``
    writes it, to *out*; *newline* is a newline and the current
    indentation.  Every report's keys are strings.  bool is tested
    before int, which it subclasses."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value) if -_INF < value < _INF else
                   "NaN" if value != value else "Infinity" if value > 0 else "-Infinity")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def strip_wall_times(report_dict: dict) -> dict:
    """Copy of a report dict with wall-time keys removed, for golden
    comparisons."""
    out = json.loads(json.dumps(report_dict))
    for check in out.get("checks", []):
        check.pop("wall_ms", None)
    return out


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]
