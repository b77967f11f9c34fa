"""Golden CLI runs: the stripped report, stdout and exit code of a few
fixed invocations, and every check's verdict, reduction count and trace
digest where a trace golden exists.

``golden/trace_digests.json`` was recorded from the Generator-word zero
search, before the search moved to an interned integer alphabet.  The
digest hashes the ordered rule and collapse tags of each check, so any
change in search order, candidate order or collapse choice shows up
here even when the verdict stays the same.

``golden/report_digests.json`` holds, per case, the sha256 of the
report with its wall times stripped (``json.dumps`` with
``sort_keys``) and of stdout.  A refactor that must keep reports
byte-identical is checked by this file; a deliberate report change
re-records it.  Each case runs the CLI once per session
(``golden_run``), for both checks here and for ``test_report``'s check
of the report file's text.  A case whose graph file is not bundled runs
on the text ``WRITTEN`` holds for it (the benchmark's, or a test
graph's), written next to the report.
"""

import functools
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from oracles import UCYCLE8, UNEQUAL4_TEXT
from qisograph.cli import main
from qisograph.report import strip_wall_times

HERE = Path(__file__).resolve().parent
GRAPHS = HERE.parent / "graphs"
GOLDEN = json.loads((HERE / "golden" / "trace_digests.json").read_text())
REPORTS = json.loads((HERE / "golden" / "report_digests.json").read_text())


def _benchmark_graph_texts() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location(
        "golden_workloads", HERE.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads      # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return {"loops4.g": workloads.LOOPS4_TEXT, "k4.g": workloads.K4_TEXT}


#: a strongly connected graph whose spectral radius is the plastic number
#: 1.3247..., so its Perron data are floats; it is not bundled because
#: many tests take every bundled graph to have an integer radius
PLASTIC_TEXT = ("graph plastic\nv 1\nv 2\nv 3\n"
                "e p12 2 1\ne p21 1 2\ne p23 3 2\ne p31 1 3\n")

#: graph file name -> text, for the cases on graphs that are not bundled
WRITTEN = {**_benchmark_graph_texts(), "plastic.g": PLASTIC_TEXT, "unequal4.g": UNEQUAL4_TEXT,
           "ucycle8.g": UCYCLE8}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(argv, tmp_path) -> tuple[int, dict, str]:
    """Exit code, report dict and stdout of one CLI run; *argv* names
    its graph file relative to the bundled graphs directory, or one of
    ``WRITTEN``."""
    cmd, graph, *rest = argv
    path = GRAPHS / graph
    if graph in WRITTEN:
        path = tmp_path / graph
        path.write_text(WRITTEN[graph])
    out = tmp_path / "report.json"
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        rc = main([cmd, "--graph", str(path), *rest, "--out", str(out)])
    return rc, json.loads(out.read_text()), stdout.getvalue()


@functools.cache
def golden_run(case: str) -> tuple[int, str, str]:
    """Exit code, report file text and stdout of the golden case *case*,
    run once in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        rc, _, stdout = run_case(REPORTS[case]["argv"], Path(tmp))
        return rc, (Path(tmp) / "report.json").read_text(), stdout


def report_digests(rc: int, report: dict, stdout: str) -> dict:
    text = json.dumps(strip_wall_times(report), indent=2, sort_keys=True)
    return {"exit_code": rc, "report_sha256": sha256(text), "stdout_sha256": sha256(stdout)}


def test_every_trace_golden_has_a_report_golden():
    for case, expected in GOLDEN.items():
        assert REPORTS[case]["argv"] == expected["argv"]
        assert REPORTS[case]["exit_code"] == expected["exit_code"]


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_trace_digests_match_golden(case):
    expected = REPORTS[case]
    rc, text, stdout = golden_run(case)
    report = json.loads(text)
    assert report_digests(rc, report, stdout) == {k: v for k, v in expected.items()
                                                  if k != "argv"}
    if case in GOLDEN:
        checks = [[c["name"], c["inputs"], c["verdict"], c["reductions"], c["trace_digest"]]
                  for c in report["checks"]]
        assert checks == GOLDEN[case]["checks"]
