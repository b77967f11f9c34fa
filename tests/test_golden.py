"""Golden trace digests: every check's verdict, reduction count and
trace digest for a few fixed CLI invocations.

``golden/trace_digests.json`` was recorded from the Generator-word zero
search, before the search moved to an interned integer alphabet.  The
digest hashes the ordered rule and collapse tags of each check, so any
change in search order, candidate order or collapse choice shows up
here even when the verdict stays the same.
"""

import json
from pathlib import Path

import pytest

from qisograph.cli import main

HERE = Path(__file__).resolve().parent
GRAPHS = HERE.parent / "graphs"
GOLDEN = json.loads((HERE / "golden" / "trace_digests.json").read_text())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_digests_match_golden(case, tmp_path):
    expected = GOLDEN[case]
    cmd, graph, *rest = expected["argv"]
    out = tmp_path / "report.json"
    rc = main([cmd, "--graph", str(GRAPHS / graph), *rest, "--out", str(out)])
    assert rc == expected["exit_code"]
    checks = [[c["name"], c["inputs"], c["verdict"], c["reductions"], c["trace_digest"]]
              for c in json.loads(out.read_text())["checks"]]
    assert checks == expected["checks"]
