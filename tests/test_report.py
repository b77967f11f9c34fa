"""The report writer: ``SuiteReport.to_json`` writes the bytes of
``json.dumps(indent=2, sort_keys=True)`` and a newline."""

import json

import pytest

from qisograph.report import SuiteReport
from test_golden import REPORTS, run_case


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_file_is_the_json_dumps_text(case, tmp_path):
    """Every golden case's report file is json.dumps of its own data;
    floats round-trip through ``json.loads`` exactly."""
    run_case(REPORTS[case]["argv"], tmp_path)
    text = (tmp_path / "report.json").read_text()
    assert text == _dumps(json.loads(text))


@pytest.mark.parametrize("config", [
    {},
    {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "none": None},
    {"empty": {"dict": {}, "list": [], "tuple": ()}, "nested": [[], [{}], [[1, [2.5]]]]},
    {"text": "nïve ☃ \U0001f600 \"quoted\" back\\slash \t\n\x00 \x7f", "é": "key"},
    {"bools": [True, False, 1, 0, -7, 10 ** 30], "floats": [0.1, -0.0, 1e-300, 2.5e16, 1e22]},
])
def test_writer_matches_json_dumps(config):
    report = SuiteReport("verify", "0", "gé", "d", None, config, [], notes=[config])
    assert report.to_json() == _dumps(report.to_dict())
