"""SARIF results stay unweighted: one error level, no properties block,
byte-identical when the same findings are rendered again."""

import json

from repro.lint.core import Finding
from repro.lint.formats import render_sarif


def _finding(rule, family, line, path="src/x.py"):
    return Finding(rule=rule, family=family, path=path, line=line, col=0,
                   message=f"{rule} seeded")


def test_sarif_output_is_byte_stable():
    findings = [
        _finding("SL101", "yield-from", 1),
        _finding("SL201", "nondet", 2),
        _finding("SL301", "units", 3),
        _finding("SL601", "helper-flow", 4),
        _finding("SL801", "schedule-race", 5),
    ]
    assert render_sarif(findings) == render_sarif(list(findings))


def test_unweighted_sarif_keeps_error_level():
    doc = json.loads(render_sarif([_finding("SL801", "schedule-race", 2)]))
    result = doc["runs"][0]["results"][0]
    assert result["level"] == "error"
    assert "properties" not in result
