"""SARIF 2.1.0 output for the static analyzer.

SARIF (Static Analysis Results Interchange Format) is what code-review
UIs ingest — GitHub code scanning renders each result inline on the
PR diff.  This emits the minimal conforming document: one run, one
``tool.driver`` with the rule catalog, one ``result`` per finding
with a physical location and the call-path evidence folded into the
message.  Suppression is handled *before* SARIF generation (the
baseline filters findings), so every result here is actionable.
"""

from __future__ import annotations

import json

from repro.sanitize.flow.findings import FLOW_RULES, FlowReport

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def to_sarif(report: FlowReport) -> dict:
    """The report as a SARIF 2.1.0 ``dict`` (stable key order)."""
    rules = [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": summary},
            "help": {"text": hint},
            "defaultConfiguration": {"level": "error"},
        }
        for code, (summary, hint) in sorted(FLOW_RULES.items())
    ]
    results = []
    for finding in report.findings:
        text = finding.message
        if finding.trace:
            text += " | path: " + " -> ".join(finding.trace)
        results.append({
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": text},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col,
                    },
                },
                "logicalLocations": [{
                    "fullyQualifiedName": finding.function,
                }],
            }],
            "partialFingerprints": {
                "repro/flow/v1": finding.fingerprint,
            },
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-sanitize-flow",
                    "informationUri":
                        "docs/SANITIZER.md#layer-2-the-static-analyzer",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }


def render_sarif(report: FlowReport) -> str:
    """Pretty-printed SARIF JSON for *report*."""
    return json.dumps(to_sarif(report), indent=2)
