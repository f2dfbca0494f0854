"""Suppression baseline for the flow analyzer.

The baseline is a checked-in JSON file listing findings the team has
*explicitly accepted*, by fingerprint (which is line-number-independent
— see :class:`~repro.sanitize.flow.findings.FlowFinding.fingerprint`).
The CI gate fails on any finding not in the baseline, and **every
suppression must carry a non-empty justification** — an entry without
one fails validation, so "just baseline it" always leaves a reviewable
sentence behind.  The shipped baseline is empty: the analyzer runs
clean on the tree because PR 10 fixed everything it surfaced.

Schema::

    {
      "version": 1,
      "suppressions": [
        {
          "fingerprint": "0123abcd...",
          "code": "F101",               # optional, documentation
          "path": "src/...",            # optional, documentation
          "justification": "why this is acceptable, reviewed by ..."
        }
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.sanitize.flow.findings import FlowFinding

BASELINE_VERSION = 1
#: conventional location, used by `make lint` and CI
DEFAULT_BASELINE = ".flow-baseline.json"


class BaselineError(ValueError):
    """The baseline file is malformed or a suppression lacks its
    justification."""


def empty_baseline() -> dict:
    """A valid baseline that suppresses nothing (the checked-in goal)."""
    return {"version": BASELINE_VERSION, "suppressions": []}


def load_baseline(path) -> dict:
    """Load and validate a baseline file.  Raises
    :class:`BaselineError` on schema violations — most importantly a
    suppression with a missing/empty ``justification``."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("version") != BASELINE_VERSION:
        raise BaselineError(
            f"{path}: expected a baseline document with version "
            f"{BASELINE_VERSION}"
        )
    entries = doc.get("suppressions")
    if not isinstance(entries, list):
        raise BaselineError(f"{path}: 'suppressions' must be a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BaselineError(f"{path}: suppression #{i} is not an object")
        fp = entry.get("fingerprint")
        if not isinstance(fp, str) or not fp.strip():
            raise BaselineError(
                f"{path}: suppression #{i} has no fingerprint"
            )
        just = entry.get("justification")
        if not isinstance(just, str) or not just.strip():
            raise BaselineError(
                f"{path}: suppression {fp!r} has no justification — "
                f"every accepted finding needs a reviewed sentence "
                f"explaining why it is acceptable"
            )
    return doc


def apply_baseline(
    findings: Sequence[FlowFinding], baseline: dict,
) -> Tuple[List[FlowFinding], List[FlowFinding], List[str]]:
    """Split *findings* against *baseline*.

    Returns ``(new, suppressed, stale)``: findings not covered (these
    gate), findings matched by a suppression, and fingerprints in the
    baseline that matched nothing (candidates for removal — surfaced
    as warnings so the baseline only ever shrinks back to empty).
    """
    by_fp: Dict[str, dict] = {
        entry["fingerprint"]: entry
        for entry in baseline.get("suppressions", [])
    }
    new: List[FlowFinding] = []
    suppressed: List[FlowFinding] = []
    seen = set()
    for finding in findings:
        if finding.fingerprint in by_fp:
            suppressed.append(finding)
            seen.add(finding.fingerprint)
        else:
            new.append(finding)
    stale = sorted(set(by_fp) - seen)
    return new, suppressed, stale
