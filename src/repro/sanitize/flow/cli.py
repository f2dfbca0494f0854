"""Analysis driver + command line for ``python -m repro.sanitize.flow``.

``analyze_paths`` / ``analyze_sources`` are the library entry points
(the latter takes ``(virtual_path, source)`` pairs so the mutation
tests can analyze snippets under synthetic tree positions);
:func:`main` wraps them with baseline handling and the three output
formats.  Each file is parsed once per run.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.sanitize.callgraph import CallGraph, SourceModule, parse_source
from repro.sanitize.flow.baseline import (
    BaselineError,
    apply_baseline,
    empty_baseline,
    load_baseline,
)
from repro.sanitize.flow.engine import compute_summaries
from repro.sanitize.flow.findings import (
    FlowFinding,
    FlowReport,
    sort_findings,
)
from repro.sanitize.flow.rules import run_rules
from repro.sanitize.flow.sarif import render_sarif


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files-or-directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def _parse_failure(mod: SourceModule) -> FlowFinding:
    """The E001 finding for a module that did not parse."""
    exc = mod.error
    return FlowFinding(
        code="E001", path=mod.path, line=exc.lineno or 1,
        col=(exc.offset or 0) + 1, function=mod.module or mod.path,
        message=f"unparseable source: {exc.msg}",
    )


def analyze_modules(modules: Sequence[SourceModule]) -> FlowReport:
    """Build the graph, run the fixpoint, run every rule; a module
    that did not parse is an E001 finding."""
    graph = CallGraph.build(modules)
    summaries = compute_summaries(graph)
    findings = [_parse_failure(m) for m in modules if not m.ok]
    findings = sort_findings(findings + run_rules(graph, summaries))
    return FlowReport(
        findings=findings,
        files=len([m for m in modules if m.ok]),
        functions=len(graph.functions),
        call_edges=sum(len(s) for s in graph.calls.values()),
    )


def analyze_paths(paths: Sequence[str]) -> FlowReport:
    """Analyze every Python file under *paths*."""
    return analyze_modules([
        parse_source(f.read_text(encoding="utf-8"), str(f))
        for f in iter_python_files(paths)
    ])


def analyze_sources(
    pairs: Sequence[Tuple[str, str]],
) -> FlowReport:
    """Analyze in-memory ``(virtual_path, source)`` pairs — the
    mutation-test entry point (a vendored WAL snippet under
    ``src/repro/resilience/mod.py`` is scoped exactly like the real
    one)."""
    modules = [parse_source(source, path) for path, source in pairs]
    return analyze_modules(modules)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; exit 1 on new (unbaselined) findings or a
    malformed baseline, 0 on a clean run."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitize.flow",
        description="Static analyzer (lexical rules R001-R006, "
                    "interprocedural rules F101-F104; see "
                    "docs/SANITIZER.md)",
    )
    parser.add_argument("paths", nargs="+",
                        help="files or directories to analyze")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", dest="fmt",
                        help="output format (json and sarif are stable "
                             "for tooling)")
    parser.add_argument("--output", default=None,
                        help="write the report here instead of stdout")
    parser.add_argument("--baseline", default=None,
                        help="suppression baseline JSON (every entry "
                             "needs a justification); findings it covers "
                             "do not gate")
    opts = parser.parse_args(argv)
    try:
        baseline = (load_baseline(opts.baseline)
                    if opts.baseline else empty_baseline())
    except (OSError, BaselineError) as exc:
        print(f"sanitize-flow: baseline error: {exc}", file=sys.stderr)
        return 1
    report = analyze_paths(opts.paths)
    new, suppressed, stale = apply_baseline(report.findings, baseline)
    report.findings = new
    report.suppressed = suppressed
    report.stale_suppressions = stale
    if opts.fmt == "json":
        rendered = report.to_json()
    elif opts.fmt == "sarif":
        rendered = render_sarif(report)
    else:
        rendered = report.render_text()
    if opts.output:
        Path(opts.output).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return 0 if report.ok else 1
