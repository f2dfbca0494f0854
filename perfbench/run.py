#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-durable --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The program under test is the
``repro`` package in ``src/``; the workloads are in
``perfbench/workloads.py``.  ``--trace 0`` prints the end-to-end
metrics ``BENCHMARK.json`` bounds, ``--trace 1`` its per-layer metrics
from a traced run.

Every run is gated: the final BC must pass ``DynamicBC.verify()``, a
served run's watermark must equal its acknowledged writes, and on the
seed and length ``perfbench/golden.json`` records, the left-folded
simulated seconds and per-source case counts must equal the recorded
values bit for bit.  A failed gate prints the failures on stderr, no
metrics, and exits 1.

The last stdout line is the result object; the line before it carries
the detail (host fingerprint, input properties, sample counts, every
measured end-to-end metric with its unit, the traced run's time
attribution and tracing overhead).  Both are also written under
``.perfbench-out/`` (results, and the spans of traced runs).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
GOLDEN = os.path.join(HERE, "golden.json")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _golden_errors(workload, seed, seconds, outcome) -> list:
    """Compare the gate values with golden.json's record, when it
    holds one for this workload, seed and run length."""
    record = _load_json(GOLDEN).get(workload)
    if record is None or record["seed"] != seed or record["seconds"] != seconds:
        return []
    errors = []
    got = float.hex(outcome.simulated_seconds)
    if got != record["simulated_seconds"]:
        errors.append(f"simulated seconds {got} != golden "
                      f"{record['simulated_seconds']}")
    cases = outcome.inputs["source_updates"]
    if cases != record["source_updates"]:
        errors.append(f"per-source cases {cases} != golden "
                      f"{record['source_updates']}")
    return errors


def _record_golden(workload, seed, seconds, outcome) -> None:
    golden = _load_json(GOLDEN) if os.path.exists(GOLDEN) else {}
    golden[workload] = {
        "seed": seed, "seconds": seconds,
        "simulated_seconds": float.hex(outcome.simulated_seconds),
        "source_updates": outcome.inputs["source_updates"],
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_attribution(attribution, wall) -> None:
    for thread, row in attribution.items():
        print(f"time attribution, thread {thread} "
              f"(self seconds; sum = wall {wall:.3f}):", file=sys.stderr)
        for name, seconds in sorted(row.items(), key=lambda kv: -kv[1]):
            print(f"  {name:24s} {seconds:10.4f}  {seconds / wall:6.1%}",
                  file=sys.stderr)


def main(argv=None) -> int:
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="write this run's gate values to golden.json")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import host
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    scratch = os.path.join(OUT, "tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        fingerprint = host.fingerprint(scratch)
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    errors = list(outcome.errors)
    if args.record_golden:
        _record_golden(args.workload, args.seed, args.seconds, outcome)
    else:
        errors += _golden_errors(args.workload, args.seed, args.seconds,
                                 outcome)
    if errors:
        for error in errors:
            print(f"perfbench: gate failed: {error}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}"
    measured = dict(outcome.metrics, error_rate=(
        (outcome.failed + outcome.rejected) / outcome.attempted))
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint, "inputs": outcome.inputs,
        "samples": outcome.samples,
        "failed": outcome.failed, "rejected": outcome.rejected,
        "simulated_seconds": outcome.simulated_seconds,
        "end_to_end": {name: {"value": value,
                              "unit": workloads.E2E_UNITS[name]}
                       for name, value in measured.items()},
        "extra": outcome.extra,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    if args.trace:
        detail["attribution"] = outcome.attribution
        untraced = os.path.join(OUT, "results", f"{tag}-trace0.json")
        if os.path.exists(untraced):
            base = _load_json(untraced)["end_to_end"]
            detail["tracing_overhead"] = {
                name: value - base[name]["value"]
                for name, value in measured.items()
            }
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.dump(os.path.join(OUT, "traces", f"{tag}.tsv"))
        _print_attribution(outcome.attribution, outcome.extra["traced_wall_s"])
    with open(os.path.join(OUT, "results", f"{tag}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(dict(detail, metrics=metrics), fh, indent=1)
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed + outcome.rejected,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
