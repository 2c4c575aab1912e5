"""Smoke-sized self-check of the pipeline benchmark.

Usage (from the root of a checkout)::

    python3 pipeline_bench/selfcheck.py

Runs every workload at smoke size (small workloads, one-second windows),
untraced and traced, and checks that:

* ``BENCHMARK.json`` names exactly the workloads and metrics (with the
  same units) that ``run.py`` emits;
* every named metric appears in the output, and the traced run passes
  its parity check;
* every workload reports ``failed == 0`` on honest expectations, and a
  deliberately wrong expected answer raises its error rate.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import benchlib
import run as bench


def smoke_overrides(workload: str) -> dict:
    from trace_workloads import TraceSpec

    if workload == "serve_mixed":
        return {"preload": (TraceSpec("histogram", 4, "small"), TraceSpec("canneal", 2, "small"))}
    return {"trace_spec": TraceSpec("histogram", 4, "small")}


def check_manifest(problems: list) -> None:
    with open(os.path.join(benchlib.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if [w["name"] for w in manifest["workloads"]] != list(bench.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {sorted(set(declared) ^ set(table))}")


def main() -> int:
    benchlib.require_sources()
    problems: list = []
    check_manifest(problems)
    for workload in bench.WORKLOADS:
        overrides = smoke_overrides(workload)
        for trace in (False, True):
            out = bench.run_workload(workload, 1, 1.0, trace, **overrides)
            result = bench.result_object(out, trace)
            table = bench.PER_LAYER if trace else bench.END_TO_END
            missing = sorted(set(table) - set(result["metrics"]))
            label = f"{workload} trace={int(trace)}"
            if missing:
                problems.append(f"{label}: metrics missing: {missing}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: honest run failed {result['failed']}: {out['failures']}")
            if trace and result["metrics"].get("trace.parity", {}).get("value") != 1.0:
                problems.append(f"{label}: traced run failed its parity check")
            print(f"{label}: {result['attempted']} operations, {result['failed']} failed, "
                  f"{len(result['metrics'])} metrics")
        out = bench.run_workload(workload, 1, 1.0, False, wrong_answer=True, **overrides)
        if out["failed"] == 0 or bench.result_object(out, False)["correct"]:
            problems.append(f"{workload}: a wrong expected answer did not raise the error rate")
        print(f"{workload} with a wrong expected answer: error rate "
              f"{out['failed'] / max(out['attempted'], 1):.4f}")
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
