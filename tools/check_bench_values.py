#!/usr/bin/env python3
"""Checks a flowsched_bench run against the committed BENCH_core.json.

    tools/check_bench_values.py BENCH_core.json RUN.json

Every cell of the baseline must be present in the run, succeed, and carry
the same schedule values (rounds, peak backlog, response totals, makespan,
and the scenario cell's surge/drain/downtime). `allocations` is reported,
not compared.
"""
import json
import sys

VALUE_FIELDS = ("rounds", "peak_backlog", "total_response", "avg_response",
                "max_response", "makespan", "backlog_surge",
                "recovery_drain_rounds", "downtime_rounds")


def cells_by_key(path):
    with open(path) as f:
        results = json.load(f)["results"]
    return {(c["instance"], c["solver"]): c for c in results}


def main(baseline_path, run_path):
    baseline = cells_by_key(baseline_path)
    run = cells_by_key(run_path)
    errors = [f"failed: {key}: {c.get('error')}"
              for key, c in run.items() if not c["ok"]]
    errors += [f"missing: {key}" for key in baseline if key not in run]
    errors += [f"extra: {key}" for key in run if key not in baseline]
    for key, want in baseline.items():
        got = run.get(key)
        if got is None or not got["ok"]:
            continue
        for field in VALUE_FIELDS:
            if want.get(field) != got.get(field):
                errors.append(f"{key} {field}: {got.get(field)} != "
                              f"baseline {want.get(field)}")

    for e in errors:
        print("error:", e, file=sys.stderr)
    if errors:
        return 1
    print(f"bench values ok: {len(baseline)} cells match {baseline_path}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
