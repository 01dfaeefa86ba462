#!/usr/bin/env python3
"""Checks the output of the CI serve smoke: a 5000-flow trace piped through
`flowsched_serve --trace=- --stats-every=100`, where flow i is released in
round i // 16 (so its id, dense in arrival order, is i).

Usage: check_serve_smoke.py serve_stdin.out

The DONE summary must be clean and count every flow. Every periodic stats
line and the DONE summary must report the exact nearest-rank p50/p95/p99
of the responses its own MATCH lines imply so far (flow i picked in round
t has response t + 1 - i // 16); the flows are untagged, so the CCT
percentiles equal the response ones.
"""
import json
import math
import sys

FLOWS = 5000


def percentiles(sorted_values):
    """Nearest-rank p50, p95, p99, as util/stats.h defines them."""
    n = len(sorted_values)
    return [sorted_values[max(1, math.ceil(p / 100.0 * n)) - 1]
            for p in (50.0, 95.0, 99.0)]


def main():
    with open(sys.argv[1]) as f:
        lines = f.read().splitlines()
    done = json.loads(lines[-1].removeprefix("DONE "))
    assert not done["source_error"] and not done["truncated"], done
    assert done["flows"] == done["arrived"] == FLOWS, done
    responses = []
    stats_lines = 0
    for line in lines[:-1]:
        if line.startswith("MATCH "):
            t, *ids = map(int, line.split()[1:])
            responses += [t + 1 - i // 16 for i in ids]
        elif line.startswith('{"round"'):
            stats = json.loads(line)
            stats_lines += 1
            assert stats["resp_count"] == len(responses), stats
            if responses:
                want = percentiles(sorted(responses))
                for prefix in ("resp", "cct"):
                    got = [stats[f"{prefix}_p{p}"] for p in (50, 95, 99)]
                    assert got == want, (stats["round"], prefix, got, want)
    assert stats_lines > 0, "no periodic stats emitted"
    assert len(responses) == FLOWS, len(responses)
    want = percentiles(sorted(responses))
    got = [done[f"p{p}_response"] for p in (50, 95, 99)]
    assert got == want, ("DONE", got, want)
    print("serve smoke ok:", stats_lines, "stats lines; DONE p50/p95/p99",
          got, "exact")


if __name__ == "__main__":
    main()
