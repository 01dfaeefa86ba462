#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: the tier-1 verify sequence in
# Debug and Release, a CLI smoke test, the docs checks (generated
# docs/solvers.md freshness + markdown link resolution), the bench value
# check against BENCH_core.json, the sweep/campaign/serve/scenario smokes,
# and the Debug ASan/UBSan leg over every suite.
set -euo pipefail
cd "$(dirname "$0")/.."

for build_type in Debug Release; do
  build_dir="build-ci-${build_type,,}"
  echo "=== ${build_type} ==="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${build_type}"
  cmake --build "${build_dir}" -j "$(nproc)"
  (cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)")
  "./${build_dir}/tools/flowsched_cli" \
      --instance=poisson:ports=6,load=1.0,rounds=6 --solver=all
  "./${build_dir}/tools/flowsched_cli" --list-solvers | grep -q '^coflow.sebf$'
  "./${build_dir}/tools/flowsched_cli" --list-solvers | grep -q '^fabric.sebf$'
  if [[ "${build_type}" == "Release" ]]; then
    # Docs job: docs/solvers.md must match the registry, and every relative
    # markdown link in README/docs must resolve.
    tools/check_docs.sh "./${build_dir}/tools/flowsched_cli"
    # Bench values: every value field of every cell must match the
    # committed BENCH_core.json, plus the warmstart=0 / approx=0.5 variant
    # checks (value checks only, never wall clock).
    "./${build_dir}/tools/flowsched_bench" --out="${build_dir}/BENCH_run.json"
    python3 tools/check_bench_values.py BENCH_core.json \
        "${build_dir}/BENCH_run.json"
    # Sweep smoke: the parallel campaign driver on the built-in grid, plus
    # the determinism guarantee — reports (timing stripped) must be
    # byte-identical across thread counts.
    "./${build_dir}/tools/flowsched_sweep" --smoke --jobs=2 --quiet \
        --out="${build_dir}/SWEEP_smoke"
    "./${build_dir}/tools/flowsched_sweep" --smoke --jobs=1 --quiet \
        --no-timing --out="${build_dir}/SWEEP_smoke_j1"
    "./${build_dir}/tools/flowsched_sweep" --smoke --jobs=2 --quiet \
        --no-timing --out="${build_dir}/SWEEP_smoke_j2"
    cmp "${build_dir}/SWEEP_smoke_j1.json" "${build_dir}/SWEEP_smoke_j2.json"
    cmp "${build_dir}/SWEEP_smoke_j1.csv" "${build_dir}/SWEEP_smoke_j2.csv"
    # The built-in grid must exercise the realistic-traffic generator.
    grep -q '"instance": "fabric:shards=2,partition=block,cdf:' \
        "${build_dir}/SWEEP_smoke.json" \
      || { echo "error: smoke grid lost its cdf: template" >&2; exit 1; }
    echo "sweep smoke written to ${build_dir}/SWEEP_smoke.json (jobs=1/2 reports identical)"
    # Campaign smoke: run the checked-in smoke campaign twice. The second
    # run resumes from the durable task records and must skip every task
    # yet still regenerate the merged aggregates and the HTML report
    # byte-identically — the interrupted-campaign recovery guarantee.
    rm -rf "${build_dir}/CAMPAIGN_smoke"
    "./${build_dir}/tools/flowsched_campaign" run \
        --spec=campaigns/ci-smoke.json --out="${build_dir}/CAMPAIGN_smoke" \
        --jobs=2 --quiet
    cp "${build_dir}/CAMPAIGN_smoke/report/index.html" \
        "${build_dir}/CAMPAIGN_first.html"
    cp "${build_dir}/CAMPAIGN_smoke/aggregate/flow.json" \
        "${build_dir}/CAMPAIGN_first_flow.json"
    "./${build_dir}/tools/flowsched_campaign" run \
        --spec=campaigns/ci-smoke.json --out="${build_dir}/CAMPAIGN_smoke" \
        --jobs=2 --resume --quiet | tee "${build_dir}/campaign_resume.out"
    grep -q '0 ok, 0 failed, 10 skipped (resume), 0 not run, of 10 tasks' \
        "${build_dir}/campaign_resume.out" \
      || { echo "error: campaign resume reran tasks" >&2; exit 1; }
    cmp "${build_dir}/CAMPAIGN_first.html" \
        "${build_dir}/CAMPAIGN_smoke/report/index.html"
    cmp "${build_dir}/CAMPAIGN_first_flow.json" \
        "${build_dir}/CAMPAIGN_smoke/aggregate/flow.json"
    echo "campaign smoke ok: resume skipped 10/10, report byte-identical"
    # Streaming service: the daemon's self-check replays a ~6k-flow
    # instance through the trace and wire paths and requires schedules and
    # aggregates bit-identical to batch Simulate.
    "./${build_dir}/tools/flowsched_serve" --smoke
    "./${build_dir}/tools/flowsched_serve" --smoke --policy=coflow.sebf
    # And a trace piped through stdin end to end: every output line must be
    # MATCH / stats JSONL / DONE, with a clean final summary.
    { printf 'input_capacities\n1,1,1,1,1,1,1,1\n'
      printf 'output_capacities\n1,1,1,1,1,1,1,1\n'
      printf 'src,dst,demand,release\n'
      awk 'BEGIN{for(i=0;i<5000;i++) printf "%d,%d,1,%d\n", i%8, (i*3)%8, int(i/16)}'
    } | "./${build_dir}/tools/flowsched_serve" --trace=- --stats-every=100 \
        > "${build_dir}/serve_stdin.out"
    if grep -vEq '^(MATCH [0-9]+( [0-9]+)+|\{"round":|DONE \{)' \
        "${build_dir}/serve_stdin.out"; then
      echo "error: malformed flowsched_serve output line:" >&2
      grep -vE '^(MATCH [0-9]+( [0-9]+)+|\{"round":|DONE \{)' \
          "${build_dir}/serve_stdin.out" | head -3 >&2
      exit 1
    fi
    tail -n 1 "${build_dir}/serve_stdin.out" \
      | grep -q '^DONE {"flows":5000,"arrived":5000,' \
      || { echo "error: flowsched_serve stdin summary wrong" >&2; exit 1; }
    echo "serve smoke ok: streaming == batch, stdin trace served cleanly"
    # Realistic-traffic stream: a short cdf: generator run must drain and
    # summarize cleanly (flows arrive segmented; everything completes).
    "./${build_dir}/tools/flowsched_serve" \
        --spec=cdf:dist=websearch,ports=32,load=0.9,rounds=120,seed=1 \
        > "${build_dir}/serve_cdf.out"
    tail -n 1 "${build_dir}/serve_cdf.out" | grep -q '^DONE {"flows":' \
      || { echo "error: cdf stream produced no DONE summary" >&2; exit 1; }
    tail -n 1 "${build_dir}/serve_cdf.out" \
      | grep -q '"migrated_flows":0,"truncated":false' \
      || { echo "error: cdf stream summary wrong" >&2; exit 1; }
    echo "serve cdf smoke ok: realistic stream drained with clean summary"
    # Scenario smoke: a two-event outage script through flowsched_cli must
    # degrade gracefully and report the robustness diagnostics.
    "./${build_dir}/tools/flowsched_cli" \
        --instance=poisson:ports=8,load=0.9,rounds=60,seed=3 \
        --solver=online.srpt --diagnostics \
        --param scenario='inline:PORT_DOWN 20 3;PORT_UP 60 3' \
        > "${build_dir}/scenario_smoke.out"
    grep -Eq 'online\.srpt +ok ' "${build_dir}/scenario_smoke.out" \
      || { echo "error: scenario run did not succeed" >&2; exit 1; }
    grep -Eq 'downtime_rounds = [1-9]' "${build_dir}/scenario_smoke.out" \
      || { echo "error: no downtime_rounds diagnostic" >&2; exit 1; }
    grep -Eq 'recovery_drain_rounds = [1-9]' "${build_dir}/scenario_smoke.out" \
      || { echo "error: no recovery_drain_rounds diagnostic" >&2; exit 1; }
    echo "scenario smoke ok: outage degraded gracefully with diagnostics"
  fi
done

echo "=== Debug ASan/UBSan (every suite) ==="
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DFLOWSCHED_SANITIZE=address,undefined -DFLOWSCHED_BUILD_EXAMPLES=OFF
cmake --build build-ci-asan -j "$(nproc)"
(cd build-ci-asan && ctest --output-on-failure -j "$(nproc)")
echo "CI OK"
