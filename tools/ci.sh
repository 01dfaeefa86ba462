#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: the tier-1 verify sequence in
# Debug and Release, a CLI smoke test, the bad-input probes, the docs
# checks (generated docs/solvers.md freshness + markdown link resolution),
# the bench value check against BENCH_core.json, the campaign/serve/scenario
# smokes, the Debug ASan/UBSan leg over every suite, the Debug TSan leg
# over every suite that starts a thread (the campaign runner's, at
# --jobs > 1), and the library line-coverage floor (tools/coverage.sh).
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
  # --solver takes globs: 'coflow.*' runs the three coflow solvers.
  [[ "$("./${build_dir}/tools/flowsched_cli" \
        --instance=coflow:ports=8,load=1.0,rounds=10,width=4,skew=0.7,seed=1 \
        --solver='coflow.*' | grep -cE '^coflow\.[a-z]+ +ok ')" -eq 3 ]] \
    || { echo "error: --solver='coflow.*' did not run 3 solvers" >&2; exit 1; }
  # Bad inputs: out-of-range specs and trace rows fail with errors, never
  # abort.
  tools/check_bad_inputs.sh "${build_dir}"
  if [[ "${build_type}" == "Release" ]]; then
    # Docs job: docs/solvers.md must match the registry, and every relative
    # markdown link in README/docs must resolve.
    tools/check_docs.sh "./${build_dir}/tools/flowsched_cli"
    # Bench values: every value field of every cell must match the
    # committed BENCH_core.json (value checks only, never wall clock).
    "./${build_dir}/tools/flowsched_bench" --out="${build_dir}/BENCH_run.json"
    python3 tools/check_bench_values.py BENCH_core.json \
        "${build_dir}/BENCH_run.json"
    # Campaign smoke: the checked-in smoke campaign (flow, coflow and the
    # 120-task "mixed" grid) at --jobs=2 and --jobs=1 into two roots; the
    # merged aggregates must be byte-identical across thread counts.
    rm -rf "${build_dir}/CAMPAIGN_smoke" "${build_dir}/CAMPAIGN_j1"
    "./${build_dir}/tools/flowsched_campaign" run \
        --spec=campaigns/ci-smoke.campaign --out="${build_dir}/CAMPAIGN_smoke" \
        --jobs=2 --quiet
    "./${build_dir}/tools/flowsched_campaign" run \
        --spec=campaigns/ci-smoke.campaign --out="${build_dir}/CAMPAIGN_j1" \
        --jobs=1 --quiet
    for f in "${build_dir}"/CAMPAIGN_smoke/aggregate/*.json \
             "${build_dir}"/CAMPAIGN_smoke/aggregate/*.csv; do
      cmp "${f}" "${build_dir}/CAMPAIGN_j1/aggregate/${f##*/}"
    done
    python3 - "${build_dir}/CAMPAIGN_smoke/aggregate/mixed.json" << 'EOF'
import json, sys
with open(sys.argv[1]) as f:
    grid = json.load(f)
totals = grid["totals"]
assert totals["tasks_failed"] == 0, totals
assert totals["tasks_ok"] == 120 and totals["cells"] == 60, totals
assert grid["provenance"]["git_sha"], grid["provenance"]
coflow_cells = [c for c in grid["cells"] if c["solver"].startswith("coflow.")]
assert coflow_cells, "smoke grid lost its coflow cells"
assert all("avg_cct" in c and c["num_coflows"] > 0
           for c in coflow_cells), coflow_cells
fabric_cells = [c for c in grid["cells"] if c["solver"].startswith("fabric.")]
assert fabric_cells, "smoke grid lost its fabric cells"
assert all(c["fabric_shards"] == 2 and "load_imbalance" in c
           and "avg_cct" in c for c in fabric_cells), fabric_cells
cdf_cells = [c for c in grid["cells"] if "cdf:" in c["instance"]]
assert cdf_cells, "smoke grid lost its cdf: cells"
assert all(c["num_flows"] > 0 and "avg_response" in c
           for c in cdf_cells), cdf_cells
print("mixed grid ok:", totals)
EOF
    # The mixed grid must exercise the realistic-traffic generator.
    grep -q '"instance": "fabric:shards=2,partition=block,cdf:' \
        "${build_dir}/CAMPAIGN_smoke/aggregate/mixed.json" \
      || { echo "error: smoke grid lost its cdf: template" >&2; exit 1; }
    # Resume: the second run must skip every task yet still regenerate the
    # merged aggregates and the HTML report byte-identically — the
    # interrupted-campaign recovery guarantee.
    cp "${build_dir}/CAMPAIGN_smoke/report/index.html" \
        "${build_dir}/CAMPAIGN_first.html"
    cp "${build_dir}/CAMPAIGN_smoke/aggregate/flow.json" \
        "${build_dir}/CAMPAIGN_first_flow.json"
    "./${build_dir}/tools/flowsched_campaign" run \
        --spec=campaigns/ci-smoke.campaign --out="${build_dir}/CAMPAIGN_smoke" \
        --jobs=2 --resume --quiet | tee "${build_dir}/campaign_resume.out"
    grep -q '0 ok, 0 failed, 130 skipped (resume), 0 not run, of 130 tasks' \
        "${build_dir}/campaign_resume.out" \
      || { echo "error: campaign resume reran tasks" >&2; exit 1; }
    cmp "${build_dir}/CAMPAIGN_first.html" \
        "${build_dir}/CAMPAIGN_smoke/report/index.html"
    cmp "${build_dir}/CAMPAIGN_first_flow.json" \
        "${build_dir}/CAMPAIGN_smoke/aggregate/flow.json"
    # --jobs takes a whole positive number: trailing text exits 2.
    rc=0
    "./${build_dir}/tools/flowsched_campaign" plan \
        --spec=campaigns/ci-smoke.campaign --jobs=2x > /dev/null 2>&1 || rc=$?
    [[ "${rc}" -eq 2 ]] \
      || { echo "error: --jobs=2x exited ${rc}, want 2" >&2; exit 1; }
    echo "campaign smoke ok: jobs=1/2 aggregates identical, resume skipped 130/130, report byte-identical"
    # Streaming service (streaming == batch on the trace and wire paths is
    # serve_streaming_equivalence_test's job): a trace piped through stdin
    # end to end, every output line MATCH / stats JSONL / DONE, with a
    # clean final summary whose percentiles (and every stats line's) equal
    # the nearest-rank values recomputed from the MATCH lines.
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
    python3 tools/check_serve_smoke.py "${build_dir}/serve_stdin.out"
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

echo "=== Debug TSan (threaded suites) ==="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DFLOWSCHED_SANITIZE=thread -DFLOWSCHED_BUILD_EXAMPLES=OFF \
    -DFLOWSCHED_BUILD_TOOLS=OFF
cmake --build build-ci-tsan -j "$(nproc)"
(cd build-ci-tsan && ctest --output-on-failure -j "$(nproc)" \
    -R '^(campaign_|coflow_coflow_regression_test$|fabric_fabric_regression_test$)')

echo "=== Debug --coverage (library line coverage floor) ==="
tools/coverage.sh build-ci-coverage
echo "CI OK"
