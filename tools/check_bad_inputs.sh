#!/usr/bin/env bash
# Bad-input probes: every out-of-range generator spec and every trace row
# that does not fit its switch must fail with an error, never abort.
#
#   tools/check_bad_inputs.sh <build_dir>
#
# - flowsched_cli exits non-zero on each bad spec, with an "error:" line
#   and no "CHECK failed";
# - flowsched_serve --spec rejects rounds=-1 (only rounds=inf is unbounded),
#   and wire mode rejects --ports=0 and --cap=0 with exit 2;
# - flowsched_serve rejects --tcp outside 1..65535 and a negative
#   --stats-every with exit 2 and an error naming the flag, while parsing
#   flags, before any socket is opened;
# - flowsched_serve --trace exits 1 with a source_error DONE line, valid
#   JSON, on a row whose port lies past the switch;
# - flowsched_campaign plan rejects a grid whose {ports} axis holds 0, a
#   shuffle:, incast: or fig4a: instance out of range, and an axis range
#   too long or with an infinite bound (line-numbered, under a memory
#   limit).
set -euo pipefail
build_dir="${1:?usage: $0 <build_dir>}"
tools="$(cd "${build_dir}/tools" && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "${scratch}"' EXIT

fail() { echo "error: $*" >&2; exit 1; }

for spec in poisson:ports=0 poisson:load=-1 poisson:rounds=0 \
            poisson:dmax=0 poisson:cap=0 coflow:skew=2 coflow:width=0 \
            poisson:rounds=inf poisson:cap=3000000000,dmax=3000000000 \
            coflow:width=2147483648 shuffle:ports=0 shuffle:period=-1 \
            shuffle:wave=17 incast:ports=0 incast:fanin=99 fig4a:phase=0 \
            fig4a:phase=6,total=6; do
  rc=0
  "${tools}/flowsched_cli" --instance="${spec}" --solver=online.srpt \
      > "${scratch}/cli.out" 2>&1 || rc=$?
  [[ "${rc}" -ne 0 ]] || fail "flowsched_cli accepted ${spec}"
  grep -q '^error: ' "${scratch}/cli.out" \
    || fail "flowsched_cli printed no error line for ${spec}"
  if grep -q 'CHECK failed' "${scratch}/cli.out"; then
    fail "flowsched_cli aborted on ${spec}"
  fi
done

rc=0
"${tools}/flowsched_serve" --spec=poisson:ports=4,load=0.5,rounds=-1 \
    > "${scratch}/serve.out" 2>&1 || rc=$?
[[ "${rc}" -ne 0 ]] || fail "flowsched_serve streamed rounds=-1"

for flags in --ports=0 "--ports=4 --cap=0"; do
  rc=0
  # shellcheck disable=SC2086  # Word-split the flag pair on purpose.
  printf 'TICK\nSTOP\n' | "${tools}/flowsched_serve" ${flags} \
      > "${scratch}/serve.out" 2>&1 || rc=$?
  [[ "${rc}" -eq 2 ]] || fail "flowsched_serve ${flags} exited ${rc}, want 2"
  if grep -q 'CHECK failed' "${scratch}/serve.out"; then
    fail "flowsched_serve aborted on ${flags}"
  fi
done

# Under a timeout, so a regression that binds the port and waits for a
# client fails instead of hanging.
for flag in --tcp=-5 --tcp=70000 --stats-every=-3; do
  rc=0
  printf 'TICK\nSTOP\n' | timeout 10 "${tools}/flowsched_serve" "${flag}" \
      > "${scratch}/serve.out" 2>&1 || rc=$?
  [[ "${rc}" -eq 2 ]] || fail "flowsched_serve ${flag} exited ${rc}, want 2"
  grep -q -- "${flag%%=*} needs" "${scratch}/serve.out" \
    || fail "flowsched_serve ${flag} did not name the flag"
  if grep -q -e 'listening' -e '^DONE' "${scratch}/serve.out"; then
    fail "flowsched_serve ${flag} opened a socket or ran a session"
  fi
done

printf 'input_capacities\n1,1\noutput_capacities\n1,1\n' > "${scratch}/bad.csv"
printf 'src,dst,demand,release\n0,1,1,0\n7,1,1,1\n' >> "${scratch}/bad.csv"
rc=0
"${tools}/flowsched_serve" --trace="${scratch}/bad.csv" \
    > "${scratch}/trace.out" 2>&1 || rc=$?
[[ "${rc}" -eq 1 ]] \
  || fail "flowsched_serve --trace on a bad row exited ${rc}, want 1"
tail -n 1 "${scratch}/trace.out" | python3 -c '
import json, sys
line = sys.stdin.read()
assert line.startswith("DONE "), line
done = json.loads(line[5:])
assert done["source_error"] and "line 7" in done["error"], done
' || fail "flowsched_serve --trace printed no source_error DONE line"

printf 'name=badports\n[grid]\nname=flow\nsolvers=online.srpt\n' \
    > "${scratch}/bad.campaign"
printf 'instances=poisson:ports={ports},load=1,rounds=5\nports=0,4\n' \
    >> "${scratch}/bad.campaign"
rc=0
"${tools}/flowsched_campaign" plan --spec="${scratch}/bad.campaign" \
    > "${scratch}/plan.out" 2>&1 || rc=$?
[[ "${rc}" -eq 2 ]] \
  || fail "flowsched_campaign plan on ports=0 exited ${rc}, want 2"

for instance in shuffle:ports=0 incast:fanin=99 fig4a:phase=0; do
  printf 'name=badspec\n[grid]\nname=flow\nsolvers=online.srpt\n' \
      > "${scratch}/bad.campaign"
  printf 'instances=%s\n' "${instance}" >> "${scratch}/bad.campaign"
  rc=0
  "${tools}/flowsched_campaign" plan --spec="${scratch}/bad.campaign" \
      > "${scratch}/plan.out" 2>&1 || rc=$?
  [[ "${rc}" -eq 2 ]] \
    || fail "flowsched_campaign plan on ${instance} exited ${rc}, want 2"
  grep -q "${instance#*:} out of range" "${scratch}/plan.out" \
    || fail "flowsched_campaign plan on ${instance} did not name the key"
done

# Axis ranges past the axis limit or with a non-finite bound fail at the
# line that holds them. Under a memory limit, so a regression that expands
# them fails instead of taking the machine's memory.
for axis in seeds=1..18446744073709551615 loads=0:inf:1; do
  printf 'name=badaxis\n[grid]\nname=flow\nsolvers=online.srpt\n' \
      > "${scratch}/bad.campaign"
  printf 'instances=poisson:ports=4,load={load},seed={seed}\n%s\n' \
      "${axis}" >> "${scratch}/bad.campaign"
  rc=0
  (ulimit -v 1500000 && timeout 60 "${tools}/flowsched_campaign" plan \
      --spec="${scratch}/bad.campaign") > "${scratch}/plan.out" 2>&1 || rc=$?
  [[ "${rc}" -eq 2 ]] \
    || fail "flowsched_campaign plan on ${axis} exited ${rc}, want 2"
  grep -q "grid 1: line 6: ${axis%%=*}: " "${scratch}/plan.out" \
    || fail "flowsched_campaign plan on ${axis} did not name line 6"
done

echo "bad inputs ok: every probe failed cleanly"
