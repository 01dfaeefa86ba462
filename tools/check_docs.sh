#!/usr/bin/env bash
# Documentation checks, run by CI (and tools/ci.sh) after a Release build:
#   1. docs/solvers.md is generated from the registry — regenerate it with
#      `flowsched_cli --describe-solvers --markdown` and fail when the
#      committed file is stale (a solver changed its contract without
#      regenerating the reference).
#   2. Every relative markdown link in README.md and docs/*.md must
#      resolve to an existing file (http(s) links and pure anchors are
#      skipped — no network in CI).
#   3. Every backticked source path in README.md and docs/*.md —
#      `dir/file.h`, `dir/file.cc` or `dir/file.{h,cc}` — must name an
#      existing file, from the repo root or from src/, so prose cannot
#      keep pointing at a file a refactor deleted or moved.
#
# Usage: tools/check_docs.sh [path/to/flowsched_cli]
set -euo pipefail
cd "$(dirname "$0")/.."

CLI="${1:-}"
if [[ -z "${CLI}" ]]; then
  for candidate in build/tools/flowsched_cli \
                   build-ci-release/tools/flowsched_cli; do
    if [[ -x "${candidate}" ]]; then
      CLI="${candidate}"
      break
    fi
  done
fi
if [[ -z "${CLI}" || ! -x "${CLI}" ]]; then
  echo "error: flowsched_cli not found; build first or pass its path" >&2
  echo "usage: tools/check_docs.sh [path/to/flowsched_cli]" >&2
  exit 2
fi

# Regenerate to a temp file and byte-compare: works whether or not the
# file is tracked yet, and never mutates the checked tree.
tmp="$(mktemp)"
trap 'rm -f "${tmp}"' EXIT
"${CLI}" --describe-solvers --markdown > "${tmp}"
if ! cmp -s "${tmp}" docs/solvers.md; then
  diff -u docs/solvers.md "${tmp}" | head -40 >&2 || true
  echo "error: docs/solvers.md is stale — regenerate with" >&2
  echo "  ${CLI} --describe-solvers --markdown > docs/solvers.md" >&2
  echo "and commit the result" >&2
  exit 1
fi

status=0
for file in README.md docs/*.md; do
  dir="$(dirname "${file}")"
  while IFS= read -r target; do
    [[ -z "${target}" ]] && continue
    case "${target}" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [[ -z "${path}" ]] && continue
    if [[ ! -e "${dir}/${path}" && ! -e "${path}" ]]; then
      echo "${file}: broken link -> ${target}" >&2
      status=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "${file}" | sed -E 's/^\]\(//; s/\)$//')
done
for file in README.md docs/*.md; do
  while IFS= read -r ref; do
    ref="${ref//\`/}"
    if [[ "${ref}" == *'.{h,cc}' ]]; then
      paths=("${ref%.\{h,cc\}}.h" "${ref%.\{h,cc\}}.cc")
    else
      paths=("${ref}")
    fi
    for path in "${paths[@]}"; do
      if [[ ! -e "${path}" && ! -e "src/${path}" ]]; then
        echo "${file}: stale source path -> ${path}" >&2
        status=1
      fi
    done
  done < <(grep -oE '`[A-Za-z0-9_./-]+/[A-Za-z0-9_.-]+\.(h|cc|\{h,cc\})`' \
             "${file}" || true)
done
if [[ ${status} -ne 0 ]]; then
  echo "error: broken documentation links or source paths (see above)" >&2
else
  echo "docs OK: solvers.md fresh, links and source paths resolve"
fi
exit ${status}
