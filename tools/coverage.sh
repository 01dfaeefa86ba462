#!/usr/bin/env bash
# Library line coverage: builds the repository in Debug with --coverage,
# runs every ctest suite, then prints each src/ .cc file's line coverage
# from `gcov -n` (lowest first) and the library total.
#
#   tools/coverage.sh [build_dir]
#
# build_dir defaults to build-coverage. Exits 1 when the library total is
# below the floor.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${1:-build-coverage}"
# Library line-coverage floor, percent: 95.8% measured when the script was
# added, less slack for other gcc versions counting lines differently.
# CHANGES.md records how it was set.
floor=95.0

cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
    -DFLOWSCHED_BUILD_EXAMPLES=OFF > /dev/null
cmake --build "${build_dir}" -j "$(nproc)" > /dev/null
# Counters from an earlier run would add to this one's.
find "${build_dir}/CMakeFiles/flowsched.dir" -name '*.gcda' -delete
(cd "${build_dir}" && ctest --output-on-failure -j "$(nproc)" >&2)

# gcov -n prints, per source file it saw, "File '<path>'" and then
# "Lines executed:<pct>% of <lines>"; keep the library's own .cc files.
src_root="$(pwd)/src/"
report="$(find "${build_dir}/CMakeFiles/flowsched.dir" -name '*.gcda' -print0 \
  | xargs -0 gcov -n 2> /dev/null \
  | awk -v root="${src_root}" '
      /^File / {
        file = substr($2, 2, length($2) - 2)
        keep = index(file, root) == 1 && file ~ /\.cc$/
        next
      }
      keep && /^Lines executed:/ {
        split(substr($0, 16), f, "% of ")
        printf "%6.1f%% %5d/%-5d %s\n", f[1], int(f[1] * f[2] / 100 + 0.5),
               f[2], substr(file, length(root) + 1)
        keep = 0
      }' \
  | sort -n)"
[[ -n "${report}" ]] || { echo "coverage: no library .gcda data" >&2; exit 1; }
echo "${report}"
awk -v floor="${floor}" '
    { split($2, c, "/"); covered += c[1]; lines += c[2] }
    END {
      pct = 100 * covered / lines
      printf "library: %.1f%% of %d lines (%d covered)\n", pct, lines, covered
      if (pct < floor) {
        printf "coverage: %.1f%% is below the floor of %s%%\n", pct, floor
        exit 1
      }
    }' <<< "${report}"
