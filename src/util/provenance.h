// Build and host provenance embedded into benchmark / campaign reports so
// BENCH_*.json and campaign artifacts are comparable across machines:
// the same numbers mean nothing without knowing which commit, compiler,
// flags, and box produced them.
//
// The git SHA and compiler flags are captured at CMake configure time
// (see the set_source_files_properties block in CMakeLists.txt) and baked
// into this translation unit only, so touching the SHA never rebuilds the
// world. Hostname and thread count are read at run time.
#ifndef FLOWSCHED_UTIL_PROVENANCE_H_
#define FLOWSCHED_UTIL_PROVENANCE_H_

#include <ostream>
#include <string>

namespace flowsched {

struct Provenance {
  std::string git_sha;         // `git describe --always --dirty`, configure-time.
  std::string compiler;        // e.g. "g++ 13.2.0" (from __VERSION__).
  std::string compiler_flags;  // CMAKE_CXX_FLAGS + per-config flags.
  std::string build_type;      // "Release", "Debug", ...
  std::string hostname;
  int hardware_threads = 0;    // std::thread::hardware_concurrency().
};

Provenance CollectProvenance();

// Emits `"provenance": { ... }` (no trailing comma/newline) indented by
// `indent` spaces — spliceable into any report writer.
void WriteProvenanceJson(std::ostream& out, const Provenance& p, int indent);

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_PROVENANCE_H_
