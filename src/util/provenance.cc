#include "util/provenance.h"

#include <cstdlib>
#include <thread>

#include "flowsched_git_sha.h"  // Generated at build time (CMakeLists.txt).
#include "util/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#ifndef FLOWSCHED_CXX_FLAGS
#define FLOWSCHED_CXX_FLAGS ""
#endif
#ifndef FLOWSCHED_BUILD_TYPE
#ifdef NDEBUG
#define FLOWSCHED_BUILD_TYPE "Release"
#else
#define FLOWSCHED_BUILD_TYPE "Debug"
#endif
#endif

namespace flowsched {
namespace {

std::string Hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {0};
  if (gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') return buf;
#endif
  const char* env = std::getenv("HOSTNAME");
  return env != nullptr ? env : "unknown";
}

}  // namespace

Provenance CollectProvenance() {
  Provenance p;
  p.git_sha = FLOWSCHED_GIT_SHA;
#if defined(__clang__)
  p.compiler = std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  p.compiler = std::string("g++ ") + __VERSION__;
#else
  p.compiler = "unknown";
#endif
  p.compiler_flags = FLOWSCHED_CXX_FLAGS;
  p.build_type = FLOWSCHED_BUILD_TYPE;
  p.hostname = Hostname();
  p.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  return p;
}

void WriteProvenanceJson(std::ostream& out, const Provenance& p, int indent) {
  const std::string pad(indent, ' ');
  const std::string in(indent + 2, ' ');
  out << pad << "\"provenance\": {\n";
  out << in << JsonStr("git_sha", p.git_sha) << ",\n";
  out << in << JsonStr("compiler", p.compiler) << ",\n";
  out << in << JsonStr("compiler_flags", p.compiler_flags) << ",\n";
  out << in << JsonStr("build_type", p.build_type) << ",\n";
  out << in << JsonStr("hostname", p.hostname) << ",\n";
  out << in << "\"hardware_threads\": " << p.hardware_threads << "\n";
  out << pad << "}";
}

}  // namespace flowsched
