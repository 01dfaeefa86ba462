#include "api/stream_source.h"

#include <cstddef>
#include <fstream>
#include <variant>

#include "api/generator_spec.h"
#include "api/instance_source.h"
#include "serve/stream_sources.h"

namespace flowsched {
namespace {

using api_spec::Spec;
using api_spec::SplitSpec;

std::nullptr_t Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return nullptr;
}

// A TraceStreamSource that owns its file stream (a base, so it is opened
// before the trace reads its header).
struct TraceFile {
  explicit TraceFile(const std::string& path) : in(path) {}
  std::ifstream in;
};
class FileTraceSource : private TraceFile, public TraceStreamSource {
 public:
  explicit FileTraceSource(const std::string& path)
      : TraceFile(path), TraceStreamSource(in) {}
  bool opened() const { return in.is_open(); }
};

}  // namespace

std::unique_ptr<ArrivalSource> MakeStreamSource(
    const std::string& source, std::string* error) {
  if (!IsGeneratorSpec(source)) {
    auto trace = std::make_unique<FileTraceSource>(source);
    if (!trace->opened()) {
      return Fail(error, "cannot open \"" + source +
                             "\" (not a file, and not a streamable generator "
                             "spec)");
    }
    if (!trace->ok()) return Fail(error, source + ": " + trace->error());
    return trace;
  }
  Spec spec;
  if (!SplitSpec(source, spec, error)) return nullptr;
  if (!api_spec::IsRoundGenerator(spec.generator)) {
    return Fail(error, "generator \"" + spec.generator +
                           "\" is batch-only; load it with LoadInstance and "
                           "replay through InstanceStreamSource");
  }
  api_spec::GeneratorSpec g;
  if (!api_spec::ReadGeneratorSpec(spec, /*allow_unbounded=*/true, &g,
                                   error)) {
    return nullptr;
  }
  return std::visit(
      [&]<class Config>(const Config& cfg) -> std::unique_ptr<ArrivalSource> {
        return std::make_unique<GeneratorStreamSource<Config>>(cfg, g.horizon);
      },
      g.config);
}

}  // namespace flowsched
