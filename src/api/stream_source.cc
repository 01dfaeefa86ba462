#include "api/stream_source.h"

#include <fstream>
#include <utility>

#include "api/instance_source.h"
#include "api/spec_parser.h"
#include "api/traffic_spec.h"
#include "serve/stream_sources.h"
#include "workload/coflow_gen.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

using api_spec::Spec;
using api_spec::SpecReader;
using api_spec::SplitSpec;

void Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
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
};

// Pulls the `rounds` key out before SpecReader sees it, so `rounds=inf`
// parses (GetInt would reject "inf"). Returns the horizon: -1 unbounded.
Round TakeHorizon(Spec& spec, long long fallback) {
  const auto it = spec.kv.find("rounds");
  if (it == spec.kv.end()) return static_cast<Round>(fallback);
  if (it->second == "inf") {
    spec.kv.erase(it);
    return -1;
  }
  return 0;  // Leave for SpecReader (validates the integer).
}

}  // namespace

std::unique_ptr<ArrivalSource> MakeStreamSource(
    const std::string& source, std::string* error) {
  if (!IsGeneratorSpec(source)) {
    std::ifstream probe(source);
    if (!probe) {
      Fail(error, "cannot open \"" + source +
                      "\" (not a file, and not a streamable generator spec)");
      return nullptr;
    }
    probe.close();
    auto trace = std::make_unique<FileTraceSource>(source);
    if (!trace->ok()) {
      Fail(error, source + ": " + trace->error());
      return nullptr;
    }
    return trace;
  }
  Spec spec;
  if (!SplitSpec(source, spec, error)) return nullptr;
  if (spec.generator != "poisson" && spec.generator != "coflow" &&
      spec.generator != "cdf") {
    Fail(error, "generator \"" + spec.generator +
                    "\" is batch-only; load it with LoadInstance and replay "
                    "through InstanceStreamSource");
    return nullptr;
  }
  const Round taken = TakeHorizon(spec, /*fallback=*/10);
  SpecReader r(spec);
  std::unique_ptr<ArrivalSource> result;
  if (spec.generator == "poisson") {
    PoissonConfig cfg;
    cfg.num_inputs = cfg.num_outputs = static_cast<int>(r.GetInt("ports", 16));
    cfg.port_capacity = r.GetInt("cap", 1);
    const double load = r.Get("load", 1.0);
    cfg.mean_arrivals_per_round = load * cfg.num_inputs;
    const Round horizon =
        taken != 0 ? taken : static_cast<Round>(r.GetInt("rounds", 10));
    cfg.num_rounds = 1;  // Unused on the streaming path.
    cfg.max_demand = r.GetInt("dmax", 1);
    cfg.seed = static_cast<std::uint64_t>(r.GetInt("seed", 1));
    r.CheckUnknown();
    if (r.ok() && horizon < 0 && load <= 0.0) {
      Fail(error, "rounds=inf needs load > 0");
      return nullptr;
    }
    if (r.ok() && cfg.num_inputs > 0 && cfg.port_capacity >= 1 &&
        load >= 0.0 && cfg.max_demand >= 1) {
      result = std::make_unique<PoissonStreamSource>(cfg, horizon);
    } else if (r.ok()) {
      Fail(error, "spec values out of range (need ports>0, cap>=1, "
                  "load>=0, dmax>=1)");
      return nullptr;
    }
  } else if (spec.generator == "coflow") {
    CoflowGenConfig cfg;
    cfg.num_inputs = cfg.num_outputs = static_cast<int>(r.GetInt("ports", 16));
    cfg.port_capacity = r.GetInt("cap", 1);
    const Round horizon =
        taken != 0 ? taken : static_cast<Round>(r.GetInt("rounds", 10));
    cfg.num_rounds = 1;  // Unused on the streaming path.
    cfg.min_width = static_cast<int>(r.GetInt("minwidth", 1));
    cfg.max_width = static_cast<int>(r.GetInt("width", 8));
    cfg.width_skew = r.Get("skew", 1.0);
    cfg.max_demand = r.GetInt("dmax", 1);
    cfg.seed = static_cast<std::uint64_t>(r.GetInt("seed", 1));
    const double load = r.Get("load", 1.0);
    r.CheckUnknown();
    if (r.ok() && horizon < 0 && load <= 0.0) {
      Fail(error, "rounds=inf needs load > 0");
      return nullptr;
    }
    if (r.ok() && cfg.num_inputs > 0 && cfg.port_capacity >= 1 &&
        load >= 0.0 && cfg.max_demand >= 1 && cfg.min_width >= 1 &&
        cfg.max_width >= cfg.min_width && cfg.width_skew > 0.0 &&
        cfg.width_skew <= 1.0) {
      cfg.mean_coflows_per_round =
          load * cfg.num_inputs / MeanCoflowWidth(cfg);
      result = std::make_unique<CoflowStreamSource>(cfg, horizon);
    } else if (r.ok()) {
      Fail(error, "spec values out of range (need ports>0, cap>=1, "
                  "load>=0, dmax>=1, 1<=minwidth<=width, 0<skew<=1)");
      return nullptr;
    }
  } else {
    // cdf: shares key reading with the batch loader (api/traffic_spec.h),
    // so the two paths draw byte-identical finite workloads.
    TrafficConfig cfg;
    std::string traffic_error;
    const bool traffic_ok = api_spec::ReadTrafficSpec(r, &cfg, &traffic_error);
    const Round horizon =
        taken != 0 ? taken : static_cast<Round>(r.GetInt("rounds", 10));
    r.CheckUnknown();
    if (!traffic_ok) {
      Fail(error, r.ok() ? traffic_error
                         : traffic_error + "; " + r.error());
      return nullptr;
    }
    if (r.ok() && horizon < 0 && cfg.load <= 0.0) {
      Fail(error, "rounds=inf needs load > 0");
      return nullptr;
    }
    if (r.ok()) {
      cfg.num_rounds = 1;  // Unused on the streaming path.
      result = std::make_unique<TrafficStreamSource>(cfg, horizon);
    }
  }
  if (!r.ok()) {
    Fail(error, r.error());
    return nullptr;
  }
  return result;
}

}  // namespace flowsched
