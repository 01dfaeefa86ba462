#include "api/generator_spec.h"

#include <cmath>
#include <sstream>

#include "traffic/builtin_cdfs.h"
#include "traffic/size_cdf.h"

namespace flowsched {
namespace api_spec {
namespace {

// Resolves the cdf: size distribution from `dist=` (a builtin name,
// default websearch) or `file=` (an HPCC-format CDF file).
bool ReadSizeCdf(const std::string& dist, const std::string& file,
                 SizeCdf* cdf, std::string* error) {
  if (!dist.empty() && !file.empty()) {
    return Fail(error, "cdf: give dist= or file=, not both");
  }
  std::string cdf_error;
  if (!file.empty()) {
    return SizeCdf::ParseFile(file, cdf, &cdf_error) ||
           Fail(error, cdf_error);
  }
  const std::string name = dist.empty() ? "websearch" : dist;
  const char* text = BuiltinCdfText(name);
  if (text == nullptr) {
    std::string names;
    for (const std::string& n : BuiltinCdfNames()) {
      names += (names.empty() ? "" : ", ") + n;
    }
    return Fail(error, "unknown dist \"" + name + "\" (builtins: " + names +
                           "; or pass file=<path>)");
  }
  // Builtins are sync-tested against the checked-in files; a parse
  // failure here is a build defect, but report it rather than abort.
  return SizeCdf::ParseText(text, cdf, &cdf_error) ||
         Fail(error, "builtin CDF " + name + ": " + cdf_error);
}

}  // namespace

bool IsRoundGenerator(const std::string& generator) {
  return generator == "poisson" || generator == "coflow" ||
         generator == "cdf";
}

bool ReadGeneratorSpec(const Spec& spec, bool allow_unbounded,
                       GeneratorSpec* out, std::string* error) {
  const bool is_poisson = spec.generator == "poisson";
  const bool is_cdf = spec.generator == "cdf";
  SpecReader r(spec);
  const long long ports = r.GetInt("ports", 16);
  const Capacity cap = r.GetInt("cap", 1);
  const double load = r.Get("load", is_cdf ? 0.9 : 1.0);
  const bool unbounded = r.GetString("rounds", "") == "inf";
  const long long rounds = unbounded ? -1 : r.GetInt("rounds", 10);
  const auto seed = static_cast<std::uint64_t>(r.GetInt("seed", 1));
  const Capacity dmax = is_cdf ? 1 : r.GetInt("dmax", 1);
  // Coflow widths; cdf: traffic is untagged (width=0) by default.
  const long long min_width = is_poisson ? 1 : r.GetInt("minwidth", 1);
  const long long max_width =
      is_poisson ? 0 : r.GetInt("width", is_cdf ? 0 : 8);
  const double skew = is_poisson ? 1.0 : r.Get("skew", 1.0);
  const double unit = is_cdf ? r.Get("unit", 0.0) : 0.0;
  const std::string dist = is_cdf ? r.GetString("dist", "") : "";
  const std::string file = is_cdf ? r.GetString("file", "") : "";
  r.CheckUnknown();
  if (!r.ok()) return Fail(error, r.error());

  // The first value out of range, in key order, names the key.
  RangeCheck range;
  const bool tagged = !is_poisson && (!is_cdf || max_width != 0);
  range.Need(ports >= 1 && ports <= kMaxInt, "ports", ports,
             "1 <= ports < 2^31");
  range.Need(cap >= 1 && cap <= kMaxInt, "cap", cap, "1 <= cap < 2^31");
  range.Need(load >= 0.0 && std::isfinite(load), "load", load,
             "a finite load >= 0");
  range.Need(unbounded || (rounds >= 1 && rounds <= kMaxInt), "rounds",
             rounds, "1 <= rounds < 2^31; streams also take rounds=inf");
  range.Need(dmax >= 1 && dmax <= kMaxInt, "dmax", dmax, "1 <= dmax < 2^31");
  range.Need(min_width >= 1 && min_width <= kMaxInt, "minwidth", min_width,
             "1 <= minwidth < 2^31");
  range.Need(!tagged || (max_width >= min_width && max_width <= kMaxInt),
             "width", max_width,
             is_cdf ? "width=0 for untagged, or minwidth <= width < 2^31"
                    : "minwidth <= width < 2^31");
  range.Need(!tagged || (skew > 0.0 && skew <= 1.0), "skew", skew,
             "0 < skew <= 1");
  range.Need(unit >= 0.0 && std::isfinite(unit), "unit", unit,
             "a finite unit >= 0");
  if (!range.ok()) return Fail(error, range.error());
  if (unbounded && !allow_unbounded) {
    return Fail(error, "rounds=inf is only for streams (need rounds >= 1)");
  }
  if (unbounded && load <= 0.0) return Fail(error, "rounds=inf needs load > 0");

  // Streams ignore num_rounds; the horizon paces them.
  const int num_rounds = unbounded ? 1 : static_cast<int>(rounds);
  out->horizon = unbounded ? -1 : num_rounds;
  const auto common = [&](auto& cfg) {
    cfg.num_inputs = cfg.num_outputs = static_cast<int>(ports);
    cfg.port_capacity = cap;
    cfg.num_rounds = num_rounds;
    cfg.seed = seed;
  };
  const auto widths = [&](auto& cfg) {
    cfg.min_width = static_cast<int>(min_width);
    cfg.max_width = static_cast<int>(max_width);
    cfg.width_skew = skew;
  };
  if (is_poisson) {
    PoissonConfig cfg;
    common(cfg);
    cfg.mean_arrivals_per_round = load * cfg.num_inputs;
    cfg.max_demand = dmax;
    out->config = cfg;
  } else if (!is_cdf) {
    CoflowGenConfig cfg;
    common(cfg);
    widths(cfg);
    cfg.max_demand = dmax;
    // `load` is the per-port flow load (poisson semantics); the coflow
    // rate follows from the width distribution's mean, which FS_CHECKs
    // the config, so only after the range checks above.
    cfg.mean_coflows_per_round =
        load * cfg.num_inputs / MeanCoflowWidth(cfg);
    out->config = cfg;
  } else {
    TrafficConfig cfg;
    common(cfg);
    widths(cfg);
    cfg.load = load;
    cfg.unit = unit;
    if (!ReadSizeCdf(dist, file, &cfg.cdf, error)) return false;
    out->config = std::move(cfg);
  }
  return true;
}

}  // namespace api_spec
}  // namespace flowsched
