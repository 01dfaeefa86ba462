// Reading "<generator>:key=value,..." source specs (internal to src/api/):
// the key=value splitter and checked reader every generator uses, and the
// one reader for the round-drawn generators — `poisson:`, `coflow:` and
// `cdf:` — shared by the batch loader (api/instance_source.cc) and the
// streaming factory (api/stream_source.cc). For each of those it owns the
// accepted keys, their defaults and their range checks
// (docs/file-formats.md, "Generator specs"), so a spec loads, validates and
// streams alike, or fails with the same message on every path.
#ifndef FLOWSCHED_API_GENERATOR_SPEC_H_
#define FLOWSCHED_API_GENERATOR_SPEC_H_

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "model/flow.h"
#include "traffic/traffic_gen.h"
#include "workload/coflow_gen.h"
#include "workload/poisson.h"

namespace flowsched {
namespace api_spec {

// Counts and rounds must fit an int.
inline constexpr long long kMaxInt = std::numeric_limits<int>::max();

struct Spec {
  std::string generator;
  std::map<std::string, std::string> kv;
};

// Sets *error (when non-null) to `msg`; returns false.
inline bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

inline bool SplitSpec(const std::string& source, Spec& spec,
                      std::string* error) {
  const auto colon = source.find(':');
  spec.generator = source.substr(0, colon);
  if (colon == std::string::npos) return true;
  std::stringstream rest(source.substr(colon + 1));
  std::string pair;
  while (std::getline(rest, pair, ',')) {
    if (pair.empty()) continue;
    const auto eq = pair.find('=');
    if (eq == std::string::npos) {
      return Fail(error,
                  "generator spec: expected key=value, got \"" + pair + "\"");
    }
    spec.kv[pair.substr(0, eq)] = pair.substr(eq + 1);
  }
  return true;
}

// Reads spec values with defaults; collects unknown-key / parse errors.
class SpecReader {
 public:
  explicit SpecReader(const Spec& spec) : spec_(spec) {}

  double Get(const std::string& key, double fallback) {
    used_.push_back(key);
    const auto it = spec_.kv.find(key);
    if (it == spec_.kv.end()) return fallback;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == nullptr || *end != '\0' || end == it->second.c_str()) {
      Error(key + ": unparsable value \"" + it->second + "\"");
      return fallback;
    }
    return v;
  }

  long long GetInt(const std::string& key, long long fallback) {
    used_.push_back(key);
    const auto it = spec_.kv.find(key);
    if (it == spec_.kv.end()) return fallback;
    long long v = 0;
    const char* first = it->second.data();
    const char* last = first + it->second.size();
    auto [ptr, ec] = std::from_chars(first, last, v);
    if (ec != std::errc() || ptr != last) {
      Error(key + ": unparsable value \"" + it->second + "\"");
      return fallback;
    }
    return v;
  }

  std::string GetString(const std::string& key, const std::string& fallback) {
    used_.push_back(key);
    const auto it = spec_.kv.find(key);
    return it == spec_.kv.end() ? fallback : it->second;
  }

  // Call after all Get*(): flags keys the generator does not understand.
  void CheckUnknown() {
    for (const auto& [key, value] : spec_.kv) {
      if (std::find(used_.begin(), used_.end(), key) == used_.end()) {
        Error("unknown key \"" + key + "\" for generator " + spec_.generator);
      }
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  void Error(const std::string& msg) {
    if (!error_.empty()) error_ += "; ";
    error_ += msg;
  }

  const Spec& spec_;
  std::vector<std::string> used_;
  std::string error_;
};

// Collects the first value out of range, in call order, as
// "key=value out of range (need rule)": the error names the key.
class RangeCheck {
 public:
  template <typename T>
  void Need(bool ok, const char* key, T value, const char* rule) {
    if (ok || !error_.empty()) return;
    std::ostringstream os;
    os << key << "=" << value << " out of range (need " << rule << ")";
    error_ = os.str();
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

 private:
  std::string error_;
};

// A read and range-checked spec: the generator's config, ready for its
// Generate* function or its stream source.
struct GeneratorSpec {
  std::variant<PoissonConfig, CoflowGenConfig, TrafficConfig> config;
  // Rounds the generator draws; -1 for `rounds=inf`. A finite horizon is
  // also the config's num_rounds.
  Round horizon = 10;
};

// True for the generators ReadGeneratorSpec reads: poisson, coflow, cdf.
bool IsRoundGenerator(const std::string& generator);

// Reads `spec` (IsRoundGenerator(spec.generator) must hold) into *out.
// `rounds` is an integer >= 1, or `inf` when `allow_unbounded` (streams
// only; it then needs load > 0). A cdf: spec resolves its size
// distribution here, so a bad `dist=` or `file=` fails even on
// validation-only passes. Returns false with *error set on an unknown key,
// an unparsable or out-of-range value, or a bad distribution.
bool ReadGeneratorSpec(const Spec& spec, bool allow_unbounded,
                       GeneratorSpec* out, std::string* error);

}  // namespace api_spec
}  // namespace flowsched

#endif  // FLOWSCHED_API_GENERATOR_SPEC_H_
