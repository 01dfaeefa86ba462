#include "api/instance_source.h"

#include <fstream>
#include <sstream>
#include <variant>

#include "api/generator_spec.h"
#include "fabric/fabric_spec.h"
#include "model/trace_io.h"
#include "workload/adversarial.h"
#include "workload/patterns.h"

namespace flowsched {
namespace {

using api_spec::Fail;
using api_spec::kMaxInt;
using api_spec::RangeCheck;
using api_spec::Spec;
using api_spec::SpecReader;
using api_spec::SplitSpec;

// The batch generator of each GeneratorSpec config.
struct BatchGenerator {
  Instance operator()(const PoissonConfig& c) { return GeneratePoisson(c); }
  Instance operator()(const CoflowGenConfig& c) { return GenerateCoflows(c); }
  Instance operator()(const TrafficConfig& c) { return GenerateTraffic(c); }
};

// Reads (and thereby checks) one generator spec; materializes the
// instance only when `generate` is set, so spec validation is free of
// generation cost. Both paths share every key read — the accepted-key set
// and the range checks cannot drift between validation and loading.
std::optional<Instance> Generate(const Spec& spec, std::string* error,
                                 bool generate) {
  std::optional<Instance> result;
  if (api_spec::IsRoundGenerator(spec.generator)) {
    api_spec::GeneratorSpec g;
    if (!api_spec::ReadGeneratorSpec(spec, /*allow_unbounded=*/false, &g,
                                     error)) {
      return std::nullopt;
    }
    if (generate) result = std::visit(BatchGenerator{}, g.config);
  } else {
    SpecReader r(spec);
    RangeCheck range;
    // Unknown keys and unparsable values first, then the first value out
    // of range, so no bad value reaches a generator's precondition checks.
    const auto checked = [&] {
      r.CheckUnknown();
      if (!r.ok()) return Fail(error, r.error());
      return range.ok() || Fail(error, range.error());
    };
    if (spec.generator == "shuffle") {
      const long long ports = r.GetInt("ports", 16);
      const long long wave = r.GetInt("wave", 4);
      const long long waves = r.GetInt("waves", 3);
      const long long period = r.GetInt("period", 4);
      range.Need(ports >= 1 && ports <= kMaxInt, "ports", ports,
                 "1 <= ports < 2^31");
      range.Need(wave >= 1 && wave <= ports, "wave", wave,
                 "1 <= wave <= ports");
      range.Need(waves >= 1 && waves <= kMaxInt, "waves", waves,
                 "1 <= waves < 2^31");
      range.Need(period >= 1 && (waves <= 1 || period <= kMaxInt / (waves - 1)),
                 "period", period, "period >= 1 and (waves - 1) * period < 2^31");
      if (!checked()) return std::nullopt;
      if (generate) {
        result = ShuffleWaves(static_cast<int>(ports), static_cast<int>(wave),
                              static_cast<int>(waves),
                              static_cast<int>(period));
      }
    } else if (spec.generator == "incast") {
      const long long ports = r.GetInt("ports", 16);
      const long long fanin = r.GetInt("fanin", ports - 1);
      const long long release = r.GetInt("release", 0);
      range.Need(ports >= 1 && ports <= kMaxInt, "ports", ports,
                 "1 <= ports < 2^31");
      range.Need(fanin >= 0 && fanin <= ports, "fanin", fanin,
                 "0 <= fanin <= ports");
      range.Need(release >= 0 && release <= kMaxInt, "release", release,
                 "0 <= release < 2^31");
      if (!checked()) return std::nullopt;
      if (generate) {
        Instance instance(SwitchSpec::Uniform(static_cast<int>(ports),
                                              static_cast<int>(ports), 1),
                          {});
        AddIncast(instance, /*sink=*/static_cast<PortId>(ports - 1),
                  static_cast<int>(fanin), static_cast<Round>(release));
        result = std::move(instance);
      }
    } else if (spec.generator == "fig4a") {
      const long long phase = r.GetInt("phase", 6);
      const long long total = r.GetInt("total", 30);
      range.Need(phase >= 1 && phase < kMaxInt, "phase", phase,
                 "1 <= phase < 2^31 - 1");
      range.Need(total > phase && total <= kMaxInt, "total", total,
                 "phase < total < 2^31");
      if (!checked()) return std::nullopt;
      if (generate) {
        result = Fig4aInstance(static_cast<int>(phase),
                               static_cast<int>(total));
      }
    } else if (spec.generator == "fig4b") {
      if (!checked()) return std::nullopt;
      if (generate) result = Fig4bInstance();
    } else {
      Fail(error, "unknown generator \"" + spec.generator + "\"");
      return std::nullopt;
    }
  }
  if (!generate) return std::nullopt;
  if (auto verr = result->ValidationError()) {
    Fail(error, "generated instance invalid: " + *verr);
    return std::nullopt;
  }
  return result;
}

}  // namespace

bool IsGeneratorSpec(const std::string& source) {
  const std::string name = source.substr(0, source.find(':'));
  return api_spec::IsRoundGenerator(name) || name == "shuffle" ||
         name == "incast" || name == "fig4a" || name == "fig4b" ||
         name == "fabric";
}

bool ValidateInstanceSpec(const std::string& source, std::string* error) {
  if (IsFabricSpec(source)) {
    FabricSpec fabric;
    if (!ParseFabricSpec(source, fabric, error)) return false;
    return ValidateInstanceSpec(fabric.inner, error);
  }
  if (!IsGeneratorSpec(source)) {
    // A source shaped like a generator spec — "name:key=value,..." with a
    // pathless name — that names no known generator is almost certainly a
    // typo'd generator name ("possion:ports=8"), not a file. Reject it now
    // with the name called out; genuine file paths (no '=' after the
    // colon, or path characters in the name) still defer to load time.
    const auto colon = source.find(':');
    if (colon != std::string::npos && colon > 0 &&
        source.find('=', colon) != std::string::npos) {
      const std::string name = source.substr(0, colon);
      if (name.find('/') == std::string::npos &&
          name.find('\\') == std::string::npos &&
          name.find('.') == std::string::npos) {
        return Fail(error, "unknown generator \"" + name +
                               "\" (and \"" + source +
                               "\" does not look like a file path)");
      }
    }
    return true;  // File paths check at load.
  }
  Spec spec;
  if (!SplitSpec(source, spec, error)) return false;
  std::string gen_error;
  Generate(spec, &gen_error, /*generate=*/false);
  return gen_error.empty() || Fail(error, gen_error);
}

std::optional<Instance> LoadInstance(const std::string& source,
                                     std::string* error) {
  if (IsFabricSpec(source)) {
    FabricSpec fabric;
    if (!ParseFabricSpec(source, fabric, error)) return std::nullopt;
    auto inner = LoadInstance(fabric.inner, error);
    if (!inner.has_value()) return std::nullopt;
    // The inner instance rides through unchanged (global port ids); the
    // stamp is what carries the topology to fabric.* solvers.
    inner->set_source(source);
    return inner;
  }
  if (IsGeneratorSpec(source)) {
    Spec spec;
    if (!SplitSpec(source, spec, error)) return std::nullopt;
    auto instance = Generate(spec, error, /*generate=*/true);
    if (instance.has_value()) instance->set_source(source);
    return instance;
  }
  std::ifstream in(source);
  if (!in) {
    Fail(error, "cannot open \"" + source +
                    "\" (not a file, and not a known generator spec)");
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  std::string parse_error;
  auto instance = LooksLikeCoflowTrace(content)
                      ? ReadCoflowTraceCsv(content, &parse_error)
                      : ReadInstanceCsv(content, &parse_error);
  if (!instance.has_value()) {
    Fail(error, source + ": " + parse_error);
    return std::nullopt;
  }
  instance->set_source(source);
  return instance;
}

}  // namespace flowsched
