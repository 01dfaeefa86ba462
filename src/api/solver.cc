#include "api/solver.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "util/stopwatch.h"

namespace flowsched {
namespace {

bool AppendParseError(std::string* error, const std::string& key,
                      const std::string& value) {
  if (error != nullptr) {
    if (!error->empty()) *error += "; ";
    *error += "parameter " + key + ": unparsable value \"" + value + "\"";
  }
  return false;
}

}  // namespace

std::string SolveOptions::ParamOr(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

std::int64_t SolveOptions::IntParamOr(const std::string& key,
                                      std::int64_t fallback,
                                      std::string* error) const {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  std::int64_t v = 0;
  const char* first = it->second.data();
  const char* last = first + it->second.size();
  auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) {
    AppendParseError(error, key, it->second);
    return fallback;
  }
  return v;
}

double SolveOptions::DoubleParamOr(const std::string& key, double fallback,
                                   std::string* error) const {
  const auto it = params.find(key);
  if (it == params.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  // strtod also reads "nan" and "inf", which no double knob means.
  if (end == nullptr || *end != '\0' || end == it->second.c_str() ||
      !std::isfinite(v)) {
    AppendParseError(error, key, it->second);
    return fallback;
  }
  return v;
}

std::vector<std::string> Solver::ParamKeys() const {
  std::vector<std::string> keys;
  for (const SolverKeyDoc& p : ParamDocs()) keys.push_back(p.key);
  return keys;
}

double SolveReport::ApproxRatio() const {
  if (!ok || !lower_bound.has_value() || *lower_bound <= 0.0) return 0.0;
  return objective / *lower_bound;
}

SolveReport Solver::Solve(const Instance& instance,
                          const SolveOptions& options) {
  SolveReport report;
  report.solver = std::string(name());
  if (auto err = instance.ValidationError()) {
    report.error = "invalid instance: " + *err;
    return report;
  }
  const auto known = ParamKeys();
  for (const auto& [key, value] : options.params) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      report.error = "unknown parameter \"" + key + "\" for solver " +
                     report.solver;
      if (!known.empty()) {
        report.error += " (accepts:";
        for (const auto& k : known) report.error += " " + k;
        report.error += ")";
      }
      return report;
    }
  }

  if (instance.num_flows() == 0) {
    // Trivial by definition; spares every adapter an empty-input edge case.
    report.ok = true;
    report.schedule = Schedule(0);
    report.objective_name = "total_response";
    report.metrics = ComputeMetrics(instance, report.schedule);
    return report;
  }

  Stopwatch timer;
  report = SolveImpl(instance, options);
  report.solver = std::string(name());
  report.wall_seconds = timer.ElapsedSeconds();
  if (options.time_limit_seconds > 0.0 &&
      report.wall_seconds > options.time_limit_seconds) {
    report.diagnostics["time_limit_exceeded"] = 1.0;
  }
  if (!report.ok) {
    if (report.error.empty()) report.error = "solver failed";
    return report;
  }
  if (auto err = report.schedule.ValidationError(instance, report.allowance)) {
    report.ok = false;
    report.error = "schedule invalid under reported allowance: " + *err;
    return report;
  }
  report.metrics = ComputeMetrics(instance, report.schedule);
  report.objective = report.objective_name == "max_response"
                         ? report.metrics.max_response
                         : report.metrics.total_response;
  return report;
}

}  // namespace flowsched
