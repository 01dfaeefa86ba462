#include "exp/sweep_spec.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "api/instance_source.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace flowsched {
namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool ParseDouble(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && end != text.c_str();
}

bool ParseLongLong(const std::string& text, long long& out) {
  const char* first = text.data();
  const char* last = first + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool ParseU64(const std::string& text, std::uint64_t& out) {
  const char* first = text.data();
  const char* last = first + text.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  for (char c : text + sep) {
    if (c == sep) {
      // Trim surrounding spaces; empty elements are skipped.
      const auto b = part.find_first_not_of(" \t");
      const auto e = part.find_last_not_of(" \t");
      if (b != std::string::npos) parts.push_back(part.substr(b, e - b + 1));
      part.clear();
    } else {
      part += c;
    }
  }
  return parts;
}

// Shortest representation that round-trips through the generator-spec
// parser; stable so instance specs (and thus reports) are reproducible.
std::string FormatAxisValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

template <typename T, typename ParseFn>
bool ParseAxisElements(const std::string& text, std::vector<T>& out,
                       ParseFn parse_range, std::string* error) {
  for (const std::string& elem : Split(text, ',')) {
    if (!parse_range(elem, out)) {
      return Fail(error, "axis element \"" + elem +
                             "\" is neither a number nor a range");
    }
  }
  if (out.empty()) return Fail(error, "axis \"" + text + "\" is empty");
  return true;
}

template <typename T>
bool ParseIntRangeOrValue(const std::string& elem, std::vector<T>& out) {
  const auto dots = elem.find("..");
  if (dots == std::string::npos) {
    T v{};
    if constexpr (std::is_same_v<T, std::uint64_t>) {
      if (!ParseU64(elem, v)) return false;
    } else {
      if (!ParseLongLong(elem, v)) return false;
    }
    out.push_back(v);
    return true;
  }
  T lo{}, hi{};
  const std::string lo_s = elem.substr(0, dots);
  const std::string hi_s = elem.substr(dots + 2);
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    if (!ParseU64(lo_s, lo) || !ParseU64(hi_s, hi)) return false;
  } else {
    if (!ParseLongLong(lo_s, lo) || !ParseLongLong(hi_s, hi)) return false;
  }
  if (hi < lo) return false;
  for (T v = lo; v <= hi; ++v) out.push_back(v);
  return true;
}

}  // namespace

bool ParseAxis(const std::string& text, std::vector<double>& out,
               std::string* error) {
  auto parse_elem = [](const std::string& elem, std::vector<double>& vals) {
    // "a:b:step" inclusive range, else a plain number.
    const auto c1 = elem.find(':');
    if (c1 == std::string::npos) {
      double v = 0.0;
      if (!ParseDouble(elem, v)) return false;
      vals.push_back(v);
      return true;
    }
    const auto c2 = elem.find(':', c1 + 1);
    if (c2 == std::string::npos) return false;
    double a = 0.0, b = 0.0, step = 0.0;
    if (!ParseDouble(elem.substr(0, c1), a) ||
        !ParseDouble(elem.substr(c1 + 1, c2 - c1 - 1), b) ||
        !ParseDouble(elem.substr(c2 + 1), step)) {
      return false;
    }
    if (step <= 0.0 || b < a) return false;
    // i*step (not repeated +=) keeps endpoints exact enough to include `b`
    // despite binary rounding; the epsilon absorbs the residue.
    const double eps = step * 1e-9;
    for (int i = 0;; ++i) {
      const double v = a + static_cast<double>(i) * step;
      if (v > b + eps) break;
      vals.push_back(std::min(v, b));
    }
    return true;
  };
  return ParseAxisElements(text, out, parse_elem, error);
}

bool ParseAxis(const std::string& text, std::vector<long long>& out,
               std::string* error) {
  return ParseAxisElements(text, out, ParseIntRangeOrValue<long long>, error);
}

bool ParseAxis(const std::string& text, std::vector<std::uint64_t>& out,
               std::string* error) {
  return ParseAxisElements(text, out, ParseIntRangeOrValue<std::uint64_t>,
                           error);
}

// Applies one key=value pair to the spec; the text and JSON front ends and
// the campaign spec parser (campaign/campaign_spec.cc) funnel through here
// so the key set cannot drift between formats.
bool ApplySweepSpecKey(SweepSpec& spec, const std::string& key,
                       const std::string& value, std::string* error) {
  std::string axis_error;
  if (key == "name") {
    spec.name = value;
  } else if (key == "solvers") {
    spec.solvers = Split(value, ',');
    if (spec.solvers.empty()) return Fail(error, "solvers: empty list");
  } else if (key == "instances" || key == "instance") {
    spec.instances = Split(value, ';');
    if (spec.instances.empty()) return Fail(error, "instances: empty list");
  } else if (key == "loads") {
    spec.loads.clear();
    if (!ParseAxis(value, spec.loads, &axis_error)) {
      return Fail(error, "loads: " + axis_error);
    }
  } else if (key == "ports") {
    spec.ports.clear();
    if (!ParseAxis(value, spec.ports, &axis_error)) {
      return Fail(error, "ports: " + axis_error);
    }
  } else if (key == "rounds") {
    spec.rounds.clear();
    if (!ParseAxis(value, spec.rounds, &axis_error)) {
      return Fail(error, "rounds: " + axis_error);
    }
  } else if (key == "shards") {
    spec.shards.clear();
    if (!ParseAxis(value, spec.shards, &axis_error)) {
      return Fail(error, "shards: " + axis_error);
    }
  } else if (key == "dists") {
    spec.dists = Split(value, ',');
    if (spec.dists.empty()) return Fail(error, "dists: empty list");
  } else if (key == "seeds") {
    spec.seeds.clear();
    if (!ParseAxis(value, spec.seeds, &axis_error)) {
      return Fail(error, "seeds: " + axis_error);
    }
  } else if (key == "scenarios") {
    // '|' separates elements because inline scenario scripts use ';' as
    // their own line separator (scenario/scenario.h).
    spec.scenarios = Split(value, '|');
    if (spec.scenarios.empty()) return Fail(error, "scenarios: empty list");
  } else if (key == "trials") {
    long long v = 0;
    if (!ParseLongLong(value, v) || v < 1) {
      return Fail(error, "trials: expected a positive integer, got \"" +
                             value + "\"");
    }
    spec.trials = static_cast<int>(v);
  } else if (key == "base_seed") {
    if (!ParseU64(value, spec.base_seed)) {
      return Fail(error, "base_seed: unparsable value \"" + value + "\"");
    }
  } else if (key == "max_rounds") {
    if (!ParseLongLong(value, spec.max_rounds) || spec.max_rounds < 0) {
      return Fail(error, "max_rounds: expected a non-negative integer, got \"" +
                             value + "\"");
    }
  } else if (key == "param") {
    const auto eq = value.find('=');
    if (eq == std::string::npos) {
      return Fail(error, "param: expected key=value, got \"" + value + "\"");
    }
    spec.params[value.substr(0, eq)] = value.substr(eq + 1);
  } else {
    return Fail(error, "unknown spec key \"" + key + "\"");
  }
  return true;
}

namespace {

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  std::size_t pos = 0;
  while ((pos = text.find(from, pos)) != std::string::npos) {
    text.replace(pos, from.size(), to);
    pos += to.size();
  }
  return text;
}

bool References(const std::string& tmpl, const std::string& placeholder) {
  return tmpl.find(placeholder) != std::string::npos;
}

}  // namespace

bool ParseSweepSpec(const std::string& text, SweepSpec& spec,
                    std::string* error, int first_line) {
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    return Fail(error, "empty sweep spec");
  }
  int line_no = first_line - 1;
  std::string line;
  for (char c : text + "\n") {
    if (c != '\n') {
      line += c;
      continue;
    }
    ++line_no;
    std::string trimmed = line;
    line.clear();
    const auto hash = trimmed.find('#');
    if (hash != std::string::npos) trimmed.resize(hash);
    const auto b = trimmed.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = trimmed.find_last_not_of(" \t\r");
    trimmed = trimmed.substr(b, e - b + 1);
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      return Fail(error, "line " + std::to_string(line_no) +
                             ": expected key=value, got \"" + trimmed + "\"");
    }
    std::string perr;
    if (!ApplySweepSpecKey(spec, trimmed.substr(0, eq), trimmed.substr(eq + 1),
                           &perr)) {
      return Fail(error, "line " + std::to_string(line_no) + ": " + perr);
    }
  }
  return true;
}

bool ExpandSweep(const SweepSpec& spec, const SolverRegistry& registry,
                 SweepPlan& plan, std::string* error) {
  plan = SweepPlan{};
  if (spec.solvers.empty()) return Fail(error, "spec has no solvers");
  if (spec.instances.empty()) return Fail(error, "spec has no instances");
  if (spec.trials < 1) return Fail(error, "trials must be >= 1");

  // Resolve solver names/globs; order follows the spec, duplicates dropped.
  std::vector<std::string> solvers;
  std::set<std::string> seen;
  for (const std::string& pattern : spec.solvers) {
    const std::vector<std::string> matches = registry.NamesMatching(pattern);
    if (matches.empty()) {
      return Fail(error, "solver pattern \"" + pattern +
                             "\" matches no registered solver");
    }
    for (const std::string& name : matches) {
      if (seen.insert(name).second) solvers.push_back(name);
    }
  }

  // Every template must reference exactly the axes the spec sets: a set
  // axis nobody reads silently multiplies identical runs; an unreferenced
  // placeholder produces specs like "load={load}" that fail downstream
  // with a worse message.
  for (const std::string& tmpl : spec.instances) {
    const struct {
      const char* placeholder;
      bool axis_set;
    } axes[] = {
        {"{load}", !spec.loads.empty()},
        {"{ports}", !spec.ports.empty()},
        {"{rounds}", !spec.rounds.empty()},
        {"{shards}", !spec.shards.empty()},
        {"{dist}", !spec.dists.empty()},
    };
    for (const auto& [placeholder, axis_set] : axes) {
      if (References(tmpl, placeholder) && !axis_set) {
        return Fail(error, "template \"" + tmpl + "\" references " +
                               placeholder + " but the axis is not set");
      }
      if (!References(tmpl, placeholder) && axis_set) {
        return Fail(error, "axis for " + std::string(placeholder) +
                               " is set but template \"" + tmpl +
                               "\" does not reference it");
      }
    }
    // Per-template, like the axes above: a template without {seed} in a
    // multi-seed sweep would rerun one identical instance per seed and
    // report fake zero-variance statistics.
    if (spec.seeds.size() > 1 && !References(tmpl, "{seed}")) {
      return Fail(error, "multiple seeds set but template \"" + tmpl +
                             "\" does not reference {seed}");
    }
  }
  std::vector<std::uint64_t> seeds = spec.seeds;
  if (seeds.empty()) seeds.push_back(1);

  // The nullopt element stands for "axis unused" so the cell loops below
  // stay a plain cross product.
  std::vector<std::optional<double>> loads(spec.loads.begin(),
                                           spec.loads.end());
  if (loads.empty()) loads.push_back(std::nullopt);
  std::vector<std::optional<long long>> ports(spec.ports.begin(),
                                              spec.ports.end());
  if (ports.empty()) ports.push_back(std::nullopt);
  std::vector<std::optional<long long>> rounds(spec.rounds.begin(),
                                               spec.rounds.end());
  if (rounds.empty()) rounds.push_back(std::nullopt);
  std::vector<std::optional<long long>> shards(spec.shards.begin(),
                                               spec.shards.end());
  if (shards.empty()) shards.push_back(std::nullopt);
  std::vector<std::optional<std::string>> dists(spec.dists.begin(),
                                                spec.dists.end());
  if (dists.empty()) dists.push_back(std::nullopt);

  // The scenario axis is a solver-param axis (no template placeholder): a
  // malformed script is an expansion error, not per-task noise. "none" is
  // the explicit fault-free point.
  for (const std::string& s : spec.scenarios) {
    if (s == "none") continue;
    ScenarioScript probe;
    std::string scen_error;
    if (!LoadScenarioParam(s, &probe, &scen_error)) {
      return Fail(error, "scenario \"" + s + "\": " + scen_error);
    }
  }
  std::vector<std::optional<std::string>> scenarios(spec.scenarios.begin(),
                                                    spec.scenarios.end());
  if (scenarios.empty()) scenarios.push_back(std::nullopt);

  std::map<std::string, int> instance_slots;
  for (const std::string& tmpl : spec.instances) {
    for (const auto& load : loads) {
      for (const auto& port : ports) {
        for (const auto& round : rounds) {
          for (const auto& shard : shards) {
            for (const auto& dist : dists) {
              std::string family = tmpl;
              if (load) family = ReplaceAll(family, "{load}",
                                            FormatAxisValue(*load));
              if (port) family = ReplaceAll(family, "{ports}",
                                            std::to_string(*port));
              if (round) family = ReplaceAll(family, "{rounds}",
                                             std::to_string(*round));
              if (shard) family = ReplaceAll(family, "{shards}",
                                             std::to_string(*shard));
              if (dist) family = ReplaceAll(family, "{dist}", *dist);
              for (const auto& scenario : scenarios) {
                for (const std::string& solver : solvers) {
                  SweepCell cell;
                  cell.index = static_cast<int>(plan.cells.size());
                  cell.solver = solver;
                  cell.instance_template = tmpl;
                  cell.load = load;
                  cell.ports = port;
                  cell.rounds = round;
                  cell.shards = shard;
                  cell.dist = dist;
                  cell.scenario = scenario;
                  cell.instance_family = family;
                  plan.cells.push_back(std::move(cell));
                }
              }
            }
          }
        }
      }
    }
  }

  for (const SweepCell& cell : plan.cells) {
    for (std::size_t si = 0; si < seeds.size(); ++si) {
      for (int trial = 0; trial < spec.trials; ++trial) {
        SweepTask task;
        task.index = static_cast<int>(plan.tasks.size());
        task.cell = cell.index;
        task.instance_seed = seeds[si];
        task.trial = trial;
        // {seed} and {trial} substitute per task, not per cell: they vary
        // the instance *within* a cell's aggregate. {trial} lets
        // trace-driven templates name one file per repetition
        // (e.g. traces/day{trial}.csv).
        task.instance_spec =
            ReplaceAll(ReplaceAll(cell.instance_family, "{seed}",
                                  std::to_string(seeds[si])),
                       "{trial}", std::to_string(trial));
        // Seed = f(base_seed, grid coordinates): independent of thread
        // count, schedule, and of which other cells exist... as long as the
        // grid itself is unchanged.
        std::uint64_t s = Rng::DeriveSeed(spec.base_seed,
                                          static_cast<std::uint64_t>(cell.index));
        s = Rng::DeriveSeed(s, static_cast<std::uint64_t>(si));
        s = Rng::DeriveSeed(s, static_cast<std::uint64_t>(trial));
        task.solver_seed = s;
        const auto [it, inserted] = instance_slots.try_emplace(
            task.instance_spec,
            static_cast<int>(plan.unique_instances.size()));
        if (inserted) plan.unique_instances.push_back(task.instance_spec);
        task.instance_slot = it->second;
        plan.tasks.push_back(std::move(task));
      }
    }
  }
  if (plan.tasks.empty()) return Fail(error, "sweep expands to zero tasks");

  // Generator-spec templates are key- and range-checked NOW, not at run
  // time: a typo'd key or out-of-range value would otherwise surface only
  // as per-task failures, after the rest of the campaign had run.
  // Validation never generates, so probing even a 50k-flow family is free.
  for (const std::string& instance_spec : plan.unique_instances) {
    std::string spec_error;
    if (!ValidateInstanceSpec(instance_spec, &spec_error)) {
      return Fail(error, "instance spec \"" + instance_spec +
                             "\": " + spec_error);
    }
  }
  return true;
}

}  // namespace flowsched
