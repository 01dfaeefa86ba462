#include "campaign/sweep_spec.h"

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

// A finite double spanning all of `text`.
bool ParseDouble(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && std::isfinite(out);
}

template <typename T>
bool ParseInt(const std::string& text, T& out) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, out);
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

bool BadElement(const std::string& elem, std::string* error) {
  return Fail(error, "axis element \"" + elem +
                         "\" is neither a finite number nor a range");
}

// Checked before an element expands: the axis may hold at most
// kMaxSweepSize values. `last` is the element's value count minus one, a
// double because a range's count can exceed every integer type.
bool AxisHasRoom(std::size_t size, double last, const std::string& elem,
                 std::string* error) {
  if (size < kMaxSweepSize &&
      last < static_cast<double>(kMaxSweepSize - size)) {
    return true;
  }
  return Fail(error, "\"" + elem + "\" takes the axis past " +
                         std::to_string(kMaxSweepSize) + " values");
}

// "a:b:step" inclusive range, else a plain number.
bool AppendElement(const std::string& elem, std::vector<double>& out,
                   std::string* error) {
  double a = 0.0, b = 0.0, step = 0.0;
  const auto c1 = elem.find(':');
  if (c1 == std::string::npos) {
    if (!ParseDouble(elem, a)) return BadElement(elem, error);
    if (!AxisHasRoom(out.size(), 0, elem, error)) return false;
    out.push_back(a);
    return true;
  }
  const auto c2 = elem.find(':', c1 + 1);
  if (c2 == std::string::npos || !ParseDouble(elem.substr(0, c1), a) ||
      !ParseDouble(elem.substr(c1 + 1, c2 - c1 - 1), b) ||
      !ParseDouble(elem.substr(c2 + 1), step) || step <= 0.0 || b < a) {
    return BadElement(elem, error);
  }
  // At most last + 1 values; the count also bounds the loop where
  // a + i*step stops moving.
  const double last = std::floor((b - a) / step) + 1.0;
  if (!AxisHasRoom(out.size(), last, elem, error)) return false;
  // i*step (not repeated +=) keeps endpoints exact enough to include `b`
  // despite binary rounding; the epsilon absorbs the residue.
  const double eps = step * 1e-9;
  for (long long i = 0; i <= static_cast<long long>(last); ++i) {
    const double v = a + static_cast<double>(i) * step;
    if (v > b + eps) break;
    out.push_back(std::min(v, b));
  }
  return true;
}

// "a..b" inclusive range, else a plain integer.
template <typename T>
bool AppendElement(const std::string& elem, std::vector<T>& out,
                   std::string* error) {
  T lo{}, hi{};
  const auto dots = elem.find("..");
  if (dots == std::string::npos) {
    if (!ParseInt(elem, lo)) return BadElement(elem, error);
    if (!AxisHasRoom(out.size(), 0, elem, error)) return false;
    out.push_back(lo);
    return true;
  }
  if (!ParseInt(elem.substr(0, dots), lo) ||
      !ParseInt(elem.substr(dots + 2), hi) || hi < lo) {
    return BadElement(elem, error);
  }
  // Unsigned arithmetic: hi - lo cannot overflow, and counting up to it
  // never steps past hi.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (!AxisHasRoom(out.size(), static_cast<double>(span), elem, error)) {
    return false;
  }
  for (std::uint64_t i = 0; i <= span; ++i) {
    out.push_back(static_cast<T>(static_cast<std::uint64_t>(lo) + i));
  }
  return true;
}

template <typename T>
bool ParseAxisList(const std::string& text, std::vector<T>& out,
                   std::string* error) {
  for (const std::string& elem : Split(text, ',')) {
    if (!AppendElement(elem, out, error)) return false;
  }
  if (out.empty()) return Fail(error, "axis \"" + text + "\" is empty");
  return true;
}

}  // namespace

bool ParseAxis(const std::string& text, std::vector<double>& out,
               std::string* error) {
  return ParseAxisList(text, out, error);
}

bool ParseAxis(const std::string& text, std::vector<long long>& out,
               std::string* error) {
  return ParseAxisList(text, out, error);
}

bool ParseAxis(const std::string& text, std::vector<std::uint64_t>& out,
               std::string* error) {
  return ParseAxisList(text, out, error);
}

bool ApplySweepSpecLine(SweepSpec& spec, const std::string& line,
                        std::string* error) {
  const auto key_end = line.find('=');
  if (key_end == std::string::npos) {
    return Fail(error, "expected key=value, got \"" + line + "\"");
  }
  const std::string key = line.substr(0, key_end);
  const std::string value = line.substr(key_end + 1);
  // A list key replaces its whole list; an error names the key.
  const auto list = [&](std::vector<std::string>& items, char sep) {
    items = Split(value, sep);
    return !items.empty() || Fail(error, key + ": empty list");
  };
  const auto axis = [&](auto& values) {
    values.clear();
    std::string axis_error;
    return ParseAxis(value, values, &axis_error) ||
           Fail(error, key + ": " + axis_error);
  };
  if (key == "name") {
    spec.name = value;
    return true;
  }
  if (key == "solvers") return list(spec.solvers, ',');
  if (key == "instances" || key == "instance") {
    return list(spec.instances, ';');
  }
  if (key == "loads") return axis(spec.loads);
  if (key == "ports") return axis(spec.ports);
  if (key == "rounds") return axis(spec.rounds);
  if (key == "shards") return axis(spec.shards);
  if (key == "dists") return list(spec.dists, ',');
  if (key == "seeds") return axis(spec.seeds);
  // '|' separates scenarios because inline scenario scripts use ';' as
  // their own line separator (scenario/scenario.h).
  if (key == "scenarios") return list(spec.scenarios, '|');
  if (key == "trials") {
    return (ParseInt(value, spec.trials) && spec.trials >= 1) ||
           Fail(error, "trials: expected a positive integer, got \"" +
                           value + "\"");
  }
  if (key == "base_seed") {
    return ParseInt(value, spec.base_seed) ||
           Fail(error, "base_seed: unparsable value \"" + value + "\"");
  }
  if (key == "max_rounds") {
    return (ParseInt(value, spec.max_rounds) && spec.max_rounds >= 0) ||
           Fail(error, "max_rounds: expected a non-negative integer, got \"" +
                           value + "\"");
  }
  if (key == "param") {
    const auto eq = value.find('=');
    if (eq == std::string::npos) {
      return Fail(error, "param: expected key=value, got \"" + value + "\"");
    }
    spec.params[value.substr(0, eq)] = value.substr(eq + 1);
    return true;
  }
  return Fail(error, "unknown spec key \"" + key + "\"");
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

std::vector<std::pair<int, std::string>> SpecLines(const std::string& text) {
  std::vector<std::pair<int, std::string>> lines;
  std::size_t start = 0;
  for (int line_no = 1; start <= text.size(); ++line_no) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    line.resize(std::min(line.find('#'), line.size()));
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const auto e = line.find_last_not_of(" \t\r");
    lines.emplace_back(line_no, line.substr(b, e - b + 1));
  }
  return lines;
}

bool ParseSweepSpec(const std::string& text, SweepSpec& spec,
                    std::string* error) {
  const auto lines = SpecLines(text);
  if (lines.empty()) return Fail(error, "empty sweep spec");
  for (const auto& [line_no, line] : lines) {
    std::string line_error;
    if (!ApplySweepSpecLine(spec, line, &line_error)) {
      return Fail(error,
                  "line " + std::to_string(line_no) + ": " + line_error);
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

  // Count before building: the grid is a cross product of cells x seeds x
  // trials, and a typo'd axis must not become an allocation failure.
  std::uint64_t num_tasks = 1;
  for (const std::size_t n :
       {spec.instances.size(), loads.size(), ports.size(), rounds.size(),
        shards.size(), dists.size(), scenarios.size(), solvers.size(),
        seeds.size(), static_cast<std::size_t>(spec.trials)}) {
    if (n > kMaxSweepSize / num_tasks) {
      return Fail(error, "sweep expands to more than " +
                             std::to_string(kMaxSweepSize) +
                             " tasks (cells x seeds x trials)");
    }
    num_tasks *= n;
  }

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
