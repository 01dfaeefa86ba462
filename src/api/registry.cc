#include "api/registry.h"

#include <utility>

#include "api/builtin_solvers.h"

namespace flowsched {

SolverRegistry& SolverRegistry::Global() {
  static SolverRegistry* registry = [] {
    auto* r = new SolverRegistry();
    RegisterBuiltinSolvers(*r);
    return r;
  }();
  return *registry;
}

void SolverRegistry::Register(SolverFactory factory) {
  const auto probe = factory();
  entries_[std::string(probe->name())] =
      Entry{std::string(probe->description()), std::move(factory)};
}

bool SolverRegistry::Contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> SolverRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;  // std::map iterates sorted.
}

namespace {

// Greedy '*' glob: '*' matches any (possibly empty) substring. Iterative
// backtracking form — no other metacharacters are supported.
bool GlobMatch(std::string_view pattern, std::string_view text) {
  std::size_t p = 0, t = 0;
  std::size_t star = std::string_view::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

}  // namespace

std::vector<std::string> SolverRegistry::NamesMatching(
    std::string_view pattern) const {
  std::vector<std::string> names;
  for (const auto& [name, entry] : entries_) {
    if (GlobMatch(pattern, name)) names.push_back(name);
  }
  return names;  // std::map iterates sorted.
}

std::string SolverRegistry::Description(std::string_view name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? std::string() : it->second.description;
}

std::unique_ptr<Solver> SolverRegistry::Create(std::string_view name,
                                               std::string* error) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    if (error != nullptr) {
      *error = "unknown solver \"" + std::string(name) + "\"; registered:";
      for (const auto& n : Names()) *error += " " + n;
    }
    return nullptr;
  }
  return it->second.factory();
}

SolveReport SolverRegistry::Solve(std::string_view name,
                                  const Instance& instance,
                                  const SolveOptions& options) const {
  std::string error;
  auto solver = Create(name, &error);
  if (solver == nullptr) {
    SolveReport report;
    report.solver = std::string(name);
    report.error = error;
    return report;
  }
  return solver->Solve(instance, options);
}

void RegisterBuiltinSolvers(SolverRegistry& registry) {
  internal::RegisterOfflineSolvers(registry);
  internal::RegisterOnlineSolvers(registry);
  internal::RegisterFabricSolvers(registry);
}

}  // namespace flowsched
