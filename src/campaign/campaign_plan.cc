#include "campaign/campaign_plan.h"

#include <cstdio>

namespace flowsched {
namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// %.15g: enough digits to round-trip the axis values the parser produced;
// matches the sweep expander's own axis formatting so equal specs hash
// equal however the spec spelled them ("0.70" or "0.7").
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

// "key=v1<sep>v2...\n", separated like the source grammar.
template <typename T>
void AppendList(std::string& out, const char* key,
                const std::vector<T>& values, char sep = ',') {
  out += key;
  out += '=';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += sep;
    if constexpr (std::is_same_v<T, double>) {
      out += Num(values[i]);
    } else if constexpr (std::is_same_v<T, std::string>) {
      out += values[i];
    } else {
      out += std::to_string(values[i]);
    }
  }
  out += '\n';
}

}  // namespace

std::uint64_t Fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;  // FNV offset basis.
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;  // FNV prime.
  }
  return hash;
}

std::string HashHex(std::uint64_t hash) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::string CanonicalSweepSpecText(const SweepSpec& spec) {
  std::string out;
  out += "name=" + spec.name + "\n";
  AppendList(out, "solvers", spec.solvers);
  AppendList(out, "instances", spec.instances, ';');
  AppendList(out, "loads", spec.loads);
  AppendList(out, "ports", spec.ports);
  AppendList(out, "rounds", spec.rounds);
  AppendList(out, "shards", spec.shards);
  AppendList(out, "dists", spec.dists);
  AppendList(out, "seeds", spec.seeds);
  AppendList(out, "scenarios", spec.scenarios, '|');
  out += "trials=" + std::to_string(spec.trials) + "\n";
  out += "base_seed=" + std::to_string(spec.base_seed) + "\n";
  out += "max_rounds=" + std::to_string(spec.max_rounds) + "\n";
  for (const auto& [key, value] : spec.params) {  // std::map: sorted.
    out += "param=" + key + "=" + value + "\n";
  }
  return out;
}

std::string CampaignTaskId(const SweepSpec& grid_spec, const SweepPlan& plan,
                           int task_index) {
  const SweepTask& task = plan.tasks[task_index];
  const SweepCell& cell = plan.cells[task.cell];
  char idx[16];
  std::snprintf(idx, sizeof(idx), "%04d", task_index);
  return grid_spec.name + "-" + idx + "-" + cell.solver;
}

bool ExpandCampaign(const CampaignSpec& spec, const SolverRegistry& registry,
                    CampaignPlan& plan, std::string* error) {
  plan = CampaignPlan{};
  if (spec.grids.empty()) return Fail(error, "campaign has no grids");
  for (const SweepSpec& grid_spec : spec.grids) {
    CampaignGrid grid;
    grid.spec = grid_spec;
    std::string gerr;
    if (!ExpandSweep(grid_spec, registry, grid.plan, &gerr)) {
      return Fail(error, "grid \"" + grid_spec.name + "\": " + gerr);
    }
    grid.grid_hash = Fnv1a64(CanonicalSweepSpecText(grid_spec));
    const std::size_t num_tasks = grid.plan.tasks.size();
    grid.task_ids.reserve(num_tasks);
    grid.task_hashes.reserve(num_tasks);
    for (std::size_t t = 0; t < num_tasks; ++t) {
      const SweepTask& task = grid.plan.tasks[t];
      const SweepCell& cell = grid.plan.cells[task.cell];
      grid.task_ids.push_back(
          CampaignTaskId(grid_spec, grid.plan, static_cast<int>(t)));
      // Grid hash first: any grid reshape renumbers tasks, so every task
      // of an edited grid must re-run even if its own coordinates happen
      // to read the same.
      std::string identity = HashHex(grid.grid_hash);
      for (const std::string& part :
           {cell.solver, task.instance_spec, cell.scenario.value_or("none"),
            std::to_string(task.instance_seed), std::to_string(task.trial),
            std::to_string(task.solver_seed)}) {
        identity += '\0';
        identity += part;
      }
      grid.task_hashes.push_back(Fnv1a64(identity));
    }
    plan.total_tasks += static_cast<int>(num_tasks);
    plan.grids.push_back(std::move(grid));
  }
  return true;
}

void WriteTaskListText(std::ostream& out, const SweepPlan& plan,
                       const std::vector<std::string>& ids) {
  for (const SweepTask& task : plan.tasks) {
    const SweepCell& cell = plan.cells[task.cell];
    out << "  " << ids[task.index] << "  " << cell.solver << "  "
        << task.instance_spec << "  seed=" << task.instance_seed
        << " trial=" << task.trial;
    if (cell.scenario && *cell.scenario != "none") {
      out << " scenario=" << *cell.scenario;
    }
    out << "\n";
  }
}

}  // namespace flowsched
