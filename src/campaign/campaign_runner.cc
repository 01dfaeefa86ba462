#include "campaign/campaign_runner.h"

#include <chrono>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "api/instance_source.h"
#include "api/solver.h"
#include "exp/thread_pool.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace flowsched {
namespace {

namespace fs = std::filesystem;

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

// Write-to-.tmp + rename: the destination either holds the complete record
// or does not exist; a kill between the two files leaves outcome.json
// without meta.json, which resume treats as "never ran".
bool WriteFileAtomic(const std::string& path, const std::string& content,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Fail(error, "cannot write " + tmp);
    out << content;
    out.flush();
    if (!out) return Fail(error, "short write to " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Fail(error, "rename " + tmp + " -> " + path + ": " + ec.message());
  }
  return true;
}

std::int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string MetaJson(const CampaignSpec& spec, const CampaignGrid& grid,
                     int task_index, const std::string& task_id,
                     const std::string& hash_hex, const Provenance& prov,
                     std::int64_t start_ms, std::int64_t end_ms,
                     double wall_seconds, const TaskOutcome& outcome) {
  const SweepTask& task = grid.plan.tasks[task_index];
  const SweepCell& cell = grid.plan.cells[task.cell];
  std::ostringstream out;
  out << "{\n";
  out << "  " << JsonStr("campaign", spec.name) << ",\n";
  out << "  " << JsonStr("grid", grid.spec.name) << ",\n";
  out << "  " << JsonStr("task_id", task_id) << ",\n";
  out << "  \"task_index\": " << task.index << ",\n";
  out << "  \"cell_index\": " << task.cell << ",\n";
  out << "  " << JsonStr("solver", cell.solver) << ",\n";
  out << "  " << JsonStr("instance", task.instance_spec) << ",\n";
  if (cell.scenario) {
    out << "  " << JsonStr("scenario", *cell.scenario) << ",\n";
  }
  out << "  \"instance_seed\": " << task.instance_seed << ",\n";
  out << "  \"trial\": " << task.trial << ",\n";
  out << "  \"solver_seed\": " << task.solver_seed << ",\n";
  out << "  " << JsonStr("spec_hash", hash_hex) << ",\n";
  WriteProvenanceJson(out, prov, 2);
  out << ",\n";
  out << "  \"start_unix_ms\": " << start_ms << ",\n";
  out << "  \"end_unix_ms\": " << end_ms << ",\n";
  out << "  \"wall_seconds\": " << JsonNum(wall_seconds) << ",\n";
  out << "  \"exit_code\": " << (outcome.ok ? 0 : 1) << ",\n";
  out << "  " << JsonStr("status", outcome.ok ? "ok" : "failed");
  if (!outcome.ok) {
    out << ",\n  " << JsonStr("error", outcome.error);
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace

std::string CampaignTaskDir(const std::string& out_root,
                            const std::string& task_id) {
  return out_root + "/runs/" + task_id;
}

bool CampaignTaskUpToDate(const std::string& dir,
                          const std::string& expected_hash_hex,
                          const Provenance& prov) {
  std::string text;
  if (!ReadFile(dir + "/meta.json", text)) return false;
  JsonValue meta;
  if (!ParseJson(text, meta, nullptr)) return false;
  if (meta.GetString("status") != "ok") return false;
  if (meta.GetString("spec_hash") != expected_hash_hex) return false;
  const JsonValue* p = meta.Find("provenance");
  if (p == nullptr) return false;
  if (p->GetString("git_sha") != prov.git_sha) return false;
  if (p->GetString("compiler_flags") != prov.compiler_flags) return false;
  std::error_code ec;
  return fs::exists(dir + "/outcome.json", ec) && !ec;
}

bool ReadTaskOutcome(const std::string& dir, TaskOutcome& outcome,
                     std::string* error) {
  outcome = TaskOutcome{};
  std::string text;
  const std::string path = dir + "/outcome.json";
  if (!ReadFile(path, text)) {
    return Fail(error, "cannot read " + path);
  }
  JsonValue doc;
  std::string jerr;
  if (!ParseJson(text, doc, &jerr)) {
    return Fail(error, path + ": " + jerr);
  }
  outcome.ok = doc.GetBool("ok");
  if (!outcome.ok) {
    outcome.error = doc.GetString("error", "unknown failure");
    return true;
  }
  outcome.total_response = doc.GetNumber("total_response");
  outcome.avg_response = doc.GetNumber("avg_response");
  outcome.p50_response = doc.GetNumber("p50_response");
  outcome.p95_response = doc.GetNumber("p95_response");
  outcome.p99_response = doc.GetNumber("p99_response");
  outcome.max_response = doc.GetNumber("max_response");
  outcome.stddev_response = doc.GetNumber("stddev_response");
  outcome.makespan = doc.GetInt("makespan");
  outcome.num_flows = doc.GetInt("num_flows");
  outcome.rounds = doc.GetInt("rounds");
  outcome.peak_backlog = doc.GetInt("peak_backlog");
  outcome.num_coflows = doc.GetInt("num_coflows");
  outcome.avg_cct = doc.GetNumber("avg_cct");
  outcome.p95_cct = doc.GetNumber("p95_cct");
  outcome.max_cct = doc.GetNumber("max_cct");
  outcome.avg_slowdown = doc.GetNumber("avg_slowdown");
  outcome.shards = doc.GetInt("shards");
  outcome.load_imbalance = doc.GetNumber("load_imbalance");
  outcome.cross_shard_flows = doc.GetInt("cross_shard_flows");
  outcome.split_coflows = doc.GetInt("split_coflows");
  // WriteTaskJsonLine only emits the robustness block for scenario runs;
  // its presence is the has_scenario bit.
  if (doc.Find("downtime_rounds") != nullptr) {
    outcome.has_scenario = true;
    outcome.scenario_events = doc.GetInt("scenario_events");
    outcome.downtime_rounds = doc.GetInt("downtime_rounds");
    outcome.backlog_surge = doc.GetNumber("backlog_surge");
    outcome.recovery_drain_rounds = doc.GetInt("recovery_drain_rounds");
    outcome.response_inflation = doc.GetNumber("response_inflation");
    outcome.migrated_flows = doc.GetInt("migrated_flows");
  }
  outcome.lb_avg_response = doc.GetNumber("lb_avg_response");
  outcome.lb_max_response = doc.GetNumber("lb_max_response");
  outcome.wall_seconds = doc.GetNumber("wall_seconds");
  outcome.rounds_per_sec = doc.GetNumber("rounds_per_sec");
  return true;
}

bool RunCampaign(const CampaignSpec& spec, const CampaignPlan& plan,
                 const std::string& out_root,
                 const CampaignRunOptions& options,
                 CampaignRunSummary& summary, std::string* error) {
  summary = CampaignRunSummary{};
  summary.total = plan.total_tasks;
  const SolverRegistry& registry = options.registry != nullptr
                                       ? *options.registry
                                       : SolverRegistry::Global();
  const Provenance prov = CollectProvenance();
  Stopwatch campaign_timer;

  std::error_code ec;
  fs::create_directories(out_root + "/runs", ec);
  if (ec) {
    return Fail(error,
                "cannot create " + out_root + "/runs: " + ec.message());
  }

  const int jobs = options.jobs < 1 ? 1 : options.jobs;
  ThreadPool pool(jobs);
  std::mutex log_mu;            // Serializes progress lines + counters.
  std::atomic<bool> stop{false};  // --fail-fast latch.
  int done = 0;

  summary.statuses.resize(plan.grids.size());
  // Grids run in order; tasks within a grid run concurrently. Campaigns
  // are few-large-grids, so cross-grid overlap buys little and per-grid
  // instance lifetime stays simple.
  for (std::size_t g = 0; g < plan.grids.size(); ++g) {
    const CampaignGrid& grid = plan.grids[g];
    auto& statuses = summary.statuses[g];
    statuses.assign(grid.plan.tasks.size(), CampaignTaskStatus::kPending);

    // Resume pass: decide per task before materializing anything.
    for (std::size_t t = 0; t < grid.plan.tasks.size(); ++t) {
      if (options.resume &&
          CampaignTaskUpToDate(
              CampaignTaskDir(out_root, grid.task_ids[t]),
              HashHex(grid.task_hashes[t]), prov)) {
        statuses[t] = CampaignTaskStatus::kSkipped;
        ++summary.skipped;
      }
    }

    // Materialize only the instances the remaining tasks reference.
    const std::size_t num_instances = grid.plan.unique_instances.size();
    std::vector<char> needed(num_instances, 0);
    for (std::size_t t = 0; t < grid.plan.tasks.size(); ++t) {
      if (statuses[t] == CampaignTaskStatus::kPending) {
        needed[grid.plan.tasks[t].instance_slot] = 1;
      }
    }
    std::vector<std::optional<Instance>> instances(num_instances);
    std::vector<std::string> instance_errors(num_instances);
    for (std::size_t i = 0; i < num_instances; ++i) {
      if (!needed[i]) continue;
      pool.Submit([&, i] {
        instances[i] =
            LoadInstance(grid.plan.unique_instances[i], &instance_errors[i]);
      });
    }
    pool.Wait();

    for (std::size_t t = 0; t < grid.plan.tasks.size(); ++t) {
      if (statuses[t] != CampaignTaskStatus::kPending) continue;
      pool.Submit([&, g, t] {
        const CampaignGrid& grid = plan.grids[g];
        const SweepTask& task = grid.plan.tasks[t];
        const SweepCell& cell = grid.plan.cells[task.cell];
        auto& status = summary.statuses[g][t];
        if (stop.load(std::memory_order_relaxed)) {
          status = CampaignTaskStatus::kNotRun;
          return;
        }
        const std::string dir =
            CampaignTaskDir(out_root, grid.task_ids[t]);
        std::error_code dir_ec;
        fs::create_directories(dir, dir_ec);

        const std::int64_t start_ms = UnixMillisNow();
        Stopwatch task_timer;
        TaskOutcome outcome;
        const auto& instance = instances[task.instance_slot];
        if (dir_ec) {
          outcome.ok = false;
          outcome.error = "cannot create " + dir + ": " + dir_ec.message();
        } else if (!instance.has_value()) {
          outcome.ok = false;
          outcome.error = "instance: " + instance_errors[task.instance_slot];
        } else {
          SolveOptions solve;
          solve.seed = task.solver_seed;
          solve.max_rounds = static_cast<Round>(grid.spec.max_rounds);
          solve.params = grid.spec.params;
          if (cell.scenario && *cell.scenario != "none") {
            solve.params["scenario"] = *cell.scenario;
          }
          outcome = OutcomeFromSolveReport(
              registry.Solve(cell.solver, *instance, solve));
        }
        const double wall = task_timer.ElapsedSeconds();
        const std::int64_t end_ms = UnixMillisNow();

        // Durable record: outcome first, meta last (the commit marker).
        std::string write_error;
        bool wrote = true;
        if (!dir_ec) {
          std::ostringstream oj;
          WriteTaskJsonLine(oj, cell, task, outcome);
          wrote = WriteFileAtomic(dir + "/outcome.json", oj.str(),
                                  &write_error) &&
                  WriteFileAtomic(
                      dir + "/meta.json",
                      MetaJson(spec, grid, static_cast<int>(t),
                               grid.task_ids[t], HashHex(grid.task_hashes[t]),
                               prov, start_ms, end_ms, wall, outcome),
                      &write_error);
        }
        if (!wrote) {
          outcome.ok = false;
          outcome.error = write_error;
        }
        status = outcome.ok ? CampaignTaskStatus::kOk
                            : CampaignTaskStatus::kFailed;
        if (!outcome.ok && options.fail_fast) {
          stop.store(true, std::memory_order_relaxed);
        }
        std::lock_guard<std::mutex> lock(log_mu);
        ++done;
        ++summary.ran;
        outcome.ok ? ++summary.ok : ++summary.failed;
        if (options.log != nullptr) {
          *options.log << "[" << (summary.ran + summary.skipped) << "/"
                       << summary.total << "] "
                       << (outcome.ok ? "ok    " : "FAIL  ")
                       << grid.task_ids[t];
          char wall_buf[32];
          std::snprintf(wall_buf, sizeof(wall_buf), " (%.2fs)", wall);
          *options.log << wall_buf;
          if (!outcome.ok) *options.log << "  " << outcome.error;
          *options.log << std::endl;
        }
      });
    }
    pool.Wait();
    if (stop.load(std::memory_order_relaxed)) break;
  }

  // Count what fail-fast left behind (including whole unreached grids).
  for (std::size_t g = 0; g < plan.grids.size(); ++g) {
    auto& statuses = summary.statuses[g];
    statuses.resize(plan.grids[g].plan.tasks.size(),
                    CampaignTaskStatus::kPending);
    for (auto& s : statuses) {
      if (s == CampaignTaskStatus::kPending ||
          s == CampaignTaskStatus::kNotRun) {
        s = CampaignTaskStatus::kNotRun;
        ++summary.not_run;
      }
    }
  }
  summary.wall_seconds = campaign_timer.ElapsedSeconds();
  return true;
}

}  // namespace flowsched
