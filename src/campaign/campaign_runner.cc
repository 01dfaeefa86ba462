#include "campaign/campaign_runner.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>

#include "api/instance_source.h"
#include "api/solver.h"
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

// A task directory's meta.json, when it parses.
bool ReadMeta(const std::string& dir, JsonValue& meta) {
  std::string text;
  return ReadFile(dir + "/meta.json", text) && ParseJson(text, meta, nullptr);
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

// Calls body(i) for every i in [0, n) on min(workers, n) threads, the
// caller's among them; each thread claims the next index from a shared
// counter, so one slow task never holds up the rest. Returns when all are
// done. Bodies must not throw (failures are FS_CHECK aborts or error
// values here).
template <typename Body>
void ParallelFor(int workers, std::size_t n, const Body& body) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < n; i = next++) body(i);
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 1; w < std::min<std::size_t>(workers, n); ++w) {
    threads.emplace_back(work);
  }
  work();
  for (std::thread& thread : threads) thread.join();
}

std::int64_t UnixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// Shortest text strtod reads back as the same double: outcome.json is
// what collect aggregates, so it must not round (the reports themselves
// keep JsonNum's %.9g).
std::string ExactNum(double v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
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

TaskOutcome OutcomeFromSolveReport(const SolveReport& report) {
  TaskOutcome o;
  o.ok = report.ok;
  o.error = report.error;
  if (!report.ok) return o;
  for (int i = 0; i < kNumOutcomeMetrics; ++i) {
    const OutcomeMetric& m = kOutcomeMetrics[i];
    o[i] = m.source(report, m.key);
    if (m.type == MetricType::kInt) {
      o[i] = static_cast<double>(static_cast<long long>(o[i]));
    }
    if (m.gate == MetricGate::kScenario &&
        report.diagnostics.count(m.key) > 0) {
      o.has_scenario = true;
    }
  }
  return o;
}

void WriteTaskJsonLine(std::ostream& out, const SweepCell& cell,
                       const SweepTask& task, const TaskOutcome& outcome) {
  out << "{\"task\": " << task.index << ", \"cell\": " << cell.index << ", "
      << JsonStr("solver", cell.solver) << ", "
      << JsonStr("instance", task.instance_spec);
  if (cell.dist) out << ", " << JsonStr("dist", *cell.dist);
  if (cell.scenario) out << ", " << JsonStr("scenario", *cell.scenario);
  out << ", \"instance_seed\": " << task.instance_seed
      << ", \"trial\": " << task.trial
      << ", \"solver_seed\": " << task.solver_seed
      << ", \"ok\": " << (outcome.ok ? "true" : "false");
  if (outcome.ok) {
    for (int i = 0; i < kNumOutcomeMetrics; ++i) {
      if (!outcome.Carries(i)) continue;
      out << ", \"" << kOutcomeMetrics[i].key << "\": ";
      if (kOutcomeMetrics[i].type == MetricType::kInt) {
        out << static_cast<long long>(outcome[i]);
      } else {
        out << ExactNum(outcome[i]);
      }
    }
  } else {
    out << ", " << JsonStr("error", outcome.error);
  }
  out << "}\n";
}

std::string CampaignTaskDir(const std::string& out_root,
                            const std::string& task_id) {
  return out_root + "/runs/" + task_id;
}

bool CampaignTaskOfSpec(const std::string& dir,
                        const std::string& expected_hash_hex) {
  JsonValue meta;
  return ReadMeta(dir, meta) &&
         meta.GetString("spec_hash") == expected_hash_hex;
}

bool CampaignTaskUpToDate(const std::string& dir,
                          const std::string& expected_hash_hex,
                          const Provenance& prov) {
  JsonValue meta;
  if (!ReadMeta(dir, meta) || meta.GetString("status") != "ok" ||
      meta.GetString("spec_hash") != expected_hash_hex) {
    return false;
  }
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
  for (int i = 0; i < kNumOutcomeMetrics; ++i) {
    const OutcomeMetric& m = kOutcomeMetrics[i];
    outcome[i] = m.type == MetricType::kInt
                     ? static_cast<double>(doc.GetInt(m.key))
                     : doc.GetNumber(m.key);
    // WriteTaskJsonLine writes the scenario rows only for scenario runs;
    // their presence is the has_scenario bit.
    if (m.gate == MetricGate::kScenario && doc.Find(m.key) != nullptr) {
      outcome.has_scenario = true;
    }
  }
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

  std::mutex log_mu;            // Serializes progress lines + counters.
  std::atomic<bool> stop{false};  // --fail-fast latch.

  summary.statuses.resize(plan.grids.size());
  summary.workers.assign(plan.grids.size(), 0);
  // Grids run in order; tasks within a grid run concurrently. Campaigns
  // are few-large-grids, so cross-grid overlap buys little and per-grid
  // instance lifetime stays simple.
  for (std::size_t g = 0; g < plan.grids.size(); ++g) {
    const CampaignGrid& grid = plan.grids[g];
    auto& statuses = summary.statuses[g];
    statuses.assign(grid.plan.tasks.size(), CampaignTaskStatus::kPending);

    // Resume pass: decide per task before materializing anything.
    std::vector<std::size_t> to_run;
    for (std::size_t t = 0; t < grid.plan.tasks.size(); ++t) {
      if (options.resume &&
          CampaignTaskUpToDate(
              CampaignTaskDir(out_root, grid.task_ids[t]),
              HashHex(grid.task_hashes[t]), prov)) {
        statuses[t] = CampaignTaskStatus::kSkipped;
        ++summary.skipped;
      } else {
        to_run.push_back(t);
      }
    }
    if (to_run.empty()) continue;
    const int workers =
        std::clamp(options.jobs, 1, static_cast<int>(to_run.size()));
    summary.workers[g] = workers;

    // Materialize only the instances the remaining tasks reference.
    const std::size_t num_instances = grid.plan.unique_instances.size();
    std::vector<char> needed(num_instances, 0);
    for (const std::size_t t : to_run) {
      needed[grid.plan.tasks[t].instance_slot] = 1;
    }
    std::vector<std::optional<Instance>> instances(num_instances);
    std::vector<std::string> instance_errors(num_instances);
    ParallelFor(workers, num_instances, [&](std::size_t i) {
      if (!needed[i]) return;
      instances[i] =
          LoadInstance(grid.plan.unique_instances[i], &instance_errors[i]);
    });

    ParallelFor(workers, to_run.size(), [&](std::size_t k) {
      const std::size_t t = to_run[k];
      const SweepTask& task = grid.plan.tasks[t];
      const SweepCell& cell = grid.plan.cells[task.cell];
      auto& status = statuses[t];
      if (stop.load(std::memory_order_relaxed)) {
        status = CampaignTaskStatus::kNotRun;
        return;
      }
      const std::string dir = CampaignTaskDir(out_root, grid.task_ids[t]);
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
