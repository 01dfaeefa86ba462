#include "exp/experiment_runner.h"

#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "api/instance_source.h"
#include "exp/thread_pool.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace flowsched {

TaskOutcome OutcomeFromSolveReport(const SolveReport& report) {
  TaskOutcome o;
  o.ok = report.ok;
  o.error = report.error;
  o.wall_seconds = report.wall_seconds;
  if (!report.ok) return o;
  o.total_response = report.metrics.total_response;
  o.avg_response = report.metrics.avg_response;
  o.p50_response = report.metrics.p50_response;
  o.p95_response = report.metrics.p95_response;
  o.p99_response = report.metrics.p99_response;
  o.max_response = report.metrics.max_response;
  o.stddev_response = report.metrics.stddev_response;
  o.makespan = report.metrics.makespan;
  o.num_flows = static_cast<long long>(report.metrics.response.size());
  const auto rounds = report.diagnostics.find("rounds_simulated");
  if (rounds != report.diagnostics.end()) {
    o.rounds = static_cast<long long>(rounds->second);
  }
  const auto peak = report.diagnostics.find("peak_backlog");
  if (peak != report.diagnostics.end()) {
    o.peak_backlog = static_cast<long long>(peak->second);
  }
  const auto coflows = report.diagnostics.find("num_coflows");
  if (coflows != report.diagnostics.end()) {
    auto get = [&](const char* key) {
      const auto it = report.diagnostics.find(key);
      return it == report.diagnostics.end() ? 0.0 : it->second;
    };
    o.num_coflows = static_cast<long long>(coflows->second);
    o.avg_cct = get("avg_cct");
    o.p95_cct = get("p95_cct");
    o.max_cct = get("max_cct");
    o.avg_slowdown = get("avg_slowdown");
  }
  const auto shards = report.diagnostics.find("shards");
  if (shards != report.diagnostics.end()) {
    auto get = [&](const char* key) {
      const auto it = report.diagnostics.find(key);
      return it == report.diagnostics.end() ? 0.0 : it->second;
    };
    o.shards = static_cast<long long>(shards->second);
    o.load_imbalance = get("load_imbalance");
    o.cross_shard_flows = static_cast<long long>(get("cross_shard_flows"));
    o.split_coflows = static_cast<long long>(get("split_coflows"));
  }
  const auto downtime = report.diagnostics.find("downtime_rounds");
  if (downtime != report.diagnostics.end()) {
    auto get = [&](const char* key) {
      const auto it = report.diagnostics.find(key);
      return it == report.diagnostics.end() ? 0.0 : it->second;
    };
    o.has_scenario = true;
    o.downtime_rounds = static_cast<long long>(downtime->second);
    o.scenario_events = static_cast<long long>(get("scenario_events"));
    o.backlog_surge = get("backlog_surge");
    o.recovery_drain_rounds =
        static_cast<long long>(get("recovery_drain_rounds"));
    o.response_inflation = get("response_inflation");
    o.migrated_flows = static_cast<long long>(get("migrated_flows"));
  }
  if (report.lower_bound.has_value()) {
    if (report.objective_name == "total_response" && o.num_flows > 0) {
      o.lb_avg_response = *report.lower_bound / o.num_flows;
    } else if (report.objective_name == "max_response") {
      o.lb_max_response = *report.lower_bound;
    }
  }
  if (o.rounds > 0 && o.wall_seconds > 0.0) {
    o.rounds_per_sec = static_cast<double>(o.rounds) / o.wall_seconds;
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
    out << ", \"total_response\": " << JsonNum(outcome.total_response)
        << ", \"avg_response\": " << JsonNum(outcome.avg_response)
        << ", \"p50_response\": " << JsonNum(outcome.p50_response)
        << ", \"p95_response\": " << JsonNum(outcome.p95_response)
        << ", \"p99_response\": " << JsonNum(outcome.p99_response)
        << ", \"max_response\": " << JsonNum(outcome.max_response)
        << ", \"stddev_response\": " << JsonNum(outcome.stddev_response)
        << ", \"makespan\": " << outcome.makespan
        << ", \"num_flows\": " << outcome.num_flows
        << ", \"rounds\": " << outcome.rounds
        << ", \"peak_backlog\": " << outcome.peak_backlog;
    if (outcome.num_coflows > 0) {
      out << ", \"num_coflows\": " << outcome.num_coflows
          << ", \"avg_cct\": " << JsonNum(outcome.avg_cct)
          << ", \"p95_cct\": " << JsonNum(outcome.p95_cct)
          << ", \"max_cct\": " << JsonNum(outcome.max_cct)
          << ", \"avg_slowdown\": " << JsonNum(outcome.avg_slowdown);
    }
    if (outcome.shards > 0) {
      out << ", \"shards\": " << outcome.shards
          << ", \"load_imbalance\": " << JsonNum(outcome.load_imbalance)
          << ", \"cross_shard_flows\": " << outcome.cross_shard_flows
          << ", \"split_coflows\": " << outcome.split_coflows;
    }
    if (outcome.has_scenario) {
      out << ", \"scenario_events\": " << outcome.scenario_events
          << ", \"downtime_rounds\": " << outcome.downtime_rounds
          << ", \"backlog_surge\": " << JsonNum(outcome.backlog_surge)
          << ", \"recovery_drain_rounds\": " << outcome.recovery_drain_rounds
          << ", \"response_inflation\": "
          << JsonNum(outcome.response_inflation)
          << ", \"migrated_flows\": " << outcome.migrated_flows;
    }
    if (outcome.lb_avg_response > 0.0) {
      out << ", \"lb_avg_response\": " << JsonNum(outcome.lb_avg_response);
    }
    if (outcome.lb_max_response > 0.0) {
      out << ", \"lb_max_response\": " << JsonNum(outcome.lb_max_response);
    }
    out << ", \"wall_seconds\": " << JsonNum(outcome.wall_seconds)
        << ", \"rounds_per_sec\": " << JsonNum(outcome.rounds_per_sec);
  } else {
    out << ", " << JsonStr("error", outcome.error);
  }
  out << "}\n";
}

bool RunSweep(const SweepSpec& spec, const RunnerOptions& options,
              SweepRun& run, std::string* error) {
  run = SweepRun{};
  const SolverRegistry& registry =
      options.registry != nullptr ? *options.registry
                                  : SolverRegistry::Global();
  if (!ExpandSweep(spec, registry, run.plan, error)) return false;

  Stopwatch sweep_timer;
  const int jobs = options.jobs < 1 ? 1 : options.jobs;
  run.jobs = jobs;
  ThreadPool pool(jobs);

  // Phase 1: materialize every unique instance once, in parallel. Slots are
  // pre-sized, so workers never touch a shared container.
  const std::size_t num_instances = run.plan.unique_instances.size();
  std::vector<std::optional<Instance>> instances(num_instances);
  std::vector<std::string> instance_errors(num_instances);
  for (std::size_t i = 0; i < num_instances; ++i) {
    pool.Submit([&, i] {
      instances[i] =
          LoadInstance(run.plan.unique_instances[i], &instance_errors[i]);
    });
  }
  pool.Wait();

  // Phase 2: one pool task per sweep task, writing into its own slot.
  run.outcomes.resize(run.plan.tasks.size());
  std::mutex io_mu;  // Serializes JSONL lines and progress callbacks.
  int done = 0;
  const int total = static_cast<int>(run.plan.tasks.size());
  for (const SweepTask& task : run.plan.tasks) {
    pool.Submit([&, &task = task] {
      TaskOutcome& outcome = run.outcomes[task.index];
      const auto& instance = instances[task.instance_slot];
      if (!instance.has_value()) {
        outcome.ok = false;
        outcome.error = "instance: " + instance_errors[task.instance_slot];
      } else {
        const SweepCell& cell = run.plan.cells[task.cell];
        SolveOptions solve;
        solve.seed = task.solver_seed;
        solve.max_rounds = static_cast<Round>(spec.max_rounds);
        solve.params = spec.params;
        // The scenario axis forwards as the solver's `scenario` param;
        // "none" is the fault-free point (no param, no overlay work).
        if (cell.scenario && *cell.scenario != "none") {
          solve.params["scenario"] = *cell.scenario;
        }
        outcome = OutcomeFromSolveReport(
            registry.Solve(cell.solver, *instance, solve));
      }
      if (options.jsonl != nullptr || options.progress) {
        std::lock_guard<std::mutex> lock(io_mu);
        ++done;
        if (options.jsonl != nullptr) {
          WriteTaskJsonLine(*options.jsonl, run.plan.cells[task.cell], task,
                            outcome);
          options.jsonl->flush();  // Crash-safe incremental record.
        }
        if (options.progress) options.progress(done, total);
      }
    });
  }
  pool.Wait();

  for (const TaskOutcome& o : run.outcomes) {
    if (!o.ok) ++run.failures;
  }
  run.wall_seconds = sweep_timer.ElapsedSeconds();
  return true;
}

}  // namespace flowsched
