#include "exp/aggregator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/provenance.h"

namespace flowsched {
namespace {

// Emits {"mean": ..., "stddev": ..., "min": ..., "max": ..., "ci95": ...}.
void WriteStatsObject(std::ostream& out, const RunningStats& s) {
  out << "{\"mean\": " << JsonNum(s.mean()) << ", \"stddev\": "
      << JsonNum(s.stddev()) << ", \"min\": " << JsonNum(s.min())
      << ", \"max\": " << JsonNum(s.max()) << ", \"ci95\": "
      << JsonNum(Ci95HalfWidth(s)) << "}";
}

void WriteCsvStats(std::ostream& out, const RunningStats& s) {
  out << JsonNum(s.mean()) << "," << JsonNum(s.stddev()) << ","
      << JsonNum(s.min()) << "," << JsonNum(s.max()) << ","
      << JsonNum(Ci95HalfWidth(s));
}

}  // namespace

double Ci95HalfWidth(const RunningStats& s) {
  if (s.count() < 2) return 0.0;
  return 1.96 * s.stddev() / std::sqrt(static_cast<double>(s.count()));
}

Aggregator::Aggregator(const SweepPlan& plan) : plan_(plan) {
  cells_.resize(plan.cells.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    cells_[i].cell = static_cast<int>(i);
  }
}

void Aggregator::Add(const SweepTask& task, const TaskOutcome& outcome) {
  FS_CHECK_LT(static_cast<std::size_t>(task.cell), cells_.size());
  CellAggregate& cell = cells_[task.cell];
  if (!outcome.ok) {
    ++cell.failures;
    return;
  }
  ++cell.n;
  cell.num_flows += outcome.num_flows;
  cell.total_response.Add(outcome.total_response);
  cell.avg_response.Add(outcome.avg_response);
  cell.p50_response.Add(outcome.p50_response);
  cell.p95_response.Add(outcome.p95_response);
  cell.p99_response.Add(outcome.p99_response);
  cell.max_response.Add(outcome.max_response);
  cell.makespan.Add(static_cast<double>(outcome.makespan));
  cell.peak_backlog.Add(static_cast<double>(outcome.peak_backlog));
  if (outcome.num_coflows > 0) {
    cell.num_coflows += outcome.num_coflows;
    cell.avg_cct.Add(outcome.avg_cct);
    cell.p95_cct.Add(outcome.p95_cct);
    cell.max_cct.Add(outcome.max_cct);
    cell.avg_slowdown.Add(outcome.avg_slowdown);
  }
  if (outcome.shards > 0) {
    cell.shards = std::max(cell.shards, outcome.shards);
    cell.load_imbalance.Add(outcome.load_imbalance);
    cell.cross_shard_flows.Add(static_cast<double>(outcome.cross_shard_flows));
    cell.split_coflows.Add(static_cast<double>(outcome.split_coflows));
  }
  if (outcome.has_scenario) {
    ++cell.scenario_n;
    cell.scenario_events = std::max(cell.scenario_events,
                                    outcome.scenario_events);
    cell.downtime_rounds.Add(static_cast<double>(outcome.downtime_rounds));
    cell.backlog_surge.Add(outcome.backlog_surge);
    cell.recovery_drain_rounds.Add(
        static_cast<double>(outcome.recovery_drain_rounds));
    cell.response_inflation.Add(outcome.response_inflation);
    cell.migrated_flows.Add(static_cast<double>(outcome.migrated_flows));
  }
  if (outcome.lb_avg_response > 0.0) {
    cell.lb_avg_response.Add(outcome.lb_avg_response);
  }
  if (outcome.lb_max_response > 0.0) {
    cell.lb_max_response.Add(outcome.lb_max_response);
  }
}

void Aggregator::WriteJson(std::ostream& out, const SweepSpec& spec) const {
  out << "{\n";
  out << "  " << JsonStr("sweep", spec.name) << ",\n";
  WriteProvenanceJson(out, CollectProvenance(), 2);
  out << ",\n";
  out << "  \"spec\": {\n";
  out << "    \"solvers\": [";
  for (std::size_t i = 0; i < spec.solvers.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << JsonEscape(spec.solvers[i]) << "\"";
  }
  out << "],\n    \"instances\": [";
  for (std::size_t i = 0; i < spec.instances.size(); ++i) {
    out << (i > 0 ? ", " : "") << "\"" << JsonEscape(spec.instances[i])
        << "\"";
  }
  out << "],\n    \"trials\": " << spec.trials
      << ",\n    \"base_seed\": " << spec.base_seed << "\n  },\n";

  int total_n = 0, total_failures = 0;
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const CellAggregate& c = cells_[i];
    const SweepCell& key = plan_.cells[c.cell];
    total_n += c.n;
    total_failures += c.failures;
    out << "    {" << JsonStr("solver", key.solver) << ", "
        << JsonStr("instance", key.instance_family);
    if (key.load) out << ", \"load\": " << JsonNum(*key.load);
    if (key.ports) out << ", \"ports\": " << *key.ports;
    if (key.rounds) out << ", \"rounds\": " << *key.rounds;
    if (key.shards) out << ", \"shards\": " << *key.shards;
    if (key.dist) out << ", " << JsonStr("dist", *key.dist);
    if (key.scenario) out << ", " << JsonStr("scenario", *key.scenario);
    out << ", \"n\": " << c.n << ", \"failures\": " << c.failures
        << ", \"num_flows\": " << c.num_flows;
    if (c.n > 0) {
      out << ",\n     \"total_response\": ";
      WriteStatsObject(out, c.total_response);
      out << ",\n     \"avg_response\": ";
      WriteStatsObject(out, c.avg_response);
      out << ",\n     \"p50_response\": ";
      WriteStatsObject(out, c.p50_response);
      out << ",\n     \"p95_response\": ";
      WriteStatsObject(out, c.p95_response);
      out << ",\n     \"p99_response\": ";
      WriteStatsObject(out, c.p99_response);
      out << ",\n     \"max_response\": ";
      WriteStatsObject(out, c.max_response);
      out << ",\n     \"makespan\": ";
      WriteStatsObject(out, c.makespan);
      out << ",\n     \"peak_backlog\": ";
      WriteStatsObject(out, c.peak_backlog);
      if (c.num_coflows > 0) {
        out << ",\n     \"num_coflows\": " << c.num_coflows;
        out << ",\n     \"avg_cct\": ";
        WriteStatsObject(out, c.avg_cct);
        out << ",\n     \"p95_cct\": ";
        WriteStatsObject(out, c.p95_cct);
        out << ",\n     \"max_cct\": ";
        WriteStatsObject(out, c.max_cct);
        out << ",\n     \"avg_slowdown\": ";
        WriteStatsObject(out, c.avg_slowdown);
      }
      if (c.shards > 0) {
        out << ",\n     \"fabric_shards\": " << c.shards;
        out << ",\n     \"load_imbalance\": ";
        WriteStatsObject(out, c.load_imbalance);
        out << ",\n     \"cross_shard_flows\": ";
        WriteStatsObject(out, c.cross_shard_flows);
        out << ",\n     \"split_coflows\": ";
        WriteStatsObject(out, c.split_coflows);
      }
      if (c.scenario_n > 0) {
        out << ",\n     \"scenario_events\": " << c.scenario_events;
        out << ",\n     \"downtime_rounds\": ";
        WriteStatsObject(out, c.downtime_rounds);
        out << ",\n     \"backlog_surge\": ";
        WriteStatsObject(out, c.backlog_surge);
        out << ",\n     \"recovery_drain_rounds\": ";
        WriteStatsObject(out, c.recovery_drain_rounds);
        out << ",\n     \"response_inflation\": ";
        WriteStatsObject(out, c.response_inflation);
        out << ",\n     \"migrated_flows\": ";
        WriteStatsObject(out, c.migrated_flows);
      }
      if (c.lb_avg_response.count() > 0) {
        out << ",\n     \"lb_avg_response\": ";
        WriteStatsObject(out, c.lb_avg_response);
      }
      if (c.lb_max_response.count() > 0) {
        out << ",\n     \"lb_max_response\": ";
        WriteStatsObject(out, c.lb_max_response);
      }
    }
    out << "}" << (i + 1 < cells_.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"totals\": {\"cells\": " << cells_.size()
      << ", \"tasks_ok\": " << total_n
      << ", \"tasks_failed\": " << total_failures << "}\n";
  out << "}\n";
}

void Aggregator::WriteCsv(std::ostream& out) const {
  out << "solver,instance,load,ports,rounds,shards,dist,scenario,n,failures,"
         "num_flows";
  // Coflow, fabric, and robustness columns are always present (zeros for
  // solvers/cells that emit none) so the header is independent of which
  // solvers ran.
  const char* metrics[] = {"total_response",        "avg_response",
                           "p50_response",          "p95_response",
                           "p99_response",          "max_response",
                           "makespan",              "peak_backlog",
                           "avg_cct",               "p95_cct",
                           "max_cct",               "avg_slowdown",
                           "load_imbalance",        "cross_shard_flows",
                           "split_coflows",         "downtime_rounds",
                           "backlog_surge",         "recovery_drain_rounds",
                           "response_inflation",    "migrated_flows"};
  out << ",num_coflows,fabric_shards,scenario_events";
  for (const char* m : metrics) {
    out << "," << m << "_mean," << m << "_stddev," << m << "_min," << m
        << "_max," << m << "_ci95";
  }
  out << "\n";
  for (const CellAggregate& c : cells_) {
    const SweepCell& key = plan_.cells[c.cell];
    // Instance specs and inline scenario scripts contain commas, semicolons,
    // and potentially quotes; CsvEscapeField quotes and doubles as needed —
    // bare surrounding quotes used to shear columns on embedded '"'.
    out << CsvEscapeField(key.solver) << ","
        << CsvEscapeField(key.instance_family) << ",";
    if (key.load) out << JsonNum(*key.load);
    out << ",";
    if (key.ports) out << *key.ports;
    out << ",";
    if (key.rounds) out << *key.rounds;
    out << ",";
    if (key.shards) out << *key.shards;
    out << ",";
    if (key.dist) out << CsvEscapeField(*key.dist);
    out << ",";
    if (key.scenario) out << CsvEscapeField(*key.scenario);
    out << "," << c.n << "," << c.failures << "," << c.num_flows << ","
        << c.num_coflows << "," << c.shards << "," << c.scenario_events;
    const RunningStats* stats[] = {
        &c.total_response, &c.avg_response, &c.p50_response, &c.p95_response,
        &c.p99_response,   &c.max_response, &c.makespan,     &c.peak_backlog,
        &c.avg_cct,        &c.p95_cct,      &c.max_cct,      &c.avg_slowdown,
        &c.load_imbalance, &c.cross_shard_flows, &c.split_coflows,
        &c.downtime_rounds, &c.backlog_surge, &c.recovery_drain_rounds,
        &c.response_inflation, &c.migrated_flows};
    for (const RunningStats* s : stats) {
      out << ",";
      WriteCsvStats(out, *s);
    }
    out << "\n";
  }
}

}  // namespace flowsched
