#include "campaign/aggregator.h"

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

const char* AggregateKey(int m) {
  const OutcomeMetric& metric = kOutcomeMetrics[m];
  return metric.aggregate_key != nullptr ? metric.aggregate_key : metric.key;
}

// kSum and kMax rows aggregate to one integer instead of statistics.
bool IsTotal(int m) {
  return kOutcomeMetrics[m].aggregate == MetricAggregate::kSum ||
         kOutcomeMetrics[m].aggregate == MetricAggregate::kMax;
}

// kAlways totals (num_flows) head a cell's JSON object, even when no task
// succeeded.
bool HeadsCell(int m) {
  return IsTotal(m) && kOutcomeMetrics[m].gate == MetricGate::kAlways;
}

long long Total(const CellAggregate& c, int m) {
  const RunningStats& s = c.metrics[m];
  return static_cast<long long>(
      kOutcomeMetrics[m].aggregate == MetricAggregate::kSum ? s.sum()
                                                            : s.max());
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

bool CellAggregate::Carried(MetricGate gate) const {
  for (int i = 0; i < kNumOutcomeMetrics; ++i) {
    if (kOutcomeMetrics[i].gate == gate && Carried(i)) return true;
  }
  return false;
}

void Aggregator::Add(const SweepTask& task, const TaskOutcome& outcome) {
  FS_CHECK_LT(static_cast<std::size_t>(task.cell), cells_.size());
  CellAggregate& cell = cells_[task.cell];
  if (!outcome.ok) {
    ++cell.failures;
    return;
  }
  ++cell.n;
  for (int i = 0; i < kNumOutcomeMetrics; ++i) {
    if (kOutcomeMetrics[i].aggregate != MetricAggregate::kNone &&
        outcome.Carries(i)) {
      cell.metrics[i].Add(outcome[i]);
    }
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
    out << ", \"n\": " << c.n << ", \"failures\": " << c.failures;
    for (int m = 0; m < kNumOutcomeMetrics; ++m) {
      if (HeadsCell(m)) {
        out << ", \"" << AggregateKey(m) << "\": " << Total(c, m);
      }
    }
    // Every other aggregated row follows, when some task carried it.
    for (int m = 0; m < kNumOutcomeMetrics; ++m) {
      if (HeadsCell(m) || !c.Carried(m)) continue;
      out << ",\n     \"" << AggregateKey(m) << "\": ";
      if (IsTotal(m)) {
        out << Total(c, m);
      } else {
        WriteStatsObject(out, c.metrics[m]);
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
  // Every csv row is a column in every file (zeros for cells that carry
  // none), so the header is independent of which solvers ran: the totals
  // first, then five statistics per kStats row.
  out << "solver,instance,load,ports,rounds,shards,dist,scenario,n,failures";
  for (int m = 0; m < kNumOutcomeMetrics; ++m) {
    if (kOutcomeMetrics[m].csv && IsTotal(m)) out << "," << AggregateKey(m);
  }
  for (int m = 0; m < kNumOutcomeMetrics; ++m) {
    if (!kOutcomeMetrics[m].csv || IsTotal(m)) continue;
    const std::string key = AggregateKey(m);
    out << "," << key << "_mean," << key << "_stddev," << key << "_min,"
        << key << "_max," << key << "_ci95";
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
    out << "," << c.n << "," << c.failures;
    for (int m = 0; m < kNumOutcomeMetrics; ++m) {
      if (kOutcomeMetrics[m].csv && IsTotal(m)) out << "," << Total(c, m);
    }
    for (int m = 0; m < kNumOutcomeMetrics; ++m) {
      if (!kOutcomeMetrics[m].csv || IsTotal(m)) continue;
      out << ",";
      WriteCsvStats(out, c.metrics[m]);
    }
    out << "\n";
  }
}

}  // namespace flowsched
