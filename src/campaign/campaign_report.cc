#include "campaign/campaign_report.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "campaign/aggregator.h"
#include "campaign/campaign_runner.h"
#include "campaign/svg_plot.h"
#include "util/check.h"
#include "util/json.h"
#include "util/provenance.h"

namespace flowsched {
namespace {

namespace fs = std::filesystem;

// The outcome metrics the report shows.
constexpr int kAvgResponse = OutcomeMetricIndex("avg_response");
constexpr int kP95Response = OutcomeMetricIndex("p95_response");
constexpr int kMaxResponse = OutcomeMetricIndex("max_response");
constexpr int kAvgCct = OutcomeMetricIndex("avg_cct");
constexpr int kDowntimeRounds = OutcomeMetricIndex("downtime_rounds");
constexpr int kBacklogSurge = OutcomeMetricIndex("backlog_surge");
constexpr int kResponseInflation = OutcomeMetricIndex("response_inflation");
constexpr int kLbAvgResponse = OutcomeMetricIndex("lb_avg_response");
constexpr int kLbMaxResponse = OutcomeMetricIndex("lb_max_response");

// Reads one grid's task outcomes from disk, in task order, into `agg` and
// counts them into `summary`. A task counts only when its meta.json holds
// the current grid's spec hash: after a grid edit its directory holds the
// old grid's result, which is missing for the new one. Missing tasks are
// not fed to `agg`, which would count them as failures.
void CollectGrid(const CampaignGrid& grid, const std::string& out_root,
                 Aggregator& agg, CampaignCollectSummary& summary) {
  for (const SweepTask& task : grid.plan.tasks) {
    const std::string& id = grid.task_ids[task.index];
    const std::string dir = CampaignTaskDir(out_root, id);
    TaskOutcome o;
    ++summary.total;
    if (!CampaignTaskOfSpec(dir, HashHex(grid.task_hashes[task.index])) ||
        !ReadTaskOutcome(dir, o, nullptr)) {
      ++summary.missing;
      summary.missing_tasks.push_back(id);
      summary.incomplete_tasks.push_back(id + " (missing)");
      continue;
    }
    agg.Add(task, o);
    if (o.ok) {
      ++summary.ok;
    } else {
      ++summary.failed;
      summary.failed_tasks.push_back(id);
      summary.incomplete_tasks.push_back(id + " (failed)");
    }
  }
}

bool OpenForWrite(std::ofstream& out, const fs::path& path,
                  std::string* error) {
  out.open(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot write " + path.string();
    return false;
  }
  return true;
}

std::string HtmlEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string FmtG(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

// The grid's swept numeric axis: the first of load/rounds/ports/shards
// with more than one distinct value across cells, falling back to the
// first axis that is set at all, then to the cell index.
enum class XAxis { kLoad, kRounds, kPorts, kShards, kCellIndex };

const char* XAxisLabel(XAxis axis) {
  switch (axis) {
    case XAxis::kLoad: return "load";
    case XAxis::kRounds: return "rounds";
    case XAxis::kPorts: return "ports";
    case XAxis::kShards: return "shards";
    case XAxis::kCellIndex: return "cell";
  }
  return "cell";
}

double XValue(const SweepCell& cell, XAxis axis) {
  switch (axis) {
    case XAxis::kLoad:
      return cell.load ? *cell.load : 0.0;
    case XAxis::kRounds:
      return cell.rounds ? static_cast<double>(*cell.rounds) : 0.0;
    case XAxis::kPorts:
      return cell.ports ? static_cast<double>(*cell.ports) : 0.0;
    case XAxis::kShards:
      return cell.shards ? static_cast<double>(*cell.shards) : 0.0;
    case XAxis::kCellIndex:
      return static_cast<double>(cell.index);
  }
  return 0.0;
}

XAxis PickXAxis(const SweepPlan& plan) {
  const struct {
    XAxis axis;
    bool set;
  } axes[] = {
      {XAxis::kLoad, !plan.cells.empty() && plan.cells[0].load.has_value()},
      {XAxis::kRounds, !plan.cells.empty() && plan.cells[0].rounds.has_value()},
      {XAxis::kPorts, !plan.cells.empty() && plan.cells[0].ports.has_value()},
      {XAxis::kShards, !plan.cells.empty() && plan.cells[0].shards.has_value()},
  };
  for (const auto& a : axes) {
    if (!a.set) continue;
    double first = XValue(plan.cells[0], a.axis);
    for (const SweepCell& c : plan.cells) {
      if (XValue(c, a.axis) != first) return a.axis;
    }
  }
  for (const auto& a : axes) {
    if (a.set) return a.axis;
  }
  return XAxis::kCellIndex;
}

// Series identity within a chart: one line per solver × template ×
// scenario combination; the x axis varies within the series.
std::string SeriesLabel(const SweepCell& cell, bool many_templates,
                        int template_index) {
  std::string label = cell.solver;
  if (many_templates) label += " #" + std::to_string(template_index);
  if (cell.scenario && *cell.scenario != "none") {
    std::string sc = *cell.scenario;
    if (sc.size() > 24) sc = sc.substr(0, 21) + "...";
    label += " [" + sc + "]";
  }
  return label;
}

// Everything that identifies a comparison group for the speedup table:
// cells differing only in solver compare against the group's baseline
// (the grid's first expanded solver).
std::string GroupKey(const SweepCell& cell) {
  std::ostringstream key;
  key << cell.instance_family << '\0';
  if (cell.load) key << *cell.load;
  key << '\0';
  if (cell.ports) key << *cell.ports;
  key << '\0';
  if (cell.rounds) key << *cell.rounds;
  key << '\0';
  if (cell.shards) key << *cell.shards;
  key << '\0';
  if (cell.scenario) key << *cell.scenario;
  return key.str();
}

void WriteChart(std::ostream& out, const SweepPlan& plan,
                const std::vector<CellAggregate>& cells, XAxis axis,
                bool cct, const std::string& grid_name) {
  // Build series in first-appearance order for stable colors.
  std::vector<std::string> order;
  std::map<std::string, SvgSeries> series;
  std::map<std::string, int> template_index;
  for (const SweepCell& c : plan.cells) {
    if (template_index.find(c.instance_template) == template_index.end()) {
      const int idx = static_cast<int>(template_index.size());
      template_index[c.instance_template] = idx;
    }
  }
  const bool many_templates = template_index.size() > 1;
  for (const CellAggregate& agg : cells) {
    const SweepCell& c = plan.cells[agg.cell];
    if (agg.n == 0) continue;
    if (cct && !agg.Carried(MetricGate::kCoflow)) continue;
    const std::string label =
        SeriesLabel(c, many_templates, template_index[c.instance_template]);
    auto it = series.find(label);
    if (it == series.end()) {
      order.push_back(label);
      it = series.emplace(label, SvgSeries{}).first;
      it->second.label = label;
    }
    const RunningStats& s = agg.metrics[cct ? kAvgCct : kAvgResponse];
    it->second.x.push_back(XValue(c, axis));
    it->second.y.push_back(s.mean());
    it->second.ci.push_back(Ci95HalfWidth(s));
  }
  std::vector<SvgSeries> ordered;
  ordered.reserve(order.size());
  for (const std::string& label : order) ordered.push_back(series[label]);

  SvgPlotOptions opts;
  opts.title = grid_name + (cct ? ": avg CCT" : ": avg response");
  opts.x_label = XAxisLabel(axis);
  opts.y_label = cct ? "avg coflow completion time (rounds)"
                     : "avg response time (rounds)";
  WriteSvgLinePlot(out, ordered, opts);
}

void WriteGridTable(std::ostream& out, const SweepPlan& plan,
                    const std::vector<CellAggregate>& cells) {
  // Baseline per comparison group = the cell whose solver appears first in
  // the grid's expanded solver order (cells are enumerated solver-major,
  // so the first cell seen per group is the baseline). Lower bound per
  // group = the one a solver in it proves (art.theorem1's LP(0) / n,
  // mrt.theorem3's rho_lp): every cell of the group reads as a ratio to
  // it, Figures 6-7's heuristic-vs-LP gap.
  std::map<std::string, double> baseline;
  std::map<std::string, std::string> baseline_solver;
  std::map<std::string, double> lb_avg, lb_max;
  for (const CellAggregate& agg : cells) {
    const SweepCell& c = plan.cells[agg.cell];
    const std::string key = GroupKey(c);
    if (agg.n > 0 && baseline.find(key) == baseline.end()) {
      baseline[key] = agg.metrics[kAvgResponse].mean();
      baseline_solver[key] = c.solver;
    }
    if (agg.Carried(kLbAvgResponse)) {
      lb_avg.emplace(key, agg.metrics[kLbAvgResponse].mean());
    }
    if (agg.Carried(kLbMaxResponse)) {
      lb_max.emplace(key, agg.metrics[kLbMaxResponse].mean());
    }
  }
  bool any_cct = false, any_scenario = false, any_shards = false;
  bool has_load = false, has_ports = false, has_rounds = false;
  for (const CellAggregate& agg : cells) {
    if (agg.Carried(MetricGate::kCoflow)) any_cct = true;
    if (agg.Carried(MetricGate::kScenario)) any_scenario = true;
    if (agg.Carried(MetricGate::kFabric)) any_shards = true;
  }
  for (const SweepCell& c : plan.cells) {
    if (c.load) has_load = true;
    if (c.ports) has_ports = true;
    if (c.rounds) has_rounds = true;
  }

  out << "<table>\n<tr><th>solver</th><th>instance</th>";
  if (has_load) out << "<th>load</th>";
  if (has_ports) out << "<th>ports</th>";
  if (has_rounds) out << "<th>rounds</th>";
  if (any_shards) out << "<th>shards</th>";
  if (any_scenario) out << "<th>scenario</th>";
  out << "<th>n</th><th>avg response &plusmn;95% CI</th>"
         "<th>p95 response</th><th>max response</th><th>speedup</th>";
  if (!lb_avg.empty()) out << "<th>avg vs LP</th>";
  if (!lb_max.empty()) out << "<th>max vs LP</th>";
  if (any_cct) out << "<th>avg CCT &plusmn;95% CI</th>";
  if (any_scenario) {
    out << "<th>downtime</th><th>backlog surge</th>"
           "<th>response inflation</th>";
  }
  out << "</tr>\n";
  for (const CellAggregate& agg : cells) {
    const SweepCell& c = plan.cells[agg.cell];
    out << "<tr><td>" << HtmlEscape(c.solver) << "</td><td class=\"mono\">"
        << HtmlEscape(c.instance_family) << "</td>";
    if (has_load) {
      out << "<td>" << (c.load ? FmtG(*c.load) : "") << "</td>";
    }
    if (has_ports) {
      out << "<td>" << (c.ports ? std::to_string(*c.ports) : "") << "</td>";
    }
    if (has_rounds) {
      out << "<td>" << (c.rounds ? std::to_string(*c.rounds) : "") << "</td>";
    }
    if (any_shards) {
      out << "<td>" << (c.shards ? std::to_string(*c.shards) : "") << "</td>";
    }
    if (any_scenario) {
      out << "<td class=\"mono\">"
          << HtmlEscape(c.scenario ? *c.scenario : "") << "</td>";
    }
    out << "<td>" << agg.n;
    if (agg.failures > 0) out << " (+" << agg.failures << " failed)";
    out << "</td>";
    if (agg.n == 0) {
      out << "<td colspan=\"3\" class=\"dim\">no data</td><td></td>";
      if (!lb_avg.empty()) out << "<td></td>";
      if (!lb_max.empty()) out << "<td></td>";
      if (any_cct) out << "<td></td>";
      if (any_scenario) out << "<td></td><td></td><td></td>";
      out << "</tr>\n";
      continue;
    }
    const double avg = agg.metrics[kAvgResponse].mean();
    out << "<td>" << FmtG(avg) << " &plusmn; "
        << FmtG(Ci95HalfWidth(agg.metrics[kAvgResponse])) << "</td>";
    out << "<td>" << FmtG(agg.metrics[kP95Response].mean()) << "</td>";
    out << "<td>" << FmtG(agg.metrics[kMaxResponse].mean()) << "</td>";
    const std::string key = GroupKey(c);
    const auto base = baseline.find(key);
    if (base != baseline.end() && avg > 0.0) {
      const double speedup = base->second / avg;
      out << "<td" << (c.solver == baseline_solver[key] ? " class=\"dim\"" : "")
          << ">" << FmtG(speedup) << "&times;</td>";
    } else {
      out << "<td></td>";
    }
    auto ratio_to_bound = [&](const std::map<std::string, double>& bounds,
                              double value) {
      if (bounds.empty()) return;
      const auto bound = bounds.find(key);
      if (bound == bounds.end()) {
        out << "<td></td>";
      } else {
        out << "<td>" << FmtG(value / bound->second) << "&times;</td>";
      }
    };
    ratio_to_bound(lb_avg, avg);
    ratio_to_bound(lb_max, agg.metrics[kMaxResponse].mean());
    if (any_cct) {
      if (agg.Carried(kAvgCct)) {
        out << "<td>" << FmtG(agg.metrics[kAvgCct].mean()) << " &plusmn; "
            << FmtG(Ci95HalfWidth(agg.metrics[kAvgCct])) << "</td>";
      } else {
        out << "<td></td>";
      }
    }
    if (any_scenario) {
      if (agg.Carried(kDowntimeRounds)) {
        out << "<td>" << FmtG(agg.metrics[kDowntimeRounds].mean())
            << "</td><td>" << FmtG(agg.metrics[kBacklogSurge].mean())
            << "</td><td>" << FmtG(agg.metrics[kResponseInflation].mean())
            << "</td>";
      } else {
        out << "<td></td><td></td><td></td>";
      }
    }
    out << "</tr>\n";
  }
  out << "</table>\n";
}

}  // namespace

bool CollectCampaign(const CampaignPlan& plan, const std::string& out_root,
                     CampaignCollectSummary& summary, std::string* error) {
  summary = CampaignCollectSummary{};
  std::error_code ec;
  const fs::path agg_dir = fs::path(out_root) / "aggregate";
  fs::create_directories(agg_dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + agg_dir.string() + ": " + ec.message();
    }
    return false;
  }
  summary.aggregates.reserve(plan.grids.size());
  for (const CampaignGrid& grid : plan.grids) {
    Aggregator& agg = summary.aggregates.emplace_back(grid.plan);
    CollectGrid(grid, out_root, agg, summary);
    std::ofstream json_out, csv_out;
    if (!OpenForWrite(json_out, agg_dir / (grid.spec.name + ".json"), error) ||
        !OpenForWrite(csv_out, agg_dir / (grid.spec.name + ".csv"), error)) {
      return false;
    }
    agg.WriteJson(json_out, grid.spec);
    agg.WriteCsv(csv_out);
  }
  return true;
}

bool WriteCampaignReport(const CampaignSpec& spec, const CampaignPlan& plan,
                         const CampaignCollectSummary& summary,
                         const std::string& out_root, std::string* error) {
  FS_CHECK_EQ(summary.aggregates.size(), plan.grids.size());
  std::error_code ec;
  const fs::path report_dir = fs::path(out_root) / "report";
  fs::create_directories(report_dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create " + report_dir.string() + ": " + ec.message();
    }
    return false;
  }
  std::ofstream out;
  if (!OpenForWrite(out, report_dir / "index.html", error)) return false;

  const Provenance prov = CollectProvenance();
  const std::string title = spec.title.empty() ? spec.name : spec.title;
  out << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
         "<meta charset=\"utf-8\">\n<title>"
      << HtmlEscape(title)
      << "</title>\n<style>\n"
         "body{font-family:sans-serif;margin:24px auto;max-width:1100px;"
         "color:#111827;}\n"
         "h1{font-size:22px;} h2{font-size:17px;margin-top:32px;"
         "border-bottom:1px solid #e5e7eb;padding-bottom:4px;}\n"
         "table{border-collapse:collapse;font-size:12px;margin:12px 0;}\n"
         "th,td{border:1px solid #d1d5db;padding:3px 8px;text-align:right;}\n"
         "th{background:#f3f4f6;} td:first-child,th:first-child"
         "{text-align:left;}\n"
         ".mono{font-family:monospace;font-size:11px;text-align:left;}\n"
         ".dim{color:#6b7280;}\n"
         ".prov{font-size:12px;color:#374151;background:#f9fafb;"
         "border:1px solid #e5e7eb;padding:8px 12px;border-radius:4px;}\n"
         ".charts{display:flex;flex-wrap:wrap;gap:16px;}\n"
         "</style>\n</head>\n<body>\n";
  out << "<h1>" << HtmlEscape(title) << "</h1>\n";
  out << "<p class=\"prov\">campaign <b>" << HtmlEscape(spec.name)
      << "</b> &middot; commit <b>" << HtmlEscape(prov.git_sha)
      << "</b> &middot; " << HtmlEscape(prov.compiler) << " &middot; "
      << HtmlEscape(prov.build_type) << "<br>flags: <span class=\"mono\">"
      << HtmlEscape(prov.compiler_flags) << "</span></p>\n";

  out << "<p>" << summary.total << " tasks: <b>" << summary.ok << " ok</b>";
  if (summary.failed > 0) out << ", <b>" << summary.failed << " failed</b>";
  if (summary.missing > 0) {
    out << ", <b>" << summary.missing << " missing</b>";
  }
  out << ".</p>\n";

  for (std::size_t g = 0; g < plan.grids.size(); ++g) {
    const CampaignGrid& grid = plan.grids[g];
    const Aggregator& agg = summary.aggregates[g];
    out << "<h2>" << HtmlEscape(grid.spec.name) << "</h2>\n";
    out << "<p class=\"dim\">" << grid.plan.cells.size() << " cells &middot; "
        << grid.plan.tasks.size() << " tasks &middot; spec hash "
        << HashHex(grid.grid_hash) << "</p>\n";

    const XAxis axis = PickXAxis(grid.plan);
    bool any_cct = false;
    for (const CellAggregate& c : agg.cells()) {
      if (c.Carried(MetricGate::kCoflow)) any_cct = true;
    }
    out << "<div class=\"charts\">\n";
    WriteChart(out, grid.plan, agg.cells(), axis, /*cct=*/false,
               grid.spec.name);
    if (any_cct) {
      WriteChart(out, grid.plan, agg.cells(), axis, /*cct=*/true,
                 grid.spec.name);
    }
    out << "</div>\n";
    WriteGridTable(out, grid.plan, agg.cells());
  }

  if (!summary.incomplete_tasks.empty()) {
    out << "<h2>Incomplete tasks</h2>\n<ul>\n";
    for (const std::string& t : summary.incomplete_tasks) {
      out << "<li class=\"mono\">" << HtmlEscape(t) << "</li>\n";
    }
    out << "</ul>\n";
  }
  out << "</body>\n</html>\n";
  return true;
}

}  // namespace flowsched
