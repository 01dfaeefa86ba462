#include "serve/streaming_simulator.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <ostream>

#include "util/check.h"
#include "util/json.h"

namespace flowsched {
namespace {

void AppendField(std::string& out, const char* key, double v) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  AppendNumber(out, v);
}

void AppendInt(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

void AppendBool(std::string& out, const char* key, bool v) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += v ? "true" : "false";
}

}  // namespace

std::string StreamingSummary::ToJson() const {
  std::string out = "{";
  AppendField(out, "flows", static_cast<double>(flows));
  AppendField(out, "arrived", static_cast<double>(arrived));
  AppendField(out, "rounds", static_cast<double>(rounds));
  AppendField(out, "total_response", total_response);
  AppendField(out, "mean_response", mean_response);
  AppendField(out, "max_response", max_response);
  AppendField(out, "stddev_response", stddev_response);
  AppendField(out, "p50_response", p50_response);
  AppendField(out, "p95_response", p95_response);
  AppendField(out, "p99_response", p99_response);
  AppendField(out, "peak_backlog", peak_backlog);
  AppendField(out, "avg_port_utilization", avg_port_utilization);
  AppendField(out, "coflows", static_cast<double>(coflows));
  AppendField(out, "total_cct", total_cct);
  AppendField(out, "mean_cct", mean_cct);
  AppendField(out, "max_cct", max_cct);
  AppendField(out, "downtime_rounds", static_cast<double>(downtime_rounds));
  AppendField(out, "migrated_flows", static_cast<double>(migrated_flows));
  AppendBool(out, "truncated", truncated);
  AppendBool(out, "source_error", source_error);
  if (!error.empty()) {
    out += ",\"error\":\"";
    out += JsonEscape(error);
    out += '"';
  }
  out += '}';
  return out;
}

// The streaming driver's RoundEngine hooks: picks are written as MATCH
// lines, folded into the metrics and retired at the end of the round.
struct StreamingSimulator::Hooks {
  StreamingSimulator& sim;

  bool Stop() const {
    return sim.options_.stop != nullptr && *sim.options_.stop != 0;
  }
  // Pull mode only; wire Inject admits on its own.
  bool Admit(const Flow& arrival) {
    if (!sim.Admissible(arrival, &sim.error_)) {
      sim.source_error_ = true;
      return false;
    }
    sim.engine_.Admit(arrival, [&](const Flow& f) {
      sim.Track(f);
      return sim.next_id_++;
    });
    return true;
  }
  void Pick(const Flow& f) {
    const Round t = sim.engine_.round();
    if (sim.options_.match_out != nullptr) {
      std::string& line = sim.match_line_;
      if (line.empty()) {
        line = "MATCH ";
        AppendInt(line, t);
      }
      line += ' ';
      AppendInt(line, f.id);
    }
    const Round response = t + 1 - f.release;
    ++sim.completed_;
    if (sim.wire_mode_) sim.live_ids_.Erase(f.id);
    if (f.coflow == kNoCoflow) {
      sim.completed_untagged_.push_back(f.id);
      sim.metrics_.RecordSingleton(response);
      ++sim.coflows_completed_;
    } else {
      sim.metrics_.RecordResponse(response);
      const auto it = sim.groups_.find(f.coflow);
      FS_CHECK(it != sim.groups_.end());
      if (--it->second.live == 0) {
        sim.metrics_.RecordCct(t + 1 - it->second.arrival);
        sim.drained_groups_.push_back(f.coflow);
        ++sim.coflows_completed_;
        sim.groups_.erase(it);
      }
    }
  }
  // Writes the round's MATCH line, retires what completed in it and
  // writes the periodic stats line when one is due.
  void EndRound() {
    if (!sim.match_line_.empty()) {
      sim.match_line_ += '\n';
      sim.options_.match_out->write(sim.match_line_.data(),
                                    sim.match_line_.size());
      sim.match_line_.clear();
    }
    if (!sim.completed_untagged_.empty() || !sim.drained_groups_.empty()) {
      sim.policy_.RetireFlows(sim.completed_untagged_, sim.drained_groups_);
      sim.completed_untagged_.clear();
      sim.drained_groups_.clear();
    }
    sim.EmitPeriodicStats();
  }
};

StreamingSimulator::StreamingSimulator(const SwitchSpec& sw,
                                       SchedulingPolicy& policy,
                                       const StreamingOptions& options)
    : sw_(sw),
      policy_(policy),
      options_(options),
      engine_(sw, policy, options.validate) {
  // Always bound (an empty script by default), so wire-mode FAULT/RECOVER
  // works in any session.
  source_error_ = !engine_.BindScenario(options_.scenario, nullptr, &error_);
}

void StreamingSimulator::Track(const Flow& f) {
  if (f.coflow != kNoCoflow) {
    const auto [it, inserted] =
        groups_.try_emplace(f.coflow, GroupState{0, f.release});
    ++it->second.live;
    it->second.arrival = std::min(it->second.arrival, f.release);
  }
}

void StreamingSimulator::EmitPeriodicStats() {
  if (options_.stats_out == nullptr || options_.stats_every <= 0) return;
  if ((engine_.round() + 1) % options_.stats_every != 0) return;
  *options_.stats_out << metrics_.StatsLine(engine_.round(),
                                            engine_.backlog_size())
                      << '\n';
}

StreamingSummary StreamingSimulator::Run(ArrivalSource& source) {
  if (source_error_) return Summarize();  // Scenario bind failed in ctor.
  Hooks hooks{*this};
  const Round cap = options_.max_rounds < 0
                        ? std::numeric_limits<Round>::max()
                        : options_.max_rounds;
  switch (engine_.Drive(source, cap, hooks)) {
    case RoundEngine::End::kSourceError:
      source_error_ = true;
      error_ = engine_.error();
      break;
    case RoundEngine::End::kStranded:
      // The stranded round ran (and idled); report it like any other.
      hooks.EndRound();
      error_ = engine_.error();
      break;
    default:
      break;
  }
  return Summarize();
}

bool StreamingSimulator::Admissible(const Flow& flow,
                                    std::string* error) const {
  std::optional<std::string> why = FlowFitError(sw_, flow);
  if (why) {
    why = "flow " + *why;
  } else if (flow.demand != 1 && policy_.RequiresUnitDemands()) {
    why = "policy " + std::string(policy_.name()) + " requires unit demands";
  }
  if (why && error != nullptr) *error = *why;
  return !why;
}

bool StreamingSimulator::Inject(const Flow& flow, std::string* error) {
  wire_mode_ = true;
  if (!Admissible(flow, error)) return false;
  if (!live_ids_.TryEmplace(flow.id, 0).second) {
    if (error != nullptr) {
      *error = "flow id " + std::to_string(flow.id) +
               " is already live (ids must be unique among live flows)";
    }
    return false;
  }
  engine_.Admit(flow, [&](const Flow& f) {
    Track(f);
    return f.id;  // Wire flows keep the caller's id.
  });
  return true;
}

void StreamingSimulator::Step() {
  Hooks hooks{*this};
  if (engine_.backlog_size() != 0) engine_.RunRound(hooks);
  hooks.EndRound();
  engine_.NextRound();
}

bool StreamingSimulator::ForceFault(PortId h, std::string* error) {
  wire_mode_ = true;
  return engine_.scenario().ForceHostDown(h, error);
}

bool StreamingSimulator::ForceRecover(PortId h, std::string* error) {
  wire_mode_ = true;
  return engine_.scenario().ForceHostUp(h, error);
}

const std::string& StreamingSimulator::StatsLine() {
  return metrics_.StatsLine(engine_.round(), engine_.backlog_size());
}

StreamingSummary StreamingSimulator::Summarize() const {
  StreamingSummary s;
  s.flows = completed_;
  s.arrived = engine_.admitted();
  s.rounds = engine_.round();
  const RunningStats& r = metrics_.response().total();
  s.total_response = r.sum();
  s.mean_response = r.mean();
  s.max_response = r.max();
  s.stddev_response = r.stddev();
  const std::array<double, 3> p = metrics_.response().percentiles();
  s.p50_response = p[0];
  s.p95_response = p[1];
  s.p99_response = p[2];
  s.peak_backlog = engine_.peak_backlog();
  s.avg_port_utilization = engine_.AvgPortUtilization();
  s.coflows = coflows_completed_;
  const RunningStats& c = metrics_.cct().total();
  s.total_cct = c.sum();
  s.mean_cct = c.mean();
  s.max_cct = c.max();
  s.downtime_rounds = engine_.downtime_rounds();
  s.migrated_flows = engine_.scenario().migrated_flows();
  s.truncated = engine_.backlog_size() != 0;
  s.source_error = source_error_;
  s.error = error_;
  return s;
}

}  // namespace flowsched
