#include "serve/streaming_simulator.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <span>

#include "util/check.h"

namespace flowsched {
namespace {

void AppendNumber(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

void AppendField(std::string& out, const char* key, double v) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  AppendNumber(out, v);
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
    for (char c : error) {
      if (c == '"' || c == '\\') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

StreamingSimulator::StreamingSimulator(const SwitchSpec& sw,
                                       SchedulingPolicy& policy,
                                       const StreamingOptions& options)
    : sw_(sw), policy_(policy), options_(options) {
  ctx_.Clear();
  std::string scen_error;
  if (options_.scenario != nullptr) {
    if (!scenario_.Bind(*options_.scenario, sw, &scen_error)) {
      source_error_ = true;
      error_ = "scenario: " + scen_error;
    }
  } else {
    // An empty binding keeps wire-mode FAULT/RECOVER available.
    scenario_.Bind(ScenarioScript(), sw, &scen_error);
  }
}

void StreamingSimulator::Admit(Flow f) {
  ++arrived_;
  arrived_demand_ += static_cast<double>(f.demand);
  if (f.coflow != kNoCoflow) {
    const auto [it, inserted] =
        groups_.try_emplace(f.coflow, GroupState{0, f.release});
    ++it->second.live;
    it->second.arrival = std::min(it->second.arrival, f.release);
  }
  ctx_.backlog.push_back(f);
}

void StreamingSimulator::RunRound() {
  scenario_.AdvanceTo(round_);
  // As in the batch loop, the policy sees the backlog itself unless the
  // switch is degraded.
  std::span<const PendingFlow> pending = ctx_.backlog;
  const bool mapped = scenario_.degraded();
  if (mapped) {
    // Mirror the batch loop: blocked flows stay backlogged and never reach
    // the policy; pending_map remembers each survivor's backlog slot.
    ctx_.pending.clear();
    ctx_.pending_map.clear();
    for (std::size_t i = 0; i < ctx_.backlog.size(); ++i) {
      const Flow& f = ctx_.backlog[i];
      if (scenario_.IsBlocked(f.src, f.dst)) continue;
      ctx_.pending.push_back(f);
      ctx_.pending_map.push_back(static_cast<int>(i));
    }
    pending = ctx_.pending;
  }
  peak_backlog_ =
      std::max(peak_backlog_, static_cast<int>(ctx_.backlog.size()));
  if (scenario_.AnyPortDown()) ++downtime_rounds_;
  round_blocked_ = pending.empty();
  if (round_blocked_) {
    // Every backlogged flow touches a dead port: the round idles.
    ctx_.picked.clear();
    return;
  }
  const SwitchSpec& round_sw = mapped ? scenario_.view() : sw_;
  policy_.SelectFlowsInto(round_sw, round_, pending, &ctx_.picked);
  if (options_.validate) {
    ValidatePolicySelection(round_sw, pending, ctx_.picked, ctx_);
  }
  if (options_.match_out != nullptr && !ctx_.picked.empty()) {
    std::ostream& out = *options_.match_out;
    out << "MATCH " << round_;
    for (int i : ctx_.picked) {
      out << ' ' << ctx_.backlog[mapped ? ctx_.pending_map[i] : i].id;
    }
    out << '\n';
  }
  completed_untagged_.clear();
  drained_groups_.clear();
  ctx_.remove.assign(ctx_.backlog.size(), 0);
  for (int i : ctx_.picked) {
    const int bi = mapped ? ctx_.pending_map[i] : i;
    ctx_.remove[bi] = 1;
    const Flow& f = ctx_.backlog[bi];
    const auto response = static_cast<double>(round_ + 1 - f.release);
    metrics_.RecordResponse(response);
    ++completed_;
    if (wire_mode_) live_ids_.erase(f.id);
    if (f.coflow == kNoCoflow) {
      // Untagged flows are singleton groups (model/coflow.h), so their CCT
      // is their response.
      completed_untagged_.push_back(f.id);
      metrics_.RecordCct(response);
      ++coflows_completed_;
    } else {
      const auto it = groups_.find(f.coflow);
      FS_CHECK(it != groups_.end());
      if (--it->second.live == 0) {
        metrics_.RecordCct(
            static_cast<double>(round_ + 1 - it->second.arrival));
        drained_groups_.push_back(f.coflow);
        ++coflows_completed_;
        groups_.erase(it);
      }
    }
  }
  // Stable in-place compaction, exactly as the batch loop does it.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ctx_.backlog.size(); ++i) {
    if (!ctx_.remove[i]) {
      if (kept != i) ctx_.backlog[kept] = ctx_.backlog[i];
      ++kept;
    }
  }
  ctx_.backlog.resize(kept);
  if (!completed_untagged_.empty() || !drained_groups_.empty()) {
    policy_.RetireFlows(completed_untagged_, drained_groups_);
  }
}

void StreamingSimulator::EmitPeriodicStats() {
  if (options_.stats_out == nullptr || options_.stats_every <= 0) return;
  if ((round_ + 1) % options_.stats_every != 0) return;
  *options_.stats_out << metrics_.StatsLine(round_, ctx_.backlog.size())
                      << '\n';
}

StreamingSummary StreamingSimulator::Run(StreamingFlowSource& source) {
  if (source_error_) return Summarize();  // Scenario bind failed in ctor.
  for (round_ = 0; options_.max_rounds < 0 || round_ < options_.max_rounds;
       ++round_) {
    // Cooperative shutdown: the round in flight always completes, so the
    // summary below is a consistent cut of the stream.
    if (options_.stop != nullptr && *options_.stop != 0) break;
    ctx_.arrivals.clear();
    source.ArrivalsInto(round_, &ctx_.arrivals);
    if (!source.ok()) {
      source_error_ = true;
      error_ = source.error();
      break;
    }
    for (Flow f : ctx_.arrivals) {
      if (f.demand != 1 && policy_.RequiresUnitDemands()) {
        source_error_ = true;
        error_ = "policy " + std::string(policy_.name()) +
                 " requires unit demands, got a flow with demand " +
                 std::to_string(f.demand);
        break;
      }
      f.release = round_;
      // Same remap point as the batch admit loop — identical arrival
      // sequence means identical migration coins (scenario/scenario.h).
      scenario_.RemapArrival(round_, &f.src, &f.dst);
      f.id = next_id_++;
      Admit(f);
    }
    if (source_error_) break;
    if (ctx_.backlog.empty()) {
      if (source.Exhausted(round_ + 1)) break;
      // Idle-gap fast-forward, hoisted behind the source interface so
      // sparse infinite streams do not spin round by round. Never skips
      // past the round cap — `rounds` must land exactly where a
      // walk-every-round loop would.
      Round next = source.NextArrivalRound(round_ + 1);
      if (options_.max_rounds >= 0) next = std::min(next, options_.max_rounds);
      if (next > round_ + 1) round_ = next - 1;  // ++round_ lands on `next`.
      continue;
    }
    RunRound();
    EmitPeriodicStats();
    if (round_blocked_ && source.Exhausted(round_ + 1) &&
        !scenario_.HasOpAfter(round_)) {
      // Stranded: every remaining flow sits on a dead port and no script
      // event can revive one. Truncate (batch Simulate breaks here too).
      error_ = "scenario leaves " + std::to_string(ctx_.backlog.size()) +
               " flows on dead ports with no recovery event after round " +
               std::to_string(round_);
      break;
    }
  }
  truncated_ = !ctx_.backlog.empty();
  return Summarize();
}

bool StreamingSimulator::Inject(const Flow& flow, std::string* error) {
  wire_mode_ = true;
  if (flow.src < 0 || flow.src >= sw_.num_inputs() || flow.dst < 0 ||
      flow.dst >= sw_.num_outputs()) {
    if (error != nullptr) *error = "flow ports out of range for the switch";
    return false;
  }
  if (flow.demand < 1 || flow.demand > sw_.Kappa(flow)) {
    if (error != nullptr) {
      *error = "flow demand must be in [1, min port capacity]";
    }
    return false;
  }
  if (flow.demand != 1 && policy_.RequiresUnitDemands()) {
    if (error != nullptr) {
      *error = "policy " + std::string(policy_.name()) +
               " requires unit demands";
    }
    return false;
  }
  if (!live_ids_.insert(flow.id).second) {
    if (error != nullptr) {
      *error = "flow id " + std::to_string(flow.id) +
               " is already live (ids must be unique among live flows)";
    }
    return false;
  }
  Flow f = flow;
  f.release = round_;
  scenario_.RemapArrival(round_, &f.src, &f.dst);
  Admit(f);
  return true;
}

void StreamingSimulator::Step() {
  if (!ctx_.backlog.empty()) RunRound();
  EmitPeriodicStats();
  ++round_;
}

bool StreamingSimulator::ForceFault(PortId h, std::string* error) {
  wire_mode_ = true;
  return scenario_.ForceHostDown(h, error);
}

bool StreamingSimulator::ForceRecover(PortId h, std::string* error) {
  wire_mode_ = true;
  return scenario_.ForceHostUp(h, error);
}

std::string StreamingSimulator::StatsLine() {
  return metrics_.StatsLine(round_, ctx_.backlog.size());
}

StreamingSummary StreamingSimulator::Summarize() const {
  StreamingSummary s;
  s.flows = completed_;
  s.arrived = arrived_;
  s.rounds = round_;
  const RunningStats& r = metrics_.response().total();
  s.total_response = r.sum();
  s.mean_response = r.mean();
  s.max_response = r.max();
  s.stddev_response = r.stddev();
  s.p50_response = metrics_.response().p50();
  s.p95_response = metrics_.response().p95();
  s.p99_response = metrics_.response().p99();
  s.peak_backlog = peak_backlog_;
  if (round_ > 0) {
    Capacity in_bw = 0;
    Capacity out_bw = 0;
    for (Capacity c : sw_.input_capacities()) in_bw += c;
    for (Capacity c : sw_.output_capacities()) out_bw += c;
    const auto rounds = static_cast<double>(round_);
    s.avg_port_utilization =
        0.5 * (arrived_demand_ / (static_cast<double>(in_bw) * rounds) +
               arrived_demand_ / (static_cast<double>(out_bw) * rounds));
  }
  s.coflows = coflows_completed_;
  const RunningStats& c = metrics_.cct().total();
  s.total_cct = c.sum();
  s.mean_cct = c.mean();
  s.max_cct = c.max();
  s.downtime_rounds = downtime_rounds_;
  s.migrated_flows = scenario_.migrated_flows();
  s.truncated = truncated_ || !ctx_.backlog.empty();
  s.source_error = source_error_;
  s.error = error_;
  return s;
}

}  // namespace flowsched
