#include "checks.h"

#include <algorithm>
#include <charconv>

#include "model/metrics.h"
#include "util/json.h"

namespace perfbench {
namespace {

using flowsched::Capacity;
using flowsched::FlowId;
using flowsched::Round;

// Parses the next space-separated integer of `text` at *pos.
bool NextInt(std::string_view text, std::size_t* pos, long long* value) {
  while (*pos < text.size() && text[*pos] == ' ') ++*pos;
  if (*pos == text.size()) return false;
  const char* first = text.data() + *pos;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *value);
  if (ec != std::errc() || (ptr != last && *ptr != ' ')) return false;
  *pos += static_cast<std::size_t>(ptr - first);
  return true;
}

}  // namespace

std::string CheckSolveReport(const flowsched::Instance& instance,
                             const flowsched::SolveReport& report,
                             const flowsched::CapacityAllowance& allowance) {
  if (!report.ok) return "solve failed: " + report.error;
  if (report.allowance.factor > allowance.factor ||
      report.allowance.additive > allowance.additive) {
    return "solver claims a larger capacity allowance than expected";
  }
  if (const auto err = report.schedule.ValidationError(instance, allowance)) {
    return "invalid schedule: " + *err;
  }
  const flowsched::ScheduleMetrics m =
      flowsched::ComputeMetrics(instance, report.schedule);
  if (m.total_response != report.metrics.total_response ||
      m.max_response != report.metrics.max_response ||
      m.avg_response != report.metrics.avg_response) {
    return "reported metrics differ from the schedule's";
  }
  return "";
}

MatchAudit::MatchAudit(const flowsched::SwitchSpec& sw,
                       std::span<const flowsched::Flow> sent)
    : sw_(sw),
      sent_(sent),
      matched_(sent.size(), 0),
      in_load_(sw.num_inputs(), 0),
      out_load_(sw.num_outputs(), 0) {}

std::string MatchAudit::OnMatch(std::string_view line) {
  constexpr std::string_view kPrefix = "MATCH ";
  if (line.substr(0, kPrefix.size()) != kPrefix) {
    return "not a MATCH line: " + std::string(line);
  }
  std::size_t pos = kPrefix.size();
  long long round = -1;
  if (!NextInt(line, &pos, &round) || round <= last_round_) {
    return "bad MATCH round in: " + std::string(line);
  }
  last_round_ = static_cast<Round>(round);
  std::fill(in_load_.begin(), in_load_.end(), 0);
  std::fill(out_load_.begin(), out_load_.end(), 0);
  long long id = -1;
  int picked = 0;
  while (NextInt(line, &pos, &id)) {
    ++picked;
    if (id < 0 || id >= static_cast<long long>(sent_.size())) {
      return "MATCH names an id never sent: " + std::to_string(id);
    }
    const flowsched::Flow& f = sent_[static_cast<std::size_t>(id)];
    if (matched_[f.id] != 0) {
      return "flow " + std::to_string(id) + " matched twice";
    }
    matched_[f.id] = 1;
    ++num_matched_;
    if (f.release > round) {
      return "flow " + std::to_string(id) + " matched before it was sent";
    }
    if (++in_load_[f.src] > sw_.input_capacity(f.src) ||
        ++out_load_[f.dst] > sw_.output_capacity(f.dst)) {
      return "round " + std::to_string(round) + " overloads a port of flow " +
             std::to_string(id);
    }
    total_response_ += static_cast<double>(round + 1 - f.release);
  }
  if (picked == 0 || pos != line.size()) {
    return "malformed MATCH line: " + std::string(line);
  }
  return "";
}

std::string MatchAudit::CheckAllMatched() const {
  if (num_matched_ != static_cast<long long>(sent_.size())) {
    return std::to_string(sent_.size() - num_matched_) +
           " sent flows were never matched";
  }
  return "";
}

std::string CheckDone(std::string_view done_json, long long flows_sent,
                      double reference_total_response) {
  flowsched::JsonValue done;
  std::string error;
  if (!flowsched::ParseJson(std::string(done_json), done, &error)) {
    return "unparsable DONE: " + error;
  }
  if (done.GetBool("truncated") || done.GetBool("source_error")) {
    return "session truncated or failed: " + done.GetString("error");
  }
  if (done.GetInt("flows", -1) != flows_sent ||
      done.GetInt("arrived", -1) != flows_sent) {
    return "DONE counts " + std::to_string(done.GetInt("flows", -1)) +
           " flows and " + std::to_string(done.GetInt("arrived", -1)) +
           " arrivals, but " + std::to_string(flows_sent) + " were sent";
  }
  if (done.GetNumber("total_response", -1.0) != reference_total_response) {
    return "DONE total_response " +
           std::to_string(done.GetNumber("total_response", -1.0)) +
           " differs from the batch replay's " +
           std::to_string(reference_total_response);
  }
  return "";
}

}  // namespace perfbench
