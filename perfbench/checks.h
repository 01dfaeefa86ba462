// Output checks of the benchmark. They run in the same command as the
// measurement but outside every timed region; an operation that fails one
// is counted as failed. Each check returns an empty string when the output
// is correct and a description of the first problem otherwise.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/solver.h"
#include "model/instance.h"

namespace perfbench {

// A batch solve: it succeeded, its schedule validates against the instance
// under `allowance` (exact for the online replays, (1+c) for Theorem 1)
// and so does the allowance it claims, and its metrics recompute to the
// ones it reports.
std::string CheckSolveReport(const flowsched::Instance& instance,
                             const flowsched::SolveReport& report,
                             const flowsched::CapacityAllowance& allowance);

// Audits the MATCH lines of one serve session against the flows sent:
// every id was sent and is matched once, no earlier than the round it was
// sent in, and each round's matches fit the switch's port capacities.
class MatchAudit {
 public:
  // `sent[id]` is the flow sent with that id; its release is the round in
  // which it was sent.
  MatchAudit(const flowsched::SwitchSpec& sw,
             std::span<const flowsched::Flow> sent);

  // One reply line without its newline: "MATCH <round> <id> <id>...".
  std::string OnMatch(std::string_view line);
  // Called after the session: every sent flow was matched.
  std::string CheckAllMatched() const;
  // Sum over matched flows of (round + 1 - release).
  double total_response() const { return total_response_; }

 private:
  const flowsched::SwitchSpec& sw_;
  std::span<const flowsched::Flow> sent_;
  std::vector<char> matched_;
  long long num_matched_ = 0;
  double total_response_ = 0.0;
  flowsched::Round last_round_ = -1;
  std::vector<int> in_load_;
  std::vector<int> out_load_;
};

// The daemon's final "DONE <json>" payload: flows == arrived == the number
// of flows sent, no truncation or error, and total_response equal to the
// batch replay's on the same arrivals.
std::string CheckDone(std::string_view done_json, long long flows_sent,
                      double reference_total_response);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
