// Windowed streaming metrics for the scheduler service.
//
// The batch path keeps a per-flow response vector and computes exact
// percentiles at the end; on an unbounded stream that vector is exactly
// the O(all flows) state the serve path exists to avoid. Instead this
// keeps, for response times and coflow completion times (CCTs):
//
//   * cumulative RunningStats (Welford: count/sum/mean/stddev/min/max) —
//     sums of small-integer round counts, so totals stay exact and
//     byte-comparable with the batch metrics;
//   * cumulative P² quantile markers for p50/p95/p99 (util/stats.h) —
//     O(1)-memory estimates, not compared bit-for-bit with batch;
//   * a tumbling window (reset at every stats emission) so periodic JSONL
//     lines show current behavior, not the all-time average.
//
// Everything here is O(1) memory regardless of stream length.
#ifndef FLOWSCHED_SERVE_STREAMING_METRICS_H_
#define FLOWSCHED_SERVE_STREAMING_METRICS_H_

#include <string>

#include "model/flow.h"
#include "util/stats.h"

namespace flowsched {

// One metric channel: cumulative Welford + P² + the current window.
class StreamingDistribution {
 public:
  void Add(double x);

  const RunningStats& total() const { return total_; }
  const RunningStats& window() const { return window_; }
  double p50() const { return p50_.Estimate(); }
  double p95() const { return p95_.Estimate(); }
  double p99() const { return p99_.Estimate(); }

  void ResetWindow() { window_ = RunningStats(); }

 private:
  RunningStats total_;
  RunningStats window_;
  P2Quantile p50_{0.50};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

class StreamingMetrics {
 public:
  // A flow picked in round t that was released at round r has response
  // t + 1 - r (model/metrics.h's rho).
  void RecordResponse(double response) {
    Split();
    response_.Add(response);
  }
  // CCT of a drained coflow group.
  void RecordCct(double cct) {
    Split();
    cct_.Add(cct);
  }
  // An untagged flow: a singleton group whose CCT equals its response
  // (model/coflow.h's grouping). While every record is a singleton the two
  // channels hold the same values, so they share one.
  void RecordSingleton(double response) {
    response_.Add(response);
    if (split_) cct_.Add(response);
  }

  const StreamingDistribution& response() const { return response_; }
  const StreamingDistribution& cct() const { return split_ ? cct_ : response_; }

  // One JSONL stats object for round t (no trailing newline), then resets
  // the tumbling windows. `backlog` is the live backlog size after round
  // t. Schema documented in docs/serve-protocol.md.
  std::string StatsLine(Round t, std::size_t backlog);

 private:
  // The first response or CCT that is not a singleton's gives the CCT
  // channel its own copy of the shared state (P² and Welford are plain
  // values, so every later estimate is bit-identical).
  void Split() {
    if (!split_) cct_ = response_;
    split_ = true;
  }

  StreamingDistribution response_;
  StreamingDistribution cct_;  // Meaningful only once split_.
  bool split_ = false;
};

}  // namespace flowsched

#endif  // FLOWSCHED_SERVE_STREAMING_METRICS_H_
