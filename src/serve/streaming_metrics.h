// Windowed streaming metrics for the scheduler service.
//
// The batch path keeps a per-flow response vector; on an unbounded stream
// that vector is exactly the O(all flows) state the serve path exists to
// avoid. Instead this keeps, for response times and coflow completion
// times (CCTs):
//
//   * cumulative RunningStats (Welford: count/sum/mean/stddev/min/max) —
//     sums of small-integer round counts, so totals stay exact and
//     byte-comparable with the batch metrics;
//   * one count per integer value, from which p50/p95/p99 are the exact
//     nearest-rank percentiles, equal to batch ComputeMetrics'. The counts
//     grow with the largest value seen, up to kCountCap bins: a value at or
//     past kCountCap rounds lands in one overflow bin, and a percentile
//     that falls there reports the running max;
//   * a tumbling window (reset at every stats emission) so periodic JSONL
//     lines show current behavior, not the all-time average.
//
// Memory is O(min(largest value, kCountCap)) regardless of stream length.
#ifndef FLOWSCHED_SERVE_STREAMING_METRICS_H_
#define FLOWSCHED_SERVE_STREAMING_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "model/flow.h"
#include "util/stats.h"

namespace flowsched {

// Appends `v` as printf's "%.10g" prints it: the number format of every
// STATS and DONE field.
void AppendNumber(std::string& out, double v);

// One metric channel: cumulative Welford + value counts + the current
// window.
class StreamingDistribution {
 public:
  // Values of at least this many rounds share the overflow bin.
  static constexpr Round kCountCap = 1 << 16;

  void Add(Round x);  // x >= 0.

  const RunningStats& total() const { return total_; }
  const RunningStats& window() const { return window_; }
  // Nearest-rank p50, p95 and p99 of every value so far, from one walk
  // over the counts and their block sums (a few thousand steps at most,
  // however large the values); all 0 before the first value.
  std::array<double, 3> percentiles() const;

  void ResetWindow() { window_ = RunningStats(); }

 private:
  RunningStats total_;
  RunningStats window_;
  // counts_[v] counts the values equal to v, counts_[kCountCap] those at
  // or past the cap; grown by doubling to 8192 bins, then to kCountCap + 1
  // in one step.
  // blocks_ holds their sums per kPercentileBlock bins, so a percentile
  // walk steps over whole blocks.
  std::vector<std::uint64_t> counts_;
  std::vector<std::uint64_t> blocks_;
};

class StreamingMetrics {
 public:
  // A flow picked in round t that was released at round r has response
  // t + 1 - r (model/metrics.h's rho).
  void RecordResponse(Round response) {
    Split();
    response_.Add(response);
  }
  // CCT of a drained coflow group.
  void RecordCct(Round cct) {
    Split();
    cct_.Add(cct);
  }
  // An untagged flow: a singleton group whose CCT equals its response
  // (model/coflow.h's grouping). While every record is a singleton the two
  // channels hold the same values, so they share one.
  void RecordSingleton(Round response) {
    response_.Add(response);
    if (split_) cct_.Add(response);
  }

  const StreamingDistribution& response() const { return response_; }
  const StreamingDistribution& cct() const { return split_ ? cct_ : response_; }

  // One JSONL stats object for round t (no trailing newline), then resets
  // the tumbling windows. `backlog` is the live backlog size after round
  // t. The line is built in a buffer that the next call reuses. Schema
  // documented in docs/serve-protocol.md.
  const std::string& StatsLine(Round t, std::size_t backlog);

 private:
  // The first response or CCT that is not a singleton's gives the CCT
  // channel its own copy of the shared state (counts and Welford are plain
  // values, so every later figure is bit-identical).
  void Split() {
    if (!split_) cct_ = response_;
    split_ = true;
  }

  StreamingDistribution response_;
  StreamingDistribution cct_;  // Meaningful only once split_.
  bool split_ = false;
  std::string line_;  // StatsLine's buffer.
};

}  // namespace flowsched

#endif  // FLOWSCHED_SERVE_STREAMING_METRICS_H_
