// Small descriptive-statistics helpers used by metrics and benches.
#ifndef FLOWSCHED_UTIL_STATS_H_
#define FLOWSCHED_UTIL_STATS_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace flowsched {

// Accumulates a stream of values; O(1) memory.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // Welford accumulator.
  double min_ = 0.0;
  double max_ = 0.0;
};

// Streaming quantile estimate via the P-square algorithm (Jain & Chlamtac
// 1985): five markers, O(1) memory and O(1) per observation — the piece
// that lets the streaming service report p50/p95/p99 response times over
// unbounded flow streams without per-flow vectors. Exact for the first
// five observations; afterwards an estimate whose error shrinks with the
// sample (typically well under 1% of the value range for smooth
// distributions).
class P2Quantile {
 public:
  // `quantile` in (0, 1), e.g. 0.99 for p99.
  explicit P2Quantile(double quantile);

  void Add(double x);
  // Current estimate; exact (nearest-rank over what arrived) below five
  // observations, 0 before any.
  double Estimate() const;
  std::size_t count() const { return count_; }

 private:
  double quantile_;
  std::size_t count_ = 0;
  double q_[5];       // Marker heights.
  double n_[5];       // Marker positions (1-based observation ranks).
  double desired_[5];  // Desired marker positions.
};

// Exact percentile of a sample (nearest-rank). `p` in [0, 100].
double Percentile(std::span<const double> values, double p);

// Several nearest-rank percentiles of one sample from a single sorted copy:
// element i equals Percentile(values, ps[i]).
std::vector<double> Percentiles(std::span<const double> values,
                                std::initializer_list<double> ps);

double Mean(std::span<const double> values);
double Max(std::span<const double> values);

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_STATS_H_
