// Small descriptive-statistics helpers used by metrics and benches.
#ifndef FLOWSCHED_UTIL_STATS_H_
#define FLOWSCHED_UTIL_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
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

// Exact percentile of a sample (nearest-rank). `p` in [0, 100].
double Percentile(std::span<const double> values, double p);

// Several nearest-rank percentiles of one sample from a single sorted copy:
// element i equals Percentile(values, ps[i]).
std::vector<double> Percentiles(std::span<const double> values,
                                std::initializer_list<double> ps);

double Mean(std::span<const double> values);
double Max(std::span<const double> values);

// Bins per block of PercentileBins' optional block sums.
inline constexpr std::size_t kPercentileBlock = 256;

// The nearest-rank p50, p95 and p99 of a sample kept as counts, in one
// walk: counts[v] values fall in bin v, and n (> 0) is the sum of the
// counts. Returns the bin each percentile falls in. With `blocks`,
// blocks[b] sums counts[b * kPercentileBlock, (b + 1) * kPercentileBlock)
// and the walk steps over whole blocks that end below a rank, so it takes
// at most blocks.size() + 6 * kPercentileBlock steps instead of up to
// counts.size().
std::array<std::size_t, 3> PercentileBins(
    std::span<const std::uint64_t> counts, std::uint64_t n,
    std::span<const std::uint64_t> blocks = {});

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_STATS_H_
