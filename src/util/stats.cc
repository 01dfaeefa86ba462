#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace flowsched {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  sum_ += other.sum_;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const { return min_; }

double RunningStats::max() const { return max_; }

double Percentile(std::span<const double> values, double p) {
  return Percentiles(values, {p})[0];
}

std::vector<double> Percentiles(std::span<const double> values,
                                std::initializer_list<double> ps) {
  FS_CHECK(!values.empty());
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = sorted.size();
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) {
    FS_CHECK(p >= 0.0 && p <= 100.0);
    // Nearest-rank definition: smallest value with >= p% of mass at or
    // below.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    out.push_back(sorted[rank == 0 ? 0 : rank - 1]);
  }
  return out;
}

double Mean(std::span<const double> values) {
  RunningStats s;
  for (double v : values) s.Add(v);
  return s.mean();
}

double Max(std::span<const double> values) {
  FS_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

std::array<std::size_t, 3> PercentileBins(
    std::span<const std::uint64_t> counts, std::uint64_t n,
    std::span<const std::uint64_t> blocks) {
  FS_CHECK_GT(n, 0u);
  constexpr std::array<double, 3> kPs = {50.0, 95.0, 99.0};
  std::array<std::size_t, 3> out{};
  std::size_t bin = 0;
  std::uint64_t below = 0;  // Values in the bins before `bin`.
  for (std::size_t i = 0; i < kPs.size(); ++i) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(kPs[i] / 100.0 * static_cast<double>(n))));
    while (below + counts[bin] < rank) {
      const std::size_t block = bin / kPercentileBlock;
      if (bin % kPercentileBlock == 0 && block < blocks.size() &&
          below + blocks[block] < rank) {
        below += blocks[block];
        bin += kPercentileBlock;
      } else {
        below += counts[bin++];
      }
    }
    out[i] = bin;
  }
  return out;
}

}  // namespace flowsched
