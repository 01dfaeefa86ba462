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

P2Quantile::P2Quantile(double quantile) : quantile_(quantile) {
  FS_CHECK(quantile > 0.0 && quantile < 1.0);
}

void P2Quantile::Add(double x) {
  if (count_ < 5) {
    q_[count_++] = x;
    std::sort(q_, q_ + count_);
    if (count_ == 5) {
      for (int i = 0; i < 5; ++i) n_[i] = i + 1;
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * quantile_;
      desired_[2] = 1.0 + 4.0 * quantile_;
      desired_[3] = 3.0 + 2.0 * quantile_;
      desired_[4] = 5.0;
    }
    return;
  }
  ++count_;
  // Cell k: index of the marker interval x falls into; extremes clamp.
  int k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[4]) {
    q_[4] = std::max(q_[4], x);
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= q_[k + 1]) ++k;
  }
  for (int i = k + 1; i < 5; ++i) n_[i] += 1.0;
  const double inc[5] = {0.0, quantile_ / 2.0, quantile_,
                         (1.0 + quantile_) / 2.0, 1.0};
  for (int i = 0; i < 5; ++i) desired_[i] += inc[i];
  // Adjust the three interior markers toward their desired positions,
  // parabolically when that keeps the heights monotone, linearly otherwise.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - n_[i];
    if ((d >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
        (d <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      const double np = n_[i + 1];
      const double nm = n_[i - 1];
      const double ni = n_[i];
      double qp =
          q_[i] + s / (np - nm) *
                      ((ni - nm + s) * (q_[i + 1] - q_[i]) / (np - ni) +
                       (np - ni - s) * (q_[i] - q_[i - 1]) / (ni - nm));
      if (qp <= q_[i - 1] || qp >= q_[i + 1]) {
        // Linear fallback preserves monotonicity.
        const int j = i + static_cast<int>(s);
        qp = q_[i] + s * (q_[j] - q_[i]) / (n_[j] - ni);
      }
      q_[i] = qp;
      n_[i] += s;
    }
  }
}

double P2Quantile::Estimate() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Nearest-rank over the sorted prefix.
    const auto rank = static_cast<std::size_t>(
        std::ceil(quantile_ * static_cast<double>(count_)));
    return q_[rank == 0 ? 0 : rank - 1];
  }
  return q_[2];
}

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

}  // namespace flowsched
