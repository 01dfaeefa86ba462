// Dominated columns never change a solve. A column with the same entries as
// an earlier one and a strictly higher cost has a strictly higher reduced
// cost in phase 2 and an equal one in phase 1, and Dantzig and Bland
// pricing both keep the lower index on ties, so it can never enter the
// basis. Appending such copies must therefore leave the status, the pivot
// count, the objective, the duals and the original columns' values
// bit-identical. LP(0) of the iterative rounding relies on this to emit one
// column per flow per capacity window instead of one per round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "lp/simplex.h"
#include "util/rng.h"

namespace flowsched {
namespace {

using Entry = std::pair<int, double>;

struct Column {
  double cost;
  std::vector<Entry> entries;
  int original;  // Index of the base column it copies (itself for a base).
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// A random scheduling-shaped LP: one >= 1 covering row per flow, then one
// <= capacity row per (window, port) on each side. The base columns are the
// first round of every window a flow can use, costed like objective (5):
// weight * (t - release) + 1/2.
struct SchedulingLp {
  std::vector<std::pair<RowSense, double>> rows;
  std::vector<Column> base;
  // The same LP with one column per round: the later rounds of a window are
  // dominated copies, each placed right after its window's base column.
  std::vector<Column> per_round;
};

SchedulingLp RandomSchedulingLp(Rng& rng) {
  SchedulingLp lp;
  const int ports = rng.UniformInt(2, 5);
  const int cap = rng.UniformInt(1, 3);
  const int window = std::vector<int>{1, 2, 3, 4}[rng.UniformInt(0, 3)];
  const int flows = rng.UniformInt(3, 18);
  const int last_release = rng.UniformInt(0, 6);
  const bool weighted = rng.UniformInt(0, 1) == 1;
  int horizon = last_release + flows / cap + window + rng.UniformInt(0, 4);
  horizon = (horizon + window - 1) / window * window;
  for (int e = 0; e < flows; ++e) lp.rows.push_back({RowSense::kGe, 1.0});
  for (int a = 0; a < horizon / window; ++a) {
    for (int p = 0; p < 2 * ports; ++p) {
      lp.rows.push_back({RowSense::kLe, static_cast<double>(window * cap)});
    }
  }
  for (int e = 0; e < flows; ++e) {
    const int release = rng.UniformInt(0, last_release);
    const int src = rng.UniformInt(0, ports - 1);
    const int dst = rng.UniformInt(0, ports - 1);
    const double weight = weighted ? rng.UniformInt(1, 3) : 1.0;
    for (int t = release; t < horizon; ++t) {
      const int row = flows + (t / window) * 2 * ports;
      Column col{weight * (t - release) + 0.5,
                 {{e, 1.0}, {row + src, 1.0}, {row + ports + dst, 1.0}},
                 0};
      const bool first_of_window = t == release || t % window == 0;
      if (first_of_window) {
        col.original = static_cast<int>(lp.base.size());
        lp.base.push_back(col);
      } else {
        col.original = static_cast<int>(lp.base.size()) - 1;
      }
      lp.per_round.push_back(col);
    }
  }
  return lp;
}

SimplexResult Solve(const std::vector<std::pair<RowSense, double>>& rows,
                    const std::vector<Column>& cols) {
  LpProblem lp;
  for (const auto& [sense, rhs] : rows) lp.AddRow(sense, rhs);
  for (const Column& c : cols) lp.AddColumn(c.cost, c.entries);
  return SolveLp(lp);
}

// Solves `base` and `with_copies` and checks the second solve is the first
// one bit for bit on the shared columns, with every copy left at zero.
void ExpectSameSolve(const std::vector<std::pair<RowSense, double>>& rows,
                     const std::vector<Column>& base,
                     const std::vector<Column>& with_copies, int trial) {
  const SimplexResult a = Solve(rows, base);
  const SimplexResult b = Solve(rows, with_copies);
  ASSERT_EQ(a.status, SimplexStatus::kOptimal) << "trial " << trial;
  ASSERT_EQ(b.status, a.status) << "trial " << trial;
  EXPECT_EQ(b.iterations, a.iterations) << "trial " << trial;
  EXPECT_TRUE(SameBits(b.objective, a.objective))
      << "trial " << trial << ": " << b.objective << " vs " << a.objective;
  ASSERT_EQ(b.duals.size(), a.duals.size());
  for (std::size_t i = 0; i < a.duals.size(); ++i) {
    EXPECT_TRUE(SameBits(b.duals[i], a.duals[i]))
        << "trial " << trial << " row " << i;
  }
  std::vector<char> seen(base.size(), 0);
  for (std::size_t j = 0; j < with_copies.size(); ++j) {
    const int orig = with_copies[j].original;
    if (seen[orig]) {
      EXPECT_EQ(b.x[j], 0.0) << "trial " << trial << " copy " << j;
    } else {
      seen[orig] = 1;
      EXPECT_TRUE(SameBits(b.x[j], a.x[orig]))
          << "trial " << trial << " col " << orig;
    }
  }
}

TEST(SimplexDominanceTest, PerRoundColumnsSolveLikePerWindowColumns) {
  for (int trial = 0; trial < 200; ++trial) {
    Rng rng = Rng(20240611).Fork(trial);
    const SchedulingLp lp = RandomSchedulingLp(rng);
    ExpectSameSolve(lp.rows, lp.base, lp.per_round, trial);
  }
}

TEST(SimplexDominanceTest, AppendedCostlierCopiesNeverEnter) {
  for (int trial = 0; trial < 200; ++trial) {
    Rng rng = Rng(777).Fork(trial);
    const SchedulingLp lp = RandomSchedulingLp(rng);
    // Copies of random base columns, each with a higher cost and inserted
    // at a random position after its original.
    std::vector<Column> cols = lp.base;
    for (std::size_t j = 0; j < cols.size(); ++j) cols[j].original = j;
    const int copies = rng.UniformInt(1, static_cast<int>(lp.base.size()));
    for (int k = 0; k < copies; ++k) {
      const int orig = rng.UniformInt(0, static_cast<int>(lp.base.size()) - 1);
      const auto at =
          std::find_if(cols.begin(), cols.end(),
                       [&](const Column& c) { return c.original == orig; });
      const int first = static_cast<int>(at - cols.begin()) + 1;
      const int pos = rng.UniformInt(first, static_cast<int>(cols.size()));
      Column copy = lp.base[orig];
      copy.cost += 0.25 * rng.UniformInt(1, 8);
      copy.original = orig;
      cols.insert(cols.begin() + pos, copy);
    }
    ExpectSameSolve(lp.rows, lp.base, cols, trial);
  }
}

}  // namespace
}  // namespace flowsched
