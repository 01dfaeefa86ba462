#include "graph/incremental_matching.h"

#include <cmath>
#include <cstring>

namespace flowsched {

namespace {

// 0-based index of the first row where two row-major n x m matrices differ
// bitwise; n when they are identical. Conservative (a -0.0 vs +0.0 flip
// reads as a change and merely costs a resume), never unsound.
template <typename T>
int FirstDifferingRow(const std::vector<T>& a, const std::vector<T>& b,
                      int n, int m) {
  for (int r = 0; r < n; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * m;
    if (std::memcmp(a.data() + off, b.data() + off, sizeof(T) * m) != 0) {
      return r;
    }
  }
  return n;
}

}  // namespace

int IncrementalMatcher::FirstChangedRow() const {
  const int n = core_.rows_;
  const int m = core_.cols_;
  return core_.int_lane_
             ? FirstDifferingRow(core_.ilane_.cost, prev_icost_, n, m)
             : FirstDifferingRow(core_.dlane_.cost, prev_dcost_, n, m);
}

void IncrementalMatcher::Solve(const BipartiteGraph& g,
                               std::span<const double> weight,
                               std::vector<int>* out) {
  out->clear();
  ++stats_.solves;
  // Zero-copy history: PrepareProblem overwrites the whole matrix of the
  // lane it picks, so handing each lane last round's buffer and keeping the
  // freshly built one as its prev_*cost_ costs two pointer swaps instead of
  // a per-round memcpy. The other lane's pair just trades places; it is
  // only diffed after a round of its own lane, and a lane switch never
  // diffs (see same_dims).
  std::swap(prev_dcost_, core_.dlane_.cost);
  std::swap(prev_icost_, core_.ilane_.cost);
  if (!core_.PrepareProblem(g, weight)) {
    // No edges: nothing to match, and no state worth diffing against.
    ++stats_.empty_graphs;
    valid_ = false;
    return;
  }
  const int n = core_.rows_;
  const int m = core_.cols_;
  stats_.total_rows += n;

  const bool same_dims = valid_ && n == prev_rows_ && m == prev_cols_ &&
                         core_.int_lane_ == prev_int_lane_;
  const int first_changed = same_dims ? FirstChangedRow() : 0;
  const bool shares_prefix = same_dims && first_changed >= 1;
  if (same_dims && first_changed == n) {
    // Identical problem: the previous assignment is still optimal and the
    // emitted edges are recomputed from the current best_edge_ map, so
    // edge-index remapping across rounds is handled for free. Checkpoint
    // freshness carries over — the matrix they describe is this one.
    ++stats_.cache_hits;
    stats_.reused_rows += n;
    core_.EmitMatching(weight, out);
  } else if (shares_prefix && checkpoints_fresh_ &&
             checkpoints_.recorded >= first_changed) {
    // Rows 1..first_changed (1-based) are unchanged: restore the state
    // snapshot taken right after that prefix and replay only the suffix.
    ++stats_.prefix_resumes;
    stats_.reused_rows += first_changed;
    core_.RestoreCheckpoint(checkpoints_, first_changed);
    core_.RunRows(first_changed + 1, &checkpoints_);
    core_.EmitMatching(weight, out);
  } else {
    ++stats_.full_solves;
    // Recording snapshots costs a memcpy per row, which is pure loss on
    // workloads whose matrices never share a prefix round over round (the
    // online maxweight weights shift globally every round, so row 1
    // usually changes). Record only when there is evidence of prefix
    // stability: this round shares one with the previous round, or the
    // previous round did.
    if (record_next_ || shares_prefix) {
      checkpoints_.Reset(n, m);
      core_.InitDuals();
      core_.RunRows(1, &checkpoints_);
      checkpoints_fresh_ = true;
    } else {
      core_.InitDuals();
      core_.RunRows(1, nullptr);
      checkpoints_fresh_ = false;
    }
    core_.EmitMatching(weight, out);
  }
  record_next_ = shares_prefix;

  prev_rows_ = n;
  prev_cols_ = m;
  prev_int_lane_ = core_.int_lane_;
  valid_ = true;
}

void IncrementalMatcher::Reset() {
  valid_ = false;
  prev_rows_ = 0;
  prev_cols_ = 0;
  checkpoints_.recorded = 0;
  checkpoints_fresh_ = false;
  record_next_ = true;
}

double IncrementalMatcher::MaxDualViolation() const {
  if (!valid_) return 0.0;
  const int n = prev_rows_;
  const int m = prev_cols_;
  double worst = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= m; ++j) {
      const double slack = core_.PotentialU(i) + core_.PotentialV(j) -
                           core_.CostAt(i - 1, j - 1);
      if (slack > worst) worst = slack;
    }
  }
  return worst;
}

double IncrementalMatcher::MaxMatchedSlack() const {
  if (!valid_) return 0.0;
  const int m = prev_cols_;
  double worst = 0.0;
  for (int j = 1; j <= m; ++j) {
    const int i = core_.p_[j];
    if (i == 0) continue;
    const double slack = std::fabs(core_.PotentialU(i) + core_.PotentialV(j) -
                                   core_.CostAt(i - 1, j - 1));
    if (slack > worst) worst = slack;
  }
  return worst;
}

}  // namespace flowsched
