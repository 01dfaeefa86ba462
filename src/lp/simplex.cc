#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lp/simplex_kernels.h"
#include "util/check.h"

namespace flowsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Largest row violation a crash-started solve may return (see SolveLp).
constexpr double kMaxCrashResidual = 1e-6;

// Internal column kinds. Structural columns come from the LpProblem; one
// slack/surplus is added per inequality row; artificials complete the
// initial basis.
enum class ColKind { kStructural, kSlack, kArtificial };

class RevisedSimplex {
 public:
  RevisedSimplex(const LpProblem& lp, const SimplexOptions& options,
                 bool crash)
      : lp_(lp),
        opt_(options),
        m_(lp.num_rows()),
        kernels_(simplex_kernels::BestKernels()) {
    Setup(crash);
  }

  // True when the crash replaced at least one artificial.
  bool crashed() const { return crashed_; }

  SimplexResult Solve() {
    SimplexResult result;
    if (max_iterations_ == 0) {
      // A crash start gets a smaller budget: see SolveLp.
      max_iterations_ = crashed_ ? 2000 + 2L * m_
                                 : 2000 + 60L * m_ + 2L * lp_.num_cols();
    }
    // Phase 1: minimize the sum of artificial values.
    if (needs_phase1_) {
      SetPhaseCosts(/*phase1=*/true);
      const SimplexStatus ph1 = Iterate(/*phase1=*/true);
      if (ph1 == SimplexStatus::kIterationLimit) {
        result.status = ph1;
        result.iterations = iterations_;
        return result;
      }
      double artificial_sum = 0.0;
      for (int i = 0; i < m_; ++i) {
        if (kind_[basis_[i]] == ColKind::kArtificial) artificial_sum += xb_[i];
      }
      if (artificial_sum > 1e-6) {
        result.status = SimplexStatus::kInfeasible;
        result.iterations = iterations_;
        return result;
      }
      DriveOutArtificials();
    }
    // Phase 2: the real objective.
    SetPhaseCosts(/*phase1=*/false);
    const SimplexStatus ph2 = Iterate(/*phase1=*/false);
    result.status = ph2;
    result.iterations = iterations_;
    if (ph2 != SimplexStatus::kOptimal) return result;

    result.x.assign(lp_.num_cols(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int j = basis_[i];
      if (kind_[j] == ColKind::kStructural) {
        result.x[j] = std::max(0.0, xb_[i]);
      }
    }
    double obj = 0.0;
    for (int j = 0; j < lp_.num_cols(); ++j) {
      obj += lp_.objective(j) * result.x[j];
    }
    result.objective = obj;
    // Duals: y = cB' * Binv, un-scaled back to the user's row orientation.
    ComputeY();
    result.duals.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) result.duals[i] = y_[i] * row_scale_[i];
    result.primal_residual = PrimalResidual(result.x);
    return result;
  }

 private:
  void Setup(bool crash) {
    max_iterations_ = opt_.max_iterations;
    // Normalize rows to rhs >= 0 via row scaling in {+1, -1} (flipping the
    // sense accordingly); coefficients are scaled on access.
    row_scale_.assign(m_, 1.0);
    rhs_.assign(m_, 0.0);
    eff_sense_.resize(m_);
    for (int i = 0; i < m_; ++i) {
      double b = lp_.rhs(i);
      RowSense s = lp_.sense(i);
      if (b < 0.0) {
        b = -b;
        row_scale_[i] = -1.0;
        if (s == RowSense::kLe) {
          s = RowSense::kGe;
        } else if (s == RowSense::kGe) {
          s = RowSense::kLe;
        }
      }
      rhs_[i] = b;
      eff_sense_[i] = s;
    }
    // Column layout: structural, then slacks/surpluses, then artificials.
    const int n = lp_.num_cols();
    kind_.assign(n, ColKind::kStructural);
    slack_row_.assign(n, -1);
    unit_value_.assign(n, 0.0);
    std::vector<int> slack_of_row(m_, -1);
    for (int i = 0; i < m_; ++i) {
      if (eff_sense_[i] != RowSense::kEq) {
        slack_of_row[i] = static_cast<int>(kind_.size());
        kind_.push_back(ColKind::kSlack);
        slack_row_.push_back(i);
        unit_value_.push_back(eff_sense_[i] == RowSense::kLe ? 1.0 : -1.0);
      }
    }
    // Structural coefficients in the normalized rows. Scaling by +/-1 is
    // exact, so y_r * (s_r * v) below equals (y_r * s_r) * v bit for bit.
    const ColumnMatrix& a = lp_.matrix();
    scaled_values_.resize(a.values().size());
    for (std::size_t k = 0; k < scaled_values_.size(); ++k) {
      scaled_values_[k] = a.values()[k] * row_scale_[a.rows()[k]];
    }
    // Initial basis: slack for <= rows, artificial otherwise.
    basis_.assign(m_, -1);
    bool any_artificial = false;
    for (int i = 0; i < m_; ++i) {
      if (eff_sense_[i] == RowSense::kLe) {
        basis_[i] = slack_of_row[i];
      } else {
        basis_[i] = static_cast<int>(kind_.size());
        kind_.push_back(ColKind::kArtificial);
        slack_row_.push_back(i);
        unit_value_.push_back(1.0);
        any_artificial = true;
      }
    }
    total_cols_ = static_cast<int>(kind_.size());
    in_basis_.assign(total_cols_, 0);
    for (int j : basis_) in_basis_[j] = 1;
    // B = identity initially.
    binv_.assign(static_cast<std::size_t>(m_) * m_, 0.0);
    for (int i = 0; i < m_; ++i) binv_[static_cast<std::size_t>(i) * m_ + i] = 1.0;
    xb_ = rhs_;
    y_.assign(m_, 0.0);
    w_.assign(m_, 0.0);
    if (crash && any_artificial) Crash();
    needs_phase1_ = false;
    for (int j : basis_) {
      if (kind_[j] == ColKind::kArtificial) needs_phase1_ = true;
    }
  }

  // Crash basis. Visits, in row order, each row i whose basic column is an
  // artificial and makes basic in its place the cheapest structural column
  // j (lowest index on ties) that covers the row alone: a_ij > 0, every
  // other entry of j in a <= row (whose slack is always basic here, as the
  // crash replaces only artificials), and no such slack driven negative by
  // x_j = b_i / a_ij. The basis then stays triangular: each crashed column
  // has its only entry outside the slack rows on the diagonal, so B^{-1}
  // differs from the identity only in the crashed columns, with 1 / a_ij at
  // (i, i) and -a_kj / a_ij at (k, i) for each slack row k. Those entries
  // are written directly, in O(nnz(j)) per crashed row, with the same
  // arithmetic a pivot would do. Phase 1 then prices only the artificials
  // left basic, and is skipped when none is.
  void Crash() {
    const ColumnMatrix& a = lp_.matrix();
    const int* start = a.starts().data();
    const int* rows = a.rows().data();
    const int n = lp_.num_cols();
    // Row -> entries index (CSR), each row's entries in column order.
    std::vector<int> row_start(m_ + 1, 0);
    for (int k = 0; k < start[n]; ++k) ++row_start[rows[k] + 1];
    for (int i = 0; i < m_; ++i) row_start[i + 1] += row_start[i];
    std::vector<int> entry_col(start[n]);
    std::vector<int> entry_pos(start[n]);
    std::vector<int> fill(row_start.begin(), row_start.end() - 1);
    for (int j = 0; j < n; ++j) {
      for (int k = start[j]; k < start[j + 1]; ++k) {
        const int p = fill[rows[k]]++;
        entry_col[p] = j;
        entry_pos[p] = k;
      }
    }
    for (int i = 0; i < m_; ++i) {
      if (kind_[basis_[i]] != ColKind::kArtificial) continue;
      int best = -1;
      int best_pos = -1;
      double best_cost = kInf;
      for (int p = row_start[i]; p < row_start[i + 1]; ++p) {
        const int j = entry_col[p];
        const int pos = entry_pos[p];
        const double aij = scaled_values_[pos];
        if (aij <= 1e-9 || in_basis_[j] || lp_.objective(j) >= best_cost) {
          continue;
        }
        const double theta = rhs_[i] / aij;
        bool fits = true;
        for (int k = start[j]; k < start[j + 1] && fits; ++k) {
          if (k == pos) continue;
          fits = eff_sense_[rows[k]] == RowSense::kLe &&
                 xb_[rows[k]] - theta * scaled_values_[k] >= 0.0;
        }
        if (!fits) continue;
        best = j;
        best_pos = pos;
        best_cost = lp_.objective(j);
      }
      if (best == -1) continue;
      const double inv = 1.0 / scaled_values_[best_pos];
      const double theta = rhs_[i] / scaled_values_[best_pos];
      binv_[static_cast<std::size_t>(i) * m_ + i] = inv;
      for (int k = start[best]; k < start[best + 1]; ++k) {
        if (k == best_pos) continue;
        const int r = rows[k];
        binv_[static_cast<std::size_t>(r) * m_ + i] = -scaled_values_[k] * inv;
        xb_[r] -= theta * scaled_values_[k];
      }
      xb_[i] = theta;
      in_basis_[basis_[i]] = 0;
      in_basis_[best] = 1;
      basis_[i] = best;
      crashed_ = true;
    }
  }

  void SetPhaseCosts(bool phase1) {
    cost_.assign(total_cols_, 0.0);
    if (phase1) {
      for (int j = 0; j < total_cols_; ++j) {
        if (kind_[j] == ColKind::kArtificial) cost_[j] = 1.0;
      }
    } else {
      for (int j = 0; j < lp_.num_cols(); ++j) cost_[j] = lp_.objective(j);
    }
  }

  // y = cB' * Binv, accumulated row by row (contiguous).
  void ComputeY() {
    std::fill(y_.begin(), y_.end(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const double cb = cost_[basis_[i]];
      if (cb == 0.0) continue;
      kernels_.add_scaled(cb, &binv_[static_cast<std::size_t>(i) * m_],
                          y_.data(), m_);
    }
  }

  // w = Binv * A_j.
  void ComputeDirection(int j) {
    if (kind_[j] == ColKind::kStructural) {
      const std::vector<int>& start = lp_.matrix().starts();
      const int k = start[j];
      kernels_.column_product(binv_.data(), m_,
                              lp_.matrix().rows().data() + k,
                              scaled_values_.data() + k, start[j + 1] - k,
                              w_.data());
    } else {
      const int r = slack_row_[j];
      const double a = unit_value_[j];
      for (int i = 0; i < m_; ++i) {
        w_[i] = binv_[static_cast<std::size_t>(i) * m_ + r] * a;
      }
    }
  }

  // Dantzig pricing (the most negative reduced cost, lowest index on ties),
  // or Bland's rule (the lowest eligible index) when `bland`. Returns -1
  // when no column prices below -optimality_tol. In phase 2, artificials
  // may never enter.
  int Price(bool phase1, bool bland) const {
    int entering = -1;
    double best = -opt_.optimality_tol;
    // Structural columns, straight from the column store.
    const ColumnMatrix& a = lp_.matrix();
    const int* start = a.starts().data();
    const int* rows = a.rows().data();
    const double* values = scaled_values_.data();
    const int n = lp_.num_cols();
    for (int j = 0; j < n; ++j) {
      if (in_basis_[j]) continue;
      double yaj = 0.0;
      for (int k = start[j]; k < start[j + 1]; ++k) {
        yaj += y_[rows[k]] * values[k];
      }
      const double d = cost_[j] - yaj;
      if (d < best) {
        entering = j;
        if (bland) return entering;  // First eligible index (Bland).
        best = d;
      }
    }
    // Slacks and artificials: one unit entry each.
    for (int j = n; j < total_cols_; ++j) {
      if (in_basis_[j]) continue;
      if (kind_[j] == ColKind::kArtificial && !phase1) continue;
      const double d = cost_[j] - y_[slack_row_[j]] * unit_value_[j];
      if (d < best) {
        entering = j;
        if (bland) return entering;
        best = d;
      }
    }
    return entering;
  }

  SimplexStatus Iterate(bool phase1) {
    int stall = 0;
    while (iterations_ < max_iterations_) {
      ++iterations_;
      ComputeY();
      const int entering = Price(phase1, stall >= opt_.stall_limit);
      if (entering == -1) return SimplexStatus::kOptimal;

      ComputeDirection(entering);
      // Ratio test. Basic artificials must stay at zero: a direction that
      // would increase one (w_i < 0) blocks at theta = 0 and pivots the
      // artificial out instead.
      int leaving = -1;
      double theta = kInf;
      double best_pivot = 0.0;
      for (int i = 0; i < m_; ++i) {
        const double wi = w_[i];
        const bool basic_artificial =
            kind_[basis_[i]] == ColKind::kArtificial && !phase1;
        double ratio = kInf;
        if (wi > 1e-9) {
          ratio = std::max(0.0, xb_[i]) / wi;
        } else if (basic_artificial && wi < -1e-9) {
          ratio = 0.0;  // Block: the artificial would grow positive.
        } else {
          continue;
        }
        if (ratio < theta - 1e-12 ||
            (ratio < theta + 1e-12 && std::abs(wi) > best_pivot)) {
          theta = ratio;
          leaving = i;
          best_pivot = std::abs(wi);
        }
      }
      if (leaving == -1) {
        // No blocking row: unbounded ray (cannot happen in phase 1, whose
        // objective is bounded below by zero — if it does, it is numerical).
        return phase1 ? SimplexStatus::kIterationLimit
                      : SimplexStatus::kUnbounded;
      }
      stall = theta <= 1e-10 ? stall + 1 : 0;
      Pivot(entering, leaving, theta);
    }
    return SimplexStatus::kIterationLimit;
  }

  void Pivot(int entering, int leaving, double theta) {
    const double wr = w_[leaving];
    FS_CHECK_GT(std::abs(wr), 1e-12);
    // Update basic values.
    for (int i = 0; i < m_; ++i) {
      if (i == leaving) continue;
      xb_[i] -= theta * w_[i];
      if (xb_[i] < 0.0 && xb_[i] > -opt_.feasibility_tol) xb_[i] = 0.0;
    }
    xb_[leaving] = theta;
    // Update Binv: eliminate w in all rows except the pivot row.
    double* pivot_row = &binv_[static_cast<std::size_t>(leaving) * m_];
    const double inv = 1.0 / wr;
    for (int r = 0; r < m_; ++r) pivot_row[r] *= inv;
    for (int i = 0; i < m_; ++i) {
      if (i == leaving) continue;
      const double f = w_[i];
      if (f == 0.0) continue;
      // row - f * pivot_row, written as row + (-f) * pivot_row: negation
      // is exact and IEEE defines x - y as x + (-y), so the bits agree.
      kernels_.add_scaled(-f, pivot_row,
                          &binv_[static_cast<std::size_t>(i) * m_], m_);
    }
    in_basis_[basis_[leaving]] = 0;
    in_basis_[entering] = 1;
    basis_[leaving] = entering;
  }

  void DriveOutArtificials() {
    for (int i = 0; i < m_; ++i) {
      if (kind_[basis_[i]] != ColKind::kArtificial) continue;
      // Find any non-artificial, nonbasic column with a usable pivot in row i.
      int found = -1;
      for (int j = 0; j < total_cols_ && found == -1; ++j) {
        if (in_basis_[j] || kind_[j] == ColKind::kArtificial) continue;
        ComputeDirection(j);
        if (std::abs(w_[i]) > 1e-7) found = j;
      }
      if (found != -1) {
        // Degenerate pivot: the artificial sits at zero, so theta ~ 0.
        // (w_ still holds the direction for `found` from the search loop.)
        PivotRowSwap(found, i);
      }
      // If no pivot exists the row is linearly dependent; the artificial
      // stays basic at value zero and the ratio test keeps it there.
    }
  }

  // Pivot `entering` into basis position `row` at value xb_[row] (which must
  // be ~0 for this to preserve feasibility).
  void PivotRowSwap(int entering, int row) {
    const double wr = w_[row];
    FS_CHECK_GT(std::abs(wr), 1e-12);
    const double theta = xb_[row] / wr;
    Pivot(entering, row, theta);
  }

  const LpProblem& lp_;
  SimplexOptions opt_;
  int m_;
  const simplex_kernels::KernelVariant& kernels_;
  long max_iterations_ = 0;
  long iterations_ = 0;
  bool needs_phase1_ = false;
  bool crashed_ = false;
  int total_cols_ = 0;

  std::vector<double> row_scale_;
  std::vector<double> rhs_;
  std::vector<RowSense> eff_sense_;
  std::vector<ColKind> kind_;
  // Row and value of the single nonzero, per non-structural column.
  std::vector<int> slack_row_;
  std::vector<double> unit_value_;
  std::vector<double> scaled_values_;  // Matrix values times their row scale.
  std::vector<int> basis_;      // basis_[i] = column in basis position i.
  std::vector<char> in_basis_;
  std::vector<double> binv_;    // Row-major m x m.
  std::vector<double> xb_;      // Basic variable values.
  std::vector<double> cost_;    // Phase-dependent costs.
  std::vector<double> y_;       // Dual vector (scaled rows).
  std::vector<double> w_;       // FTRAN scratch.

  double PrimalResidual(const std::vector<double>& x) const {
    // Recompute structural row activity and compare against senses.
    std::vector<double> activity(m_, 0.0);
    const ColumnMatrix& a = lp_.matrix();
    for (int j = 0; j < lp_.num_cols(); ++j) {
      if (x[j] == 0.0) continue;
      for (int k = a.starts()[j]; k < a.starts()[j + 1]; ++k) {
        activity[a.rows()[k]] += a.values()[k] * x[j];
      }
    }
    double worst = 0.0;
    for (int i = 0; i < m_; ++i) {
      const double b = lp_.rhs(i);
      const double a = activity[i];
      double violation = 0.0;
      switch (lp_.sense(i)) {
        case RowSense::kLe:
          violation = a - b;
          break;
        case RowSense::kGe:
          violation = b - a;
          break;
        case RowSense::kEq:
          violation = std::abs(a - b);
          break;
      }
      worst = std::max(worst, violation);
    }
    return worst;
  }
};

}  // namespace

const char* ToString(SimplexStatus status) {
  switch (status) {
    case SimplexStatus::kOptimal:
      return "optimal";
    case SimplexStatus::kInfeasible:
      return "infeasible";
    case SimplexStatus::kUnbounded:
      return "unbounded";
    case SimplexStatus::kIterationLimit:
      return "iteration_limit";
  }
  return "unknown";
}

SimplexResult SolveLp(const LpProblem& lp, const SimplexOptions& options) {
  FS_CHECK_GT(lp.num_rows(), 0);
  FS_CHECK_GT(lp.num_cols(), 0);
  // From a crash basis phase 2 usually needs a small fraction of the
  // pivots a cold start does. On some heavily loaded LPs it instead walks
  // a long degenerate path on which the explicit inverse drifts. So a
  // crash start gets a smaller pivot budget, and when it runs out or ends
  // at a point that violates its rows, the LP is solved again from the
  // slack and artificial basis, at the cost of the pivots already spent.
  RevisedSimplex simplex(lp, options, /*crash=*/true);
  const SimplexResult crashed = simplex.Solve();
  const bool drifted =
      crashed.ok() && !(crashed.primal_residual <= kMaxCrashResidual);
  if (!simplex.crashed() ||
      (crashed.status != SimplexStatus::kIterationLimit && !drifted)) {
    return crashed;
  }
  SimplexResult cold = RevisedSimplex(lp, options, /*crash=*/false).Solve();
  cold.iterations += crashed.iterations;
  return cold;
}

}  // namespace flowsched
