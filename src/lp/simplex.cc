#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.h"

namespace flowsched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Largest row violation a point returned as optimal may have.
constexpr double kMaxResidual = 1e-6;
// Pivots between two rebuilds of the eta file (see Reinvert).
constexpr int kReinversionInterval = 128;
// Smallest pivot, relative to the largest tied one, Bland's rule may take.
constexpr double kBlandPivotShare = 1e-3;

// Internal column kinds. Structural columns come from the LpProblem; one
// slack/surplus is added per inequality row; artificials complete the
// initial basis.
enum class ColKind { kStructural, kSlack, kArtificial };

class RevisedSimplex {
 public:
  RevisedSimplex(const LpProblem& lp, const SimplexOptions& options)
      : lp_(lp), opt_(options), m_(lp.num_rows()) {
    Setup();
  }

  SimplexResult Solve() {
    SimplexResult result;
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

    result.x = StructuralValues();
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
  void Setup() {
    max_iterations_ = opt_.max_iterations != 0
                          ? opt_.max_iterations
                          : 2000 + 60L * m_ + 2L * lp_.num_cols();
    stall_limit_ = opt_.stall_limit != 0 ? opt_.stall_limit : 512 + m_;
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
    // Initial basis: slack for <= rows, artificial otherwise. B is the
    // identity, so the eta file starts empty.
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
    xb_ = rhs_;
    y_.assign(m_, 0.0);
    w_.assign(m_, 0.0);
    ratio_.assign(m_, kInf);
    if (any_artificial) Crash();
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
  // x_j = b_i / a_ij. Column j has no entry in an earlier crashed row, so
  // B^{-1} A_j = A_j, and its eta is A_j itself pivoted on row i: 1 / a_ij
  // at i and -a_kj / a_ij at each slack row k. Phase 1 then prices only
  // the artificials left basic, and is skipped when none is.
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
      const double theta = rhs_[i] / scaled_values_[best_pos];
      for (int k = start[best]; k < start[best + 1]; ++k) {
        if (k == best_pos) continue;
        xb_[rows[k]] -= theta * scaled_values_[k];
        eta_index_.push_back(rows[k]);
        eta_value_.push_back(scaled_values_[k]);
      }
      CloseEta(i, 1.0 / scaled_values_[best_pos]);
      xb_[i] = theta;
      in_basis_[basis_[i]] = 0;
      in_basis_[best] = 1;
      basis_[i] = best;
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

  // Ends the eta whose off-pivot entries were just pushed: E is the
  // identity but for column `row`, which is 1 / w_row at `row` and
  // -w_i / w_row at each pushed (i, w_i).
  void CloseEta(int row, double inv_pivot) {
    eta_row_.push_back(row);
    eta_inv_pivot_.push_back(inv_pivot);
    eta_start_.push_back(static_cast<int>(eta_index_.size()));
  }

  // v = E_k ... E_1 v (FTRAN: the etas oldest first).
  void Ftran(std::vector<double>& v) const {
    for (std::size_t e = 0; e < eta_row_.size(); ++e) {
      const int r = eta_row_[e];
      if (v[r] == 0.0) continue;
      const double t = v[r] * eta_inv_pivot_[e];
      v[r] = t;
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k) {
        v[eta_index_[k]] -= eta_value_[k] * t;
      }
    }
  }

  // y = cB' * Binv (BTRAN: the etas newest first).
  void ComputeY() {
    for (int i = 0; i < m_; ++i) y_[i] = cost_[basis_[i]];
    for (std::size_t e = eta_row_.size(); e-- > 0;) {
      const int r = eta_row_[e];
      double s = y_[r];
      for (int k = eta_start_[e]; k < eta_start_[e + 1]; ++k) {
        s -= y_[eta_index_[k]] * eta_value_[k];
      }
      y_[r] = s * eta_inv_pivot_[e];
    }
  }

  // w = Binv * A_j.
  void ComputeDirection(int j) {
    std::fill(w_.begin(), w_.end(), 0.0);
    if (kind_[j] == ColKind::kStructural) {
      const ColumnMatrix& a = lp_.matrix();
      for (int k = a.starts()[j]; k < a.starts()[j + 1]; ++k) {
        w_[a.rows()[k]] = scaled_values_[k];
      }
    } else {
      w_[slack_row_[j]] = unit_value_[j];
    }
    Ftran(w_);
  }

  // Rebuilds the eta file from the basic columns, so that it stops
  // growing and sheds the rounding the updates have gathered. B starts as
  // the identity. Each basic unit column takes its own row, with an eta
  // only for a surplus's -1. Then each structural column, in basis order,
  // is brought in through the etas so far and pivoted on its largest |w|
  // (lowest row on ties) among the rows no column has taken. Last, x_B is
  // recomputed as B^{-1} b.
  void Reinvert() {
    eta_row_.clear();
    eta_inv_pivot_.clear();
    eta_start_.assign(1, 0);
    eta_index_.clear();
    eta_value_.clear();
    std::vector<int> basis(m_, -1);
    for (int j : basis_) {
      if (kind_[j] == ColKind::kStructural) continue;
      const int r = slack_row_[j];
      FS_CHECK_EQ(basis[r], -1);
      basis[r] = j;
      if (unit_value_[j] != 1.0) CloseEta(r, 1.0 / unit_value_[j]);
    }
    for (int j : basis_) {
      if (kind_[j] != ColKind::kStructural) continue;
      ComputeDirection(j);
      int r = -1;
      for (int i = 0; i < m_; ++i) {
        if (basis[i] == -1 && (r == -1 || std::abs(w_[i]) > std::abs(w_[r]))) {
          r = i;
        }
      }
      FS_CHECK_GT(std::abs(w_[r]), 1e-12);
      basis[r] = j;
      AppendEta(r);
    }
    basis_ = std::move(basis);
    xb_ = rhs_;
    Ftran(xb_);
    for (double& v : xb_) {
      if (v < 0.0 && v > -opt_.feasibility_tol) v = 0.0;
    }
    pivots_since_inversion_ = 0;
  }

  // Appends the eta of a pivot on `row` of the direction in w_.
  void AppendEta(int row) {
    for (int i = 0; i < m_; ++i) {
      if (i == row || w_[i] == 0.0) continue;
      eta_index_.push_back(i);
      eta_value_.push_back(w_[i]);
    }
    CloseEta(row, 1.0 / w_[row]);
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
      if (pivots_since_inversion_ >= kReinversionInterval) Reinvert();
      ComputeY();
      const bool bland = stall >= stall_limit_;
      const int entering = Price(phase1, bland);
      if (entering == -1) {
        // An optimum of the updated basis must also hold in the rows: when
        // rounding has moved x_B off them, rebuild B^{-1} and go on from
        // the recomputed point. A fresh inverse that still misses the rows
        // means the basis itself is not feasible enough to trust.
        if (phase1 || PrimalResidual(StructuralValues()) <= kMaxResidual) {
          return SimplexStatus::kOptimal;
        }
        if (pivots_since_inversion_ == 0) return SimplexStatus::kIterationLimit;
        Reinvert();
        continue;
      }

      ComputeDirection(entering);
      const int leaving = RatioTest(phase1, bland);
      if (leaving == -1) {
        // No blocking row: unbounded ray (cannot happen in phase 1, whose
        // objective is bounded below by zero — if it does, it is numerical).
        return phase1 ? SimplexStatus::kIterationLimit
                      : SimplexStatus::kUnbounded;
      }
      const double theta = ratio_[leaving];
      stall = theta <= 1e-10 ? stall + 1 : 0;
      Pivot(entering, leaving, theta);
    }
    return SimplexStatus::kIterationLimit;
  }

  // Ratio test on the direction in w_: the leaving row, or -1 when no row
  // blocks. Basic artificials must stay at zero: a direction that would
  // increase one (w_i < 0) blocks at theta = 0 and pivots the artificial
  // out instead. Among the rows tied at the smallest ratio the largest
  // pivot leaves or, under Bland's rule, the lowest basic column index
  // whose pivot is at least kBlandPivotShare of the largest: a pivot that
  // small is rounding noise on an entry that is really zero, and pivoting
  // on it would make the basis singular.
  int RatioTest(bool phase1, bool bland) {
    double theta = kInf;
    for (int i = 0; i < m_; ++i) {
      const double wi = w_[i];
      ratio_[i] = kInf;
      if (wi > 1e-9) {
        ratio_[i] = std::max(0.0, xb_[i]) / wi;
      } else if (!phase1 && wi < -1e-9 &&
                 kind_[basis_[i]] == ColKind::kArtificial) {
        ratio_[i] = 0.0;  // Block: the artificial would grow positive.
      }
      theta = std::min(theta, ratio_[i]);
    }
    if (theta == kInf) return -1;
    int leaving = -1;
    for (int i = 0; i < m_; ++i) {
      if (ratio_[i] <= theta + 1e-12 &&
          (leaving == -1 || std::abs(w_[i]) > std::abs(w_[leaving]))) {
        leaving = i;
      }
    }
    if (!bland) return leaving;
    const double floor = kBlandPivotShare * std::abs(w_[leaving]);
    for (int i = 0; i < m_; ++i) {
      if (ratio_[i] <= theta + 1e-12 && std::abs(w_[i]) >= floor &&
          basis_[i] < basis_[leaving]) {
        leaving = i;
      }
    }
    return leaving;
  }

  void Pivot(int entering, int leaving, double theta) {
    FS_CHECK_GT(std::abs(w_[leaving]), 1e-12);
    // Update basic values.
    for (int i = 0; i < m_; ++i) {
      if (i == leaving) continue;
      xb_[i] -= theta * w_[i];
      if (xb_[i] < 0.0 && xb_[i] > -opt_.feasibility_tol) xb_[i] = 0.0;
    }
    xb_[leaving] = theta;
    AppendEta(leaving);
    ++pivots_since_inversion_;
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
        Pivot(found, i, xb_[i] / w_[i]);
      }
      // If no pivot exists the row is linearly dependent; the artificial
      // stays basic at value zero and the ratio test keeps it there.
    }
  }

  // The structural part of the current basic solution.
  std::vector<double> StructuralValues() const {
    std::vector<double> x(lp_.num_cols(), 0.0);
    for (int i = 0; i < m_; ++i) {
      const int j = basis_[i];
      if (kind_[j] == ColKind::kStructural) x[j] = std::max(0.0, xb_[i]);
    }
    return x;
  }

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

  const LpProblem& lp_;
  SimplexOptions opt_;
  int m_;
  long max_iterations_ = 0;
  int stall_limit_ = 0;
  long iterations_ = 0;
  int pivots_since_inversion_ = 0;
  bool needs_phase1_ = false;
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
  // Eta file, B^{-1} = E_k ... E_1: eta e pivots on row eta_row_[e] with
  // 1 / w_row, and its off-pivot w_i are entries [eta_start_[e],
  // eta_start_[e + 1]) of eta_index_ / eta_value_.
  std::vector<int> eta_row_;
  std::vector<double> eta_inv_pivot_;
  std::vector<int> eta_start_{0};
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;
  std::vector<double> xb_;      // Basic variable values.
  std::vector<double> cost_;    // Phase-dependent costs.
  std::vector<double> y_;       // Dual vector (scaled rows).
  std::vector<double> w_;       // FTRAN scratch.
  std::vector<double> ratio_;   // Ratio test scratch.
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
  return RevisedSimplex(lp, options).Solve();
}

}  // namespace flowsched
