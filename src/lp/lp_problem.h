// LpProblem: minimize c'x subject to row constraints, x >= 0.
//
// Rows are declared first (sense + right-hand side), then columns are added
// with their sparse coefficients. This matches how the scheduling LPs are
// naturally built: rows = flows + (port, time) capacities; columns = b_{e,t}.
#ifndef FLOWSCHED_LP_LP_PROBLEM_H_
#define FLOWSCHED_LP_LP_PROBLEM_H_

#include <span>
#include <utility>
#include <vector>

#include "lp/sparse_matrix.h"

namespace flowsched {

enum class RowSense { kLe, kGe, kEq };

class LpProblem {
 public:
  int AddRow(RowSense sense, double rhs);

  // Returns the column index.
  int AddColumn(double objective,
                std::span<const std::pair<int, double>> entries);

  int num_rows() const { return static_cast<int>(senses_.size()); }
  int num_cols() const { return static_cast<int>(objective_.size()); }

  RowSense sense(int i) const { return senses_[i]; }
  double rhs(int i) const { return rhs_[i]; }
  double objective(int j) const { return objective_[j]; }
  const ColumnMatrix& matrix() const { return matrix_; }

 private:
  std::vector<RowSense> senses_;
  std::vector<double> rhs_;
  std::vector<double> objective_;
  ColumnMatrix matrix_{0};
  bool frozen_ = false;  // Rows may not be added after the first column.
};

}  // namespace flowsched

#endif  // FLOWSCHED_LP_LP_PROBLEM_H_
