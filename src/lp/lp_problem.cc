#include "lp/lp_problem.h"

#include "util/check.h"

namespace flowsched {

int LpProblem::AddRow(RowSense sense, double rhs) {
  FS_CHECK_MSG(!frozen_, "rows must be added before columns");
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  return num_rows() - 1;
}

int LpProblem::AddColumn(double objective,
                         std::span<const std::pair<int, double>> entries) {
  if (!frozen_) {
    matrix_ = ColumnMatrix(num_rows());
    frozen_ = true;
  }
  objective_.push_back(objective);
  return matrix_.AddColumn(entries);
}

}  // namespace flowsched
