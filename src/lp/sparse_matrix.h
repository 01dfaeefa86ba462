// Column-oriented sparse matrix used by the LP machinery.
//
// One flat compressed-sparse-column (CSC) store: column j's entries are
// rows()[starts()[j] .. starts()[j + 1]) with the matching values(),
// sorted by row with duplicates merged. Adding a column appends to three
// flat arrays, so there is no heap allocation per column, and the simplex
// prices every column in one sweep over contiguous memory. The scheduling
// LPs have ~3 nonzeros per structural column (one covering row, two
// port-capacity rows).
#ifndef FLOWSCHED_LP_SPARSE_MATRIX_H_
#define FLOWSCHED_LP_SPARSE_MATRIX_H_

#include <span>
#include <utility>
#include <vector>

namespace flowsched {

class ColumnMatrix {
 public:
  explicit ColumnMatrix(int num_rows) : num_rows_(num_rows) {}

  // Entries must reference rows in [0, num_rows); duplicates are merged.
  // Returns the column index.
  int AddColumn(std::span<const std::pair<int, double>> entries);

  int num_rows() const { return num_rows_; }
  int num_cols() const { return static_cast<int>(start_.size()) - 1; }

  // Column j is [starts()[j], starts()[j + 1]) of rows() and values().
  const std::vector<int>& starts() const { return start_; }
  const std::vector<int>& rows() const { return rows_; }
  const std::vector<double>& values() const { return values_; }

 private:
  int num_rows_;
  std::vector<int> start_{0};
  std::vector<int> rows_;
  std::vector<double> values_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_LP_SPARSE_MATRIX_H_
