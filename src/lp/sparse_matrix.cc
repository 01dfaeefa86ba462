#include "lp/sparse_matrix.h"

#include "util/check.h"

namespace flowsched {

int ColumnMatrix::AddColumn(std::span<const std::pair<int, double>> entries) {
  // Insertion-sort each entry into the column's tail by row, merging a
  // duplicate row into the entry already there.
  const std::size_t begin = rows_.size();
  for (const auto& [row, value] : entries) {
    FS_CHECK(row >= 0 && row < num_rows_);
    std::size_t k = rows_.size();
    while (k > begin && rows_[k - 1] > row) --k;
    if (k > begin && rows_[k - 1] == row) {
      values_[k - 1] += value;
      continue;
    }
    rows_.insert(rows_.begin() + k, row);
    values_.insert(values_.begin() + k, value);
  }
  start_.push_back(static_cast<int>(rows_.size()));
  return num_cols() - 1;
}

}  // namespace flowsched
