// Row-scan kernels of the Hungarian solver in graph/max_weight_matching.cc.
//
// The solver runs in one of two value lanes: exact int32 arithmetic when
// every edge weight is a small non-negative integer, IEEE double otherwise.
// Each lane has a portable scalar kernel plus AVX2 / AVX-512 kernels chosen
// at run time from the CPU. Internal header: only the solver and the kernel
// test include it.
#ifndef FLOWSCHED_GRAPH_HUNGARIAN_SCAN_H_
#define FLOWSCHED_GRAPH_HUNGARIAN_SCAN_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace flowsched::hungarian {

// Per-lane constants. `kInf` is the minv of a column no tree row has reached
// yet; `kUsed` is the vv of a column already in the alternating tree, which
// drives its candidate above any minv so it can never be picked again.
template <typename T>
struct Lane;

template <>
struct Lane<double> {
  using Index = std::int64_t;  // Same width as T, so SIMD masks line up.
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kUsed = -kInf;
};

// Exact for integral weights in [0, W], W <= 2^26. Costs lie in [-W, 0],
// potentials in [-W, 0], and every reduced cost, hence every open minv,
// candidate and delta, in [-W, 2W]. A used column's candidate lies in
// 2^30 +/- W and its minv in 2^29 +/- W (kInf shifted by the row's deltas,
// which sum to the root potential's change), so it never wins a comparison
// or attains the row minimum, and nothing comes near int32 overflow.
template <>
struct Lane<std::int32_t> {
  using Index = std::int32_t;
  static constexpr std::int32_t kInf = 1 << 29;
  static constexpr std::int32_t kUsed = -(1 << 30);
};

template <typename T>
struct ScanResult {
  T best;  // The minimum updated minv.
  int j1;  // 0-based first column attaining it; -1 when none does.
};

// One Hungarian row scan over all m columns:
//   minv[j] = min(minv[j] - delta, arow[j] - ui - vv[j])
// setting way[j] = j0 where the fresh candidate is strictly smaller, and
// returning the minimum updated minv together with the FIRST column
// attaining it (the sequential strict-< argmin). At least one column must
// be open (vv[j] != kUsed). `delta` folds the previous iteration's uniform
// "minv -= delta" into this pass.
template <typename T>
using ScanRowFn = ScanResult<T> (*)(const T* arow, T ui, const T* vv,
                                    T* minv, typename Lane<T>::Index* way,
                                    int m, T delta,
                                    typename Lane<T>::Index j0);

template <typename T>
struct ScanVariant {
  const char* name;
  bool supported;  // The CPU has the variant's instruction set.
  ScanRowFn<T> fn;
};

// Every kernel compiled into this build for lane T, widest first; the last
// one is the portable scalar kernel. The solver runs the first supported
// one; the kernel test runs them all against a reference.
template <typename T>
std::vector<ScanVariant<T>> ScanVariants();

// The kernel the solver uses for lane T on this CPU.
template <typename T>
ScanRowFn<T> BestScanRow();

}  // namespace flowsched::hungarian

#endif  // FLOWSCHED_GRAPH_HUNGARIAN_SCAN_H_
