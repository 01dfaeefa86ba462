// Dense kernels of the revised simplex in lp/simplex.cc.
//
// Each kernel has a portable scalar variant and an AVX2 variant chosen at
// run time from the CPU. Every variant does one multiply and then one add
// per term, in the scalar order, and never a fused multiply-add: the AVX2
// code is compiled for "avx2" alone, which lacks FMA, so the compiler
// cannot contract it either. All variants therefore return the same bits,
// and the simplex takes the same pivots whichever one runs. Internal
// header: only the simplex and the kernel test include it.
#ifndef FLOWSCHED_LP_SIMPLEX_KERNELS_H_
#define FLOWSCHED_LP_SIMPLEX_KERNELS_H_

#include <vector>

namespace flowsched::simplex_kernels {

// y[r] = y[r] + a * x[r] for r in [0, m).
using AddScaledFn = void (*)(double a, const double* x, double* y, int m);

// w = B * A_j for a row-major m x m matrix `binv` and a sparse column of
// `nnz` entries: for each i, w[i] starts at 0 and adds
// binv[i * m + rows[k]] * values[k] for k in order, skipping zero values.
using ColumnProductFn = void (*)(const double* binv, int m, const int* rows,
                                 const double* values, int nnz, double* w);

struct KernelVariant {
  const char* name;
  bool supported;  // The CPU has the variant's instruction set.
  AddScaledFn add_scaled;
  ColumnProductFn column_product;
};

// Every variant compiled into this build, widest first; the last one is
// the portable scalar variant. The simplex runs the first supported one;
// the kernel test runs them all.
std::vector<KernelVariant> KernelVariants();

// The variant the simplex uses on this CPU.
const KernelVariant& BestKernels();

}  // namespace flowsched::simplex_kernels

#endif  // FLOWSCHED_LP_SIMPLEX_KERNELS_H_
