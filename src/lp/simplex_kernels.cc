#include "lp/simplex_kernels.h"

#include <cstddef>

#if defined(__x86_64__) && defined(__GNUC__)
#define FLOWSCHED_SIMPLEX_X86 1
#include <immintrin.h>
#endif

namespace flowsched::simplex_kernels {
namespace {

void AddScaledTail(double a, const double* x, double* y, int r, int m) {
  for (; r < m; ++r) y[r] += a * x[r];
}

double ColumnProductRow(const double* binv_row, const int* rows,
                        const double* values, int nnz) {
  double acc = 0.0;
  for (int k = 0; k < nnz; ++k) {
    if (values[k] != 0.0) acc += binv_row[rows[k]] * values[k];
  }
  return acc;
}

void AddScaledScalar(double a, const double* x, double* y, int m) {
  AddScaledTail(a, x, y, 0, m);
}

void ColumnProductScalar(const double* binv, int m, const int* rows,
                         const double* values, int nnz, double* w) {
  for (int i = 0; i < m; ++i) {
    w[i] = ColumnProductRow(binv + static_cast<std::size_t>(i) * m, rows,
                            values, nnz);
  }
}

#if FLOWSCHED_SIMPLEX_X86

__attribute__((target("avx2"))) void AddScaledAvx2(double a, const double* x,
                                                   double* y, int m) {
  const __m256d a_b = _mm256_set1_pd(a);
  int r = 0;
  for (; r + 4 <= m; r += 4) {
    const __m256d ax = _mm256_mul_pd(a_b, _mm256_loadu_pd(x + r));
    _mm256_storeu_pd(y + r, _mm256_add_pd(_mm256_loadu_pd(y + r), ax));
  }
  AddScaledTail(a, x, y, r, m);
}

// Four rows of B at a time: each entry gathers B[i..i+3][rows[k]], a
// column of B with stride m.
__attribute__((target("avx2"))) void ColumnProductAvx2(
    const double* binv, int m, const int* rows, const double* values, int nnz,
    double* w) {
  const long long mm = m;
  const __m256i offsets = _mm256_set_epi64x(3 * mm, 2 * mm, mm, 0);
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* block = binv + static_cast<std::size_t>(i) * m;
    __m256d acc = _mm256_setzero_pd();
    for (int k = 0; k < nnz; ++k) {
      if (values[k] == 0.0) continue;
      const __m256d b = _mm256_i64gather_pd(block + rows[k], offsets, 8);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(b, _mm256_set1_pd(values[k])));
    }
    _mm256_storeu_pd(w + i, acc);
  }
  for (; i < m; ++i) {
    w[i] = ColumnProductRow(binv + static_cast<std::size_t>(i) * m, rows,
                            values, nnz);
  }
}

#endif  // FLOWSCHED_SIMPLEX_X86

}  // namespace

std::vector<KernelVariant> KernelVariants() {
  std::vector<KernelVariant> variants;
#if FLOWSCHED_SIMPLEX_X86
  variants.push_back({"avx2", __builtin_cpu_supports("avx2") != 0,
                      AddScaledAvx2, ColumnProductAvx2});
#endif
  variants.push_back({"scalar", true, AddScaledScalar, ColumnProductScalar});
  return variants;
}

const KernelVariant& BestKernels() {
  static const KernelVariant best = [] {
    for (const KernelVariant& v : KernelVariants()) {
      if (v.supported) return v;
    }
    return KernelVariant{"scalar", true, AddScaledScalar, ColumnProductScalar};
  }();
  return best;
}

}  // namespace flowsched::simplex_kernels
