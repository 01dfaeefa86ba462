#include "graph/hungarian_scan.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define FLOWSCHED_HUNGARIAN_X86 1
#include <immintrin.h>
#endif

namespace flowsched::hungarian {
namespace {

// Every kernel runs the same two passes, so each returns what the classic
// one-pass strict-< scan would:
//   pass 1 stores every updated minv, records way where the candidate is
//          strictly smaller, and min-reduces the row;
//   pass 2 returns the first column equal to that minimum.
// The per-element operations are the classic ones in the classic order
// (minv - delta; (arow - ui) - vv; candidate wins only on strict <), and
// min(cur, mv) in the SIMD kernels is "cur < mv ? cur : mv" bit for bit, so
// the double lane reproduces the original IEEE values exactly. Pass 2 reads
// the winning value back from minv, so even the sign of a zero minimum is
// the one the classic scan returns.

// Pass 1 over columns [j, m); returns min(best, every updated minv).
template <typename T>
T ScanTail(const T* arow, T ui, const T* vv, T* minv,
           typename Lane<T>::Index* way, int j, int m, T delta,
           typename Lane<T>::Index j0, T best) {
  for (; j < m; ++j) {
    const T mv = minv[j] - delta;
    const T cur = arow[j] - ui - vv[j];
    const bool better = cur < mv;
    const T nm = better ? cur : mv;
    minv[j] = nm;
    if (better) way[j] = j0;
    if (nm < best) best = nm;
  }
  return best;
}

// Pass 2 over columns [j, m).
template <typename T>
ScanResult<T> FirstEqual(const T* minv, int j, int m, T best) {
  for (; j < m; ++j) {
    if (minv[j] == best) return {minv[j], j};
  }
  return {best, -1};
}

template <typename T>
ScanResult<T> ScanRowScalar(const T* arow, T ui, const T* vv, T* minv,
                            typename Lane<T>::Index* way, int m, T delta,
                            typename Lane<T>::Index j0) {
  const T best =
      ScanTail(arow, ui, vv, minv, way, 0, m, delta, j0, Lane<T>::kInf);
  return FirstEqual(minv, 0, m, best);
}

#if FLOWSCHED_HUNGARIAN_X86

constexpr double kInfD = Lane<double>::kInf;
constexpr std::int32_t kInfI = Lane<std::int32_t>::kInf;

// --- AVX2: 4 doubles / 8 ints per vector, scalar tail. ---------------------

__attribute__((target("avx2"), always_inline)) inline double HorizontalMin(
    __m256d v) {
  __m128d half =
      _mm_min_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  half = _mm_min_sd(half, _mm_unpackhi_pd(half, half));
  return _mm_cvtsd_f64(half);
}

__attribute__((target("avx2"), always_inline)) inline std::int32_t
HorizontalMin(__m256i v) {
  __m128i half =
      _mm_min_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  half = _mm_min_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(1, 0, 3, 2)));
  half = _mm_min_epi32(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(half);
}

__attribute__((target("avx2"), always_inline)) inline __m256d StepAvx2(
    const double* arow, const double* vv, double* minv, std::int64_t* way,
    __m256d ui_b, __m256d delta_b, __m256i j0_b) {
  const __m256d mv = _mm256_sub_pd(_mm256_loadu_pd(minv), delta_b);
  const __m256d cur = _mm256_sub_pd(
      _mm256_sub_pd(_mm256_loadu_pd(arow), ui_b), _mm256_loadu_pd(vv));
  const __m256d better = _mm256_cmp_pd(cur, mv, _CMP_LT_OQ);
  const __m256d nm = _mm256_min_pd(cur, mv);
  _mm256_storeu_pd(minv, nm);
  _mm256_maskstore_epi64(reinterpret_cast<long long*>(way),
                         _mm256_castpd_si256(better), j0_b);
  return nm;
}

__attribute__((target("avx2"))) ScanResult<double> ScanRowAvx2(
    const double* arow, double ui, const double* vv, double* minv,
    std::int64_t* way, int m, double delta, std::int64_t j0) {
  const __m256d ui_b = _mm256_set1_pd(ui);
  const __m256d delta_b = _mm256_set1_pd(delta);
  const __m256i j0_b = _mm256_set1_epi64x(j0);
  __m256d acc0 = _mm256_set1_pd(kInfD);
  __m256d acc1 = acc0;
  int j = 0;
  for (; j + 8 <= m; j += 8) {
    acc0 = _mm256_min_pd(acc0, StepAvx2(arow + j, vv + j, minv + j, way + j,
                                        ui_b, delta_b, j0_b));
    acc1 = _mm256_min_pd(acc1, StepAvx2(arow + j + 4, vv + j + 4,
                                        minv + j + 4, way + j + 4, ui_b,
                                        delta_b, j0_b));
  }
  if (j + 4 <= m) {
    acc0 = _mm256_min_pd(acc0, StepAvx2(arow + j, vv + j, minv + j, way + j,
                                        ui_b, delta_b, j0_b));
    j += 4;
  }
  const int vec_end = j;
  const double best = ScanTail(arow, ui, vv, minv, way, vec_end, m, delta,
                               j0, HorizontalMin(_mm256_min_pd(acc0, acc1)));
  const __m256d best_b = _mm256_set1_pd(best);
  for (j = 0; j < vec_end; j += 4) {
    const int hit = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(minv + j), best_b, _CMP_EQ_OQ));
    if (hit != 0) {
      const int at = j + __builtin_ctz(static_cast<unsigned>(hit));
      return {minv[at], at};
    }
  }
  return FirstEqual(minv, vec_end, m, best);
}

__attribute__((target("avx2"), always_inline)) inline __m256i StepAvx2(
    const std::int32_t* arow, const std::int32_t* vv, std::int32_t* minv,
    std::int32_t* way, __m256i ui_b, __m256i delta_b, __m256i j0_b) {
  const __m256i mv = _mm256_sub_epi32(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(minv)), delta_b);
  const __m256i cur = _mm256_sub_epi32(
      _mm256_sub_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow)), ui_b),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vv)));
  const __m256i better = _mm256_cmpgt_epi32(mv, cur);
  const __m256i nm = _mm256_min_epi32(cur, mv);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(minv), nm);
  _mm256_maskstore_epi32(way, better, j0_b);
  return nm;
}

__attribute__((target("avx2"))) ScanResult<std::int32_t> ScanRowAvx2(
    const std::int32_t* arow, std::int32_t ui, const std::int32_t* vv,
    std::int32_t* minv, std::int32_t* way, int m, std::int32_t delta,
    std::int32_t j0) {
  const __m256i ui_b = _mm256_set1_epi32(ui);
  const __m256i delta_b = _mm256_set1_epi32(delta);
  const __m256i j0_b = _mm256_set1_epi32(j0);
  __m256i acc0 = _mm256_set1_epi32(kInfI);
  __m256i acc1 = acc0;
  int j = 0;
  for (; j + 16 <= m; j += 16) {
    acc0 = _mm256_min_epi32(acc0, StepAvx2(arow + j, vv + j, minv + j,
                                           way + j, ui_b, delta_b, j0_b));
    acc1 = _mm256_min_epi32(acc1, StepAvx2(arow + j + 8, vv + j + 8,
                                           minv + j + 8, way + j + 8, ui_b,
                                           delta_b, j0_b));
  }
  if (j + 8 <= m) {
    acc0 = _mm256_min_epi32(acc0, StepAvx2(arow + j, vv + j, minv + j,
                                           way + j, ui_b, delta_b, j0_b));
    j += 8;
  }
  const int vec_end = j;
  const std::int32_t best =
      ScanTail(arow, ui, vv, minv, way, vec_end, m, delta, j0,
               HorizontalMin(_mm256_min_epi32(acc0, acc1)));
  const __m256i best_b = _mm256_set1_epi32(best);
  for (j = 0; j < vec_end; j += 8) {
    const int hit = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(minv + j)),
        best_b)));
    if (hit != 0) {
      const int at = j + __builtin_ctz(static_cast<unsigned>(hit));
      return {minv[at], at};
    }
  }
  return FirstEqual(minv, vec_end, m, best);
}

// --- AVX-512: 8 doubles / 16 ints per vector, masked tail. -----------------
// A partial vector loads, stores and min-reduces only its `live` lanes
// (masked accesses never touch the masked-off memory). Only masked forms of
// the min and extract intrinsics are used: GCC 12's unmasked ones (and the
// _mm512_reduce_* helpers built on them) read a deliberately uninitialized
// register and trip -Wuninitialized under -Wall.

inline __mmask8 LiveMask8(int left) {
  return left >= 8 ? 0xFF : static_cast<__mmask8>((1u << left) - 1);
}

inline __mmask16 LiveMask16(int left) {
  return left >= 16 ? 0xFFFF : static_cast<__mmask16>((1u << left) - 1);
}

// acc = min(acc, pass 1 over the live columns at `j`).
__attribute__((target("avx512f"), always_inline)) inline __m512d StepAvx512(
    __m512d acc, const double* arow, const double* vv, double* minv,
    std::int64_t* way, __m512d ui_b, __m512d delta_b, __m512i j0_b,
    __mmask8 live) {
  const __m512d mv =
      _mm512_sub_pd(_mm512_maskz_loadu_pd(live, minv), delta_b);
  const __m512d cur =
      _mm512_sub_pd(_mm512_sub_pd(_mm512_maskz_loadu_pd(live, arow), ui_b),
                    _mm512_maskz_loadu_pd(live, vv));
  const __mmask8 better = _mm512_mask_cmp_pd_mask(live, cur, mv, _CMP_LT_OQ);
  const __m512d nm = _mm512_maskz_min_pd(live, cur, mv);
  _mm512_mask_storeu_pd(minv, live, nm);
  _mm512_mask_storeu_epi64(way, better, j0_b);
  return _mm512_mask_min_pd(acc, live, acc, nm);
}

__attribute__((target("avx512f"))) ScanResult<double> ScanRowAvx512(
    const double* arow, double ui, const double* vv, double* minv,
    std::int64_t* way, int m, double delta, std::int64_t j0) {
  const __m512d ui_b = _mm512_set1_pd(ui);
  const __m512d delta_b = _mm512_set1_pd(delta);
  const __m512i j0_b = _mm512_set1_epi64(j0);
  __m512d acc0 = _mm512_set1_pd(kInfD);
  __m512d acc1 = acc0;
  int j = 0;
  for (; j + 16 <= m; j += 16) {
    acc0 = StepAvx512(acc0, arow + j, vv + j, minv + j, way + j, ui_b,
                      delta_b, j0_b, 0xFF);
    acc1 = StepAvx512(acc1, arow + j + 8, vv + j + 8, minv + j + 8,
                      way + j + 8, ui_b, delta_b, j0_b, 0xFF);
  }
  for (; j < m; j += 8) {
    acc0 = StepAvx512(acc0, arow + j, vv + j, minv + j, way + j, ui_b,
                      delta_b, j0_b, LiveMask8(m - j));
  }
  const __m512d acc = _mm512_mask_min_pd(acc0, 0xFF, acc0, acc1);
  const __m256d zero4 = _mm256_setzero_pd();
  const double best = HorizontalMin(
      _mm256_min_pd(_mm512_mask_extractf64x4_pd(zero4, 0xF, acc, 0),
                    _mm512_mask_extractf64x4_pd(zero4, 0xF, acc, 1)));
  const __m512d best_b = _mm512_set1_pd(best);
  for (j = 0; j < m; j += 8) {
    const __mmask8 live = LiveMask8(m - j);
    const __mmask8 hit = _mm512_mask_cmp_pd_mask(
        live, _mm512_maskz_loadu_pd(live, minv + j), best_b, _CMP_EQ_OQ);
    if (hit != 0) {
      const int at = j + __builtin_ctz(static_cast<unsigned>(hit));
      return {minv[at], at};
    }
  }
  return {best, -1};
}

__attribute__((target("avx512f"), always_inline)) inline __m512i StepAvx512(
    __m512i acc, const std::int32_t* arow, const std::int32_t* vv,
    std::int32_t* minv, std::int32_t* way, __m512i ui_b, __m512i delta_b,
    __m512i j0_b, __mmask16 live) {
  const __m512i mv =
      _mm512_sub_epi32(_mm512_maskz_loadu_epi32(live, minv), delta_b);
  const __m512i cur = _mm512_sub_epi32(
      _mm512_sub_epi32(_mm512_maskz_loadu_epi32(live, arow), ui_b),
      _mm512_maskz_loadu_epi32(live, vv));
  const __mmask16 better = _mm512_mask_cmplt_epi32_mask(live, cur, mv);
  const __m512i nm = _mm512_maskz_min_epi32(live, cur, mv);
  _mm512_mask_storeu_epi32(minv, live, nm);
  _mm512_mask_storeu_epi32(way, better, j0_b);
  return _mm512_mask_min_epi32(acc, live, acc, nm);
}

__attribute__((target("avx512f"))) ScanResult<std::int32_t> ScanRowAvx512(
    const std::int32_t* arow, std::int32_t ui, const std::int32_t* vv,
    std::int32_t* minv, std::int32_t* way, int m, std::int32_t delta,
    std::int32_t j0) {
  const __m512i ui_b = _mm512_set1_epi32(ui);
  const __m512i delta_b = _mm512_set1_epi32(delta);
  const __m512i j0_b = _mm512_set1_epi32(j0);
  __m512i acc0 = _mm512_set1_epi32(kInfI);
  __m512i acc1 = acc0;
  int j = 0;
  for (; j + 32 <= m; j += 32) {
    acc0 = StepAvx512(acc0, arow + j, vv + j, minv + j, way + j, ui_b,
                      delta_b, j0_b, 0xFFFF);
    acc1 = StepAvx512(acc1, arow + j + 16, vv + j + 16, minv + j + 16,
                      way + j + 16, ui_b, delta_b, j0_b, 0xFFFF);
  }
  for (; j < m; j += 16) {
    acc0 = StepAvx512(acc0, arow + j, vv + j, minv + j, way + j, ui_b,
                      delta_b, j0_b, LiveMask16(m - j));
  }
  const __m512i acc = _mm512_mask_min_epi32(acc0, 0xFFFF, acc0, acc1);
  const __m256i zero8 = _mm256_setzero_si256();
  const std::int32_t best = HorizontalMin(
      _mm256_min_epi32(_mm512_mask_extracti64x4_epi64(zero8, 0xF, acc, 0),
                       _mm512_mask_extracti64x4_epi64(zero8, 0xF, acc, 1)));
  const __m512i best_b = _mm512_set1_epi32(best);
  for (j = 0; j < m; j += 16) {
    const __mmask16 live = LiveMask16(m - j);
    const __mmask16 hit = _mm512_mask_cmpeq_epi32_mask(
        live, _mm512_maskz_loadu_epi32(live, minv + j), best_b);
    if (hit != 0) {
      const int at = j + __builtin_ctz(static_cast<unsigned>(hit));
      return {minv[at], at};
    }
  }
  return {best, -1};
}

#endif  // FLOWSCHED_HUNGARIAN_X86

}  // namespace

template <typename T>
std::vector<ScanVariant<T>> ScanVariants() {
  std::vector<ScanVariant<T>> variants;
#if FLOWSCHED_HUNGARIAN_X86
  variants.push_back(
      {"avx512", __builtin_cpu_supports("avx512f") != 0, ScanRowAvx512});
  variants.push_back(
      {"avx2", __builtin_cpu_supports("avx2") != 0, ScanRowAvx2});
#endif
  variants.push_back({"scalar", true, ScanRowScalar<T>});
  return variants;
}

template <typename T>
ScanRowFn<T> BestScanRow() {
  static const ScanRowFn<T> best = [] {
    for (const ScanVariant<T>& v : ScanVariants<T>()) {
      if (v.supported) return v.fn;
    }
    return static_cast<ScanRowFn<T>>(ScanRowScalar<T>);
  }();
  return best;
}

template std::vector<ScanVariant<double>> ScanVariants<double>();
template std::vector<ScanVariant<std::int32_t>> ScanVariants<std::int32_t>();
template ScanRowFn<double> BestScanRow<double>();
template ScanRowFn<std::int32_t> BestScanRow<std::int32_t>();

}  // namespace flowsched::hungarian
