// Every compiled Hungarian row-scan kernel (scalar, AVX2, AVX-512; double
// and int32 lanes) against a plain one-pass reference: same updated minv
// (bit for bit), same way, same minimum (including the sign of a zero) and
// the same first column attaining it. Kernels the CPU lacks are skipped and
// reported; at least the scalar ones always run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <vector>

#include "graph/hungarian_scan.h"
#include "util/rng.h"

namespace flowsched::hungarian {
namespace {

// The classic sequential scan the kernels must reproduce.
template <typename T>
ScanResult<T> ReferenceScan(const T* arow, T ui, const T* vv, T* minv,
                            typename Lane<T>::Index* way, int m, T delta,
                            typename Lane<T>::Index j0) {
  T best = 0;
  int j1 = -1;
  for (int j = 0; j < m; ++j) {
    const T mv = minv[j] - delta;
    const T cur = arow[j] - ui - vv[j];
    const bool better = cur < mv;
    const T nm = better ? cur : mv;
    minv[j] = nm;
    way[j] = better ? j0 : way[j];
    if (j1 < 0 || nm < best) {
      best = nm;
      j1 = j;
    }
  }
  return {best, j1};
}

template <typename T>
bool SameBits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template <typename T>
struct ScanInput {
  std::vector<T> arow;
  std::vector<T> vv;
  std::vector<T> minv;
  std::vector<typename Lane<T>::Index> way;
  T ui;
  T delta;
  typename Lane<T>::Index j0;
};

// Double lane: small tie-heavy values, signed zeros, fractions, used
// columns (vv = -inf, minv = +inf) and unreached ones (minv = +inf).
ScanInput<double> RandomDoubleInput(int m, Rng& rng) {
  const double values[] = {0.0, -0.0, -1.0, -2.0, -3.0, 1.0, 2.0, -0.5, 0.25};
  auto pick = [&] { return values[rng.UniformU64(std::size(values))]; };
  auto any = [&] { return rng.UniformInt(0, 3) == 0 ? pick()
                                                    : 8.0 * rng.UniformReal() -
                                                          4.0; };
  ScanInput<double> in;
  const int open = rng.UniformInt(0, m - 1);  // At least one open column.
  for (int j = 0; j < m; ++j) {
    const bool used = j != open && rng.UniformInt(0, 3) == 0;
    in.arow.push_back(rng.UniformInt(0, 1) == 0 ? pick() : any());
    in.vv.push_back(used ? Lane<double>::kUsed : any());
    in.minv.push_back(used || rng.UniformInt(0, 4) == 0 ? Lane<double>::kInf
                                                        : any());
    in.way.push_back(rng.UniformInt(0, 50));
  }
  in.ui = rng.UniformInt(0, 1) == 0 ? pick() : any();
  in.delta = rng.UniformInt(0, 2) == 0 ? pick() : any();
  in.j0 = rng.UniformInt(0, 50);
  return in;
}

// Int32 lane, within the lane's proven ranges for weight bound w: costs and
// potentials in [-w, 0], open minv and delta in [-w, 2w], used columns
// (vv = kUsed) with minv within w of kInf.
ScanInput<std::int32_t> RandomIntInput(int m, std::int32_t w, Rng& rng) {
  auto in_range = [&](std::int32_t lo, std::int32_t hi) {
    return static_cast<std::int32_t>(
        lo + static_cast<std::int64_t>(rng.UniformU64(
                 static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) -
                                            lo + 1))));
  };
  ScanInput<std::int32_t> in;
  const int open = rng.UniformInt(0, m - 1);
  for (int j = 0; j < m; ++j) {
    const bool used = j != open && rng.UniformInt(0, 3) == 0;
    in.arow.push_back(in_range(-w, 0));
    in.vv.push_back(used ? Lane<std::int32_t>::kUsed : in_range(-w, 0));
    if (used) {
      in.minv.push_back(Lane<std::int32_t>::kInf + in_range(-w, w));
    } else if (rng.UniformInt(0, 4) == 0) {
      in.minv.push_back(Lane<std::int32_t>::kInf);
    } else {
      in.minv.push_back(in_range(-w, 2 * w));
    }
    in.way.push_back(rng.UniformInt(0, 50));
  }
  in.ui = in_range(-w, 0);
  in.delta = in_range(-w, 2 * w);
  in.j0 = rng.UniformInt(0, 50);
  return in;
}

template <typename T, typename MakeInput>
void CheckAllVariants(MakeInput make_input) {
  Rng rng(31337);
  int ran = 0;
  for (const ScanVariant<T>& variant : ScanVariants<T>()) {
    if (!variant.supported) {
      std::printf("  [skipped: CPU lacks %s]\n", variant.name);
      continue;
    }
    SCOPED_TRACE(variant.name);
    for (int rep = 0; rep < 3000; ++rep) {
      // Row lengths around every vector width, including non-multiples.
      const int m = rep < 70 ? rep + 1 : rng.UniformInt(1, 300);
      const ScanInput<T> in = make_input(m, rng);
      ScanInput<T> want = in;
      ScanInput<T> got = in;
      const ScanResult<T> ref =
          ReferenceScan<T>(want.arow.data(), want.ui, want.vv.data(),
                           want.minv.data(), want.way.data(), m, want.delta,
                           want.j0);
      const ScanResult<T> res =
          variant.fn(got.arow.data(), got.ui, got.vv.data(), got.minv.data(),
                     got.way.data(), m, got.delta, got.j0);
      ASSERT_EQ(res.j1, ref.j1) << "m=" << m << " rep " << rep;
      ASSERT_TRUE(SameBits(res.best, ref.best))
          << res.best << " vs " << ref.best << " m=" << m << " rep " << rep;
      ASSERT_EQ(got.way, want.way) << "m=" << m << " rep " << rep;
      for (int j = 0; j < m; ++j) {
        ASSERT_TRUE(SameBits(got.minv[j], want.minv[j]))
            << "minv[" << j << "] m=" << m << " rep " << rep;
      }
    }
    ++ran;
  }
  EXPECT_GE(ran, 1);
}

TEST(HungarianScanTest, DoubleVariantsMatchReference) {
  CheckAllVariants<double>(
      [](int m, Rng& rng) { return RandomDoubleInput(m, rng); });
}

TEST(HungarianScanTest, IntVariantsMatchReferenceOnTies) {
  CheckAllVariants<std::int32_t>(
      [](int m, Rng& rng) { return RandomIntInput(m, 3, rng); });
}

TEST(HungarianScanTest, IntVariantsMatchReferenceAtMagnitudeGuard) {
  CheckAllVariants<std::int32_t>(
      [](int m, Rng& rng) { return RandomIntInput(m, 1 << 26, rng); });
}

TEST(HungarianScanTest, SolverUsesFirstSupportedVariant) {
  for (const ScanVariant<double>& v : ScanVariants<double>()) {
    if (v.supported) {
      EXPECT_EQ(BestScanRow<double>(), v.fn) << v.name;
      break;
    }
  }
  for (const ScanVariant<std::int32_t>& v : ScanVariants<std::int32_t>()) {
    if (v.supported) {
      EXPECT_EQ(BestScanRow<std::int32_t>(), v.fn) << v.name;
      break;
    }
  }
  EXPECT_STREQ(ScanVariants<double>().back().name, "scalar");
  EXPECT_STREQ(ScanVariants<std::int32_t>().back().name, "scalar");
}

}  // namespace
}  // namespace flowsched::hungarian
