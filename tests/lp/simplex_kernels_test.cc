// Every compiled dense simplex kernel (scalar, AVX2) against the plain
// loops the revised simplex used before it had kernels: same bits in every
// output element, signed zeros included. Variants the CPU lacks are skipped
// and reported; at least the scalar one always runs.
#include "lp/simplex_kernels.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <vector>

#include "util/rng.h"

namespace flowsched::simplex_kernels {
namespace {

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Tie-heavy small values, signed zeros and arbitrary reals.
double RandomValue(Rng& rng) {
  const double values[] = {0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 0.25, 3.0};
  if (rng.UniformInt(0, 2) == 0) {
    return values[rng.UniformU64(std::size(values))];
  }
  return 8.0 * rng.UniformReal() - 4.0;
}

std::vector<double> RandomVector(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = RandomValue(rng);
  return v;
}

// Runs `check` once per supported variant; returns how many ran.
template <typename Check>
int ForEachVariant(Check check) {
  int ran = 0;
  for (const KernelVariant& variant : KernelVariants()) {
    if (!variant.supported) {
      std::printf("  [skipped: CPU lacks %s]\n", variant.name);
      continue;
    }
    SCOPED_TRACE(variant.name);
    check(variant);
    ++ran;
  }
  return ran;
}

TEST(SimplexKernelsTest, AddScaledMatchesPlainLoops) {
  const int ran = ForEachVariant([](const KernelVariant& variant) {
    Rng rng(4242);
    for (int rep = 0; rep < 2000; ++rep) {
      // Lengths around every vector width, including non-multiples.
      const int m = rep < 40 ? rep + 1 : rng.UniformInt(1, 300);
      const std::vector<double> x = RandomVector(m, rng);
      const std::vector<double> y = RandomVector(m, rng);
      const double a = RandomValue(rng);
      // y + a * x, as the simplex accumulates y = cB' * Binv.
      std::vector<double> got = y;
      variant.add_scaled(a, x.data(), got.data(), m);
      for (int r = 0; r < m; ++r) {
        ASSERT_TRUE(SameBits(got[r], y[r] + a * x[r]))
            << "m=" << m << " rep " << rep << " r=" << r;
      }
      // y - a * x, as the pivot eliminates a row: passing -a must give it.
      got = y;
      variant.add_scaled(-a, x.data(), got.data(), m);
      for (int r = 0; r < m; ++r) {
        ASSERT_TRUE(SameBits(got[r], y[r] - a * x[r]))
            << "m=" << m << " rep " << rep << " r=" << r;
      }
    }
  });
  EXPECT_GE(ran, 1);
}

TEST(SimplexKernelsTest, ColumnProductMatchesPlainLoops) {
  const int ran = ForEachVariant([](const KernelVariant& variant) {
    Rng rng(977);
    for (int rep = 0; rep < 1000; ++rep) {
      const int m = rep < 40 ? rep + 1 : rng.UniformInt(1, 200);
      const std::vector<double> binv =
          RandomVector(static_cast<std::size_t>(m) * m, rng);
      const int nnz = rng.UniformInt(0, 6);
      std::vector<int> rows(nnz);
      for (int& r : rows) r = rng.UniformInt(0, m - 1);
      const std::vector<double> values = RandomVector(nnz, rng);
      // The direction loop column by column: zero entries are skipped.
      std::vector<double> want(m, 0.0);
      for (int k = 0; k < nnz; ++k) {
        if (values[k] == 0.0) continue;
        for (int i = 0; i < m; ++i) {
          const double b = binv[static_cast<std::size_t>(i) * m + rows[k]];
          want[i] += b * values[k];
        }
      }
      std::vector<double> got(m, 7.0);  // Every element must be written.
      variant.column_product(binv.data(), m, rows.data(), values.data(), nnz,
                             got.data());
      for (int i = 0; i < m; ++i) {
        ASSERT_TRUE(SameBits(got[i], want[i]))
            << got[i] << " vs " << want[i] << " m=" << m << " nnz=" << nnz
            << " rep " << rep << " i=" << i;
      }
    }
  });
  EXPECT_GE(ran, 1);
}

TEST(SimplexKernelsTest, SimplexUsesFirstSupportedVariant) {
  for (const KernelVariant& v : KernelVariants()) {
    if (v.supported) {
      EXPECT_STREQ(BestKernels().name, v.name);
      EXPECT_EQ(BestKernels().add_scaled, v.add_scaled);
      EXPECT_EQ(BestKernels().column_product, v.column_product);
      break;
    }
  }
  EXPECT_STREQ(KernelVariants().back().name, "scalar");
}

}  // namespace
}  // namespace flowsched::simplex_kernels
