// Golden lock on Theorem 1's offline pipeline: LP(0), the iterative
// rounding and the (1+c)-augmented packing. The values below were captured
// from the simplex started from its crash basis, with B^{-1} kept as an
// eta file that is rebuilt every 128 pivots. Dropping window-dominated
// LP(0) columns and the flat column store keep the simplex pivot sequence,
// so every value here must stay exactly as recorded. Any drift means a
// change picked different pivots or changed the floating-point arithmetic
// of the eta file. The crash and the eta file each moved the optimal
// vertices (and so the hashes and responses) but no LP(0) optimum beyond
// its last bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/art_lp.h"
#include "core/art_rounding.h"
#include "core/art_scheduler.h"
#include "workload/patterns.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

struct Golden {
  const char* name;
  const char* lp0_objective;  // %.17g of ArtRoundingReport::lp0_objective.
  int iterations;
  Round horizon;
  std::uint64_t pseudo_hash;  // FNV-1a 64 over the pseudo-schedule rounds.
  double total_response;      // ScheduleArtWithAugmentation, c = 2.
};

Instance PoissonInstance(int ports, double load, int rounds, Capacity cap,
                         std::uint64_t seed) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = ports;
  cfg.port_capacity = cap;
  cfg.mean_arrivals_per_round = load * ports;
  cfg.num_rounds = rounds;
  cfg.seed = seed;
  return GeneratePoisson(cfg);
}

Instance GoldenInstance(const std::string& name) {
  // The first instance of the offline-art benchmark workload.
  if (name == "poisson8_bench") return PoissonInstance(8, 1.0, 8, 1, 1000);
  // The next two need three and two rounding iterations.
  if (name == "poisson8") return PoissonInstance(8, 1.0, 14, 1, 13);
  if (name == "poisson16") return PoissonInstance(16, 1.0, 8, 1, 15);
  if (name == "cap3") return PoissonInstance(6, 4.5, 6, 3, 38);
  // Incast: 11 flows into one sink. The load-based initial horizon (8
  // rounds) is infeasible, so LP(0) is re-solved over a longer one.
  Instance instance(SwitchSpec::Uniform(12, 12), {});
  AddIncast(instance, 0, 11, 0);
  return instance;
}

std::uint64_t Fnv1a(const Schedule& schedule) {
  std::uint64_t h = 1469598103934665603ULL;
  for (FlowId e = 0; e < schedule.num_flows(); ++e) {
    auto v = static_cast<std::uint64_t>(schedule.round_of(e));
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string Exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const std::vector<Golden> kGoldens = {
    {"poisson8_bench", "49.5", 1, 24, 8334595648843193252ULL, 132},
    {"poisson8", "216", 3, 40, 10576182443807843957ULL, 534},
    {"poisson16", "201.5", 2, 28, 14830566034837449537ULL, 496},
    {"cap3", "319.5", 1, 24, 7323800194281668320ULL, 731},
    {"incast_extension", "45.5", 1, 12, 13684856561563453611ULL, 75},
};

class ArtGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(ArtGoldenTest, RoundingAndScheduleUnchanged) {
  const Golden& g = GetParam();
  const Instance instance = GoldenInstance(g.name);
  ASSERT_GT(instance.num_flows(), 0);
  ArtRoundingReport report;
  const PseudoSchedule pseudo = ArtIterativeRounding(instance, {}, &report);
  EXPECT_EQ(Exact(report.lp0_objective), g.lp0_objective);
  EXPECT_EQ(report.iterations, g.iterations);
  EXPECT_EQ(report.horizon, g.horizon);
  EXPECT_EQ(Fnv1a(pseudo.assignment), g.pseudo_hash);
  if (std::string(g.name) == "incast_extension") {
    EXPECT_GT(report.horizon, ArtLpInitialHorizon(instance));
  }
  ArtSchedulerOptions options;
  options.c = 2;
  const ArtSchedulerResult result =
      ScheduleArtWithAugmentation(instance, options);
  EXPECT_EQ(result.metrics.total_response, g.total_response);
  EXPECT_EQ(Exact(result.rounding_report.lp0_objective), g.lp0_objective);
  EXPECT_EQ(result.rounding_report.iterations, g.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, ArtGoldenTest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace flowsched
