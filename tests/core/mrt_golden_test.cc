// Golden lock on Theorem 3's offline pipeline: the binary search over rho
// for LP (19)-(21), then the group rounding of the fractional solution at
// rho*. rho_lp is the LP's optimum and must never move; the other values
// depend on the vertex the simplex returns and on the pivots it takes, so
// any drift means a change picked a different vertex or different pivots.
// The instances mix unit and general demands and port capacities 1-3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/mrt_scheduler.h"
#include "workload/patterns.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

struct Golden {
  const char* name;
  Round rho_lp;
  int probes;
  const char* first_lp_objective;  // %.17g of the first rounding LP's optimum.
  Capacity max_violation;
  int lp_solves;
  long simplex_iterations;
  std::uint64_t schedule_hash;  // FNV-1a 64 over the schedule's rounds.
};

Instance PoissonInstance(int ports, double load, int rounds, Capacity cap,
                         Capacity dmax, std::uint64_t seed) {
  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = ports;
  cfg.port_capacity = cap;
  cfg.max_demand = dmax;
  cfg.mean_arrivals_per_round = load * ports;
  cfg.num_rounds = rounds;
  cfg.seed = seed;
  return GeneratePoisson(cfg);
}

Instance GoldenInstance(const std::string& name) {
  // The 8-port, load-1 instance ROADMAP's Theorem 3 timings start from.
  if (name == "poisson8") return PoissonInstance(8, 1.0, 8, 1, 1, 1001);
  if (name == "cap2_dmax2") return PoissonInstance(6, 1.5, 6, 2, 2, 7);
  if (name == "cap3_dmax3") return PoissonInstance(6, 2.0, 5, 3, 3, 11);
  if (name == "cap3_dmax2") return PoissonInstance(5, 3.0, 6, 3, 2, 23);
  // Incast: 5 unit flows into one sink, plus one background flow.
  Instance instance(SwitchSpec::Uniform(6, 6), {});
  AddIncast(instance, 0, 5, 0);
  instance.AddFlow(5, 1, 1, 1);
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
    {"poisson8", 9, 4, "0", 0, 0, 465, 13977191919697284641ULL},
    {"cap2_dmax2", 5, 4, "2.2159860619864027", 3, 2, 225,
     2821632437102843597ULL},
    {"cap3_dmax3", 10, 4, "0.48637559823820814", 3, 2, 186,
     7079313977890879811ULL},
    {"cap3_dmax2", 8, 5, "4.729850027786128", 3, 2, 367,
     3387483758233334443ULL},
    {"incast", 5, 3, "0", 0, 0, 10, 8634781261969082406ULL},
};

class MrtGoldenTest : public ::testing::TestWithParam<Golden> {};

TEST_P(MrtGoldenTest, BinarySearchAndRoundingUnchanged) {
  const Golden& g = GetParam();
  const Instance instance = GoldenInstance(g.name);
  ASSERT_GT(instance.num_flows(), 0);
  const MrtSchedulerResult r = MinimizeMaxResponse(instance);
  const GroupRoundingReport& rep = r.rounding_report;
  EXPECT_EQ(r.rho_lp, g.rho_lp);
  EXPECT_EQ(r.binary_search_probes, g.probes);
  EXPECT_EQ(Exact(rep.first_lp_objective), g.first_lp_objective);
  EXPECT_EQ(rep.max_violation, g.max_violation);
  EXPECT_EQ(rep.lp_solves, g.lp_solves);
  EXPECT_EQ(r.simplex_iterations, g.simplex_iterations);
  EXPECT_EQ(Fnv1a(r.schedule), g.schedule_hash);
  // Theorem 3's guarantees hold whatever vertex the simplex returns.
  EXPECT_EQ(rep.hard_drops, 0);
  EXPECT_LE(rep.max_violation,
            2 * std::max<Capacity>(instance.MaxDemand(), 1) - 1);
  EXPECT_LE(r.metrics.max_response, static_cast<double>(r.rho_lp));
}

INSTANTIATE_TEST_SUITE_P(
    Instances, MrtGoldenTest, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace flowsched
