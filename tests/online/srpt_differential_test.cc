// Differential test of SrptPolicy against the plain rule it implements:
// stable-sort the backlog by (demand, release, id), then pack greedily.
// The policy skips the sort when the backlog is already in that order, so
// the sets below mix shuffled, already-sorted and nearly-sorted inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "core/online/simulator.h"
#include "core/online/srpt_policy.h"
#include "util/rng.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

bool SrptBefore(const PendingFlow& x, const PendingFlow& y) {
  if (x.demand != y.demand) return x.demand < y.demand;
  if (x.release != y.release) return x.release < y.release;
  return x.id < y.id;
}

std::vector<int> ReferenceSrpt(const SwitchSpec& sw,
                               std::span<const PendingFlow> pending) {
  std::vector<int> order(pending.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return SrptBefore(pending[a], pending[b]);
  });
  std::vector<Capacity> in(sw.input_capacities().begin(),
                           sw.input_capacities().end());
  std::vector<Capacity> out(sw.output_capacities().begin(),
                            sw.output_capacities().end());
  std::vector<int> picked;
  for (int i : order) {
    const PendingFlow& f = pending[i];
    if (f.demand <= in[f.src] && f.demand <= out[f.dst]) {
      in[f.src] -= f.demand;
      out[f.dst] -= f.demand;
      picked.push_back(i);
    }
  }
  return picked;
}

TEST(SrptDifferentialTest, MatchesStableSortAndGreedyPack) {
  Rng rng(2024);
  SrptPolicy policy;  // Reused across sets, as the simulators do.
  int already_sorted = 0;
  constexpr int kSets = 600;
  for (int set = 0; set < kSets; ++set) {
    const int ports = rng.UniformInt(1, 5);
    // Capacity-3 ports, or mixed capacities 1-3 on every fourth set.
    std::vector<Capacity> in_cap(ports, 3);
    std::vector<Capacity> out_cap(ports, 3);
    if (set % 4 == 3) {
      for (Capacity& c : in_cap) c = rng.UniformInt(1, 3);
      for (Capacity& c : out_cap) c = rng.UniformInt(1, 3);
    }
    const SwitchSpec sw(in_cap, out_cap);
    const int n = rng.UniformInt(0, 40);
    // A few release values only, so releases tie often.
    const int max_release = rng.UniformInt(0, 3);
    const bool unit = set % 3 == 0;
    std::vector<PendingFlow> pending(n);
    std::vector<FlowId> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    for (int i = 0; i < n; ++i) {
      // Sparse unique ids, handed out in a shuffled order.
      std::swap(ids[i], ids[rng.UniformInt(i, n - 1)]);
      pending[i] = PendingFlow{3 * ids[i] + 1, rng.UniformInt(0, ports - 1),
                               rng.UniformInt(0, ports - 1),
                               unit ? 1 : rng.UniformInt(1, 3),
                               rng.UniformInt(0, max_release)};
    }
    switch (set % 5) {
      case 0:  // Shuffled, as drawn.
        break;
      case 1:  // Admission order: (release, id), as the simulators keep it.
        std::sort(pending.begin(), pending.end(),
                  [](const PendingFlow& x, const PendingFlow& y) {
                    return x.release != y.release ? x.release < y.release
                                                  : x.id < y.id;
                  });
        break;
      case 2:  // Already in SRPT order.
        std::sort(pending.begin(), pending.end(), SrptBefore);
        break;
      case 3:  // SRPT order with one adjacent pair swapped.
        std::sort(pending.begin(), pending.end(), SrptBefore);
        if (n >= 2) {
          const int i = rng.UniformInt(0, n - 2);
          std::swap(pending[i], pending[i + 1]);
        }
        break;
      case 4:  // SRPT order reversed.
        std::sort(pending.begin(), pending.end(), SrptBefore);
        std::reverse(pending.begin(), pending.end());
        break;
    }
    if (std::is_sorted(pending.begin(), pending.end(), SrptBefore)) {
      ++already_sorted;
    }
    std::vector<int> picked = {-1};  // Stale content must be overwritten.
    policy.SelectFlowsInto(sw, max_release, pending, &picked);
    EXPECT_EQ(picked, ReferenceSrpt(sw, pending)) << "set " << set;
  }
  // Both the sorted fast path and the sorting path were exercised.
  EXPECT_GE(already_sorted, kSets / 5);
  EXPECT_LE(already_sorted, kSets - kSets / 5);
}

// The reference rule as a policy, to compare whole simulations.
class ReferenceSrptPolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "reference-srpt"; }
  void SelectFlowsInto(const SwitchSpec& sw, Round /*t*/,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override {
    *picked = ReferenceSrpt(sw, pending);
  }
};

TEST(SrptDifferentialTest, SimulationsMatchReferencePolicy) {
  for (Capacity max_demand : {1, 3}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      PoissonConfig config;
      config.num_inputs = config.num_outputs = 12;
      config.port_capacity = 3;
      config.mean_arrivals_per_round = 20.0;
      config.num_rounds = 30;
      config.max_demand = max_demand;
      config.seed = seed;
      const Instance instance = GeneratePoisson(config);
      SrptPolicy srpt;
      ReferenceSrptPolicy reference;
      const SimulationResult got = Simulate(instance, srpt);
      const SimulationResult want = Simulate(instance, reference);
      EXPECT_EQ(got.schedule.assignments(), want.schedule.assignments())
          << "max_demand " << max_demand << " seed " << seed;
      EXPECT_EQ(got.metrics.total_response, want.metrics.total_response);
    }
  }
}

}  // namespace
}  // namespace flowsched
