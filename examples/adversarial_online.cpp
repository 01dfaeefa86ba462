// Online lower bounds live: the Figure 4 adversaries against every policy.
//
// (a) Lemma 5.1 — an adaptive adversary watches which output side your
//     policy falls behind on and floods it; the competitive ratio for
//     average response grows without bound in the stream length.
// (b) Lemma 5.2 — seven ports, six flows, two rounds: every online policy
//     is forced to max response 3 while hindsight achieves 2.
//
// The adaptive adversaries generate flows in *reaction* to the policy: they
// are ArrivalSources (workload/arrival_source.h) that read the backlog the
// round loop hands them each round, so they drive Simulate() directly —
// the one workload shape outside the instance-based Solver facade. Everything
// downstream of the realized instances (hindsight optima, replaying the
// canonical fixed instances) goes through the registry.
//
// Run: ./build/examples/adversarial_online
#include <iostream>

#include "api/registry.h"
#include "core/online/simulator.h"
#include "util/table.h"
#include "workload/adversarial.h"

int main() {
  using namespace flowsched;
  const SolverRegistry& registry = SolverRegistry::Global();

  std::cout << "--- Lemma 5.1: average response, adaptive flood ---\n";
  TextTable art({"policy", "stream M", "online total", "offline bound",
                 "ratio"});
  for (const std::string& name : {"maxweight", "minrtime", "fifo"}) {
    for (int stream : {30, 120, 480}) {
      ArtLowerBoundAdversary adversary(/*phase_rounds=*/6,
                                       /*total_rounds=*/stream);
      auto policy = MakePolicy(name);
      const SimulationResult r =
          Simulate(ArtLowerBoundAdversary::Switch(), adversary, *policy);
      art.Row(name, stream, r.metrics.total_response,
              adversary.OfflineTotalResponse(),
              r.metrics.total_response / adversary.OfflineTotalResponse());
    }
  }
  art.Print(std::cout);
  std::cout << "No matter the policy, the ratio keeps growing with M: no\n"
               "online algorithm is constant-competitive for average response\n"
               "(Lemma 5.1) — resource augmentation is unavoidable.\n\n";

  std::cout << "--- Lemma 5.2: max response, the 3/2 trap ---\n";
  TextTable mrt({"policy", "online max", "hindsight optimum", "ratio"});
  for (const std::string& name : AllPolicyNames()) {
    MrtLowerBoundAdversary adversary;
    auto policy = MakePolicy(name);
    const SimulationResult r =
        Simulate(MrtLowerBoundAdversary::Switch(), adversary, *policy);
    // Hindsight: the exact optimum on the realized instance, via the facade.
    const SolveReport opt = registry.Solve("mrt.exact", r.realized);
    if (!opt.ok) {
      std::cerr << "mrt.exact failed on " << name
                << "'s realized instance: " << opt.error << "\n";
      continue;
    }
    mrt.Row(name, r.metrics.max_response, opt.objective,
            r.metrics.max_response / opt.objective);
  }
  mrt.Print(std::cout);
  std::cout << "Whatever the policy schedules in round 0, the two round-1\n"
               "flows target exactly the outputs it left uncovered; port 7\n"
               "serializes them. Hindsight schedules differently in round 0\n"
               "and finishes everything with max response 2.\n\n";

  std::cout << "--- The canonical fixed instances, through the registry ---\n";
  // Fig4bInstance bakes in the paper's "wlog" adversary choice; replaying
  // it through every online.* solver shows the same 3-vs-2 gap whenever a
  // policy makes the trapped round-0 choice.
  const Instance fig4b = Fig4bInstance();
  TextTable fixed({"solver", "max_response", "total_response", "wall_ms"});
  for (const std::string& name : registry.Names()) {
    if (name.rfind("online.", 0) != 0 && name != "mrt.exact") continue;
    const SolveReport r = registry.Solve(name, fig4b);
    if (!r.ok) continue;
    fixed.Row(name, r.metrics.max_response, r.metrics.total_response,
              r.wall_seconds * 1e3);
  }
  fixed.Print(std::cout);
  return 0;
}
