#include "core/online/policy.h"

#include "core/online/max_card_policy.h"
#include "core/online/max_weight_policy.h"
#include "core/online/min_rtime_policy.h"
#include "core/online/simple_policies.h"
#include "core/online/srpt_policy.h"
#include "util/check.h"

namespace flowsched {

std::vector<int> SchedulingPolicy::SelectFlows(
    const SwitchSpec& sw, Round t, std::span<const PendingFlow> pending) {
  std::vector<int> picked;
  SelectFlowsInto(sw, t, pending, &picked);
  return picked;
}

const BipartiteGraph& BacklogGraphBuilder::Build(
    const SwitchSpec& sw, std::span<const PendingFlow> pending) {
  if (!have_switch_ || cached_switch_ != sw) {
    cached_switch_ = sw;
    have_switch_ = true;
    in_base_.assign(sw.num_inputs() + 1, 0);
    out_base_.assign(sw.num_outputs() + 1, 0);
    for (PortId p = 0; p < sw.num_inputs(); ++p) {
      in_base_[p + 1] = in_base_[p] + static_cast<int>(sw.input_capacity(p));
    }
    for (PortId q = 0; q < sw.num_outputs(); ++q) {
      out_base_[q + 1] = out_base_[q] + static_cast<int>(sw.output_capacity(q));
    }
  }
  graph_.Reset(in_base_[sw.num_inputs()], out_base_[sw.num_outputs()]);
  graph_.ReserveEdges(static_cast<int>(pending.size()));
  in_cursor_.assign(sw.num_inputs(), 0);
  out_cursor_.assign(sw.num_outputs(), 0);
  for (const PendingFlow& f : pending) {
    FS_CHECK_MSG(f.demand == 1,
                 "matching-based policies require unit demands");
    const int u = in_base_[f.src] + in_cursor_[f.src];
    const int v = out_base_[f.dst] + out_cursor_[f.dst];
    in_cursor_[f.src] =
        (in_cursor_[f.src] + 1) % static_cast<int>(sw.input_capacity(f.src));
    out_cursor_[f.dst] =
        (out_cursor_[f.dst] + 1) % static_cast<int>(sw.output_capacity(f.dst));
    graph_.AddEdge(u, v);
  }
  return graph_;
}

BipartiteGraph BuildBacklogGraph(const SwitchSpec& sw,
                                 std::span<const PendingFlow> pending) {
  BacklogGraphBuilder builder;
  return builder.Build(sw, pending);
}

std::unique_ptr<SchedulingPolicy> MakePolicy(std::string_view name,
                                             std::uint64_t seed) {
  if (name == "maxcard") return std::make_unique<MaxCardPolicy>();
  if (name == "minrtime") return std::make_unique<MinRTimePolicy>();
  if (name == "maxweight") return std::make_unique<MaxWeightPolicy>();
  if (name == "fifo") return std::make_unique<FifoGreedyPolicy>();
  if (name == "random") return std::make_unique<RandomPolicy>(seed);
  if (name == "srpt") return std::make_unique<SrptPolicy>();
  if (name == "hybrid") return std::make_unique<HybridPolicy>();
  FS_CHECK_MSG(false, "unknown policy: " << std::string(name));
  return nullptr;
}

std::vector<std::string> AllPolicyNames() {
  return {"maxcard", "minrtime", "maxweight", "fifo", "random", "srpt",
          "hybrid"};
}

}  // namespace flowsched
