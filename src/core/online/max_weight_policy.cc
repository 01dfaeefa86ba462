#include "core/online/max_weight_policy.h"

namespace flowsched {

void MaxWeightPolicy::SelectFlowsInto(const SwitchSpec& sw, Round /*t*/,
                                      std::span<const PendingFlow> pending,
                                      std::vector<int>* picked) {
  picked->clear();
  if (pending.empty()) return;
  const BipartiteGraph& g = builder_.Build(sw, pending);
  // Queue length = number of backlogged flows touching the port.
  in_queue_.assign(sw.num_inputs(), 0);
  out_queue_.assign(sw.num_outputs(), 0);
  for (const PendingFlow& f : pending) {
    ++in_queue_[f.src];
    ++out_queue_[f.dst];
  }
  // Edge i's weight is its ports' queue sum, so each replica vertex carries
  // its port's queue length (replicas without edges keep 0).
  left_weight_.assign(g.num_left(), 0.0);
  right_weight_.assign(g.num_right(), 0.0);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const BipartiteGraph::Edge& e = g.edge(static_cast<int>(i));
    left_weight_[e.u] = in_queue_[pending[i].src];
    right_weight_[e.v] = out_queue_[pending[i].dst];
  }
  ++exact_solves_;
  matcher_.Solve(g, left_weight_, right_weight_, picked);
}

PolicyMatchingStats MaxWeightPolicy::matching_stats() const {
  PolicyMatchingStats s;
  s.matcher_solves = exact_solves_;
  s.matcher_full_solves = exact_solves_;
  return s;
}

}  // namespace flowsched
