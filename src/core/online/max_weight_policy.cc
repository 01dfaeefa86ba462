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
  weight_.resize(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    weight_[i] = static_cast<double>(in_queue_[pending[i].src] +
                                     out_queue_[pending[i].dst]);
  }
  if (matching_.approx_eps > 0.0) {
    auction_.Solve(g, weight_, matching_.approx_eps, picked);
  } else {
    ++exact_solves_;
    matcher_.Solve(g, weight_, picked);
  }
}

void MaxWeightPolicy::Reset() { auction_.Reset(); }

PolicyMatchingStats MaxWeightPolicy::matching_stats() const {
  PolicyMatchingStats s;
  s.matcher_solves = exact_solves_;
  s.matcher_full_solves = exact_solves_;
  s.auction_bids = auction_.stats().bids;
  s.auction_cold_restarts = auction_.stats().cold_restarts;
  return s;
}

}  // namespace flowsched
