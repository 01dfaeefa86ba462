#include "core/online/simple_policies.h"

#include <numeric>
#include <utility>

namespace flowsched {

void GreedyPackPolicyBase::Pack(const SwitchSpec& sw,
                                std::span<const PendingFlow> pending,
                                std::vector<int>* picked) {
  picked->clear();
  in_res_.assign(sw.input_capacities().begin(), sw.input_capacities().end());
  out_res_.assign(sw.output_capacities().begin(), sw.output_capacities().end());
  for (int i : order_) {
    const PendingFlow& f = pending[i];
    if (f.demand <= in_res_[f.src] && f.demand <= out_res_[f.dst]) {
      in_res_[f.src] -= f.demand;
      out_res_[f.dst] -= f.demand;
      picked->push_back(i);
    }
  }
}

void FifoGreedyPolicy::SelectFlowsInto(const SwitchSpec& sw, Round /*t*/,
                                       std::span<const PendingFlow> pending,
                                       std::vector<int>* picked) {
  SortAndPack(
      sw, pending,
      [&](int a, int b) {
        if (pending[a].release != pending[b].release) {
          return pending[a].release < pending[b].release;
        }
        return pending[a].id < pending[b].id;
      },
      picked);
}

void RandomPolicy::SelectFlowsInto(const SwitchSpec& sw, Round /*t*/,
                                   std::span<const PendingFlow> pending,
                                   std::vector<int>* picked) {
  order_.resize(pending.size());
  std::iota(order_.begin(), order_.end(), 0);
  for (std::size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[rng_.UniformU64(i)]);
  }
  Pack(sw, pending, picked);
}

}  // namespace flowsched
