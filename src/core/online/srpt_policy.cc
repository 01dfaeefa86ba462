#include "core/online/srpt_policy.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace flowsched {

void SrptPolicy::SelectFlowsInto(const SwitchSpec& sw, Round /*t*/,
                                 std::span<const PendingFlow> pending,
                                 std::vector<int>* picked) {
  picked->clear();
  // Greedy pack by (demand, release, id): cheapest flows first, FIFO ties.
  order_.resize(pending.size());
  std::iota(order_.begin(), order_.end(), 0);
  const auto before = [&](int a, int b) {
    if (pending[a].demand != pending[b].demand) {
      return pending[a].demand < pending[b].demand;
    }
    if (pending[a].release != pending[b].release) {
      return pending[a].release < pending[b].release;
    }
    return pending[a].id < pending[b].id;
  };
  // The simulators keep the backlog in admission order, which is already
  // this order whenever demands are uniform. Ids are unique, so the order
  // is total and sorting a sorted range would leave it as it is.
  if (!std::is_sorted(order_.begin(), order_.end(), before)) {
    std::stable_sort(order_.begin(), order_.end(), before);
  }
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

void HybridPolicy::SelectFlowsInto(const SwitchSpec& sw, Round t,
                                   std::span<const PendingFlow> pending,
                                   std::vector<int>* picked) {
  picked->clear();
  if (pending.empty()) return;
  const BipartiteGraph& g = builder_.Build(sw, pending);
  in_queue_.assign(sw.num_inputs(), 0);
  out_queue_.assign(sw.num_outputs(), 0);
  for (const PendingFlow& f : pending) {
    ++in_queue_[f.src];
    ++out_queue_[f.dst];
  }
  weight_.resize(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    FS_CHECK_LE(pending[i].release, t);
    const double age = static_cast<double>(t - pending[i].release + 1);
    const double pressure = static_cast<double>(in_queue_[pending[i].src] +
                                                out_queue_[pending[i].dst]);
    weight_[i] = age + alpha_ * pressure;
  }
  matcher_.Solve(g, weight_, picked);
}

}  // namespace flowsched
