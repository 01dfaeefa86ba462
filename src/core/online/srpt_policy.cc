#include "core/online/srpt_policy.h"

#include "util/check.h"

namespace flowsched {

void SrptPolicy::SelectFlowsInto(const SwitchSpec& sw, Round /*t*/,
                                 std::span<const PendingFlow> pending,
                                 std::vector<int>* picked) {
  // Cheapest flows first, FIFO ties: (demand, release, id).
  SortAndPack(
      sw, pending,
      [&](int a, int b) {
        if (pending[a].demand != pending[b].demand) {
          return pending[a].demand < pending[b].demand;
        }
        if (pending[a].release != pending[b].release) {
          return pending[a].release < pending[b].release;
        }
        return pending[a].id < pending[b].id;
      },
      picked);
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
    weight_[i] = age + kAlpha * pressure;
  }
  matcher_.Solve(g, weight_, picked);
}

}  // namespace flowsched
