#include "graph/expansion.h"

#include "util/check.h"

namespace flowsched {

const BipartiteGraph& BacklogGraphBuilder::Build(const SwitchSpec& sw,
                                                 std::span<const Flow> flows) {
  in_base_.assign(sw.num_inputs() + 1, 0);
  out_base_.assign(sw.num_outputs() + 1, 0);
  for (PortId p = 0; p < sw.num_inputs(); ++p) {
    in_base_[p + 1] = in_base_[p] + static_cast<int>(sw.input_capacity(p));
  }
  for (PortId q = 0; q < sw.num_outputs(); ++q) {
    out_base_[q + 1] = out_base_[q] + static_cast<int>(sw.output_capacity(q));
  }
  // Round-robin cursors per port, as in the paper's construction: each
  // holds the next replica id and wraps back to the port's first.
  in_next_.assign(in_base_.begin(), in_base_.end() - 1);
  out_next_.assign(out_base_.begin(), out_base_.end() - 1);
  graph_.Fill(in_base_.back(), out_base_.back(),
              static_cast<int>(flows.size()), [&](int i) {
                const Flow& f = flows[i];
                FS_CHECK_MSG(f.demand == 1,
                             "port replication requires unit demands; flow "
                                 << f.id << " has demand " << f.demand);
                const int u = in_next_[f.src];
                const int v = out_next_[f.dst];
                if (++in_next_[f.src] == in_base_[f.src + 1]) {
                  in_next_[f.src] = in_base_[f.src];
                }
                if (++out_next_[f.dst] == out_base_[f.dst + 1]) {
                  out_next_[f.dst] = out_base_[f.dst];
                }
                return BipartiteGraph::Edge{u, v};
              });
  return graph_;
}

}  // namespace flowsched
