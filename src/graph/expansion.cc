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
  graph_.Reset(in_base_[sw.num_inputs()], out_base_[sw.num_outputs()]);
  graph_.ReserveEdges(static_cast<int>(flows.size()));
  // Round-robin cursors per port, as in the paper's construction.
  in_cursor_.assign(sw.num_inputs(), 0);
  out_cursor_.assign(sw.num_outputs(), 0);
  for (const Flow& f : flows) {
    FS_CHECK_MSG(f.demand == 1, "port replication requires unit demands; flow "
                                    << f.id << " has demand " << f.demand);
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

}  // namespace flowsched
