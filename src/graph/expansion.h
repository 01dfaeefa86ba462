// Port replication: b-matchings -> matchings (paper §3.2, general capacities).
//
// A port with capacity c is replaced by c unit-capacity replicas; each
// unit-demand flow edge is attached to one replica of its input port and one
// replica of its output port, chosen round-robin. Degrees then drop by a
// factor of ~c, and matchings of the replicated graph are capacity-feasible
// flow sets of the original switch. Theorem 1 replicates each interval's
// flows (core/art_scheduler.cc); the matching-based online policies
// replicate the backlog every round.
#ifndef FLOWSCHED_GRAPH_EXPANSION_H_
#define FLOWSCHED_GRAPH_EXPANSION_H_

#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "model/instance.h"

namespace flowsched {

// Buffer-reusing builder of the replicated multigraph: edge i of the built
// graph is flows[i], left vertices are input-port replicas (port p owns the
// capacity(p) ids after those of ports < p), right vertices likewise for
// output ports. Flows may repeat (parallel requests become parallel edges
// spread across replicas). Each Build() reuses the previous graph's edge,
// adjacency and cursor storage, so rebuilding a graph no larger than any
// before it touches no heap.
class BacklogGraphBuilder {
 public:
  // FS_CHECK-aborts on a flow whose demand is not 1.
  const BipartiteGraph& Build(const SwitchSpec& sw, std::span<const Flow> flows);

 private:
  BipartiteGraph graph_{0, 0};
  std::vector<int> in_base_;
  std::vector<int> out_base_;
  std::vector<int> in_cursor_;
  std::vector<int> out_cursor_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_EXPANSION_H_
