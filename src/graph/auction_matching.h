// ε-approximate maximum-weight bipartite matching via Bertsekas' forward
// auction, with prices persisted across rounds.
//
// This is the opt-in approximate path behind `approx=eps` on
// coflow.maxweight and fabric.maxweight, whose exact path is the O(n^3)
// Hungarian (approximations must be opt-in and quantified). Online
// maxweight has no auction path: its exact vertex-weight matcher
// (graph/vertex_weight_matching.h) is as fast as the auction at eps = 0.5.
// Unlike the Hungarian solver it works directly on the sparse backlog graph
// — no dense matrix — and it warm-starts from the previous round's object
// prices, which is where the speedup comes from: after a small backlog
// delta, prices are already near-equilibrium and most persons win their
// first bid.
//
// Guarantee: the returned matching's weight is >= OPT - (#matched)·ε, and
// in particular >= OPT - n·ε for n participating left vertices. The bound
// is enforced, not assumed: every solve computes the LP dual certificate
//   OPT <= Σ_i max(0, max_j (w_ij - p_j)) + Σ_j p_j
// and if a warm start ever leaves a gap above n·ε the solver resets all
// prices and re-runs cold, where the classic ε-complementary-slackness
// argument makes the bound unconditional.
//
// Workloads whose prices churn every round would pay warm + cold on every
// solve, so failed warm attempts trigger an exponential backoff: the solver
// goes straight to a (single, always-certified) cold run for a growing
// streak of solves, re-probing warm occasionally in case the workload has
// settled. Friendly workloads keep the warm path; hostile ones degrade to
// pure cold solves plus a ~1% probing tax instead of a 2x penalty.
//
// Determinism: the auction uses no randomness — persons bid in ascending
// vertex order from a FIFO queue and ties pick the first argmax — so
// results are reproducible run to run (the policy seed does not enter).
#ifndef FLOWSCHED_GRAPH_AUCTION_MATCHING_H_
#define FLOWSCHED_GRAPH_AUCTION_MATCHING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"

namespace flowsched {

class AuctionMatcher {
 public:
  struct Stats {
    std::int64_t solves = 0;
    std::int64_t bids = 0;           // Price raises across all solves.
    std::int64_t cold_restarts = 0;  // Certificate-triggered re-runs.
    std::int64_t forced_colds = 0;   // Solves started cold by the backoff.
  };

  // Overwrites *out with edge indices of a matching whose total weight is
  // within num_matched·eps of optimal. Requires eps > 0 and all weights
  // >= 0. Prices persist across calls (reset automatically when the right
  // vertex count changes, or explicitly via Reset()).
  void Solve(const BipartiteGraph& g, std::span<const double> weight,
             double eps, std::vector<int>* out);

  // Drops all persisted prices; the next solve starts cold. Stats persist.
  void Reset();

  const Stats& stats() const { return stats_; }
  // Certificate of the last solve: dual upper bound, achieved matched
  // weight, and their gap (gap <= n·eps is the enforced guarantee).
  double last_bound() const { return last_bound_; }
  double last_weight() const { return last_weight_; }
  double last_gap() const { return last_bound_ - last_weight_; }

 private:
  void BuildAdjacency(const BipartiteGraph& g, std::span<const double> weight);
  void RunAuction(double eps, std::int64_t max_bids);
  double ComputeCertificateBound() const;

  // Deduped CSR adjacency over persons (left vertices with edges).
  std::vector<int> persons_;     // Raw left ids, ascending.
  std::vector<int> adj_start_;   // persons_.size() + 1 offsets.
  std::vector<int> adj_obj_;     // Raw right ids.
  std::vector<int> adj_edge_;    // Edge index backing each (person, obj).
  std::vector<double> adj_w_;
  std::vector<int> degree_;      // Per raw left id, then prefix sums.
  std::vector<int> dedup_stamp_;  // Per raw right id: last person marker.
  std::vector<int> dedup_pos_;    // Per raw right id: slot in person's list.
  // Auction state. price_ is the only piece that survives across solves.
  std::vector<double> price_;        // Per raw right id.
  std::vector<int> owner_;           // Per raw right id: person slot or -1.
  std::vector<int> matched_obj_;     // Per person slot: raw right id or -1.
  std::vector<int> matched_edge_;    // Per person slot: edge index or -1.
  std::vector<int> queue_;           // FIFO of person slots; head_ index.
  std::size_t head_ = 0;
  // Warm-start backoff: after a certificate failure the next warm_penalty_
  // solves start cold (single certified run); the penalty doubles on each
  // failed probe and snaps back to 1 when a warm attempt certifies.
  int cold_streak_ = 0;
  int warm_penalty_ = 1;

  Stats stats_;
  double last_bound_ = 0.0;
  double last_weight_ = 0.0;
};

}  // namespace flowsched

#endif  // FLOWSCHED_GRAPH_AUCTION_MATCHING_H_
