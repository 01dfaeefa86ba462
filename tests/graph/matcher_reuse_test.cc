// One MaxWeightMatcher reused across backlog mutation sequences (shape
// changes, lane switches, empty graphs) must match a fresh one-shot solve
// every round and leave a feasible, tight dual certificate.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/max_weight_matching.h"
#include "util/rng.h"

#include "max_weight_matcher_test_peer.h"

namespace flowsched {
namespace {

using Peer = MaxWeightMatcherTestPeer;

struct BacklogEdge {
  int u;
  int v;
  double w;
};

struct SequenceConfig {
  int nl;
  int nr;
  int initial_edges;
  bool float_weights;  // Coflow-style 1 + 1/(1+rem) instead of integers.
};

double DrawWeight(bool float_weights, Rng& rng) {
  if (float_weights) return 1.0 + 1.0 / (1.0 + rng.UniformInt(0, 40));
  return static_cast<double>(rng.UniformInt(0, 12));
}

// One simulated round's worth of backlog churn: insert (sometimes a
// parallel duplicate of an existing pair), retire (swap-erase, like slot
// recycling) or reweight, the three things a round does to the backlog.
void MutateBacklog(std::vector<BacklogEdge>* edges, const SequenceConfig& cfg,
                   Rng& rng) {
  const int ops = rng.UniformInt(1, 4);
  for (int k = 0; k < ops; ++k) {
    const int kind = rng.UniformInt(0, 9);
    if (kind < 4 || edges->empty()) {
      if (!edges->empty() && rng.UniformInt(0, 4) == 0) {
        const BacklogEdge base = (*edges)[rng.UniformU64(edges->size())];
        edges->push_back({base.u, base.v, DrawWeight(cfg.float_weights, rng)});
      } else {
        edges->push_back({rng.UniformInt(0, cfg.nl - 1),
                          rng.UniformInt(0, cfg.nr - 1),
                          DrawWeight(cfg.float_weights, rng)});
      }
    } else if (kind < 7) {
      const std::size_t at = rng.UniformU64(edges->size());
      (*edges)[at] = edges->back();
      edges->pop_back();
    } else {
      (*edges)[rng.UniformU64(edges->size())].w =
          DrawWeight(cfg.float_weights, rng);
    }
  }
}

// The policies keep one MaxWeightMatcher for a whole run, so its scratch
// outlives every problem it solves. One matcher here serves 1080 mutation
// sequences back to back: the shape changes between sequences, integral
// and coflow-style weights alternate, and some integral rounds add a
// dominated fractional parallel edge (same optimum, double lane), so the
// lane flips both ways inside a sequence too. Some rounds drain the
// backlog. Every round must equal a fresh one-shot solve and leave a
// feasible, tight dual certificate.
TEST(MatcherReuseTest, ReusedMatcherMatchesOneShotOverMutationSequences) {
  const SequenceConfig configs[] = {
      {3, 3, 2, false},    {4, 7, 6, false},    {8, 8, 10, false},
      {8, 8, 30, false},   {16, 16, 20, false}, {16, 5, 25, false},
      {32, 32, 40, false}, {32, 32, 110, false}, {6, 6, 8, true},
      {16, 16, 30, true},  {24, 24, 70, true},  {40, 40, 60, false},
  };
  MaxWeightMatcher reused;
  std::vector<int> out;
  std::vector<double> w;
  std::vector<BipartiteGraph::Edge> graph_edges;
  int sequences = 0;
  std::int64_t int_rounds = 0;
  std::int64_t double_rounds = 0;
  std::int64_t empty_rounds = 0;
  std::int64_t lane_switches = 0;
  bool prev_int_lane = false;
  std::uint64_t salt = 0;
  for (const SequenceConfig& cfg : configs) {
    const std::uint64_t seed = 1000 + salt++;
    for (int seq = 0; seq < 90; ++seq, ++sequences) {
      Rng rng(Rng::DeriveSeed(seed, static_cast<std::uint64_t>(seq)));
      std::vector<BacklogEdge> edges;
      for (int e = 0; e < cfg.initial_edges; ++e) {
        edges.push_back({rng.UniformInt(0, cfg.nl - 1),
                         rng.UniformInt(0, cfg.nr - 1),
                         DrawWeight(cfg.float_weights, rng)});
      }
      for (int step = 0; step < 14; ++step) {
        graph_edges.clear();
        w.clear();
        for (const BacklogEdge& e : edges) {
          graph_edges.push_back({e.u, e.v});
          w.push_back(e.w);
        }
        if (!cfg.float_weights && !edges.empty() &&
            rng.UniformInt(0, 2) == 0) {
          const BacklogEdge& e = edges[rng.UniformU64(edges.size())];
          if (e.w >= 1.0) {
            graph_edges.push_back({e.u, e.v});
            w.push_back(e.w - 0.5);
          }
        }
        const BipartiteGraph g(cfg.nl, cfg.nr, graph_edges);
        reused.Solve(g, w, &out);
        ASSERT_EQ(out, MaxWeightMatching(g, w))
            << "config " << cfg.nl << "x" << cfg.nr << " sequence " << seq
            << " step " << step << " edges " << edges.size();
        if (g.num_edges() == 0) {
          ++empty_rounds;
        } else {
          const bool int_lane = Peer::IntLane(reused);
          int_rounds += int_lane ? 1 : 0;
          double_rounds += int_lane ? 0 : 1;
          lane_switches += int_lane != prev_int_lane ? 1 : 0;
          prev_int_lane = int_lane;
          // Integral weights give exact duals in either lane; coflow-style
          // weights accumulate a few ulps per update chain.
          const double tol = cfg.float_weights ? 1e-9 : 0.0;
          ASSERT_LE(Peer::MaxDualViolation(reused), tol);
          ASSERT_LE(Peer::MaxMatchedSlack(reused), tol);
        }
        MutateBacklog(&edges, cfg, rng);
        if (rng.UniformInt(0, 39) == 0) edges.clear();  // Idle round.
      }
    }
  }
  EXPECT_EQ(sequences, 1080);
  EXPECT_GT(int_rounds, 5000);
  EXPECT_GT(double_rounds, 3000);
  EXPECT_GT(empty_rounds, 0);
  EXPECT_GT(lane_switches, 1000);
}

}  // namespace
}  // namespace flowsched
