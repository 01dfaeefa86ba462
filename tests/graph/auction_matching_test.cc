// Property tests for the ε-auction matcher: on random weighted graphs the
// matched weight must be within n·ε of the exact optimum (oracles: the
// brute-force matcher for tiny graphs, the Hungarian MaxWeightMatcher
// beyond that), the result must be a valid matching, runs must be
// deterministic, and the certificate-enforced bound must survive price
// warm-starts across whole mutation sequences.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "graph/auction_matching.h"
#include "graph/bipartite_graph.h"
#include "graph/max_weight_matching.h"
#include "util/rng.h"

#include "brute_force_matching.h"

namespace flowsched {
namespace {

double MatchedWeight(std::span<const int> matching,
                     std::span<const double> weight) {
  double total = 0.0;
  for (int e : matching) total += weight[e];
  return total;
}

int NumPersons(const BipartiteGraph& g) {
  std::vector<bool> seen(g.num_left(), false);
  int n = 0;
  for (const auto& e : g.edges()) {
    if (!seen[e.u]) {
      seen[e.u] = true;
      ++n;
    }
  }
  return n;
}

TEST(AuctionMatcherTest, WithinEpsilonOfBruteForceOnTinyGraphs) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const int nl = rng.UniformInt(1, 4);
    const int nr = rng.UniformInt(1, 4);
    const int ne = rng.UniformInt(0, 8);
    BipartiteGraph g(nl, nr);
    std::vector<double> w;
    for (int e = 0; e < ne; ++e) {
      g.AddEdge(rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1));
      w.push_back(static_cast<double>(rng.UniformInt(0, 9)));
    }
    const double opt = BruteForceMaxWeight(g, w);
    for (const double eps : {0.01, 0.25, 1.0}) {
      AuctionMatcher auction;
      std::vector<int> out;
      auction.Solve(g, w, eps, &out);
      ASSERT_TRUE(IsMatching(g, out));
      const double achieved = MatchedWeight(out, w);
      ASSERT_GE(achieved, opt - NumPersons(g) * eps - 1e-9)
          << "trial " << trial << " eps " << eps;
      // The enforced certificate is never looser than the guarantee.
      ASSERT_LE(auction.last_gap(), NumPersons(g) * eps + 1e-9);
    }
  }
}

TEST(AuctionMatcherTest, WithinEpsilonOfHungarianOnMidSizeGraphs) {
  Rng rng(23);
  MaxWeightMatcher exact;
  for (int trial = 0; trial < 60; ++trial) {
    const int nl = rng.UniformInt(4, 24);
    const int nr = rng.UniformInt(4, 24);
    const int ne = rng.UniformInt(1, 4 * (nl + nr));
    BipartiteGraph g(nl, nr);
    std::vector<double> w;
    for (int e = 0; e < ne; ++e) {
      g.AddEdge(rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1));
      w.push_back(rng.UniformReal() * 20.0);
    }
    std::vector<int> exact_out;
    exact.Solve(g, w, &exact_out);
    const double opt = MatchedWeight(exact_out, w);
    for (const double eps : {0.05, 0.5}) {
      AuctionMatcher auction;
      std::vector<int> out;
      auction.Solve(g, w, eps, &out);
      ASSERT_TRUE(IsMatching(g, out));
      ASSERT_GE(MatchedWeight(out, w), opt - NumPersons(g) * eps - 1e-9)
          << "trial " << trial << " eps " << eps;
    }
  }
}

TEST(AuctionMatcherTest, DeterministicAcrossRuns) {
  Rng rng(31);
  BipartiteGraph g(12, 12);
  std::vector<double> w;
  for (int e = 0; e < 50; ++e) {
    g.AddEdge(rng.UniformInt(0, 11), rng.UniformInt(0, 11));
    // Many ties to stress the first-argmax rule.
    w.push_back(static_cast<double>(rng.UniformInt(1, 3)));
  }
  AuctionMatcher a;
  AuctionMatcher b;
  std::vector<int> out_a;
  std::vector<int> out_b;
  a.Solve(g, w, 0.2, &out_a);
  b.Solve(g, w, 0.2, &out_b);
  EXPECT_EQ(out_a, out_b);
  // Re-solving on warm prices is allowed to differ from the cold result —
  // but two matchers fed the identical history must still agree.
  a.Solve(g, w, 0.2, &out_a);
  b.Solve(g, w, 0.2, &out_b);
  EXPECT_EQ(out_a, out_b);
  EXPECT_EQ(a.stats().bids, b.stats().bids);
}

TEST(AuctionMatcherTest, WarmStartBoundHoldsAcrossMutationSequences) {
  Rng rng(47);
  MaxWeightMatcher exact;
  for (int seq = 0; seq < 40; ++seq) {
    const int nl = rng.UniformInt(4, 16);
    const int nr = rng.UniformInt(4, 16);
    const double eps = (seq % 2 == 0) ? 0.1 : 0.6;
    std::vector<std::pair<int, int>> pairs;
    std::vector<double> w;
    AuctionMatcher auction;  // Prices persist across the whole sequence.
    for (int round = 0; round < 25; ++round) {
      // Churn: add, drop, reweight.
      const int op = rng.UniformInt(0, 2);
      if (op == 0 || pairs.empty()) {
        pairs.push_back({rng.UniformInt(0, nl - 1), rng.UniformInt(0, nr - 1)});
        w.push_back(rng.UniformReal() * 10.0);
      } else if (op == 1) {
        const std::size_t at = rng.UniformU64(pairs.size());
        pairs[at] = pairs.back();
        pairs.pop_back();
        w[at] = w.back();
        w.pop_back();
      } else {
        w[rng.UniformU64(w.size())] = rng.UniformReal() * 10.0;
      }
      BipartiteGraph g(nl, nr);
      for (const auto& [u, v] : pairs) g.AddEdge(u, v);
      std::vector<int> out;
      auction.Solve(g, w, eps, &out);
      ASSERT_TRUE(IsMatching(g, out));
      std::vector<int> exact_out;
      exact.Solve(g, w, &exact_out);
      const double opt = MatchedWeight(exact_out, w);
      ASSERT_GE(MatchedWeight(out, w), opt - NumPersons(g) * eps - 1e-9)
          << "seq " << seq << " round " << round;
    }
  }
}

TEST(AuctionMatcherTest, StalePricesTriggerCertifiedColdRestart) {
  // Round 1 matches the edge at weight 100, leaving a ~100 price on the
  // object. Round 2 drops the weight to 1: the person is priced out, the
  // certificate gap blows past n·eps, and the matcher must re-run cold and
  // still find the weight-1 match.
  BipartiteGraph g(1, 1);
  g.AddEdge(0, 0);
  AuctionMatcher auction;
  std::vector<int> out;
  auction.Solve(g, std::vector<double>{100.0}, 0.5, &out);
  EXPECT_EQ(out, std::vector<int>{0});
  auction.Solve(g, std::vector<double>{1.0}, 0.5, &out);
  EXPECT_EQ(out, std::vector<int>{0});
  EXPECT_EQ(auction.stats().cold_restarts, 1);
  EXPECT_LE(auction.last_gap(), 0.5 + 1e-9);
}

TEST(AuctionMatcherTest, EmptyGraphAndZeroWeights) {
  BipartiteGraph empty(3, 3);
  AuctionMatcher auction;
  std::vector<int> out = {5};
  auction.Solve(empty, {}, 0.1, &out);
  EXPECT_TRUE(out.empty());
  // All-zero weights: matching anything is as good as matching nothing;
  // whatever comes back must still be a valid matching within bound.
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(1, 1);
  const std::vector<double> w = {0.0, 0.0};
  auction.Solve(g, w, 0.1, &out);
  EXPECT_TRUE(IsMatching(g, out));
}

}  // namespace
}  // namespace flowsched
