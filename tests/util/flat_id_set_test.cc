#include "util/flat_id_set.h"

#include <gtest/gtest.h>

#include <climits>
#include <random>
#include <set>
#include <vector>

namespace flowsched {
namespace {

TEST(FlatIdSetTest, InsertEraseContains) {
  FlatIdSet s;
  EXPECT_FALSE(s.Contains(3));
  EXPECT_FALSE(s.Erase(3));
  EXPECT_TRUE(s.Insert(3));
  EXPECT_FALSE(s.Insert(3));
  EXPECT_TRUE(s.Contains(3));
  EXPECT_EQ(s.size(), 1u);
  // Every int is a valid key, the extremes included.
  for (int id : {0, -1, INT_MIN, INT_MAX}) {
    EXPECT_TRUE(s.Insert(id)) << id;
    EXPECT_TRUE(s.Contains(id)) << id;
  }
  EXPECT_EQ(s.size(), 5u);
  EXPECT_TRUE(s.Erase(3));
  EXPECT_FALSE(s.Erase(3));
  EXPECT_FALSE(s.Contains(3));
  EXPECT_TRUE(s.Contains(INT_MIN));
  EXPECT_EQ(s.size(), 4u);
}

// Random inserts and erases against std::set. Keys come from small pools
// (so probe runs collide and erases shift keys back) and the size swings
// from empty to thousands and back, so keys erased before a growth are
// inserted again after it.
TEST(FlatIdSetTest, MatchesStdSetUnderChurnAndGrowth) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    FlatIdSet s;
    std::set<int> want;
    const int pool = seed % 2 == 0 ? 5000 : 1 << 30;
    std::vector<int> erased;
    for (int phase = 0; phase < 6; ++phase) {
      const bool grow = phase % 2 == 0;
      for (int op = 0; op < 20000; ++op) {
        const bool insert = grow ? rng() % 4 != 0 : rng() % 4 == 0;
        int id = static_cast<int>(rng() % static_cast<std::uint64_t>(pool)) -
                 pool / 4;
        if (insert && !erased.empty() && rng() % 2 == 0) {
          id = erased[rng() % erased.size()];
        } else if (!insert && !want.empty() && rng() % 4 != 0) {
          // Mostly erase a present key (the lower bound of a random one).
          const auto it = want.lower_bound(id);
          id = it == want.end() ? *want.begin() : *it;
        }
        if (insert) {
          ASSERT_EQ(s.Insert(id), want.insert(id).second) << id;
        } else {
          const bool present = want.erase(id) == 1;
          ASSERT_EQ(s.Erase(id), present) << id;
          if (present) erased.push_back(id);
        }
        ASSERT_EQ(s.size(), want.size());
      }
      for (int id : want) ASSERT_TRUE(s.Contains(id)) << id;
      for (int id : erased) ASSERT_EQ(s.Contains(id), want.count(id) == 1);
    }
  }
}

}  // namespace
}  // namespace flowsched
