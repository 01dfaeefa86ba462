#include "workload/adversarial.h"

#include <gtest/gtest.h>

namespace flowsched {
namespace {

// One round of an adversary's arrivals, given the backlog it may inspect.
std::vector<Flow> ArrivalsAt(ArrivalSource& adv, Round t,
                             std::span<const Flow> pending) {
  std::vector<Flow> out;
  adv.ArrivalsInto(t, pending, &out);
  return out;
}

TEST(Fig4aTest, FixedInstanceShape) {
  const Instance instance = Fig4aInstance(/*phase_rounds=*/3, /*total_rounds=*/10);
  EXPECT_EQ(instance.num_flows(), 2 * 3 + 7);
  EXPECT_FALSE(instance.ValidationError().has_value());
  // First phase: two flows per round from input 0.
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(instance.flow(2 * t).src, 0);
    EXPECT_EQ(instance.flow(2 * t + 1).src, 0);
    EXPECT_EQ(instance.flow(2 * t).release, t);
  }
  // Stream phase from input 1 to output 1.
  for (int i = 6; i < instance.num_flows(); ++i) {
    EXPECT_EQ(instance.flow(i).src, 1);
    EXPECT_EQ(instance.flow(i).dst, 1);
  }
}

TEST(Fig4bTest, FixedInstanceShape) {
  const Instance instance = Fig4bInstance();
  EXPECT_EQ(instance.num_flows(), 6);
  EXPECT_FALSE(instance.ValidationError().has_value());
  EXPECT_EQ(instance.flow(4).src, 2);
  EXPECT_EQ(instance.flow(4).release, 1);
}

TEST(ArtAdversaryTest, CommitsToHeavierBacklogSide) {
  ArtLowerBoundAdversary adv(/*phase_rounds=*/2, /*total_rounds=*/5);
  // Rounds 0,1: fixed arrivals.
  auto a0 = ArrivalsAt(adv, 0, {});
  ASSERT_EQ(a0.size(), 2u);
  auto a1 = ArrivalsAt(adv, 1, {});
  ASSERT_EQ(a1.size(), 2u);
  // Pretend the policy left two flows toward output 0 pending.
  std::vector<Flow> pending = {Flow{0, 0, 0, 1, 0}, Flow{1, 0, 0, 1, 1}};
  auto a2 = ArrivalsAt(adv, 2, pending);
  ASSERT_EQ(a2.size(), 1u);
  EXPECT_EQ(a2[0].src, 1);
  EXPECT_EQ(a2[0].dst, 0);  // Committed to the backlogged output.
  // Commitment is sticky even if the backlog flips later.
  std::vector<Flow> flipped = {Flow{0, 0, 1, 1, 0}};
  auto a3 = ArrivalsAt(adv, 3, flipped);
  ASSERT_EQ(a3.size(), 1u);
  EXPECT_EQ(a3[0].dst, 0);
  EXPECT_FALSE(adv.Exhausted(4));
  EXPECT_TRUE(adv.Exhausted(5));
  EXPECT_TRUE(ArrivalsAt(adv, 5, {}).empty());
  EXPECT_EQ(adv.sw().input_capacities(),
            ArtLowerBoundAdversary::Switch().input_capacities());
  EXPECT_EQ(adv.sw().output_capacities(),
            ArtLowerBoundAdversary::Switch().output_capacities());
}

TEST(ArtAdversaryTest, OfflineBoundFormula) {
  ArtLowerBoundAdversary adv(/*phase_rounds=*/10, /*total_rounds=*/100);
  // T*1 + T*(T+1) + (M-T)*1 = 10 + 110 + 90.
  EXPECT_DOUBLE_EQ(adv.OfflineTotalResponse(), 210.0);
  EXPECT_EQ(adv.num_flows(), 2 * 10 + 90);
}

TEST(MrtAdversaryTest, TargetsPendingOutputs) {
  MrtLowerBoundAdversary adv;
  auto a0 = ArrivalsAt(adv, 0, {});
  ASSERT_EQ(a0.size(), 4u);
  // Policy scheduled (0,0) and (1,2); pending are (0,1) and (1,3).
  std::vector<Flow> pending = {Flow{1, 0, 1, 1, 0}, Flow{3, 1, 3, 1, 0}};
  auto a1 = ArrivalsAt(adv, 1, pending);
  ASSERT_EQ(a1.size(), 2u);
  EXPECT_EQ(a1[0].src, 2);
  EXPECT_EQ(a1[1].src, 2);
  EXPECT_EQ(a1[0].dst, 1);
  EXPECT_EQ(a1[1].dst, 3);
  EXPECT_TRUE(adv.Exhausted(2));
  EXPECT_EQ(adv.sw().input_capacities(),
            MrtLowerBoundAdversary::Switch().input_capacities());
  EXPECT_EQ(adv.sw().output_capacities(),
            MrtLowerBoundAdversary::Switch().output_capacities());
}

}  // namespace
}  // namespace flowsched
