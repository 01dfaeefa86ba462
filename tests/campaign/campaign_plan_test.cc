#include "campaign/campaign_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

namespace flowsched {
namespace {

CampaignSpec TwoGridCampaign() {
  CampaignSpec spec;
  spec.name = "plantest";
  SweepSpec flow;
  flow.name = "flow";
  flow.solvers = {"online.fifo", "online.srpt"};
  flow.instances = {"poisson:ports=4,load={load},rounds=20,seed={seed}"};
  flow.loads = {0.7, 1.0};
  flow.seeds = {1, 2};
  SweepSpec adv;
  adv.name = "adversary";
  adv.solvers = {"online.maxweight"};
  adv.instances = {"fig4a:phase=4,total={rounds}"};
  adv.rounds = {8, 12};
  spec.grids = {flow, adv};
  return spec;
}

TEST(CampaignPlanTest, ExpandsEveryGridWithStableIds) {
  CampaignPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandCampaign(TwoGridCampaign(), SolverRegistry::Global(),
                             plan, &error))
      << error;
  ASSERT_EQ(plan.grids.size(), 2u);
  EXPECT_EQ(plan.grids[0].plan.tasks.size(), 8u);  // 2 solvers×2 loads×2 seeds.
  EXPECT_EQ(plan.grids[1].plan.tasks.size(), 2u);
  EXPECT_EQ(plan.total_tasks, 10);

  // Ids are "<grid>-NNNN-<solver>": unique, directory-safe, readable.
  std::set<std::string> ids;
  for (const CampaignGrid& grid : plan.grids) {
    ASSERT_EQ(grid.task_ids.size(), grid.plan.tasks.size());
    ASSERT_EQ(grid.task_hashes.size(), grid.plan.tasks.size());
    for (const std::string& id : grid.task_ids) {
      EXPECT_TRUE(ids.insert(id).second) << "duplicate id " << id;
      EXPECT_EQ(id.find('/'), std::string::npos) << id;
    }
  }
  EXPECT_EQ(plan.grids[0].task_ids[0], "flow-0000-online.fifo");
  EXPECT_EQ(plan.grids[1].task_ids[1], "adversary-0001-online.maxweight");
}

TEST(CampaignPlanTest, HashingIsDeterministicAndSpecSensitive) {
  const CampaignSpec spec = TwoGridCampaign();
  CampaignPlan a, b;
  std::string error;
  ASSERT_TRUE(ExpandCampaign(spec, SolverRegistry::Global(), a, &error));
  ASSERT_TRUE(ExpandCampaign(spec, SolverRegistry::Global(), b, &error));
  EXPECT_EQ(a.grids[0].grid_hash, b.grids[0].grid_hash);
  EXPECT_EQ(a.grids[0].task_hashes, b.grids[0].task_hashes);

  // Distinct tasks get distinct hashes.
  std::set<std::uint64_t> hashes(a.grids[0].task_hashes.begin(),
                                 a.grids[0].task_hashes.end());
  EXPECT_EQ(hashes.size(), a.grids[0].task_hashes.size());

  // Any grid edit shifts every one of its task hashes — even for tasks
  // whose own coordinates did not change.
  CampaignSpec edited = spec;
  edited.grids[0].base_seed = 999;
  CampaignPlan c;
  ASSERT_TRUE(ExpandCampaign(edited, SolverRegistry::Global(), c, &error));
  EXPECT_NE(a.grids[0].grid_hash, c.grids[0].grid_hash);
  for (std::size_t t = 0; t < a.grids[0].task_hashes.size(); ++t) {
    EXPECT_NE(a.grids[0].task_hashes[t], c.grids[0].task_hashes[t]);
  }
  // The untouched grid keeps its hashes.
  EXPECT_EQ(a.grids[1].grid_hash, c.grids[1].grid_hash);
  EXPECT_EQ(a.grids[1].task_hashes, c.grids[1].task_hashes);
}

TEST(CampaignPlanTest, CanonicalTextIsParseOrderIndependent) {
  // The same grid written as key=value text and built field by field must
  // canonicalize identically — resume across spec formats depends on it.
  SweepSpec by_hand;
  std::string error;
  by_hand.name = "g";
  by_hand.solvers = {"online.fifo"};
  by_hand.instances = {"poisson:ports=4,load=1.0,rounds=20,seed={seed}"};
  by_hand.seeds = {1, 2};
  by_hand.params["validate"] = "1";
  SweepSpec parsed;
  ASSERT_TRUE(ParseSweepSpec("param=validate=1\n"
                             "seeds=1,2\n"
                             "instances=poisson:ports=4,load=1.0,rounds=20,"
                             "seed={seed}\n"
                             "solvers=online.fifo\n"
                             "name=g\n",
                             parsed, &error))
      << error;
  EXPECT_EQ(CanonicalSweepSpecText(by_hand), CanonicalSweepSpecText(parsed));
  EXPECT_EQ(Fnv1a64(CanonicalSweepSpecText(by_hand)),
            Fnv1a64(CanonicalSweepSpecText(parsed)));
}

TEST(CampaignPlanTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a test vectors pin the implementation.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ULL);
  EXPECT_EQ(HashHex(0xaf63dc4c8601ec8cULL), "af63dc4c8601ec8c");
  EXPECT_EQ(HashHex(0x1ULL), "0000000000000001");
}

TEST(CampaignPlanTest, ExpansionErrorsNameTheGrid) {
  CampaignSpec spec = TwoGridCampaign();
  spec.grids[1].solvers = {"no.such.solver"};
  CampaignPlan plan;
  std::string error;
  EXPECT_FALSE(
      ExpandCampaign(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("adversary"), std::string::npos) << error;
}

TEST(CampaignPlanTest, OutOfRangeAxisValueFailsAtPlan) {
  CampaignSpec spec = TwoGridCampaign();
  spec.grids[0].instances = {"poisson:ports={ports},load=1,rounds=5"};
  spec.grids[0].loads.clear();
  spec.grids[0].seeds = {1};
  spec.grids[0].ports = {0, 4};
  CampaignPlan plan;
  std::string error;
  EXPECT_FALSE(
      ExpandCampaign(spec, SolverRegistry::Global(), plan, &error));
  EXPECT_NE(error.find("flow"), std::string::npos) << error;
  EXPECT_NE(error.find("ports=0 out of range"), std::string::npos) << error;
}

TEST(CampaignPlanTest, TaskListTextCoversEveryTask) {
  CampaignPlan plan;
  std::string error;
  ASSERT_TRUE(ExpandCampaign(TwoGridCampaign(), SolverRegistry::Global(),
                             plan, &error));
  std::ostringstream out;
  WriteTaskListText(out, plan.grids[0].plan, plan.grids[0].task_ids);
  const std::string listed = out.str();
  for (const std::string& id : plan.grids[0].task_ids) {
    EXPECT_NE(listed.find(id), std::string::npos) << id;
  }
  // One line per task, with the substituted instance spec.
  EXPECT_NE(listed.find("poisson:ports=4,load=0.7,rounds=20,seed=1"),
            std::string::npos);
  EXPECT_EQ(std::count(listed.begin(), listed.end(), '\n'), 8);
}

}  // namespace
}  // namespace flowsched
