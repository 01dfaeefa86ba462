// Each output check accepts a correct output and rejects a corrupted one.
#include "checks.h"

#include <gtest/gtest.h>

#include "api/instance_source.h"
#include "api/registry.h"

namespace perfbench {
namespace {

using flowsched::CapacityAllowance;
using flowsched::Flow;
using flowsched::SwitchSpec;

TEST(CheckSolveReport, AcceptsTheSolversOutput) {
  const auto instance =
      flowsched::LoadInstance("poisson:ports=4,load=1.0,rounds=12,seed=3");
  ASSERT_TRUE(instance.has_value());
  const auto report =
      flowsched::SolverRegistry::Global().Solve("online.srpt", *instance);
  EXPECT_EQ(CheckSolveReport(*instance, report, CapacityAllowance::Exact()),
            "");
}

TEST(CheckSolveReport, RejectsAFlowMovedIntoAnOverloadedRound) {
  const auto instance =
      flowsched::LoadInstance("poisson:ports=4,load=1.0,rounds=12,seed=3");
  ASSERT_TRUE(instance.has_value());
  auto report =
      flowsched::SolverRegistry::Global().Solve("online.srpt", *instance);
  ASSERT_TRUE(report.ok);
  // Move flow a into the round of a later-scheduled flow b on the same
  // input port: that round now carries two flows through a unit port.
  bool moved = false;
  for (const Flow& a : instance->flows()) {
    for (const Flow& b : instance->flows()) {
      const auto tb = report.schedule.round_of(b.id);
      if (a.id != b.id && a.src == b.src && tb >= a.release &&
          tb != report.schedule.round_of(a.id)) {
        report.schedule.Assign(a.id, tb);
        moved = true;
        break;
      }
    }
    if (moved) break;
  }
  ASSERT_TRUE(moved);
  const std::string problem =
      CheckSolveReport(*instance, report, CapacityAllowance::Exact());
  EXPECT_NE(problem.find("invalid schedule"), std::string::npos) << problem;
}

TEST(CheckSolveReport, RejectsAFailedSolve) {
  const auto instance =
      flowsched::LoadInstance("poisson:ports=4,load=1.0,rounds=4,seed=3");
  ASSERT_TRUE(instance.has_value());
  const auto report =
      flowsched::SolverRegistry::Global().Solve("no.such.solver", *instance);
  EXPECT_NE(CheckSolveReport(*instance, report, CapacityAllowance::Exact()),
            "");
}

class MatchAuditTest : public ::testing::Test {
 protected:
  // Flows 0 and 1 are sent in round 0, flow 2 (same input as 0) in round 1.
  MatchAuditTest()
      : sw_(SwitchSpec::Uniform(4, 4, 1)),
        sent_{Flow{0, 0, 1, 1, 0}, Flow{1, 1, 2, 1, 0}, Flow{2, 0, 3, 1, 1}} {}

  SwitchSpec sw_;
  std::vector<Flow> sent_;
};

TEST_F(MatchAuditTest, AcceptsAValidSession) {
  MatchAudit audit(sw_, sent_);
  EXPECT_EQ(audit.OnMatch("MATCH 0 0 1"), "");
  EXPECT_EQ(audit.OnMatch("MATCH 2 2"), "");
  EXPECT_EQ(audit.CheckAllMatched(), "");
  EXPECT_EQ(audit.total_response(), 1.0 + 1.0 + 2.0);
}

TEST_F(MatchAuditTest, RejectsAMatchThatRepeatsAnId) {
  MatchAudit audit(sw_, sent_);
  EXPECT_EQ(audit.OnMatch("MATCH 0 0"), "");
  EXPECT_NE(audit.OnMatch("MATCH 1 0 2").find("matched twice"),
            std::string::npos);
  MatchAudit same_line(sw_, sent_);
  EXPECT_NE(same_line.OnMatch("MATCH 0 1 1").find("matched twice"),
            std::string::npos);
}

TEST_F(MatchAuditTest, RejectsAnOverloadedPort) {
  MatchAudit audit(sw_, sent_);
  EXPECT_NE(audit.OnMatch("MATCH 1 0 2").find("overloads"), std::string::npos);
}

TEST_F(MatchAuditTest, RejectsUnsentEarlyAndMissingFlows) {
  MatchAudit unsent(sw_, sent_);
  EXPECT_NE(unsent.OnMatch("MATCH 0 7"), "");
  MatchAudit early(sw_, sent_);
  EXPECT_NE(early.OnMatch("MATCH 0 2"), "");
  MatchAudit missing(sw_, sent_);
  EXPECT_EQ(missing.OnMatch("MATCH 0 0 1"), "");
  EXPECT_NE(missing.CheckAllMatched(), "");
  MatchAudit malformed(sw_, sent_);
  EXPECT_NE(malformed.OnMatch("MATCH 0 x"), "");
}

TEST(CheckDone, AcceptsMatchingCountsAndTotal) {
  EXPECT_EQ(CheckDone(R"({"flows":3,"arrived":3,"total_response":4,)"
                      R"("truncated":false,"source_error":false})",
                      3, 4.0),
            "");
}

TEST(CheckDone, RejectsATotalThatDiffersFromTheReplay) {
  EXPECT_NE(CheckDone(R"({"flows":3,"arrived":3,"total_response":5,)"
                      R"("truncated":false,"source_error":false})",
                      3, 4.0)
                .find("differs"),
            std::string::npos);
}

TEST(CheckDone, RejectsMissingFlowsAndTruncation) {
  EXPECT_NE(CheckDone(R"({"flows":2,"arrived":3,"total_response":4})", 3, 4.0),
            "");
  EXPECT_NE(CheckDone(R"({"flows":3,"arrived":3,"total_response":4,)"
                      R"("truncated":true})",
                      3, 4.0),
            "");
  EXPECT_NE(CheckDone("not json", 3, 4.0), "");
}

}  // namespace
}  // namespace perfbench
