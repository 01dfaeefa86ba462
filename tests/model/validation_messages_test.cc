// Exact error text of Instance::ValidationError and
// Schedule::ValidationError. Callers surface these strings verbatim (CLI
// rows, daemon replies, sweep failure reports), so every branch is pinned
// byte for byte, including which failure wins when several apply.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "model/instance.h"
#include "model/schedule.h"

namespace flowsched {
namespace {

std::string InstanceError(const SwitchSpec& sw, std::vector<Flow> flows) {
  const Instance instance(sw, std::move(flows));
  const std::optional<std::string> err = instance.ValidationError();
  return err.value_or("<valid>");
}

TEST(InstanceValidationMessageTest, InputPortOutOfRange) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 3);
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 0, 1, 0}, Flow{0, 2, 0, 1, 0}}),
            "flow 1: input port 2 out of range");
  EXPECT_EQ(InstanceError(sw, {Flow{0, -1, 0, 1, 0}}),
            "flow 0: input port -1 out of range");
}

TEST(InstanceValidationMessageTest, OutputPortOutOfRange) {
  const SwitchSpec sw = SwitchSpec::Uniform(3, 2);
  EXPECT_EQ(InstanceError(sw, {Flow{0, 2, 2, 1, 0}}),
            "flow 0: output port 2 out of range");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 0, 1, 0}, Flow{0, 1, 1, 1, 0},
                               Flow{0, 0, -7, 1, 0}}),
            "flow 2: output port -7 out of range");
}

TEST(InstanceValidationMessageTest, DemandBelowOne) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 2, 4);
  EXPECT_EQ(InstanceError(sw, {Flow{0, 1, 1, 0, 0}}),
            "flow 0: demand 0 < 1");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 0, 2, 0}, Flow{0, 1, 0, -3, 0}}),
            "flow 1: demand -3 < 1");
}

TEST(InstanceValidationMessageTest, DemandAboveKappa) {
  // kappa = min(c_src, c_dst): 3 for (0 -> 1), 2 for (1 -> 0).
  const SwitchSpec sw({5, 2}, {4, 3});
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 1, 4, 0}}),
            "flow 0: demand 4 exceeds kappa 3");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 0, 4, 0}, Flow{0, 1, 0, 3, 0}}),
            "flow 1: demand 3 exceeds kappa 2");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 0, Capacity{1} << 40, 0}}),
            "flow 0: demand 1099511627776 exceeds kappa 4");
}

TEST(InstanceValidationMessageTest, NegativeRelease) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 2);
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 1, 1, 5}, Flow{0, 1, 0, 1, -1}}),
            "flow 1: negative release -1");
}

TEST(InstanceValidationMessageTest, BadCoflowTag) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 2);
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 1, 1, 0, 4},
                               Flow{0, 1, 0, 1, 0, -2}}),
            "flow 1: invalid coflow tag -2");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 1, 1, 0, kNoCoflow}}), "<valid>");
}

TEST(InstanceValidationMessageTest, FirstFailingFlowAndBranchWin) {
  const SwitchSpec sw = SwitchSpec::Uniform(2, 2);
  // One flow failing every check reports the port first.
  EXPECT_EQ(InstanceError(sw, {Flow{0, 9, 9, 0, -1, -5}}),
            "flow 0: input port 9 out of range");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 1, 9, 0, -1, -5}}),
            "flow 0: output port 9 out of range");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 1, 1, 0, -1, -5}}),
            "flow 0: demand 0 < 1");
  EXPECT_EQ(InstanceError(sw, {Flow{0, 1, 1, 1, -1, -5}}),
            "flow 0: negative release -1");
  // The earliest bad flow wins over a later, earlier-branch failure.
  EXPECT_EQ(InstanceError(sw, {Flow{0, 0, 0, 1, 0, -3}, Flow{0, 5, 0, 1, 0}}),
            "flow 0: invalid coflow tag -3");
}

std::string ScheduleError(const Instance& instance,
                          std::initializer_list<Round> rounds,
                          const CapacityAllowance& allowance =
                              CapacityAllowance::Exact()) {
  Schedule s(instance.num_flows());
  FlowId e = 0;
  for (Round t : rounds) {
    if (t != kUnassigned) s.Assign(e, t);
    ++e;
  }
  return s.ValidationError(instance, allowance).value_or("<valid>");
}

TEST(ScheduleValidationMessageTest, UnassignedFlow) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 0);
  instance.AddFlow(1, 1);
  instance.AddFlow(0, 1);
  EXPECT_EQ(ScheduleError(instance, {0, 0, kUnassigned}),
            "flow 2 is unassigned");
}

TEST(ScheduleValidationMessageTest, ScheduledBeforeRelease) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(1, 1, 1, 3);
  EXPECT_EQ(ScheduleError(instance, {0, 2}),
            "flow 1 scheduled at round 2 before its release 3");
  EXPECT_EQ(ScheduleError(instance, {0, kUnassigned}), "flow 1 is unassigned");
  // Flows are checked in id order: an early release violation wins over a
  // later unassigned flow, and the per-flow checks win over any overload.
  Instance both(SwitchSpec::Uniform(1, 1), {});
  both.AddFlow(0, 0, 1, 4);
  both.AddFlow(0, 0, 1, 0);
  both.AddFlow(0, 0, 1, 0);
  EXPECT_EQ(ScheduleError(both, {1, 0, kUnassigned}),
            "flow 0 scheduled at round 1 before its release 4");
  EXPECT_EQ(ScheduleError(both, {4, 1, 1}),
            "input port 0 overloaded at round 1: load 2 > allowed 1");
}

TEST(ScheduleValidationMessageTest, InputOverloadExact) {
  Instance instance(SwitchSpec({1, 2}, {3, 3}), {});
  instance.AddFlow(1, 0);
  instance.AddFlow(1, 1);
  instance.AddFlow(1, 0);
  instance.AddFlow(0, 1);
  instance.AddFlow(0, 0);
  // Port 0 overloads at round 2, port 1 at round 1: ports scan first.
  EXPECT_EQ(ScheduleError(instance, {1, 1, 1, 2, 2}),
            "input port 0 overloaded at round 2: load 2 > allowed 1");
  EXPECT_EQ(ScheduleError(instance, {1, 1, 1, 0, 2}),
            "input port 1 overloaded at round 1: load 3 > allowed 2");
}

TEST(ScheduleValidationMessageTest, OutputOverloadExact) {
  Instance instance(SwitchSpec({3, 3}, {2, 1}), {});
  instance.AddFlow(0, 1);
  instance.AddFlow(1, 1, 1, 2);
  instance.AddFlow(0, 0);
  // An input overload would be reported first; none here.
  EXPECT_EQ(ScheduleError(instance, {3, 3, 0}),
            "output port 1 overloaded at round 3: load 2 > allowed 1");
}

TEST(ScheduleValidationMessageTest, InputBeforeOutputOverload) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(1, 0);
  instance.AddFlow(0, 0);
  instance.AddFlow(1, 1);
  // Input 1 and output 0 both overload at round 0: inputs scan first.
  EXPECT_EQ(ScheduleError(instance, {0, 0, 0}),
            "input port 1 overloaded at round 0: load 2 > allowed 1");
  EXPECT_EQ(ScheduleError(instance, {0, 0, 1}),
            "output port 0 overloaded at round 0: load 2 > allowed 1");
}

TEST(ScheduleValidationMessageTest, OverloadUnderFactorAllowance) {
  // floor(2 * 1.5) = 3 on input 0 and output 0; floor(1 * 1.5) = 1 on the
  // others.
  Instance instance(SwitchSpec({2, 1}, {2, 1}), {});
  for (int i = 0; i < 4; ++i) instance.AddFlow(0, 0);
  instance.AddFlow(1, 1);
  instance.AddFlow(1, 1);
  const auto factor = CapacityAllowance::Factor(1.5);
  EXPECT_EQ(ScheduleError(instance, {0, 0, 0, 1, 0, 1}, factor), "<valid>");
  EXPECT_EQ(ScheduleError(instance, {0, 0, 0, 0, 0, 1}, factor),
            "input port 0 overloaded at round 0: load 4 > allowed 3");
  EXPECT_EQ(ScheduleError(instance, {0, 0, 0, 1, 2, 2}, factor),
            "input port 1 overloaded at round 2: load 2 > allowed 1");
  Instance out_side(SwitchSpec({4, 4}, {2, 1}), {});
  for (int i = 0; i < 4; ++i) out_side.AddFlow(i % 2, 0);
  EXPECT_EQ(ScheduleError(out_side, {0, 0, 0, 0}, factor),
            "output port 0 overloaded at round 0: load 4 > allowed 3");
}

TEST(ScheduleValidationMessageTest, OverloadUnderAdditiveAllowance) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  for (int i = 0; i < 3; ++i) instance.AddFlow(0, i % 2);
  for (int i = 0; i < 3; ++i) instance.AddFlow(1, 1);
  const auto additive = CapacityAllowance::Additive(1);
  EXPECT_EQ(ScheduleError(instance, {0, 0, 1, 2, 2, 3}, additive), "<valid>");
  EXPECT_EQ(ScheduleError(instance, {0, 0, 0, 2, 3, 4}, additive),
            "input port 0 overloaded at round 0: load 3 > allowed 2");
  EXPECT_EQ(ScheduleError(instance, {0, 5, 2, 5, 5, 4}, additive),
            "output port 1 overloaded at round 5: load 3 > allowed 2");
}

}  // namespace
}  // namespace flowsched
