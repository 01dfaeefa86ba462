#include "model/instance.h"

#include <gtest/gtest.h>

namespace flowsched {
namespace {

TEST(SwitchSpecTest, UniformConstruction) {
  const SwitchSpec sw = SwitchSpec::Uniform(3, 2, 5);
  EXPECT_EQ(sw.num_inputs(), 3);
  EXPECT_EQ(sw.num_outputs(), 2);
  EXPECT_EQ(sw.input_capacity(0), 5);
  EXPECT_EQ(sw.output_capacity(1), 5);
  EXPECT_EQ(sw.MinCapacity(), 5);
  EXPECT_EQ(sw.MaxCapacity(), 5);
}

TEST(SwitchSpecTest, KappaIsMinOfEndpointCapacities) {
  const SwitchSpec sw({3, 1}, {2, 7});
  EXPECT_EQ(sw.Kappa(Flow{0, 0, 0, 1, 0}), 2);
  EXPECT_EQ(sw.Kappa(Flow{0, 0, 1, 1, 0}), 3);
  EXPECT_EQ(sw.Kappa(Flow{0, 1, 1, 1, 0}), 1);
}

TEST(InstanceTest, AddFlowAssignsSequentialIds) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  EXPECT_EQ(instance.AddFlow(0, 1), 0);
  EXPECT_EQ(instance.AddFlow(1, 0, 1, 3), 1);
  EXPECT_EQ(instance.num_flows(), 2);
  EXPECT_EQ(instance.flow(1).release, 3);
  EXPECT_FALSE(instance.ValidationError().has_value());
}

TEST(InstanceTest, ConstructorRenumbersFlows) {
  std::vector<Flow> flows = {Flow{99, 0, 0, 1, 0}, Flow{-5, 1, 1, 1, 2}};
  Instance instance(SwitchSpec::Uniform(2, 2), std::move(flows));
  EXPECT_EQ(instance.flow(0).id, 0);
  EXPECT_EQ(instance.flow(1).id, 1);
}

TEST(InstanceTest, ValidationCatchesBadPort) {
  Instance instance(SwitchSpec::Uniform(2, 2), {Flow{0, 2, 0, 1, 0}});
  ASSERT_TRUE(instance.ValidationError().has_value());
  EXPECT_NE(instance.ValidationError()->find("out of range"), std::string::npos);
}

TEST(InstanceTest, ValidationCatchesDemandAboveKappa) {
  Instance instance(SwitchSpec::Uniform(2, 2, 3), {Flow{0, 0, 0, 4, 0}});
  ASSERT_TRUE(instance.ValidationError().has_value());
  EXPECT_NE(instance.ValidationError()->find("kappa"), std::string::npos);
}

TEST(InstanceTest, ValidationCatchesZeroDemandAndNegativeRelease) {
  Instance a(SwitchSpec::Uniform(2, 2), {Flow{0, 0, 0, 0, 0}});
  EXPECT_TRUE(a.ValidationError().has_value());
  Instance b(SwitchSpec::Uniform(2, 2), {Flow{0, 0, 0, 1, -1}});
  EXPECT_TRUE(b.ValidationError().has_value());
}

TEST(InstanceTest, SameIndexSrcAndDstIsLegal) {
  // Inputs and outputs are separate index spaces (paper §2): input port p
  // and output port p are distinct physical ports, so src == dst is a
  // normal flow (shuffles emit mapper i -> reducer i), not a self-loop.
  // Regression guard: validation must keep accepting these.
  Instance instance(SwitchSpec::Uniform(3, 3, 2), {});
  for (PortId p = 0; p < 3; ++p) instance.AddFlow(p, p, 2, 0);
  EXPECT_EQ(instance.ValidationError(), std::nullopt);
}

TEST(InstanceTest, AggregateProperties) {
  Instance instance(SwitchSpec::Uniform(3, 3, 4), {});
  instance.AddFlow(0, 1, 2, 5);
  instance.AddFlow(1, 2, 4, 1);
  instance.AddFlow(2, 0, 1, 0);
  EXPECT_EQ(instance.MaxDemand(), 4);
  EXPECT_EQ(instance.MaxRelease(), 5);
  EXPECT_EQ(instance.TotalDemand(), 7);
  EXPECT_EQ(instance.SafeHorizon(), 5 + 3 + 1);
}

TEST(InstanceTest, EmptyInstanceAggregates) {
  Instance instance(SwitchSpec::Uniform(1, 1), {});
  EXPECT_EQ(instance.MaxDemand(), 0);
  EXPECT_EQ(instance.MaxRelease(), 0);
  EXPECT_EQ(instance.TotalDemand(), 0);
  EXPECT_FALSE(instance.ValidationError().has_value());
}

TEST(FlowTest, ResponseTimeConvention) {
  // A flow scheduled the round it is released has response time 1 (paper:
  // C_e = 1 + t, rho_e = C_e - r_e).
  EXPECT_EQ(ResponseTime(/*round=*/5, /*release=*/5), 1);
  EXPECT_EQ(ResponseTime(/*round=*/7, /*release=*/5), 3);
}

}  // namespace
}  // namespace flowsched
