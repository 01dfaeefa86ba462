#include "api/instance_source.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "api/stream_source.h"
#include "model/trace_io.h"
#include "traffic/builtin_cdfs.h"
#include "traffic/traffic_gen.h"
#include "workload/adversarial.h"
#include "workload/coflow_gen.h"
#include "workload/poisson.h"

namespace flowsched {
namespace {

TEST(InstanceSourceTest, RecognizesGeneratorSpecs) {
  EXPECT_TRUE(IsGeneratorSpec("poisson"));
  EXPECT_TRUE(IsGeneratorSpec("poisson:ports=4,load=1.0"));
  EXPECT_TRUE(IsGeneratorSpec("coflow:ports=8,load=0.9,width=4"));
  EXPECT_TRUE(IsGeneratorSpec("cdf:dist=websearch,ports=64,load=0.9"));
  EXPECT_TRUE(IsGeneratorSpec("fig4b"));
  EXPECT_FALSE(IsGeneratorSpec("trace.csv"));
  EXPECT_FALSE(IsGeneratorSpec("/tmp/poisson.csv"));
}

TEST(InstanceSourceTest, PoissonSpecMatchesGeneratePoisson) {
  const auto loaded =
      LoadInstance("poisson:ports=6,load=1.5,rounds=4,seed=9,dmax=2,cap=4");
  ASSERT_TRUE(loaded.has_value());

  PoissonConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 6;
  cfg.port_capacity = 4;
  cfg.mean_arrivals_per_round = 1.5 * 6;
  cfg.num_rounds = 4;
  cfg.max_demand = 2;
  cfg.seed = 9;
  const Instance direct = GeneratePoisson(cfg);

  ASSERT_EQ(loaded->num_flows(), direct.num_flows());
  for (FlowId e = 0; e < direct.num_flows(); ++e) {
    EXPECT_EQ(loaded->flow(e), direct.flow(e));
  }
}

TEST(InstanceSourceTest, Fig4bSpecMatchesTheCanonicalInstance) {
  const auto loaded = LoadInstance("fig4b");
  ASSERT_TRUE(loaded.has_value());
  const Instance direct = Fig4bInstance();
  ASSERT_EQ(loaded->num_flows(), direct.num_flows());
  EXPECT_EQ(loaded->sw(), direct.sw());
}

TEST(InstanceSourceTest, LoadsCsvTraceFiles) {
  Instance instance(SwitchSpec({2, 2}, {1, 3}), {});
  instance.AddFlow(0, 1, 2, 0);
  instance.AddFlow(1, 0, 1, 3);
  std::ostringstream csv;
  WriteInstanceCsv(instance, csv);

  const std::string path = testing::TempDir() + "/instance_source_trace.csv";
  {
    std::ofstream out(path);
    out << csv.str();
  }
  std::string error;
  const auto loaded = LoadInstance(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_flows(), 2);
  EXPECT_EQ(loaded->flow(0), instance.flow(0));
  std::remove(path.c_str());
}

TEST(InstanceSourceTest, CoflowSpecMatchesGenerateCoflows) {
  const auto loaded = LoadInstance(
      "coflow:ports=8,load=0.9,rounds=12,width=5,minwidth=2,skew=0.6,seed=4");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->HasCoflows());

  CoflowGenConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 8;
  cfg.num_rounds = 12;
  cfg.min_width = 2;
  cfg.max_width = 5;
  cfg.width_skew = 0.6;
  cfg.seed = 4;
  cfg.mean_coflows_per_round = 0.9 * 8 / MeanCoflowWidth(cfg);
  const Instance direct = GenerateCoflows(cfg);

  ASSERT_EQ(loaded->num_flows(), direct.num_flows());
  for (FlowId e = 0; e < direct.num_flows(); ++e) {
    EXPECT_EQ(loaded->flow(e), direct.flow(e));
  }
}

TEST(InstanceSourceTest, LoadsCoflowTraceFilesBySniffingTheHeader) {
  const std::string path = testing::TempDir() + "/instance_source_coflow.csv";
  {
    std::ofstream out(path);
    out << "coflow,arrival,mappers,reducers\n"
           "0,0,0;1,0:2;1:2\n"
           "1,2,1,0:1\n";
  }
  std::string error;
  const auto loaded = LoadInstance(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->num_flows(), 5);
  EXPECT_TRUE(loaded->HasCoflows());
  EXPECT_EQ(loaded->flow(0).coflow, 0);
  EXPECT_EQ(loaded->flow(4).coflow, 1);
  std::remove(path.c_str());
}

TEST(InstanceSourceTest, CdfSpecMatchesGenerateTraffic) {
  const std::string spec =
      "cdf:dist=websearch,ports=16,load=0.6,rounds=12,seed=7";
  std::string error;
  const auto loaded = LoadInstance(spec, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->source(), spec);

  TrafficConfig cfg;
  cfg.num_inputs = cfg.num_outputs = 16;
  cfg.load = 0.6;
  EXPECT_TRUE(SizeCdf::ParseText(BuiltinCdfText("websearch"), &cfg.cdf,
                                 &error))
      << error;
  cfg.num_rounds = 12;
  cfg.seed = 7;
  const Instance direct = GenerateTraffic(cfg);
  ASSERT_EQ(loaded->num_flows(), direct.num_flows());
  for (FlowId e = 0; e < direct.num_flows(); ++e) {
    EXPECT_EQ(loaded->flow(e), direct.flow(e));
  }
}

TEST(InstanceSourceTest, CdfSpecLoadsCdfFiles) {
  char path[] = "/tmp/flowsched_cdf_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  close(fd);
  {
    std::ofstream out(path);
    out << "0 0\n1000 100\n";
  }
  std::string error;
  const auto loaded = LoadInstance(
      std::string("cdf:file=") + path + ",ports=8,load=0.5,rounds=10,seed=2",
      &error);
  std::remove(path);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_GT(loaded->num_flows(), 0);

  // A missing file names the path.
  EXPECT_FALSE(LoadInstance("cdf:file=/no/such.cdf,ports=8,load=0.5", &error)
                   .has_value());
  EXPECT_NE(error.find("/no/such.cdf"), std::string::npos) << error;
}

TEST(InstanceSourceTest, CdfSpecErrorsNameTheOffender) {
  std::string error;
  // Unknown key, like every other generator.
  EXPECT_FALSE(
      LoadInstance("cdf:dist=websearch,portz=8", &error).has_value());
  EXPECT_NE(error.find("portz"), std::string::npos) << error;
  // Unknown distribution names the builtins.
  EXPECT_FALSE(LoadInstance("cdf:dist=dctcp,ports=8", &error).has_value());
  EXPECT_NE(error.find("dctcp"), std::string::npos) << error;
  EXPECT_NE(error.find("websearch"), std::string::npos) << error;
  // dist= and file= are mutually exclusive; neither defaults to websearch.
  EXPECT_FALSE(
      LoadInstance("cdf:dist=websearch,file=x.cdf", &error).has_value());
  EXPECT_NE(error.find("not both"), std::string::npos) << error;
  EXPECT_TRUE(LoadInstance("cdf:ports=8,load=0.5,rounds=5", &error)
                  .has_value())
      << error;
  // Out-of-range values fail like the other generators.
  EXPECT_FALSE(
      LoadInstance("cdf:dist=websearch,ports=0", &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
  EXPECT_FALSE(
      LoadInstance("cdf:dist=websearch,ports=8,rounds=0", &error)
          .has_value());
  EXPECT_NE(error.find("rounds"), std::string::npos) << error;
}

// Every out-of-range value of a poisson:/coflow:/cdf: spec fails with one
// message, naming the key, on all three paths that read specs — and never
// reaches the generators' FS_CHECKs.
TEST(InstanceSourceTest, OutOfRangeValuesFailAlikeOnEveryPath) {
  const std::pair<const char*, const char*> bad[] = {
      {"poisson:ports=0", "ports=0 out of range"},
      {"poisson:load=-1", "load=-1 out of range"},
      {"poisson:rounds=0", "rounds=0 out of range"},
      {"poisson:dmax=0", "dmax=0 out of range"},
      {"poisson:cap=0", "cap=0 out of range"},
      {"poisson:load=nan", "load=nan out of range"},
      {"poisson:ports=4294967297", "ports=4294967297 out of range"},
      {"poisson:cap=3000000000,dmax=3000000000",
       "cap=3000000000 out of range"},
      {"poisson:cap=4,dmax=4294967297", "dmax=4294967297 out of range"},
      {"coflow:dmax=3000000000", "dmax=3000000000 out of range"},
      {"coflow:width=2147483648", "width=2147483648 out of range"},
      {"coflow:skew=2", "skew=2 out of range"},
      {"coflow:width=0", "width=0 out of range"},
      {"coflow:minwidth=0", "minwidth=0 out of range"},
      {"coflow:rounds=-1", "rounds=-1 out of range"},
      {"cdf:width=-1", "width=-1 out of range"},
      {"cdf:unit=-2", "unit=-2 out of range"},
  };
  for (const auto& [spec, want] : bad) {
    SCOPED_TRACE(spec);
    std::string load_error;
    EXPECT_FALSE(LoadInstance(spec, &load_error).has_value());
    EXPECT_NE(load_error.find(want), std::string::npos) << load_error;
    std::string validate_error;
    EXPECT_FALSE(ValidateInstanceSpec(spec, &validate_error));
    EXPECT_EQ(validate_error, load_error);
    std::string stream_error;
    EXPECT_EQ(MakeStreamSource(spec, &stream_error), nullptr);
    EXPECT_EQ(stream_error, load_error);
  }
  // Untagged cdf: traffic ignores the width distribution's skew.
  std::string error;
  EXPECT_TRUE(ValidateInstanceSpec("cdf:width=0,skew=2", &error)) << error;
  // The largest values in range validate, and promptly: the coflow rate's
  // mean width must not loop past INT_MAX (validated only, since a draw
  // would hold billions of flows).
  for (const char* spec :
       {"coflow:width=2147483647", "coflow:width=2147483647,skew=0.5",
        "coflow:minwidth=2147483647,width=2147483647",
        "poisson:cap=2147483647,dmax=2147483647"}) {
    EXPECT_TRUE(ValidateInstanceSpec(spec, &error)) << spec << ": " << error;
  }
}

// The fixed-pattern generators check their ranges too: load and plan-time
// validation fail alike, naming the key, and no value reaches a
// generator's FS_CHECK.
TEST(InstanceSourceTest, PatternSpecsOutOfRangeFailWithTheKey) {
  const std::pair<const char*, const char*> bad[] = {
      {"shuffle:ports=0", "ports=0 out of range"},
      {"shuffle:wave=17", "wave=17 out of range"},
      {"shuffle:waves=0", "waves=0 out of range"},
      {"shuffle:period=-1", "period=-1 out of range"},
      {"shuffle:waves=3,period=1073741824", "period=1073741824 out of range"},
      {"incast:ports=0", "ports=0 out of range"},
      {"incast:fanin=99", "fanin=99 out of range"},
      {"incast:release=-1", "release=-1 out of range"},
      {"fig4a:phase=0", "phase=0 out of range"},
      {"fig4a:phase=6,total=6", "total=6 out of range"},
  };
  for (const auto& [spec, want] : bad) {
    SCOPED_TRACE(spec);
    std::string load_error;
    EXPECT_FALSE(LoadInstance(spec, &load_error).has_value());
    EXPECT_NE(load_error.find(want), std::string::npos) << load_error;
    std::string validate_error;
    EXPECT_FALSE(ValidateInstanceSpec(spec, &validate_error));
    EXPECT_EQ(validate_error, load_error);
  }
  // An unknown key is reported before a range.
  std::string error;
  EXPECT_FALSE(ValidateInstanceSpec("incast:fanin=99,fan=1", &error));
  EXPECT_NE(error.find("unknown key \"fan\""), std::string::npos) << error;
  // The edges of each range load.
  for (const char* spec :
       {"shuffle:ports=4,wave=4,waves=1,period=1", "incast:ports=4,fanin=4",
        "incast:ports=4,fanin=0", "fig4a:phase=1,total=2"}) {
    EXPECT_TRUE(LoadInstance(spec, &error).has_value())
        << spec << ": " << error;
  }
}

TEST(InstanceSourceTest, InfiniteRoundsOnlyStream) {
  const std::string spec = "poisson:ports=4,load=0.5,rounds=inf";
  std::string error;
  EXPECT_NE(MakeStreamSource(spec, &error), nullptr) << error;
  EXPECT_FALSE(LoadInstance(spec, &error).has_value());
  EXPECT_NE(error.find("rounds=inf is only for streams"), std::string::npos)
      << error;
  EXPECT_FALSE(ValidateInstanceSpec(spec, &error));
}

TEST(InstanceSourceTest, MissingFileNamesThePath) {
  std::string error;
  EXPECT_FALSE(LoadInstance("/no/such/file.csv", &error).has_value());
  EXPECT_NE(error.find("/no/such/file.csv"), std::string::npos);
}

TEST(InstanceSourceTest, UnknownSpecKeyIsAnError) {
  std::string error;
  EXPECT_FALSE(LoadInstance("poisson:portz=4", &error).has_value());
  EXPECT_NE(error.find("portz"), std::string::npos);
}

TEST(InstanceSourceTest, MalformedSpecValueIsAnError) {
  std::string error;
  EXPECT_FALSE(LoadInstance("poisson:ports=abc", &error).has_value());
  EXPECT_NE(error.find("abc"), std::string::npos);
}

TEST(InstanceSourceTest, MalformedPairIsAnError) {
  std::string error;
  EXPECT_FALSE(LoadInstance("poisson:ports", &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
}

TEST(InstanceSourceTest, StampsEveryInstanceWithItsSource) {
  const std::string spec = "poisson:ports=4,load=1.0,rounds=4,seed=2";
  const auto loaded = LoadInstance(spec);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->source(), spec);
}

TEST(InstanceSourceTest, FabricSpecsLoadTheInnerInstanceStamped) {
  const std::string inner = "coflow:ports=8,load=1.0,rounds=10,width=4,seed=3";
  const std::string fabric = "fabric:shards=2,partition=hash," + inner;
  EXPECT_TRUE(IsGeneratorSpec(fabric));

  std::string error;
  const auto wrapped = LoadInstance(fabric, &error);
  ASSERT_TRUE(wrapped.has_value()) << error;
  const auto direct = LoadInstance(inner, &error);
  ASSERT_TRUE(direct.has_value()) << error;

  // Same traffic, global ports — the wrapper only changes the stamp.
  ASSERT_EQ(wrapped->num_flows(), direct->num_flows());
  for (FlowId e = 0; e < direct->num_flows(); ++e) {
    EXPECT_EQ(wrapped->flow(e), direct->flow(e));
  }
  EXPECT_EQ(wrapped->source(), fabric);
  EXPECT_EQ(direct->source(), inner);
}

TEST(InstanceSourceTest, FabricSpecErrorsNameTheOffender) {
  std::string error;
  EXPECT_FALSE(LoadInstance("fabric:shards=2,pods=3,fig4b", &error)
                   .has_value());
  EXPECT_NE(error.find("pods"), std::string::npos) << error;
  EXPECT_FALSE(LoadInstance("fabric:shards=2,poisson:ports=4,bogus=1",
                            &error)
                   .has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

TEST(InstanceSourceTest, ValidateInstanceSpecChecksKeysWithoutGenerating) {
  std::string error;
  // Valid specs — including a fabric wrapper and a huge instance that
  // would be expensive to actually generate — pass.
  EXPECT_TRUE(ValidateInstanceSpec("fig4b", &error)) << error;
  EXPECT_TRUE(ValidateInstanceSpec(
      "poisson:ports=100000,load=1.0,rounds=100000,seed=1", &error))
      << error;
  EXPECT_TRUE(ValidateInstanceSpec(
      "fabric:shards=4,partition=hash,"
      "coflow:ports=64,load=1.0,rounds=50,width=8,seed=2",
      &error))
      << error;
  // File paths are load-time concerns.
  EXPECT_TRUE(ValidateInstanceSpec("no/such/file.csv", &error)) << error;
  // cdf: specs validate without generating — a huge horizon is fine.
  EXPECT_TRUE(ValidateInstanceSpec(
      "cdf:dist=alistorage,ports=4096,load=0.9,rounds=10000000,seed=1",
      &error))
      << error;

  // Offenders are named, at either nesting level.
  EXPECT_FALSE(ValidateInstanceSpec("poisson:portz=4", &error));
  EXPECT_NE(error.find("portz"), std::string::npos) << error;
  EXPECT_FALSE(ValidateInstanceSpec("cdf:dist=websearch,portz=8", &error));
  EXPECT_NE(error.find("portz"), std::string::npos) << error;
  EXPECT_FALSE(ValidateInstanceSpec("cdf:dist=nope,ports=8", &error));
  EXPECT_NE(error.find("nope"), std::string::npos) << error;
  // A typo'd generator NAME on a generator-shaped source is caught too —
  // it is not a plausible file path.
  EXPECT_FALSE(ValidateInstanceSpec("possion:ports=8,load=1.0", &error));
  EXPECT_NE(error.find("possion"), std::string::npos) << error;
  // ...but path-looking sources with ':' stay load-time concerns.
  EXPECT_TRUE(ValidateInstanceSpec("data.v2:dir/trace=a.csv", &error))
      << error;
  EXPECT_FALSE(ValidateInstanceSpec("fabric:shards=0,fig4b", &error));
  EXPECT_NE(error.find("positive"), std::string::npos) << error;
  EXPECT_FALSE(
      ValidateInstanceSpec("fabric:shards=2,incast:ports=8,bogus=1", &error));
  EXPECT_NE(error.find("bogus"), std::string::npos) << error;
}

}  // namespace
}  // namespace flowsched
