// Golden bytes of a campaign's outputs. One small campaign touches every
// outcome metric group — flow solvers, a coflow solver, a sharded fabric
// solver, a scenario with PORT_DOWN and MIGRATE, both LP lower bounds
// (art.theorem1's LP(0) / n and mrt.theorem3's rho_lp), and a task that
// fails on a bad param — and the test pins an FNV-1a hash of every file it
// writes:
//   - runs/<task>/outcome.json, with its wall-clock fields (wall_seconds,
//     rounds_per_sec) cut;
//   - aggregate/<grid>.json and report/index.html, with the provenance
//     block cut;
//   - aggregate/<grid>.csv as is.
// A refactor of the outcome/aggregate/report code must leave every hash
// alone; a deliberate format change updates them.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign_plan.h"
#include "campaign/campaign_report.h"
#include "campaign/campaign_runner.h"
#include "campaign/campaign_spec.h"

namespace flowsched {
namespace {

namespace fs = std::filesystem;

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The provenance block (commit, compiler, flags, host) is the only part
// of an aggregate or report that differs between builds of the same code.
std::string WithoutProvenance(const std::string& text) {
  static const std::regex json_block("\"provenance\": \\{[^}]*\\}");
  static const std::regex html_block("<p class=\"prov\">.*</p>");
  return std::regex_replace(std::regex_replace(text, json_block, ""),
                            html_block, "");
}

// wall_seconds and rounds_per_sec are an ok record's last two fields.
std::string WithoutWallClock(std::string text) {
  const auto at = text.find(", \"wall_seconds\": ");
  if (at != std::string::npos) text.erase(at, text.rfind('}') - at);
  return text;
}

std::string Hash(const std::string& text) { return HashHex(Fnv1a64(text)); }

constexpr char kGoldenCampaign[] =
    "name=golden\n"
    "title=Golden campaign\n"
    "[grid]\n"
    "name=flow\n"
    "solvers=online.srpt,online.maxweight\n"
    "instances=poisson:ports=4,load={load},rounds=20,seed={seed}\n"
    "loads=0.7,1.0\n"
    "seeds=1..2\n"
    "[grid]\n"
    "name=coflow\n"
    "solvers=coflow.sebf\n"
    "instances=coflow:ports=8,load=1.0,rounds=20,width=4,seed={seed}\n"
    "seeds=1..2\n"
    "[grid]\n"
    "name=fabric\n"
    "solvers=fabric.sebf\n"
    "instances=fabric:shards={shards},partition=block,"
    "coflow:ports=8,load=1.0,rounds=20,width=4,seed={seed}\n"
    "shards=2,4\n"
    "seeds=1..2\n"
    "[grid]\n"
    "name=scenario\n"
    "solvers=online.srpt\n"
    "instances=poisson:ports=4,load=1.0,rounds=30,seed={seed}\n"
    "seeds=1..2\n"
    "scenarios=none|inline:MIGRATE 3 0 2 0.5;PORT_DOWN 5 1;PORT_UP 12 1\n"
    "[grid]\n"
    "name=lp\n"
    "solvers=art.theorem1,mrt.theorem3,online.maxweight\n"
    "instances=poisson:ports=3,load=1.0,rounds=4,seed=1\n"
    "[grid]\n"
    "name=bad\n"
    "solvers=online.srpt\n"
    "instances=poisson:ports=4,load=1.0,rounds=10,seed=1\n"
    "param=no_such_param=1\n";

// (file under the output root, pinned hash), in the order the test walks
// the outputs: every outcome.json in plan order, then each grid's
// aggregate JSON and CSV, then the report.
const std::vector<std::pair<std::string, std::string>> kGolden = {
    {"runs/flow-0000-online.srpt/outcome.json", "9083e63c93fe216b"},
    {"runs/flow-0001-online.srpt/outcome.json", "2bdf36023cfaf132"},
    {"runs/flow-0002-online.maxweight/outcome.json", "5d910fa2100a385c"},
    {"runs/flow-0003-online.maxweight/outcome.json", "b8133c0da571cadb"},
    {"runs/flow-0004-online.srpt/outcome.json", "7d349dac71e0aeac"},
    {"runs/flow-0005-online.srpt/outcome.json", "438953979c0481ab"},
    {"runs/flow-0006-online.maxweight/outcome.json", "0a3529200d743d5a"},
    {"runs/flow-0007-online.maxweight/outcome.json", "09db18934a6daf30"},
    {"runs/coflow-0000-coflow.sebf/outcome.json", "6686fc5814096152"},
    {"runs/coflow-0001-coflow.sebf/outcome.json", "d8552634969a8282"},
    {"runs/fabric-0000-fabric.sebf/outcome.json", "b9d7403302357370"},
    {"runs/fabric-0001-fabric.sebf/outcome.json", "d4a860ea01191971"},
    {"runs/fabric-0002-fabric.sebf/outcome.json", "ffb867c61830b65f"},
    {"runs/fabric-0003-fabric.sebf/outcome.json", "768239f5246b5011"},
    {"runs/scenario-0000-online.srpt/outcome.json", "6a8f966279239e28"},
    {"runs/scenario-0001-online.srpt/outcome.json", "b61c75cb8b71fa91"},
    {"runs/scenario-0002-online.srpt/outcome.json", "b87e0104da18e1de"},
    {"runs/scenario-0003-online.srpt/outcome.json", "f0d1705761f772c6"},
    {"runs/lp-0000-art.theorem1/outcome.json", "0569ec67bd2750b0"},
    {"runs/lp-0001-mrt.theorem3/outcome.json", "13f19cc38f8b5e60"},
    {"runs/lp-0002-online.maxweight/outcome.json", "a4bd24b51dbb310b"},
    {"runs/bad-0000-online.srpt/outcome.json", "0b939cbaf9a31105"},
    {"aggregate/flow.json", "4d505fbfe70fd730"},
    {"aggregate/flow.csv", "d99fd86880a6c9ad"},
    {"aggregate/coflow.json", "d8e5e95e6d4e0dc6"},
    {"aggregate/coflow.csv", "3fb40b0646348464"},
    {"aggregate/fabric.json", "4517ce2808a1af48"},
    {"aggregate/fabric.csv", "dfb95e0101a337e3"},
    {"aggregate/scenario.json", "989c384a6b790f0c"},
    {"aggregate/scenario.csv", "f11c32910085b61b"},
    {"aggregate/lp.json", "2bd769f61dd907e4"},
    {"aggregate/lp.csv", "a7935ef337117500"},
    {"aggregate/bad.json", "279f5b2c625fcce5"},
    {"aggregate/bad.csv", "906bae18586cc891"},
    {"report/index.html", "96a05555805d2e71"},
};

TEST(CampaignGoldenTest, EveryOutputFileKeepsItsBytes) {
  const fs::path root =
      fs::temp_directory_path() /
      ("flowsched_golden_test_" + std::to_string(::getpid()));
  fs::remove_all(root);
  CampaignSpec spec;
  CampaignPlan plan;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(kGoldenCampaign, spec, &error)) << error;
  ASSERT_TRUE(ExpandCampaign(spec, SolverRegistry::Global(), plan, &error))
      << error;
  CampaignRunOptions options;
  options.jobs = 2;
  CampaignRunSummary run;
  ASSERT_TRUE(RunCampaign(spec, plan, root.string(), options, run, &error))
      << error;
  EXPECT_EQ(run.failed, 1);
  EXPECT_EQ(run.ok, plan.total_tasks - 1);
  CampaignCollectSummary collect;
  ASSERT_TRUE(CollectCampaign(plan, root.string(), collect, &error)) << error;
  ASSERT_TRUE(WriteCampaignReport(spec, plan, collect, root.string(), &error))
      << error;

  std::vector<std::pair<std::string, std::string>> actual;
  for (const CampaignGrid& grid : plan.grids) {
    for (const std::string& id : grid.task_ids) {
      const std::string file = "runs/" + id + "/outcome.json";
      actual.emplace_back(file, Hash(WithoutWallClock(ReadFile(root / file))));
    }
  }
  for (const CampaignGrid& grid : plan.grids) {
    const std::string json = "aggregate/" + grid.spec.name + ".json";
    const std::string csv = "aggregate/" + grid.spec.name + ".csv";
    actual.emplace_back(json, Hash(WithoutProvenance(ReadFile(root / json))));
    actual.emplace_back(csv, Hash(ReadFile(root / csv)));
  }
  actual.emplace_back(
      "report/index.html",
      Hash(WithoutProvenance(ReadFile(root / "report" / "index.html"))));
  fs::remove_all(root);

  std::ostringstream table;
  for (const auto& [file, hash] : actual) {
    table << "    {\"" << file << "\", \"" << hash << "\"},\n";
  }
  EXPECT_EQ(actual, kGolden) << "the outputs now hash as:\n" << table.str();
}

}  // namespace
}  // namespace flowsched
