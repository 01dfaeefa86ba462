#include "campaign/campaign_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

namespace flowsched {
namespace {

TEST(ParseCampaignSpecTest, TextFormatWithGridSections) {
  const std::string text =
      "# paper figure reproductions\n"
      "name=paper-figs\n"
      "title=Paper figures\n"
      "out_root=out/figs\n"
      "[grid]\n"
      "name=fig6\n"
      "solvers=online.maxcard,online.minrtime\n"
      "instances=poisson:ports=8,load={load},rounds=20,seed={seed}\n"
      "loads=0.5,1.0\n"
      "seeds=1..2\n"
      "[grid]\n"
      "name=fig7\n"
      "solvers=online.maxweight\n"
      "instances=poisson:ports=8,load=1.0,rounds=20,seed={seed}\n"
      "seeds=1..3\n"
      "trials=2\n";
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(text, spec, &error)) << error;
  EXPECT_EQ(spec.name, "paper-figs");
  EXPECT_EQ(spec.title, "Paper figures");
  EXPECT_EQ(CampaignOutRoot(spec), "out/figs");
  ASSERT_EQ(spec.grids.size(), 2u);
  EXPECT_EQ(spec.grids[0].name, "fig6");
  EXPECT_EQ(spec.grids[0].solvers,
            (std::vector<std::string>{"online.maxcard", "online.minrtime"}));
  EXPECT_EQ(spec.grids[0].loads, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(spec.grids[1].name, "fig7");
  EXPECT_EQ(spec.grids[1].trials, 2);
  EXPECT_EQ(spec.grids[1].seeds,
            (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ParseCampaignSpecTest, JsonFormat) {
  const std::string text = R"({
    "name": "core",
    "title": "Core comparison",
    "grids": [
      {"name": "flow",
       "solvers": ["online.fifo", "online.srpt"],
       "instances": ["poisson:ports=8,load={load},rounds=20,seed={seed}"],
       "loads": "0.7,1.0",
       "seeds": "1..2",
       "params": {"validate": "1"}},
      {"name": "faults",
       "solvers": ["online.srpt"],
       "instances": ["poisson:ports=8,load=1.0,rounds=40,seed={seed}"],
       "seeds": [1, 2],
       "scenarios": ["none", "inline:PORT_DOWN 10 2;PORT_UP 20 2"]}
    ]
  })";
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(text, spec, &error)) << error;
  EXPECT_EQ(spec.name, "core");
  EXPECT_EQ(CampaignOutRoot(spec), "campaign_runs/core");
  ASSERT_EQ(spec.grids.size(), 2u);
  EXPECT_EQ(spec.grids[0].loads, (std::vector<double>{0.7, 1.0}));
  EXPECT_EQ(spec.grids[0].params.at("validate"), "1");
  // '|' separates the scenarios axis because inline scripts use ';'.
  ASSERT_EQ(spec.grids[1].scenarios.size(), 2u);
  EXPECT_EQ(spec.grids[1].scenarios[1],
            "inline:PORT_DOWN 10 2;PORT_UP 20 2");
  EXPECT_EQ(spec.grids[1].seeds, (std::vector<std::uint64_t>{1, 2}));
}

// Every grid key spelled as JSON: array and string axes, scalars and the
// params object all land on the same SweepSpec fields as the text grammar.
TEST(ParseCampaignSpecTest, JsonGridKeys) {
  const std::string text = R"({
    "name": "j",
    "grids": [
      {"name": "g",
       "solvers": ["online.fifo", "online.*"],
       "instances": ["poisson:ports={ports},load={load},rounds=50,seed={seed}"],
       "loads": [0.5, 1.0],
       "ports": "16,32",
       "seeds": "1..3",
       "trials": 2,
       "base_seed": 99,
       "params": {"validate": 0, "record_backlog": "1"}},
      {"name": "cdf",
       "solvers": ["online.srpt"],
       "instances": ["cdf:dist={dist},ports=16,seed={seed}"],
       "dists": ["alistorage"]}
    ]
  })";
  CampaignSpec spec;
  std::string error;
  ASSERT_TRUE(ParseCampaignSpec(text, spec, &error)) << error;
  ASSERT_EQ(spec.grids.size(), 2u);
  const SweepSpec& grid = spec.grids[0];
  EXPECT_EQ(grid.name, "g");
  EXPECT_EQ(grid.solvers,
            (std::vector<std::string>{"online.fifo", "online.*"}));
  EXPECT_EQ(grid.loads, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(grid.ports, (std::vector<long long>{16, 32}));
  EXPECT_EQ(grid.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(grid.trials, 2);
  EXPECT_EQ(grid.base_seed, 99u);
  EXPECT_EQ(grid.params.at("validate"), "0");
  EXPECT_EQ(grid.params.at("record_backlog"), "1");
  EXPECT_EQ(spec.grids[1].dists, (std::vector<std::string>{"alistorage"}));

  EXPECT_FALSE(ParseCampaignSpec(
      R"({"name": "x", "grids": [{"name": "g", "nope": 1}]})", spec, &error));
  EXPECT_NE(error.find("nope"), std::string::npos) << error;
}

TEST(ParseCampaignSpecTest, RejectsBadInput) {
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCampaignSpec("", spec, &error));
  EXPECT_FALSE(ParseCampaignSpec("name=x\n", spec, &error));  // No grids.
  // Unsafe names (path separators would escape the output root).
  EXPECT_FALSE(ParseCampaignSpec(
      "name=../evil\n[grid]\nname=g\nsolvers=online.fifo\n"
      "instances=fig4b\n",
      spec, &error));
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ok\n[grid]\nname=a/b\nsolvers=online.fifo\ninstances=fig4b\n",
      spec, &error));
  // Duplicate grid names key the same run directories.
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ok\n"
      "[grid]\nname=g\nsolvers=online.fifo\ninstances=fig4b\n"
      "[grid]\nname=g\nsolvers=online.srpt\ninstances=fig4b\n",
      spec, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  // Campaign-level unknown key.
  EXPECT_FALSE(ParseCampaignSpec("bogus=1\n[grid]\nname=g\n", spec, &error));
  // Grid errors carry through.
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ok\n[grid]\nname=g\nbogus_key=1\n", spec, &error));
  // JSON: grids must be an array of objects.
  EXPECT_FALSE(ParseCampaignSpec(R"({"name": "x", "grids": 3})", spec,
                                 &error));
  EXPECT_FALSE(ParseCampaignSpec(R"({"name": "x", "grids": [42]})", spec,
                                 &error));
  EXPECT_FALSE(ParseCampaignSpec(R"({"nope": 1})", spec, &error));
}

TEST(ParseCampaignSpecTest, GridErrorsNameFileLines) {
  // Blank and comment lines inside and before a [grid] still count: the
  // bad key sits on file line 13, the third non-blank line of grid 2.
  const std::string text =
      "name=lines\n"                     // 1
      "\n"                               // 2
      "[grid]\n"                         // 3
      "name=a\n"                         // 4
      "solvers=online.fifo\n"            // 5
      "instances=fig4b\n"                // 6
      "\n"                               // 7
      "# second grid\n"                  // 8
      "[grid]\n"                         // 9
      "name=b\n"                         // 10
      "\n"                               // 11
      "solvers=online.srpt  # trailing\n"  // 12
      "bogus=1\n";                       // 13
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCampaignSpec(text, spec, &error));
  EXPECT_EQ(error, "grid 2: line 13: unknown spec key \"bogus\"");
}

// An oversized or non-finite axis range fails where it is written, in
// either front end, before anything expands.
TEST(ParseCampaignSpecTest, AxisRangeErrorsNameTheirLine) {
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ranges\n"                                   // 1
      "[grid]\n"                                        // 2
      "name=g\n"                                        // 3
      "solvers=online.srpt\n"                           // 4
      "instances=poisson:ports=4,load=1.0,seed={seed}\n"  // 5
      "seeds=1..18446744073709551615\n",                // 6
      spec, &error));
  EXPECT_EQ(error, "grid 1: line 6: seeds: \"1..18446744073709551615\" "
                   "takes the axis past 1000000 values");
  EXPECT_FALSE(ParseCampaignSpec(
      "name=ranges\n"                                   // 1
      "[grid]\n"                                        // 2
      "name=g\n"                                        // 3
      "\n"                                              // 4
      "loads=0:inf:1\n",                                // 5
      spec, &error));
  EXPECT_EQ(error, "grid 1: line 5: loads: axis element \"0:inf:1\" is "
                   "neither a finite number nor a range");
  EXPECT_FALSE(ParseCampaignSpec(
      R"({"name": "j", "grids": [{"name": "g", "loads": "0:1:nan"}]})", spec,
      &error));
  EXPECT_EQ(error.rfind("grids[0]: loads: ", 0), 0u) << error;
}

TEST(ParseCampaignSpecTest, TextGridsSpeakOnlyKeyValueLines) {
  // JSON belongs in a JSON campaign; inside a text [grid] it is a bad line.
  const std::string text =
      "name=x\n"                                           // 1
      "[grid]\n"                                           // 2
      "{\"name\": \"g\", \"solvers\": [\"online.fifo\"]}\n";  // 3
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCampaignSpec(text, spec, &error));
  EXPECT_EQ(error.rfind("grid 1: line 3: expected key=value", 0), 0u)
      << error;
}

TEST(ParseCampaignSpecTest, CheckedInSpecsStayParseable) {
  // The shipped campaign files are part of the public contract; their
  // grammar is revalidated here so a spec-format change cannot silently
  // orphan them. (Expansion is exercised in campaign_plan_test.cc.)
  for (const char* name :
       {"fig4", "fig6", "fig7", "core", "ci-smoke"}) {
    SCOPED_TRACE(name);
    // Tests run from the build tree; campaigns/ sits in the source root.
    const std::string path = std::string(FLOWSCHED_SOURCE_DIR) +
                             "/campaigns/" + name + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    CampaignSpec spec;
    std::string error;
    EXPECT_TRUE(ParseCampaignSpec(buffer.str(), spec, &error))
        << path << ": " << error;
    EXPECT_EQ(spec.name, name);
    EXPECT_FALSE(spec.grids.empty());
  }
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

// Seeded mutation fuzzing of both spec front ends: every checked-in
// campaigns/*.json plus a text-form spec that sets every grid key, mutated
// by byte flips, truncation, duplicated or swapped lines, and numbers
// replaced by huge, negative, infinite or NaN values. ParseCampaignSpec
// must return for every input, and every failure must say why.
TEST(CampaignSpecFuzzTest, MutatedSpecsParseOrFailWithAnError) {
  std::vector<std::string> seeds = {
      "name=fuzz\n"
      "title=Fuzz seed\n"
      "out_root=campaign_runs/fuzz\n"
      "[grid]\n"
      "name=flow\n"
      "solvers=online.fifo,online.srpt\n"
      "instances=poisson:ports={ports},load={load},rounds={rounds},"
      "seed={seed}\n"
      "loads=0.5:1.0:0.25\n"
      "ports=4,8\n"
      "rounds=10..12\n"
      "seeds=1..3\n"
      "trials=2\n"
      "base_seed=7\n"
      "max_rounds=100\n"
      "param=validate=1\n"
      "[grid]\n"
      "name=faults\n"
      "solvers=online.srpt\n"
      "instances=fabric:shards={shards},partition=block,cdf:dist={dist},"
      "ports=8,load=1.0,rounds=20,seed={seed}\n"
      "shards=1..2\n"
      "dists=websearch,fbhdp\n"
      "scenarios=none|inline:PORT_DOWN 5 1;PORT_UP 9 1\n"};
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(FLOWSCHED_SOURCE_DIR) + "/campaigns")) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    seeds.push_back(buffer.str());
  }
  const std::vector<std::string> numbers = {
      "18446744073709551615", "18446744073709551616", "9223372036854775807",
      "-9223372036854775808", "99999999999999999999", "1e308",  "-1",
      "-0.5",                 "0",                    "inf",    "-inf",
      "nan"};

  std::mt19937_64 rng(20200715);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    std::string text = seeds[pick(seeds.size())];
    const std::size_t mutations = 1 + pick(3);
    for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
      switch (pick(5)) {
        case 0:  // Flip one byte to a random value.
          text[pick(text.size())] = static_cast<char>(rng());
          break;
        case 1:  // Truncate.
          text.resize(pick(text.size()));
          break;
        case 2: {  // Duplicate a line.
          std::vector<std::string> lines = Lines(text);
          const std::size_t at = pick(lines.size());
          lines.insert(lines.begin() + at, lines[at]);
          text = Join(lines);
          break;
        }
        case 3: {  // Swap two lines.
          std::vector<std::string> lines = Lines(text);
          std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
          text = Join(lines);
          break;
        }
        default: {  // Replace a number with an extreme one.
          std::vector<std::pair<std::size_t, std::size_t>> spans;
          for (std::size_t i = 0; i < text.size();) {
            if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
              ++i;
              continue;
            }
            std::size_t j = i;
            while (j < text.size() &&
                   (std::isdigit(static_cast<unsigned char>(text[j])) ||
                    (text[j] == '.' && (j + 1 >= text.size() ||
                                        text[j + 1] != '.')))) {
              ++j;
            }
            spans.emplace_back(i, j - i);
            i = j;
          }
          if (spans.empty()) break;
          const auto [at, length] = spans[pick(spans.size())];
          text.replace(at, length, numbers[pick(numbers.size())]);
          break;
        }
      }
    }
    CampaignSpec spec;
    std::string error;
    if (ParseCampaignSpec(text, spec, &error)) {
      ++accepted;
      EXPECT_FALSE(spec.grids.empty()) << text;
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "no error for:\n" << text;
    }
  }
  // The mutations must reach both outcomes, not just one.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

}  // namespace
}  // namespace flowsched
