#include "campaign/campaign_spec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <utility>
#include <vector>

#include "campaign/campaign_plan.h"

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

// An oversized or non-finite axis range fails where it is written, before
// anything expands.
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
}

// Campaigns have one grammar: a JSON document, or JSON inside a [grid],
// is a malformed line and the error names it.
TEST(ParseCampaignSpecTest, JsonIsABadLine) {
  CampaignSpec spec;
  std::string error;
  EXPECT_FALSE(ParseCampaignSpec(
      "\n{\"name\": \"x\", \"grids\": [{\"name\": \"g\"}]}\n", spec, &error));
  EXPECT_EQ(error.rfind("line 2: expected key=value or [grid]", 0), 0u)
      << error;
  EXPECT_FALSE(ParseCampaignSpec(
      "name=x\n"                                           // 1
      "[grid]\n"                                           // 2
      "{\"name\": \"g\", \"solvers\": [\"online.fifo\"]}\n",  // 3
      spec, &error));
  EXPECT_EQ(error.rfind("grid 1: line 3: expected key=value", 0), 0u)
      << error;
}

// Every file under campaigns/ with its text, sorted by path. Tests run
// from the build tree; campaigns/ sits in the source root.
std::vector<std::pair<std::filesystem::path, std::string>> CheckedInSpecs() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(FLOWSCHED_SOURCE_DIR) + "/campaigns")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::pair<std::filesystem::path, std::string>> specs;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    specs.emplace_back(path, buffer.str());
  }
  return specs;
}

TEST(ParseCampaignSpecTest, CheckedInSpecsStayParseable) {
  // The shipped campaign files are part of the public contract; their
  // grammar is revalidated here so a spec-format change cannot silently
  // orphan them.
  const auto specs = CheckedInSpecs();
  ASSERT_FALSE(specs.empty());
  for (const auto& [path, text] : specs) {
    SCOPED_TRACE(path.string());
    CampaignSpec spec;
    std::string error;
    EXPECT_TRUE(ParseCampaignSpec(text, spec, &error)) << error;
    EXPECT_EQ(spec.name, path.stem().string());
    EXPECT_FALSE(spec.grids.empty());
  }
}

// Resume reuses a run directory only while its task's spec hash holds, and
// the hash comes from the parsed grid, not from the file's bytes: a
// checked-in spec may be rewritten in any layout, but its tasks must keep
// their hashes or existing run directories stop resuming. Each digest is
// FNV-1a over a grid's task hashes in task order.
TEST(ParseCampaignSpecTest, CheckedInGridsKeepTheirTaskHashes) {
  const std::map<std::string, std::string> pinned = {
      {"ci-smoke/coflow", "16392b5a62f452cf"},
      {"ci-smoke/flow", "1ba7442eada2731d"},
      {"ci-smoke/mixed", "fe5551fb5b6e4b73"},
      {"core/coflow-policies", "fd8efd84a5a00f21"},
      {"core/fabric-sharding", "05868bf887332754"},
      {"core/fault-robustness", "93ede39352e5c153"},
      {"core/flow-policies", "2c9a49acd9e0444a"},
      {"fig4/fig4a-lemma51", "c747af1ae7168567"},
      {"fig4/fig4b-lemma52", "ab84a42b90981404"},
      {"fig6/fig6-heuristics", "3c59d6dcd9c40000"},
      {"fig6/fig6-lp-compared", "96c5c4a0527dfc10"},
      {"fig7/fig7-lp-compared", "3f910e35b6d2c6ac"},
      {"realistic/cdf-coflows", "40c2584c27bf2d9d"},
      {"realistic/cdf-fabric", "71eb6ed1428244d2"},
      {"realistic/cdf-migration", "e532a700d5a5a857"},
      {"realistic/cdf-policies", "8ce3e99df1e15d75"},
  };
  std::map<std::string, std::string> digests;
  for (const auto& [path, text] : CheckedInSpecs()) {
    SCOPED_TRACE(path.string());
    CampaignSpec spec;
    CampaignPlan plan;
    std::string error;
    ASSERT_TRUE(ParseCampaignSpec(text, spec, &error)) << error;
    ASSERT_TRUE(ExpandCampaign(spec, SolverRegistry::Global(), plan, &error))
        << error;
    for (const CampaignGrid& grid : plan.grids) {
      std::string hashes;
      for (const std::uint64_t hash : grid.task_hashes) {
        hashes += HashHex(hash) + "\n";
      }
      digests[spec.name + "/" + grid.spec.name] = HashHex(Fnv1a64(hashes));
    }
  }
  EXPECT_EQ(digests, pinned);
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

// Seeded mutation fuzzing of the spec grammar: every checked-in
// campaigns/ file plus a text-form spec that sets every grid key, mutated
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
  for (const auto& [path, text] : CheckedInSpecs()) seeds.push_back(text);
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
