#include "campaign/campaign_spec.h"

#include <cctype>
#include <set>

namespace flowsched {
namespace {

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// Campaign and grid names become path components of the run directories;
// anything outside this set (slashes above all) would let a spec write
// outside the output root.
bool IsSafeName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      return false;
    }
  }
  return true;
}

bool CheckNames(const CampaignSpec& spec, std::string* error) {
  if (!IsSafeName(spec.name)) {
    return Fail(error, "campaign name \"" + spec.name +
                           "\" must be non-empty [A-Za-z0-9._-]");
  }
  if (spec.grids.empty()) return Fail(error, "campaign has no grids");
  std::set<std::string> seen;
  for (const SweepSpec& grid : spec.grids) {
    if (!IsSafeName(grid.name)) {
      return Fail(error, "grid name \"" + grid.name +
                             "\" must be non-empty [A-Za-z0-9._-]");
    }
    if (!seen.insert(grid.name).second) {
      return Fail(error, "duplicate grid name \"" + grid.name +
                             "\" (grid names key the run directories)");
    }
  }
  return true;
}

}  // namespace

// Campaign keys before the first [grid]; every line after a [grid] is a key
// of that grid, in the sweep-spec grammar (ApplySweepSpecLine), and its
// errors name the file line.
bool ParseCampaignSpec(const std::string& text, CampaignSpec& spec,
                       std::string* error) {
  spec = CampaignSpec{};
  int grid_keys = 0;  // Key lines in the current grid.
  const auto grid_done = [&] {
    return spec.grids.empty() || grid_keys > 0 ||
           Fail(error, "grid " + std::to_string(spec.grids.size()) +
                           ": empty sweep spec");
  };
  for (const auto& [line_no, line] : SpecLines(text)) {
    const std::string at = "line " + std::to_string(line_no) + ": ";
    if (line == "[grid]") {
      if (!grid_done()) return false;
      spec.grids.emplace_back();
      grid_keys = 0;
      continue;
    }
    std::string line_error;
    if (!spec.grids.empty()) {
      ++grid_keys;
      if (ApplySweepSpecLine(spec.grids.back(), line, &line_error)) continue;
      return Fail(error, "grid " + std::to_string(spec.grids.size()) + ": " +
                             at + line_error);
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return Fail(error, at + "expected key=value or [grid], got \"" + line +
                             "\"");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "name") {
      spec.name = value;
    } else if (key == "title") {
      spec.title = value;
    } else if (key == "out_root") {
      spec.out_root = value;
    } else {
      return Fail(error, at + "unknown campaign key \"" + key +
                             "\" (grid keys go after a [grid] line)");
    }
  }
  return grid_done() && CheckNames(spec, error);
}

std::string CampaignOutRoot(const CampaignSpec& spec) {
  return spec.out_root.empty() ? "campaign_runs/" + spec.name : spec.out_root;
}

}  // namespace flowsched
