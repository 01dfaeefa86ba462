#include "campaign/campaign_spec.h"

#include <cctype>
#include <set>

#include "util/json.h"

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

// ---- key=value front end -------------------------------------------------
// Campaign keys before the first [grid]; every line after a [grid] is a key
// of that grid, in the sweep-spec grammar (ApplySweepSpecLine), and its
// errors name the file line.

bool ParseTextCampaign(const std::string& text, CampaignSpec& spec,
                       std::string* error) {
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

// ---- JSON front end ------------------------------------------------------
// The document parses with util/json; each grid object converts member by
// member into the key=value grammar ApplySweepSpecKey speaks (arrays join
// with the key's list separator, params expand to repeated param=k=v).

bool ApplyJsonGridMember(SweepSpec& grid, const std::string& key,
                         const JsonValue& value, std::string* error) {
  if (key == "params") {
    if (value.type != JsonValue::Type::kObject) {
      return Fail(error, "params: expected an object");
    }
    for (const auto& [pkey, pval] : value.members) {
      const std::string text = pval.type == JsonValue::Type::kString
                                   ? pval.string_value
                                   : pval.raw;
      if (!ApplySweepSpecKey(grid, "param", pkey + "=" + text, error)) {
        return false;
      }
    }
    return true;
  }
  if (value.type == JsonValue::Type::kArray) {
    const char sep = (key == "instances" || key == "instance") ? ';'
                     : key == "scenarios"                      ? '|'
                                                               : ',';
    std::string joined;
    for (std::size_t i = 0; i < value.items.size(); ++i) {
      const JsonValue& item = value.items[i];
      if (i > 0) joined += sep;
      joined += item.type == JsonValue::Type::kString ? item.string_value
                                                      : item.raw;
    }
    return ApplySweepSpecKey(grid, key, joined, error);
  }
  const std::string text = value.type == JsonValue::Type::kString
                               ? value.string_value
                               : value.raw;
  return ApplySweepSpecKey(grid, key, text, error);
}

bool ParseJsonCampaign(const std::string& text, CampaignSpec& spec,
                       std::string* error) {
  JsonValue doc;
  if (!ParseJson(text, doc, error)) return false;
  if (doc.type != JsonValue::Type::kObject) {
    return Fail(error, "campaign json: expected an object");
  }
  for (const auto& [key, value] : doc.members) {
    if (key == "name") {
      spec.name = value.string_value;
    } else if (key == "title") {
      spec.title = value.string_value;
    } else if (key == "out_root") {
      spec.out_root = value.string_value;
    } else if (key == "grids") {
      if (value.type != JsonValue::Type::kArray) {
        return Fail(error, "grids: expected an array of grid objects");
      }
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        const JsonValue& grid_obj = value.items[i];
        if (grid_obj.type != JsonValue::Type::kObject) {
          return Fail(error, "grids[" + std::to_string(i) +
                                 "]: expected an object");
        }
        SweepSpec grid;
        for (const auto& [gkey, gval] : grid_obj.members) {
          std::string gerr;
          if (!ApplyJsonGridMember(grid, gkey, gval, &gerr)) {
            return Fail(error,
                        "grids[" + std::to_string(i) + "]: " + gerr);
          }
        }
        spec.grids.push_back(std::move(grid));
      }
    } else {
      return Fail(error, "unknown campaign key \"" + key + "\"");
    }
  }
  return CheckNames(spec, error);
}

}  // namespace

bool ParseCampaignSpec(const std::string& text, CampaignSpec& spec,
                       std::string* error) {
  spec = CampaignSpec{};
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return Fail(error, "empty campaign spec");
  return text[first] == '{' ? ParseJsonCampaign(text, spec, error)
                            : ParseTextCampaign(text, spec, error);
}

std::string CampaignOutRoot(const CampaignSpec& spec) {
  return spec.out_root.empty() ? "campaign_runs/" + spec.name : spec.out_root;
}

}  // namespace flowsched
