// Minimal JSON helpers: emission for the report writers (flowsched_bench's
// BENCH_core.json, the campaign Aggregator, campaign records, provenance
// blocks) and a small reader for the campaign records they write.
//
// Not a serialization framework: the report writers keep explicit control
// over field order and layout (stable output is what makes BENCH_core.json
// and campaign aggregates diffable), these helpers only make the escaping
// and number formatting uniform across them.
#ifndef FLOWSCHED_UTIL_JSON_H_
#define FLOWSCHED_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace flowsched {

// Escapes `"` `\` and control characters for use inside a JSON string.
std::string JsonEscape(const std::string& s);

// Shortest round-trippable-enough representation (%.9g): stable across
// runs, compact, and precise to ~9 significant digits — the convention
// every report file follows. Records that are read back and aggregated
// (campaign outcome.json) write exact round-trip text instead.
std::string JsonNum(double v);

// `"key": "escaped"` fragment (no trailing comma).
std::string JsonStr(const std::string& key, const std::string& value);

// A parsed JSON document. The campaign subsystem reads back its own
// meta.json / outcome.json records (resume checks, collect/report), so
// unlike the write-side helpers above this is a full recursive parser —
// still deliberately small: no streaming, documents are at most a few KB.
//
// Numbers keep their source text (`raw`) besides the parsed double so
// 64-bit integers (seeds, hashes) survive round-trips exactly.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string raw;           // Numbers: exact source text.
  std::string string_value;  // Strings: unescaped content.
  std::vector<JsonValue> items;                            // Arrays.
  std::vector<std::pair<std::string, JsonValue>> members;  // Objects, in
                                                           // source order.

  // Object lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  // Typed accessors with defaults (wrong type => default).
  std::string GetString(const std::string& key,
                        const std::string& def = "") const;
  double GetNumber(const std::string& key, double def = 0.0) const;
  long long GetInt(const std::string& key, long long def = 0) const;
  std::uint64_t GetU64(const std::string& key, std::uint64_t def = 0) const;
  bool GetBool(const std::string& key, bool def = false) const;
};

// Parses one JSON value (object, array, or scalar) covering the whole
// input. Returns false and fills *error, naming the 1-based line and
// column, on malformed input or trailing data.
bool ParseJson(const std::string& text, JsonValue& out, std::string* error);

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_JSON_H_
