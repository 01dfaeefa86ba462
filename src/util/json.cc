#include "util/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace flowsched {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonStr(const std::string& key, const std::string& value) {
  std::string out;
  out.reserve(key.size() + value.size() + 6);
  out += '"';
  out += JsonEscape(key);
  out += "\": \"";
  out += JsonEscape(value);
  out += '"';
  return out;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kString ? v->string_value : def;
}

double JsonValue::GetNumber(const std::string& key, double def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kNumber ? v->number_value : def;
}

long long JsonValue::GetInt(const std::string& key, long long def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->type != Type::kNumber) return def;
  return std::strtoll(v->raw.c_str(), nullptr, 10);
}

std::uint64_t JsonValue::GetU64(const std::string& key,
                                std::uint64_t def) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->type != Type::kNumber) return def;
  return std::strtoull(v->raw.c_str(), nullptr, 10);
}

bool JsonValue::GetBool(const std::string& key, bool def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->type == Type::kBool ? v->bool_value : def;
}

namespace {

// Recursive-descent parser over the whole input. Positions are byte
// offsets; errors name their 1-based line and column so a malformed
// meta.json or campaign spec is debuggable.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue& out, std::string* error) {
    if (!Value(out, error, 0)) return false;
    SkipWs();
    if (pos_ < text_.size()) {
      return Fail(error, "trailing data");
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(std::string* error, const std::string& msg) {
    if (error != nullptr) {
      std::size_t line = 1;
      std::size_t line_start = 0;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++line;
          line_start = i + 1;
        }
      }
      *error = "json line " + std::to_string(line) + ", column " +
               std::to_string(pos_ - line_start + 1) + ": " + msg;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool Literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool String(std::string& out, std::string* error) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Fail(error, "expected '\"'");
    }
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail(error, "unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': case '\\': case '/': c = esc; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return Fail(error, "truncated \\u escape");
            }
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Fail(error, "bad \\u escape digit");
            }
            // UTF-8 encode (no surrogate-pair handling — our own writers
            // only \u-escape control characters).
            if (code < 0x80) {
              c = static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              c = static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              c = static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail(error, std::string("unsupported escape \\") + esc);
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) return Fail(error, "unterminated string");
    ++pos_;  // Closing quote.
    return true;
  }

  bool Value(JsonValue& out, std::string* error, int depth) {
    if (depth > kMaxDepth) return Fail(error, "nesting too deep");
    out = JsonValue{};
    SkipWs();
    if (pos_ >= text_.size()) return Fail(error, "unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.type = JsonValue::Type::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!String(key, error)) return false;
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail(error, "expected ':' after \"" + key + "\"");
        }
        ++pos_;
        JsonValue member;
        if (!Value(member, error, depth + 1)) return false;
        out.members.emplace_back(std::move(key), std::move(member));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail(error, "expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out.type = JsonValue::Type::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue item;
        if (!Value(item, error, depth + 1)) return false;
        out.items.push_back(std::move(item));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail(error, "expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return String(out.string_value, error);
    }
    if (Literal("true")) {
      out.type = JsonValue::Type::kBool;
      out.bool_value = true;
      return true;
    }
    if (Literal("false")) {
      out.type = JsonValue::Type::kBool;
      out.bool_value = false;
      return true;
    }
    if (Literal("null")) {
      out.type = JsonValue::Type::kNull;
      return true;
    }
    // Number: keep the exact source text alongside the parsed double.
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    if (pos_ == start) return Fail(error, "expected a JSON value");
    out.type = JsonValue::Type::kNumber;
    out.raw = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out.number_value = std::strtod(out.raw.c_str(), &end);
    if (end != out.raw.c_str() + out.raw.size()) {
      pos_ = start;
      return Fail(error, "malformed number \"" + out.raw + "\"");
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue& out, std::string* error) {
  return JsonParser(text).Parse(out, error);
}

}  // namespace flowsched
