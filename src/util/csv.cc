#include "util/csv.h"

#include <cstdio>

namespace flowsched {
namespace {

bool NeedsQuoting(std::string_view field) {
  return field.find_first_of(",\"\n\r;") != std::string_view::npos;
}

std::string Quote(std::string_view field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string CsvEscapeField(std::string_view field) {
  return NeedsQuoting(field) ? Quote(field) : std::string(field);
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out_ << ',';
    out_ << CsvEscapeField(fields[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::ToField(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool CsvRowReader::Next(std::vector<std::string>* row) {
  row->clear();
  std::string field;
  bool in_quotes = false;
  bool row_started = false;
  while (true) {
    if (!std::getline(in_, buffer_)) {
      if (row_started) {
        row->push_back(std::move(field));
        return true;  // Last row without a trailing newline.
      }
      return false;
    }
    ++next_line_;
    if (!row_started) row_line_ = next_line_;
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      const char c = buffer_[i];
      if (in_quotes) {
        if (c == '"') {
          if (i + 1 < buffer_.size() && buffer_[i + 1] == '"') {
            field += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else {
          field += c;
        }
      } else if (c == '"') {
        in_quotes = true;
        row_started = true;
      } else if (c == ',') {
        row->push_back(std::move(field));
        field.clear();
        row_started = true;  // A trailing empty field still counts.
      } else if (c != '\r') {
        field += c;
        row_started = true;
      }
    }
    if (in_quotes) {
      field += '\n';  // Quoted field spanning lines.
      continue;
    }
    if (!row_started) continue;  // Blank line: keep scanning.
    row->push_back(std::move(field));
    return true;
  }
}

}  // namespace flowsched
