// Minimal CSV writing/reading used by trace IO and bench outputs.
//
// The dialect is deliberately simple: comma separator, quotes around fields
// containing commas/quotes/newlines, '\n' record terminator. This is enough
// for our own round-trips and for importing into plotting tools.
#ifndef FLOWSCHED_UTIL_CSV_H_
#define FLOWSCHED_UTIL_CSV_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace flowsched {

// Escapes one field for emission into a CSV row: returns the field quoted
// (embedded quotes doubled) when it contains a comma, quote, newline,
// carriage return, or semicolon, unchanged otherwise. Semicolons force
// quoting because several of our own values use ';' as an internal
// separator (instance-spec lists, inline scenario scripts) and common
// spreadsheet importers treat bare ';' as a delimiter; report CSV columns
// must not shear on them. Shared by CsvWriter and the hand-rolled report
// writers (campaign/aggregator.cc).
std::string CsvEscapeField(std::string_view field);

// Streams rows to an std::ostream. Not thread-safe.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}

  void WriteRow(const std::vector<std::string>& fields);

  // Convenience for heterogeneous rows.
  template <typename... Ts>
  void Row(const Ts&... vals) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(vals));
    (fields.push_back(ToField(vals)), ...);
    WriteRow(fields);
  }

 private:
  static std::string ToField(const std::string& s) { return s; }
  static std::string ToField(const char* s) { return s; }
  static std::string ToField(std::string_view s) { return std::string(s); }
  static std::string ToField(double v);
  static std::string ToField(int v) { return std::to_string(v); }
  static std::string ToField(long v) { return std::to_string(v); }
  static std::string ToField(long long v) { return std::to_string(v); }
  static std::string ToField(unsigned long v) { return std::to_string(v); }
  static std::string ToField(unsigned long long v) { return std::to_string(v); }

  std::ostream& out_;
};

// Line-at-a-time CSV row reader over an std::istream: the one CSV reader,
// shared by the batch trace parsers and the streaming trace source so a
// multi-gigabyte trace never has to be materialized (or even fully read)
// to start serving rows. Quoted fields (which may span lines), '\r'
// stripped, blank lines skipped.
class CsvRowReader {
 public:
  explicit CsvRowReader(std::istream& in) : in_(in) {}

  // Overwrites *row with the next non-blank row; false at end of input.
  bool Next(std::vector<std::string>* row);

  // 1-based line number where the row returned by the last Next() started
  // (0 before the first call). Exact even when the file has blank lines —
  // this is what error messages should report.
  long long line() const { return row_line_; }

 private:
  std::istream& in_;
  std::string buffer_;       // Current physical line(s) being parsed.
  long long next_line_ = 0;  // Lines consumed from in_ so far.
  long long row_line_ = 0;
};

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_CSV_H_
