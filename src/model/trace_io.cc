#include "model/trace_io.h"

#include <charconv>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string_view>

#include "util/csv.h"

namespace flowsched {
namespace {

bool ParseInt64(const std::string& s, std::int64_t& out) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc() && ptr == last;
}

bool ParseInt(const std::string& s, int& out) {
  std::int64_t v = 0;
  if (!ParseInt64(s, v)) return false;
  out = static_cast<int>(v);
  return true;
}

// Reads a string in place, so a CsvRowReader over it pulls only the rows
// it is asked for, never a copy of the whole content.
class StringViewBuf : public std::streambuf {
 public:
  explicit StringViewBuf(std::string_view content) {
    char* begin = const_cast<char*>(content.data());
    setg(begin, begin, begin + content.size());
  }
};

bool Fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

// "line N: " for a CsvRowReader's physical line (1-based, exact with blank
// lines and quoted fields that span lines).
std::string LineTag(long long line) {
  return "line " + std::to_string(line) + ": ";
}

bool IsLabel(const std::vector<std::string>& row, const char* label) {
  return row.size() == 1 && row[0] == label;
}

// The capacity preamble after its "input_capacities" row: the input
// capacities, "output_capacities", the output capacities. Values must be
// positive: SwitchSpec's capacity >= 1 invariant would abort on untrusted
// input otherwise.
bool ReadCapacities(CsvRowReader& rows, std::vector<std::string>& row,
                    std::vector<Capacity>& in_caps,
                    std::vector<Capacity>& out_caps, std::string* error) {
  const auto read_caps = [&](std::vector<Capacity>& caps) {
    if (!rows.Next(&row)) return Fail(error, "missing capacity header rows");
    caps.reserve(row.size());
    for (const auto& field : row) {
      std::int64_t v = 0;
      if (!ParseInt64(field, v) || v < 1) {
        return Fail(error, LineTag(rows.line()) + "bad capacity: " + field);
      }
      caps.push_back(v);
    }
    return true;
  };
  return read_caps(in_caps) &&
         ((rows.Next(&row) && IsLabel(row, "output_capacities")) ||
          Fail(error, "missing capacity header rows")) &&
         read_caps(out_caps);
}

}  // namespace

void WriteInstanceCsv(const Instance& instance, std::ostream& out) {
  CsvWriter w(out);
  w.Row("input_capacities");
  {
    std::vector<std::string> row;
    row.reserve(instance.sw().num_inputs());
    for (Capacity c : instance.sw().input_capacities()) {
      row.push_back(std::to_string(c));
    }
    w.WriteRow(row);
  }
  w.Row("output_capacities");
  {
    std::vector<std::string> row;
    row.reserve(instance.sw().num_outputs());
    for (Capacity c : instance.sw().output_capacities()) {
      row.push_back(std::to_string(c));
    }
    w.WriteRow(row);
  }
  if (instance.HasCoflows()) {
    w.Row("src", "dst", "demand", "release", "coflow");
    for (const Flow& e : instance.flows()) {
      w.Row(e.src, e.dst, static_cast<long long>(e.demand), e.release,
            e.coflow == kNoCoflow ? std::string() : std::to_string(e.coflow));
    }
  } else {
    w.Row("src", "dst", "demand", "release");
    for (const Flow& e : instance.flows()) {
      w.Row(e.src, e.dst, static_cast<long long>(e.demand), e.release);
    }
  }
}

InstanceCsvReader::InstanceCsvReader(std::istream& in) : rows_(in) {
  std::vector<Capacity> in_caps;
  std::vector<Capacity> out_caps;
  if (!rows_.Next(&row_) || !IsLabel(row_, "input_capacities")) {
    error_ = "missing capacity header rows";
    return;
  }
  if (!ReadCapacities(rows_, row_, in_caps, out_caps, &error_)) return;
  if (!rows_.Next(&row_)) {
    error_ = "missing flow header row";
    return;
  }
  const std::vector<std::string> header4 = {"src", "dst", "demand", "release"};
  const std::vector<std::string> header5 = {"src", "dst", "demand", "release",
                                            "coflow"};
  with_coflow_ = row_ == header5;
  if (!with_coflow_ && row_ != header4) {
    error_ = "missing flow header row";
    return;
  }
  sw_ = SwitchSpec(std::move(in_caps), std::move(out_caps));
}

bool InstanceCsvReader::NextFlow(Flow* flow) {
  if (!error_.empty() || !rows_.Next(&row_)) return false;
  const std::size_t width = with_coflow_ ? 5 : 4;
  if (row_.size() != width) {
    error_ = LineTag(rows_.line()) + "flow row has " +
             std::to_string(row_.size()) + " fields, want " +
             std::to_string(width) +
             (with_coflow_ ? " (src,dst,demand,release,coflow)"
                           : " (src,dst,demand,release)");
    return false;
  }
  Flow e;
  if (!ParseInt(row_[0], e.src) || !ParseInt(row_[1], e.dst) ||
      !ParseInt64(row_[2], e.demand) || !ParseInt(row_[3], e.release)) {
    error_ = LineTag(rows_.line()) + "unparsable flow row";
    return false;
  }
  if (with_coflow_ && !row_[4].empty() && !ParseInt(row_[4], e.coflow)) {
    error_ = LineTag(rows_.line()) + "unparsable coflow tag: " + row_[4];
    return false;
  }
  if (auto fit = FlowFitError(sw_, e)) {
    error_ = LineTag(rows_.line()) + *fit;
    return false;
  }
  e.id = flow->id;
  *flow = e;
  return true;
}

std::optional<Instance> ReadInstanceCsv(const std::string& content,
                                        std::string* error) {
  std::istringstream in(content);
  InstanceCsvReader reader(in);
  std::vector<Flow> flows;
  Flow e;
  while (reader.NextFlow(&e)) flows.push_back(e);
  if (!reader.ok()) {
    Fail(error, reader.error());
    return std::nullopt;
  }
  Instance instance(reader.sw(), std::move(flows));
  if (auto verr = instance.ValidationError()) {
    Fail(error, *verr);
    return std::nullopt;
  }
  return instance;  // Implicitly moved into the optional (C++20).
}

namespace {

std::vector<std::string> SplitSemicolons(const std::string& field) {
  std::vector<std::string> parts;
  std::string part;
  for (char c : field + ';') {
    if (c == ';') {
      if (!part.empty()) parts.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  return parts;
}

const std::vector<std::string> kCoflowHeader = {"coflow", "arrival", "mappers",
                                                "reducers"};

// Ceiling on port indices when the trace carries no capacity preamble: the
// inferred square switch allocates two arrays of this size, so a typo'd
// port number must become a parse error, not a multi-gigabyte allocation.
constexpr PortId kMaxInferredPort = 1 << 20;

// Physical lines the coflow sniff reads at most: well above the five rows
// it needs, so blank lines and quoted fields spanning lines still fit, but
// a malformed file (an unterminated quote, a long run of blank lines)
// cannot make it scan the whole content.
constexpr int kSniffLines = 64;

}  // namespace

bool LooksLikeCoflowTrace(const std::string& content) {
  // Sniff only the first five CSV rows — the header is at row 0, or row 4
  // behind a capacity preamble — within the first kSniffLines physical
  // lines, so routing a large file never costs a second full parse. Blank
  // lines between them are skipped as the reader skips them.
  std::size_t end = 0;
  for (int i = 0; i < kSniffLines && end < content.size(); ++i) {
    const std::size_t newline = content.find('\n', end);
    end = newline == std::string::npos ? content.size() : newline + 1;
  }
  StringViewBuf buf(std::string_view(content).substr(0, end));
  std::istream in(&buf);
  CsvRowReader rows(in);
  std::vector<std::string> row;
  if (!rows.Next(&row)) return false;
  if (IsLabel(row, "input_capacities")) {
    for (int i = 0; i < 4; ++i) {
      if (!rows.Next(&row)) return false;
    }
  }
  return row == kCoflowHeader;
}

std::optional<Instance> ReadCoflowTraceCsv(const std::string& content,
                                           std::string* error) {
  std::istringstream in(content);
  CsvRowReader rows(in);
  std::vector<std::string> row;
  std::vector<Capacity> in_caps;
  std::vector<Capacity> out_caps;
  bool have_row = rows.Next(&row);
  if (have_row && IsLabel(row, "input_capacities")) {
    if (!ReadCapacities(rows, row, in_caps, out_caps, error)) {
      return std::nullopt;
    }
    have_row = rows.Next(&row);
  }
  if (!have_row || row != kCoflowHeader) {
    Fail(error, "missing coflow header row (coflow,arrival,mappers,reducers)");
    return std::nullopt;
  }
  std::vector<Flow> flows;
  PortId max_port = -1;
  while (rows.Next(&row)) {
    const std::string at = LineTag(rows.line());
    if (row.size() != 4) {
      Fail(error, at + "coflow row has " + std::to_string(row.size()) +
                      " fields, want 4 (coflow,arrival,mappers,reducers)");
      return std::nullopt;
    }
    CoflowId coflow = kNoCoflow;
    Round arrival = 0;
    if (!ParseInt(row[0], coflow) || coflow < 0 ||
        !ParseInt(row[1], arrival)) {
      Fail(error, at + "unparsable coflow id / arrival");
      return std::nullopt;
    }
    std::vector<PortId> mappers;
    for (const std::string& m : SplitSemicolons(row[2])) {
      PortId p = 0;
      if (!ParseInt(m, p) || p < 0 || p >= kMaxInferredPort) {
        Fail(error, at + "bad mapper port: " + m);
        return std::nullopt;
      }
      mappers.push_back(p);
      max_port = std::max(max_port, p);
    }
    if (mappers.empty()) {
      Fail(error, at + "coflow has no mappers");
      return std::nullopt;
    }
    // Each reducer's shuffle volume splits evenly over the mappers
    // (rounded up, min 1 unit) — the standard expansion of the Facebook
    // trace's per-reducer totals into per-flow demands.
    const auto num_mappers = static_cast<Capacity>(mappers.size());
    bool any_reducer = false;
    for (const std::string& r : SplitSemicolons(row[3])) {
      const auto colon = r.find(':');
      PortId q = 0;
      std::int64_t units = 0;
      if (colon == std::string::npos || !ParseInt(r.substr(0, colon), q) ||
          q < 0 || q >= kMaxInferredPort ||
          !ParseInt64(r.substr(colon + 1), units) || units < 1) {
        Fail(error, at + "unparsable reducer spec: " + r);
        return std::nullopt;
      }
      any_reducer = true;
      max_port = std::max(max_port, q);
      const Capacity demand =
          std::max<Capacity>(1, (units + num_mappers - 1) / num_mappers);
      for (PortId p : mappers) {
        Flow e;
        e.src = p;
        e.dst = q;
        e.demand = demand;
        e.release = arrival;
        e.coflow = coflow;
        flows.push_back(e);
      }
    }
    if (!any_reducer) {
      Fail(error, at + "coflow has no reducers");
      return std::nullopt;
    }
  }
  if (in_caps.empty()) {
    // No preamble: square switch over the referenced ports, capacity large
    // enough for the largest expanded flow demand. An empty trace leaves
    // nothing to size the switch from — reject it rather than abort in
    // SwitchSpec's zero-port check downstream.
    if (flows.empty()) {
      Fail(error,
           "coflow trace has no coflow rows and no capacity preamble to "
           "size the switch from");
      return std::nullopt;
    }
    Capacity cap = 1;
    for (const Flow& e : flows) cap = std::max(cap, e.demand);
    in_caps.assign(static_cast<std::size_t>(max_port) + 1, cap);
    out_caps = in_caps;
  }
  Instance instance(SwitchSpec(std::move(in_caps), std::move(out_caps)),
                    std::move(flows));
  if (auto verr = instance.ValidationError()) {
    Fail(error, *verr);
    return std::nullopt;
  }
  return instance;
}

void WriteScheduleCsv(const Schedule& schedule, std::ostream& out) {
  CsvWriter w(out);
  w.Row("flow_id", "round");
  for (FlowId e = 0; e < schedule.num_flows(); ++e) {
    w.Row(e, schedule.round_of(e));
  }
}

std::optional<Schedule> ReadScheduleCsv(const std::string& content,
                                        int num_flows, std::string* error) {
  std::istringstream in(content);
  CsvRowReader rows(in);
  std::vector<std::string> row;
  if (!rows.Next(&row) ||
      row != std::vector<std::string>{"flow_id", "round"}) {
    Fail(error, "missing schedule header");
    return std::nullopt;
  }
  Schedule schedule(num_flows);
  while (rows.Next(&row)) {
    const std::string at = LineTag(rows.line());
    int id = 0;
    int round = 0;
    if (row.size() != 2 || !ParseInt(row[0], id) || !ParseInt(row[1], round)) {
      Fail(error, at + "unparsable schedule row");
      return std::nullopt;
    }
    if (id < 0 || id >= num_flows) {
      Fail(error, at + "flow id out of range: " + row[0]);
      return std::nullopt;
    }
    if (round >= 0) schedule.Assign(id, round);
  }
  return schedule;
}

}  // namespace flowsched
