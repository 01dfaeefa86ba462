// CSV import/export of instances and schedules (for the trace_replay example
// and for interoperability with plotting scripts).
//
// Instance format:   header "src,dst,demand,release" then one row per flow.
//                    Instances carrying coflow tags write (and the reader
//                    accepts) a fifth "coflow" column; kNoCoflow rows write
//                    an empty field.
// Capacities format: first row "input_capacities", second row the values,
//                    then "output_capacities" and its values.
// Schedule format:   header "flow_id,round" then one row per flow.
//
// Coflow trace format (ReadCoflowTraceCsv): one row per coflow, following
// the Facebook/Varys trace column convention (coflow id, arrival time,
// mapper list, reducer list with per-reducer shuffle volume):
//
//   coflow,arrival,mappers,reducers
//   1,0,0;2;5,1:6;3:2
//
// "mappers" is a ';'-separated list of input ports; "reducers" a
// ';'-separated list of output_port:units pairs. Each (mapper, reducer)
// pair becomes one flow with demand ceil(units / num_mappers) (min 1),
// released at the coflow's arrival round and tagged with the coflow id.
// An optional capacity preamble (same four rows as the instance format) may
// precede the header; without one, a square unit-capacity switch spanning
// the largest referenced port is assumed — with capacity raised to the
// largest per-flow demand so the trace always validates.
#ifndef FLOWSCHED_MODEL_TRACE_IO_H_
#define FLOWSCHED_MODEL_TRACE_IO_H_

#include <optional>
#include <string>
#include <vector>

#include "model/instance.h"
#include "model/schedule.h"
#include "util/csv.h"

namespace flowsched {

void WriteInstanceCsv(const Instance& instance, std::ostream& out);

// Line-at-a-time instance-CSV reader: the streaming primitive behind both
// batch loading (ReadInstanceCsv collects every row) and the serve-path
// trace source (src/serve/), which pulls one row per arrival and never
// materializes the file. The constructor consumes the capacity preamble
// and the flow header; NextFlow() then yields one flow per row. Row-level
// errors carry the exact 1-based line number (blank lines included —
// CsvRowReader counts physical lines).
class InstanceCsvReader {
 public:
  // Reads the preamble + header from `in`; on malformed input ok() turns
  // false and error() explains. `in` must outlive the reader.
  explicit InstanceCsvReader(std::istream& in);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  const SwitchSpec& sw() const { return sw_; }
  bool with_coflow() const { return with_coflow_; }

  // Parses the next flow row into *flow (id left untouched — callers
  // number flows). Returns false at end of input or on a malformed row,
  // including one that does not fit the switch (FlowFitError: port range,
  // 1 <= demand <= kappa); check ok() to distinguish.
  bool NextFlow(Flow* flow);

  // 1-based line number of the row the last NextFlow() returned.
  long long line() const { return rows_.line(); }

 private:
  CsvRowReader rows_;
  SwitchSpec sw_;
  bool with_coflow_ = false;
  std::string error_;
  std::vector<std::string> row_;
};

// Parses an instance written by WriteInstanceCsv. Returns nullopt and fills
// `error` (if non-null) on malformed input; row-level errors carry the
// row's 1-based physical line number.
std::optional<Instance> ReadInstanceCsv(const std::string& content,
                                        std::string* error = nullptr);

// Parses a coflow trace (format above) into an instance with tagged flows.
// Returns nullopt and fills `error` (if non-null) on malformed input;
// row-level errors carry the row's 1-based physical line number.
std::optional<Instance> ReadCoflowTraceCsv(const std::string& content,
                                           std::string* error = nullptr);

// True when `content` starts with a coflow-trace header (with or without
// the capacity preamble) within its first few dozen physical lines; instance
// loaders use this to route files.
bool LooksLikeCoflowTrace(const std::string& content);

void WriteScheduleCsv(const Schedule& schedule, std::ostream& out);

std::optional<Schedule> ReadScheduleCsv(const std::string& content,
                                        int num_flows,
                                        std::string* error = nullptr);

}  // namespace flowsched

#endif  // FLOWSCHED_MODEL_TRACE_IO_H_
