// In-memory span recorder for the traced benchmark run.
//
// Spans are taken by the benchmark's own code around calls into the
// flowsched layers (the program itself is not instrumented). Each span has
// a name, a start and end on the steady clock, the id of the span that was
// open when it began (its parent) and the operation it belongs to, so all
// spans of one solve or session share an identifier. Spans stay in memory
// until the run ends; WriteCsv() then dumps them in one go.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // A string literal naming the layer call.
  int parent = -1;        // Index of the enclosing span; -1 at top level.
  int op = 0;             // Operation (solve / session) the span belongs to.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

std::int64_t NowNs();

class SpanTrace {
 public:
  // Opens a span under the innermost open one; returns its id.
  int Begin(const char* name);
  // Closes the innermost open span, which must be `id`.
  void End(int id);
  // Later spans carry this operation id.
  void set_op(int op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations in nanoseconds of every span called `name`, in record order.
  std::vector<std::int64_t> Durations(const char* name) const;
  // Summed duration of the spans called `name` in operation `op`, in ms.
  double TotalMs(const char* name, int op) const;
  // Summed self time of the spans called `name` in operation `op`, in ms:
  // each span's duration minus the time its direct children cover.
  double SelfMs(const char* name, int op) const;

  // One line per span: id,name,parent,op,start_ns,end_ns. False when the
  // file cannot be written.
  bool WriteCsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = 0;
};

// RAII span; a null trace records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const char* name)
      : trace_(trace), id_(trace != nullptr ? trace->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
