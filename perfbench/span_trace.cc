#include "span_trace.h"

#include <chrono>
#include <cstring>
#include <fstream>

#include "util/check.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanTrace::Begin(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, open_.empty() ? -1 : open_.back(), op_, 0, 0});
  open_.push_back(id);
  spans_.back().start_ns = NowNs();
  return id;
}

void SpanTrace::End(int id) {
  const std::int64_t now = NowNs();
  FS_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  spans_[id].end_ns = now;
}

std::vector<std::int64_t> SpanTrace::Durations(const char* name) const {
  std::vector<std::int64_t> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.duration_ns());
  }
  return out;
}

double SpanTrace::TotalMs(const char* name, int op) const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.op == op && std::strcmp(s.name, name) == 0) total += s.duration_ns();
  }
  return static_cast<double>(total) / 1e6;
}

double SpanTrace::SelfMs(const char* name, int op) const {
  // Children close before their parent and never overlap one another, so
  // a parent's self time is its duration minus their summed durations.
  std::int64_t self = 0;
  for (const Span& s : spans_) {
    if (s.op != op) continue;
    if (std::strcmp(s.name, name) == 0) {
      self += s.duration_ns();
    } else if (s.parent >= 0 && std::strcmp(spans_[s.parent].name, name) == 0) {
      self -= s.duration_ns();
    }
  }
  return static_cast<double>(self) / 1e6;
}

bool SpanTrace::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id,name,parent,op,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.name << ',' << s.parent << ',' << s.op << ','
        << s.start_ns << ',' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
