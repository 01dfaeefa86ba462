#include "serve/streaming_metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>

#include "util/check.h"

namespace flowsched {
namespace {

// `p` is d.percentiles(), passed in so a channel shared by resp and cct
// walks its counts once per line.
void AppendDistribution(std::string& out, const char* prefix,
                        const StreamingDistribution& d,
                        const std::array<double, 3>& p) {
  auto field = [&](const char* suffix, double v) {
    out += ",\"";
    out += prefix;
    out += suffix;
    out += "\":";
    AppendNumber(out, v);
  };
  field("_count", static_cast<double>(d.total().count()));
  field("_mean", d.total().mean());
  field("_max", d.total().max());
  field("_p50", p[0]);
  field("_p95", p[1]);
  field("_p99", p[2]);
  field("_win_count", static_cast<double>(d.window().count()));
  field("_win_mean", d.window().mean());
  field("_win_max", d.window().max());
}

}  // namespace

void AppendNumber(std::string& out, double v) {
  char buf[32];  // General format at precision 10 prints what %.10g does.
  const auto end = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 10);
  out.append(buf, end.ptr);
}

void StreamingDistribution::Add(Round x) {
  FS_CHECK_GE(x, 0);
  total_.Add(static_cast<double>(x));
  window_.Add(static_cast<double>(x));
  const auto bin = static_cast<std::size_t>(std::min(x, kCountCap));
  if (bin >= counts_.size()) {
    // Doubling stops at 64 KB; past that the array takes its full size at
    // once. glibc maps blocks of 128 KB or more and raises its mmap
    // threshold when one is freed; that moved the engine's later large
    // vectors onto the heap and slowed a long-tail session (8 ports, a
    // 50,000-round outage) by about 12%.
    constexpr std::size_t kLastDoubled = 8192;
    const std::size_t size = std::bit_ceil(bin + 1);
    counts_.resize(size <= kLastDoubled ? size : kCountCap + 1);
    blocks_.resize((counts_.size() + kPercentileBlock - 1) / kPercentileBlock);
  }
  ++counts_[bin];
  ++blocks_[bin / kPercentileBlock];
}

std::array<double, 3> StreamingDistribution::percentiles() const {
  std::array<double, 3> out{};
  if (total_.count() == 0) return out;
  const auto bins = PercentileBins(counts_, total_.count(), blocks_);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = bins[i] == kCountCap ? total_.max() : bins[i];
  }
  return out;
}

const std::string& StreamingMetrics::StatsLine(Round t,
                                               std::size_t backlog) {
  line_ = "{\"round\":";
  AppendNumber(line_, static_cast<double>(t));
  line_ += ",\"backlog\":";
  AppendNumber(line_, static_cast<double>(backlog));
  const std::array<double, 3> resp = response_.percentiles();
  AppendDistribution(line_, "resp", response_, resp);
  AppendDistribution(line_, "cct", cct(), split_ ? cct_.percentiles() : resp);
  line_ += '}';
  response_.ResetWindow();
  cct_.ResetWindow();
  return line_;
}

}  // namespace flowsched
