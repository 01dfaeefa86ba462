#include "serve/streaming_metrics.h"

#include <cstdio>

namespace flowsched {
namespace {

void AppendNumber(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  out += buf;
}

void AppendField(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  AppendNumber(out, v);
}

void AppendDistribution(std::string& out, const char* prefix,
                        const StreamingDistribution& d) {
  std::string key(prefix);
  const std::size_t base = key.size();
  auto field = [&](const char* suffix, double v) {
    key.resize(base);
    key += suffix;
    AppendField(out, key.c_str(), v);
  };
  field("_count", static_cast<double>(d.total().count()));
  field("_mean", d.total().mean());
  field("_max", d.total().max());
  field("_p50", d.p50());
  field("_p95", d.p95());
  field("_p99", d.p99());
  field("_win_count", static_cast<double>(d.window().count()));
  field("_win_mean", d.window().mean());
  field("_win_max", d.window().max());
}

}  // namespace

void StreamingDistribution::Add(double x) {
  total_.Add(x);
  window_.Add(x);
  p50_.Add(x);
  p95_.Add(x);
  p99_.Add(x);
}

std::string StreamingMetrics::StatsLine(Round t, std::size_t backlog) {
  std::string out = "{\"round\":";
  AppendNumber(out, static_cast<double>(t));
  AppendField(out, "backlog", static_cast<double>(backlog));
  AppendDistribution(out, "resp", response_);
  AppendDistribution(out, "cct", cct());
  out += '}';
  response_.ResetWindow();
  cct_.ResetWindow();
  return out;
}

}  // namespace flowsched
