// CDF-driven realistic workloads: load-calibrated Poisson arrivals with
// empirical flow sizes (traffic/size_cdf.h), à la HPCC's traffic_gen.
//
// Each round draws Poisson(lambda) *requests*; a request picks uniform
// random ports and a size from the CDF, then expands into
// max(1, ceil(size / unit)) unit-demand member flows released together —
// the segmented form every matching-based policy accepts. With
// max_width >= 1 a request is instead a coflow: `width` members (truncated
// geometric, like workload/coflow_gen.h), each with its own ports and size,
// all tagged with a fresh coflow id.
//
// Calibration: lambda is derived from the requested per-port load so that
//   E[unit-demand arrivals per round] = load * num_inputs * port_capacity,
// i.e. lambda = load * inputs * cap / (E[width] * E[segments]) with
// E[segments] = cdf.MeanSegments(unit) computed exactly.
#ifndef FLOWSCHED_TRAFFIC_TRAFFIC_GEN_H_
#define FLOWSCHED_TRAFFIC_TRAFFIC_GEN_H_

#include <cstdint>
#include <vector>

#include "model/instance.h"
#include "traffic/size_cdf.h"
#include "util/rng.h"

namespace flowsched {

struct TrafficConfig {
  int num_inputs = 16;
  int num_outputs = 16;
  Capacity port_capacity = 1;
  double load = 0.9;  // Target offered load per input port, in [0, ...).
  SizeCdf cdf;
  // Bytes per unit-demand segment; 0 = auto: max(mean/4, max/64), which
  // bounds a single request at 64 segments and keeps the sampled offered
  // load within a fraction of a percent of the target.
  double unit = 0.0;
  int num_rounds = 10;
  // Coflow tagging: max_width = 0 leaves flows untagged. Otherwise width is
  // drawn from [min_width, max_width] with P(w) ~ width_skew^(w-min_width).
  int min_width = 1;
  int max_width = 0;
  double width_skew = 1.0;
  std::uint64_t seed = 1;
};

// The resolved segment size (config.unit, or the auto rule when 0).
double TrafficUnit(const TrafficConfig& config);

// Generates a realistic-traffic instance; deterministic in `config.seed`.
Instance GenerateTraffic(const TrafficConfig& config);

// Appends round t's arrivals to *out (release = t, ids left at 0, coflow
// tags allocated from *next_coflow when tagging), drawing from `rng`
// exactly as GenerateTraffic does for one round — the sharing point with
// the streaming source (src/serve/), which replays the identical instance
// on finite runs. `config.num_rounds` is ignored; pacing belongs to the
// caller. Precondition: config already validated (GenerateTraffic checks).
void AppendTrafficRound(const TrafficConfig& config, Round t, Rng& rng,
                        CoflowId* next_coflow, std::vector<Flow>* out);

}  // namespace flowsched

#endif  // FLOWSCHED_TRAFFIC_TRAFFIC_GEN_H_
