// Generator- and trace-backed ArrivalSources (workload/arrival_source.h,
// which also holds InstanceStreamSource, the replay of a materialized
// Instance):
//
//   PoissonStreamSource    draws workload/poisson.h rounds on demand; with
//                          a negative horizon the stream never ends.
//   CoflowStreamSource     likewise for workload/coflow_gen.h.
//   TrafficStreamSource    likewise for traffic/traffic_gen.h (CDF-driven
//                          realistic workloads).
//   TraceStreamSource      reads instance-CSV rows line by line through
//                          model/trace_io.h's InstanceCsvReader; rows must
//                          be sorted by release (generator-written traces
//                          are), out-of-order rows are a stream error.
//
// Generator sources draw whole rounds in round order — the same RNG
// consumption as the batch generators — and buffer only the latest drawn,
// not-yet-emitted arrivals (at most one nonempty round ahead).
#ifndef FLOWSCHED_SERVE_STREAM_SOURCES_H_
#define FLOWSCHED_SERVE_STREAM_SOURCES_H_

#include <istream>
#include <type_traits>
#include <vector>

#include "model/trace_io.h"
#include "traffic/traffic_gen.h"
#include "util/rng.h"
#include "workload/arrival_source.h"
#include "workload/coflow_gen.h"
#include "workload/poisson.h"

namespace flowsched {

// Shared draw-ahead machinery of the generator-backed sources. The horizon
// is the number of rounds the generator runs for; negative means unbounded
// (rounds=inf specs). Unbounded streams require a positive arrival rate —
// otherwise the draw-ahead scan for the next nonempty round would never
// terminate; MakeStreamSource enforces that.
class RoundGeneratorSource : public ArrivalSource {
 public:
  const SwitchSpec& sw() const override { return sw_; }
  void ArrivalsInto(Round t, std::span<const Flow> backlog,
                    std::vector<Flow>* out) override;
  bool Exhausted(Round t) override;
  Round NextArrivalRound(Round t) override;

 protected:
  RoundGeneratorSource(SwitchSpec sw, Round horizon)
      : sw_(std::move(sw)), horizon_(horizon) {}

  // Appends round t's arrivals (release = t) to *out.
  virtual void DrawRound(Round t, std::vector<Flow>* out) = 0;

 private:
  bool DrawingDone() const { return horizon_ >= 0 && next_draw_ >= horizon_; }
  void DrawThrough(Round t);
  void DrawUntilNonEmpty();

  SwitchSpec sw_;
  Round horizon_;
  Round next_draw_ = 0;
  std::vector<Flow> buffer_;  // Drawn, unemitted; releases non-decreasing.
};

// The source over one batch generator, named by its config type; each
// round is drawn by that generator's Append*Round primitive.
// config.num_rounds is ignored (the horizon rules); a TrafficConfig must
// pass GenerateTraffic's validation.
template <class Config>
class GeneratorStreamSource : public RoundGeneratorSource {
 public:
  GeneratorStreamSource(const Config& config, Round horizon)
      : RoundGeneratorSource(
            SwitchSpec::Uniform(config.num_inputs, config.num_outputs,
                                config.port_capacity),
            horizon),
        config_(config),
        rng_(config.seed) {}

 protected:
  void DrawRound(Round t, std::vector<Flow>* out) override {
    if constexpr (std::is_same_v<Config, PoissonConfig>) {
      AppendPoissonRound(config_, t, rng_, out);
    } else if constexpr (std::is_same_v<Config, CoflowGenConfig>) {
      AppendCoflowRound(config_, t, rng_, &next_coflow_, out);
    } else {
      AppendTrafficRound(config_, t, rng_, &next_coflow_, out);
    }
  }

 private:
  Config config_;
  Rng rng_;
  CoflowId next_coflow_ = 0;  // Unused by the Poisson generator.
};

using PoissonStreamSource = GeneratorStreamSource<PoissonConfig>;
using CoflowStreamSource = GeneratorStreamSource<CoflowGenConfig>;
using TrafficStreamSource = GeneratorStreamSource<TrafficConfig>;

// Streams instance-CSV rows from `in` (borrowed; must outlive the source)
// without materializing the file. Requires rows sorted by release; a
// malformed or out-of-order row flips ok() and ends the stream.
class TraceStreamSource : public ArrivalSource {
 public:
  explicit TraceStreamSource(std::istream& in);

  const SwitchSpec& sw() const override { return reader_.sw(); }
  void ArrivalsInto(Round t, std::span<const Flow> backlog,
                    std::vector<Flow>* out) override;
  bool Exhausted(Round /*t*/) override { return !have_lookahead_; }
  Round NextArrivalRound(Round t) override;
  bool ok() const override { return error_.empty(); }
  std::string error() const override { return error_; }

 private:
  void Pull();  // Advances the one-row lookahead.

  InstanceCsvReader reader_;
  Flow lookahead_;
  bool have_lookahead_ = false;
  std::string error_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_SERVE_STREAM_SOURCES_H_
