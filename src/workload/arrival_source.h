// ArrivalSource: what the round loop (core/online/round_engine.h) pulls
// arrivals from, one round at a time — replayed instances, the generator
// and trace streams of serve/stream_sources.h, and the adaptive §5
// adversaries of workload/adversarial.h.
//
// A source buffers at most a *bounded arrival window* (generator sources
// the next nonempty round they drew ahead to, the trace source one
// lookahead row), so nothing on the streaming path materializes the whole
// stream. Exhausted() and NextArrivalRound() may read or draw ahead within
// that window, which is why they are non-const; what they buffer is later
// emitted verbatim by ArrivalsInto(). A generator source consumes its RNG
// round by round in the batch generator's order, so streaming a finite
// spec is bit-identical to simulating its instance (locked by
// tests/serve/).
#ifndef FLOWSCHED_WORKLOAD_ARRIVAL_SOURCE_H_
#define FLOWSCHED_WORKLOAD_ARRIVAL_SOURCE_H_

#include <span>
#include <string>
#include <vector>

#include "model/instance.h"

namespace flowsched {

class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  // The switch the stream runs on; fixed for the source's lifetime.
  virtual const SwitchSpec& sw() const = 0;

  // Appends every not-yet-emitted flow released at rounds <= t to *out
  // (ids are assigned downstream, releases are clamped to the round the
  // loop admits them in). Called with strictly increasing t. `backlog`
  // holds the flows released but not yet scheduled — what an adaptive
  // adversary inspects; replayed and generated streams ignore it.
  virtual void ArrivalsInto(Round t, std::span<const Flow> backlog,
                            std::vector<Flow>* out) = 0;

  // True when no arrival remains at any round >= t. May scan or draw ahead
  // (bounded window) to answer.
  virtual bool Exhausted(Round t) = 0;

  // Earliest round >= t that carries an arrival; t when none is known.
  // Lets the loop fast-forward idle gaps instead of spinning round by
  // round. The default ("maybe right now") is the only safe answer for
  // adaptive adversaries, which must be polled every round.
  virtual Round NextArrivalRound(Round t) { return t; }

  // Sources that can fail mid-stream (trace parse errors, out-of-order
  // rows) report here; the loop stops pulling when ok() turns false.
  virtual bool ok() const { return true; }
  virtual std::string error() const { return std::string(); }
};

// Replays `instance` (borrowed; must outlive the source) in release order,
// stable by flow id — the admission order of every round loop, so the
// realized ids of a replay are positions in this order.
class InstanceStreamSource : public ArrivalSource {
 public:
  explicit InstanceStreamSource(const Instance& instance);

  const SwitchSpec& sw() const override { return instance_->sw(); }
  void ArrivalsInto(Round t, std::span<const Flow> backlog,
                    std::vector<Flow>* out) override;
  bool Exhausted(Round /*t*/) override { return next_ >= order_.size(); }
  Round NextArrivalRound(Round t) override;

 private:
  const Instance* instance_;
  std::vector<FlowId> order_;    // Flow ids sorted by (release, id).
  std::vector<Round> releases_;  // Aligned with order_, non-decreasing.
  std::size_t next_ = 0;
};

}  // namespace flowsched

#endif  // FLOWSCHED_WORKLOAD_ARRIVAL_SOURCE_H_
