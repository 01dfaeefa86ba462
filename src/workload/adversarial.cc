#include "workload/adversarial.h"

#include "util/check.h"

namespace flowsched {

ArtLowerBoundAdversary::ArtLowerBoundAdversary(int phase_rounds,
                                               int total_rounds)
    : phase_rounds_(phase_rounds), total_rounds_(total_rounds) {
  FS_CHECK_GE(phase_rounds, 1);
  FS_CHECK_GT(total_rounds, phase_rounds);
}

const SwitchSpec& ArtLowerBoundAdversary::sw() const {
  static const SwitchSpec sw = Switch();
  return sw;
}

void ArtLowerBoundAdversary::ArrivalsInto(Round t,
                                          std::span<const Flow> pending,
                                          std::vector<Flow>* out) {
  if (t < phase_rounds_) {
    // Two conflicting flows at input 0 per round.
    out->push_back(Flow{0, 0, 0, 1, t});
    out->push_back(Flow{0, 0, 1, 1, t});
    return;
  }
  if (t >= total_rounds_) return;
  if (committed_output_ == -1) {
    // Commit to the output side with the larger backlog (the proof's
    // "wlog port 3"). At least T flows are pending: input 0 admits only one
    // flow per round, so at least half target one output.
    int count[2] = {0, 0};
    for (const Flow& e : pending) {
      if (e.src == 0) ++count[e.dst];
    }
    committed_output_ = count[1] >= count[0] ? 1 : 0;
  }
  out->push_back(Flow{0, 1, committed_output_, 1, t});
}

double ArtLowerBoundAdversary::OfflineTotalResponse() const {
  // The offline schedule: during [0, T) run the committed-output flow on
  // arrival (response 1); during [T, 2T) drain the other-output backlog
  // (response T + 1 each) in parallel with the stream, which is served on
  // arrival (response 1). This is an upper bound on OPT, which suffices for
  // competitive-ratio *lower* bounds.
  const double t_rounds = phase_rounds_;
  const double stream = total_rounds_ - phase_rounds_;
  return t_rounds * 1.0 + t_rounds * (t_rounds + 1.0) + stream * 1.0;
}

const SwitchSpec& MrtLowerBoundAdversary::sw() const {
  static const SwitchSpec sw = Switch();
  return sw;
}

void MrtLowerBoundAdversary::ArrivalsInto(Round t,
                                          std::span<const Flow> pending,
                                          std::vector<Flow>* out) {
  if (t == 0) {
    out->push_back(Flow{0, 0, 0, 1, 0});
    out->push_back(Flow{0, 0, 1, 1, 0});
    out->push_back(Flow{0, 1, 2, 1, 0});
    out->push_back(Flow{0, 1, 3, 1, 0});
    return;
  }
  if (t == 1) {
    // Target the outputs of flows the policy left pending (one per input;
    // if the policy idled, both remain and either choice works).
    PortId x = 0;
    PortId y = 2;
    for (const Flow& e : pending) {
      if (e.src == 0) x = e.dst;
      if (e.src == 1) y = e.dst;
    }
    out->push_back(Flow{0, 2, x, 1, 1});
    out->push_back(Flow{0, 2, y, 1, 1});
  }
}

Instance Fig4aInstance(int phase_rounds, int total_rounds) {
  FS_CHECK_GE(phase_rounds, 1);
  FS_CHECK_GT(total_rounds, phase_rounds);
  Instance instance(ArtLowerBoundAdversary::Switch(), {});
  for (Round t = 0; t < phase_rounds; ++t) {
    instance.AddFlow(0, 0, 1, t);
    instance.AddFlow(0, 1, 1, t);
  }
  for (Round t = phase_rounds; t < total_rounds; ++t) {
    instance.AddFlow(1, 1, 1, t);  // The "wlog" committed stream.
  }
  return instance;
}

Instance Fig4bInstance() {
  Instance instance(MrtLowerBoundAdversary::Switch(), {});
  instance.AddFlow(0, 0, 1, 0);
  instance.AddFlow(0, 1, 1, 0);
  instance.AddFlow(1, 2, 1, 0);
  instance.AddFlow(1, 3, 1, 0);
  instance.AddFlow(2, 1, 1, 1);  // Paper's (7,3).
  instance.AddFlow(2, 2, 1, 1);  // Paper's (7,5).
  return instance;
}

}  // namespace flowsched
