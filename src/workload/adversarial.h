// Adversarial constructions behind the online lower bounds (paper §5.1,
// Figure 4).
//
// Both proofs argue "wlog" about which flows an online policy leaves
// pending; realizing them against an arbitrary policy requires an *adaptive*
// adversary that inspects the backlog the round loop hands every
// ArrivalSource (workload/arrival_source.h) each round.
#ifndef FLOWSCHED_WORKLOAD_ADVERSARIAL_H_
#define FLOWSCHED_WORKLOAD_ADVERSARIAL_H_

#include <span>
#include <vector>

#include "model/instance.h"
#include "workload/arrival_source.h"

namespace flowsched {

// Lemma 5.1 / Figure 4(a): unbounded average-response competitive ratio.
// Switch: 2 inputs {p1=0 (paper port 1), p4=1 (paper port 4)},
//         2 outputs {q2=0 (paper port 2), q3=1 (paper port 3)}.
// Rounds [0, T): release (p1,q2) and (p1,q3) each round — they conflict at
// p1, so any policy accumulates T backlogged flows. At round T the adversary
// commits to the output side with the larger backlog (wlog q3 in the paper)
// and streams (p4, q3) once per round for rounds [T, M).
class ArtLowerBoundAdversary : public ArrivalSource {
 public:
  ArtLowerBoundAdversary(int phase_rounds, int total_rounds);

  const SwitchSpec& sw() const override;
  void ArrivalsInto(Round t, std::span<const Flow> pending,
                    std::vector<Flow>* out) override;
  bool Exhausted(Round t) override { return t >= total_rounds_; }

  static SwitchSpec Switch() { return SwitchSpec::Uniform(2, 2, 1); }

  // The offline optimum schedules (p1, q_committed) on arrival during the
  // first phase, drains the other backlog in parallel with the stream, and
  // serves every stream flow on arrival.
  double OfflineTotalResponse() const;
  int num_flows() const { return 2 * phase_rounds_ + (total_rounds_ - phase_rounds_); }

 private:
  int phase_rounds_;  // T.
  int total_rounds_;  // M.
  int committed_output_ = -1;
};

// Lemma 5.2 / Figure 4(b): no online algorithm beats 3/2 for max response.
// Switch: 3 inputs {p1=0, p4=1, p7=2}, 4 outputs {q2=0, q3=1, q5=2, q6=3}.
// Round 0 releases (p1,q2), (p1,q3), (p4,q5), (p4,q6); round 1 releases two
// flows from p7 aimed at the outputs the policy left uncovered.
class MrtLowerBoundAdversary : public ArrivalSource {
 public:
  const SwitchSpec& sw() const override;
  void ArrivalsInto(Round t, std::span<const Flow> pending,
                    std::vector<Flow>* out) override;
  bool Exhausted(Round t) override { return t >= 2; }

  static SwitchSpec Switch() { return SwitchSpec::Uniform(3, 4, 1); }

  // The realized instance (known after round 1) always admits max response 2.
  static constexpr int kOfflineMaxResponse = 2;
};

// The fixed (non-adaptive) variants used by unit tests: the canonical
// instances from Figure 4 with the paper's "wlog" choice baked in.
Instance Fig4aInstance(int phase_rounds, int total_rounds);
Instance Fig4bInstance();

}  // namespace flowsched

#endif  // FLOWSCHED_WORKLOAD_ADVERSARIAL_H_
