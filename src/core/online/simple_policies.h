// Baseline policies beyond the paper's three: FIFO-greedy packing (works for
// general demands) and uniformly random greedy packing.
#ifndef FLOWSCHED_CORE_ONLINE_SIMPLE_POLICIES_H_
#define FLOWSCHED_CORE_ONLINE_SIMPLE_POLICIES_H_

#include <algorithm>
#include <numeric>

#include "core/online/policy.h"
#include "util/rng.h"

namespace flowsched {

// The greedy packing every priority-ordered policy shares (fifo, random,
// srpt, coflow sebf and fifo): put the backlog in the policy's order, then
// take each flow that still fits the residual port capacities. The order
// buffer and the residuals are reused across rounds, so packing allocates
// only while the backlog grows past its previous peak.
class GreedyPackPolicyBase : public SchedulingPolicy {
 protected:
  // Packs `pending` in the order `before` (a strict total order over
  // pending indices) into *picked. The simulators keep the backlog in
  // admission order, which often is the policy's order already; then the
  // sort is skipped. A total order has one sorted permutation, so the
  // unstable in-place std::sort gives what a stable sort would.
  template <class Before>
  void SortAndPack(const SwitchSpec& sw, std::span<const PendingFlow> pending,
                   Before before, std::vector<int>* picked) {
    order_.resize(pending.size());
    std::iota(order_.begin(), order_.end(), 0);
    if (!std::is_sorted(order_.begin(), order_.end(), before)) {
      std::sort(order_.begin(), order_.end(), before);
    }
    Pack(sw, pending, picked);
  }

  // Overwrites *picked with the flows of order_ (pending indices) that fit
  // the residual capacities, taken in order.
  void Pack(const SwitchSpec& sw, std::span<const PendingFlow> pending,
            std::vector<int>* picked);

  std::vector<int> order_;

 private:
  std::vector<Capacity> in_res_;
  std::vector<Capacity> out_res_;
};

// Scans the backlog by (release, id) and packs every flow that still fits
// the residual capacities. 3-2/m-competitive flavor of FIFO for Rmax.
class FifoGreedyPolicy : public GreedyPackPolicyBase {
 public:
  std::string_view name() const override { return "fifo"; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
};

// Greedy packing in uniformly random order; a sanity floor for experiments.
class RandomPolicy : public GreedyPackPolicyBase {
 public:
  explicit RandomPolicy(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  std::string_view name() const override { return "random"; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
  void Reset() override { rng_ = Rng(seed_); }

 private:
  std::uint64_t seed_;
  Rng rng_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_CORE_ONLINE_SIMPLE_POLICIES_H_
