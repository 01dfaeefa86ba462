// Coflow-aware online scheduling policies.
//
// All three policies rank the backlog by *group* (PendingFlow::coflow;
// untagged flows count as singleton groups) and feed the resulting order
// into the existing per-round machinery — greedy packing for the
// priority-ordered policies, the Hungarian max-weight matcher for the
// weighted variant:
//
//   sebf       smallest-effective-bottleneck-first (Varys): groups are
//              served in ascending order of their remaining bottleneck —
//              the max over ports of ceil(pending group load / capacity) —
//              with FIFO arrival tie-breaks; lower-priority groups backfill
//              leftover capacity (work conservation).
//   maxweight  maximum-weight matching with per-edge weight
//              1 + 1 / (1 + remaining group demand): every weight is
//              positive (so the matching is maximal) and edges of
//              nearly-finished groups outbid edges of heavy ones, draining
//              small coflows first. Matching-based => unit demands only.
//   fifo       FIFO-of-coflows: groups are served strictly in arrival
//              order (earliest release any member was seen with), the
//              baseline Varys and Sincronia compare against.
//
// Group statistics are recomputed from the visible backlog each round, so
// the policies are genuinely online: they never peek at unreleased flows.
#ifndef FLOWSCHED_COFLOW_COFLOW_POLICIES_H_
#define FLOWSCHED_COFLOW_COFLOW_POLICIES_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/online/policy.h"
#include "core/online/simple_policies.h"
#include "graph/expansion.h"
#include "graph/max_weight_matching.h"

namespace flowsched {

// Per-round group statistics over the backlog, with slot bookkeeping that
// persists across rounds: each distinct coflow tag (or untagged flow) gets
// a dense slot on first sight and keeps it for the simulation, so steady-
// state rounds reuse all scratch. Update() recomputes which slots have
// pending flows, their remaining demand, their arrival round (earliest
// release ever seen — stable even after early members complete), and,
// on request, their effective bottleneck.
class CoflowBacklogStats {
 public:
  // Recomputes stats for this round's backlog. Bottlenecks cost an extra
  // O(backlog) bucket pass; policies that do not rank by them skip it.
  void Update(const SwitchSpec& sw, std::span<const PendingFlow> pending,
              bool with_bottlenecks);

  // Valid until the next Update(). Slots listed in touched() are exactly
  // those with at least one pending flow.
  int slot_of_pending(int i) const { return slot_of_pending_[i]; }
  const std::vector<int>& touched() const { return touched_; }
  Capacity rem(int slot) const { return rem_[slot]; }
  Round arrival(int slot) const { return arrival_[slot]; }
  Round bottleneck(int slot) const { return bottleneck_[slot]; }

  // Monotone creation stamp, refreshed when a retired slot is recycled.
  // Policies tie-break on this instead of the slot index: without
  // retirement (batch runs) stamp order equals slot order, and with it the
  // ordering stays stable when slots are reused for younger groups.
  long long seq(int slot) const { return seq_[slot]; }

  // Releases the slots of completed untagged flows / fully-drained coflow
  // groups back to a free list for recycling, keeping the map and slot
  // footprint proportional to the live backlog on unbounded streams. Call
  // between rounds (after the round's Update()). If a tag arrives again
  // after its group was retired, it is treated as a brand-new group.
  void Retire(std::span<const FlowId> completed_untagged,
              std::span<const CoflowId> drained_groups);

  // Forgets every slot (between simulations).
  void Clear();

 private:
  std::map<CoflowId, int> tag_slot_;   // Coflow tag -> persistent slot.
  std::map<FlowId, int> single_slot_;  // Untagged flow id -> slot.
  std::vector<Round> arrival_;         // Per slot, persistent.
  std::vector<Capacity> rem_;          // Per slot, touched slots only.
  std::vector<Round> bottleneck_;
  std::vector<long long> seq_;  // Per slot, see seq().
  std::vector<int> free_slots_;
  long long next_seq_ = 0;
  std::vector<int> touched_;
  std::vector<int> slot_of_pending_;
  // Bottleneck scratch: backlog bucketed by slot, then per-slot port loads
  // accumulated into (and zeroed back out of) the shared port arrays.
  std::vector<int> bucket_count_;
  std::vector<int> bucket_pos_;
  std::vector<int> by_slot_;
  std::vector<Capacity> in_load_;
  std::vector<Capacity> out_load_;
  std::vector<PortId> touched_in_;
  std::vector<PortId> touched_out_;
};

// Shared shape of the two priority-ordered policies: rank the touched
// groups, order the backlog by (group rank, release, id), greedily pack.
class CoflowGreedyPolicyBase : public GreedyPackPolicyBase {
 public:
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
  void Reset() override { stats_.Clear(); }
  void RetireFlows(std::span<const FlowId> completed_untagged,
                   std::span<const CoflowId> drained_groups) override {
    stats_.Retire(completed_untagged, drained_groups);
  }

 protected:
  virtual bool NeedsBottlenecks() const = 0;
  // Sorts `slots` (the touched list) into priority order, best first.
  virtual void RankGroups(std::vector<int>& slots) = 0;

  CoflowBacklogStats stats_;

 private:
  std::vector<int> slot_order_;
  std::vector<int> rank_;  // Per slot; valid for touched slots.
};

class CoflowSebfPolicy : public CoflowGreedyPolicyBase {
 public:
  std::string_view name() const override { return "coflow-sebf"; }

 protected:
  bool NeedsBottlenecks() const override { return true; }
  void RankGroups(std::vector<int>& slots) override;
};

class CoflowFifoPolicy : public CoflowGreedyPolicyBase {
 public:
  std::string_view name() const override { return "coflow-fifo"; }

 protected:
  bool NeedsBottlenecks() const override { return false; }
  void RankGroups(std::vector<int>& slots) override;
};

class CoflowMaxWeightPolicy : public SchedulingPolicy {
 public:
  std::string_view name() const override { return "coflow-maxweight"; }
  bool RequiresUnitDemands() const override { return true; }
  void SelectFlowsInto(const SwitchSpec& sw, Round t,
                       std::span<const PendingFlow> pending,
                       std::vector<int>* picked) override;
  void Reset() override { stats_.Clear(); }
  void RetireFlows(std::span<const FlowId> completed_untagged,
                   std::span<const CoflowId> drained_groups) override {
    stats_.Retire(completed_untagged, drained_groups);
  }
  PolicyMatchingStats matching_stats() const override;

 private:
  CoflowBacklogStats stats_;
  BacklogGraphBuilder builder_;
  MaxWeightMatcher matcher_;
  std::int64_t exact_solves_ = 0;
  std::vector<double> weight_;
};

// Factory mirroring MakePolicy: "sebf", "maxweight", "fifo". The seed is
// accepted for interface symmetry; all three policies are deterministic.
std::unique_ptr<SchedulingPolicy> MakeCoflowPolicy(std::string_view name,
                                                   std::uint64_t seed = 1);

// All policy names available through MakeCoflowPolicy.
std::vector<std::string> AllCoflowPolicyNames();

}  // namespace flowsched

#endif  // FLOWSCHED_COFLOW_COFLOW_POLICIES_H_
