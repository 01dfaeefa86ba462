#include "coflow/coflow_policies.h"

#include <algorithm>

#include "util/check.h"

namespace flowsched {

void CoflowBacklogStats::Clear() {
  tag_slot_.Clear();
  single_slot_.Clear();
  arrival_.clear();
  rem_.clear();
  bottleneck_.clear();
  seq_.clear();
  free_slots_.clear();
  next_seq_ = 0;
  bucket_count_.clear();
  touched_.clear();
}

void CoflowBacklogStats::Retire(std::span<const FlowId> completed_untagged,
                                std::span<const CoflowId> drained_groups) {
  // Retired slots may still sit in this round's touched_ list; the next
  // Update() zeroes their bucket_count_ marks before any slot is handed
  // out again, so recycling is race-free with the zeroing trick.
  int slot = 0;
  for (FlowId id : completed_untagged) {
    if (single_slot_.Erase(id, &slot)) free_slots_.push_back(slot);
  }
  for (CoflowId tag : drained_groups) {
    if (tag_slot_.Erase(tag, &slot)) free_slots_.push_back(slot);
  }
}

void CoflowBacklogStats::Update(const SwitchSpec& sw,
                                std::span<const PendingFlow> pending,
                                bool with_bottlenecks) {
  slot_of_pending_.resize(pending.size());
  // Zero only last round's marks — slots never retire, so a full
  // bucket_count_ sweep would make every round O(total groups ever seen)
  // instead of O(backlog). Slots created this round arrive zero-filled
  // from the resize below.
  for (int slot : touched_) bucket_count_[slot] = 0;
  touched_.clear();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingFlow& f = pending[i];
    auto& by_key = f.coflow == kNoCoflow ? single_slot_ : tag_slot_;
    const int key = f.coflow == kNoCoflow ? f.id : f.coflow;
    // New keys recycle a retired slot when one is free (streaming), else
    // extend the arrays (batch: Retire() is never called, so allocation
    // order — and hence seq order — matches slot order exactly).
    const int fresh = free_slots_.empty() ? static_cast<int>(arrival_.size())
                                          : free_slots_.back();
    const auto [slot, inserted] = by_key.TryEmplace(key, fresh);
    if (inserted) {
      if (!free_slots_.empty()) {
        free_slots_.pop_back();
        arrival_[slot] = f.release;
      } else {
        arrival_.push_back(f.release);
        rem_.push_back(0);
        bottleneck_.push_back(0);
        seq_.push_back(0);
      }
      seq_[slot] = next_seq_++;
    } else {
      arrival_[slot] = std::min(arrival_[slot], f.release);
    }
    slot_of_pending_[i] = slot;
  }
  // Second pass resets each touched slot's accumulator on first sight
  // (bucket_count_ doubles as the per-slot marker), so stale values from
  // earlier rounds never leak in.
  if (bucket_count_.size() < arrival_.size()) {
    bucket_count_.resize(arrival_.size(), 0);
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const int slot = slot_of_pending_[i];
    if (bucket_count_[slot] == 0) {
      touched_.push_back(slot);
      rem_[slot] = 0;
    }
    ++bucket_count_[slot];
    rem_[slot] += pending[i].demand;
  }
  if (!with_bottlenecks) return;

  // Bucket the backlog by slot, then accumulate each group's port loads in
  // the shared arrays (zeroed back out afterwards, so cost tracks the
  // touched ports, not the switch size). Only touched slots' entries are
  // written and read, so untouched ones may hold stale cursors.
  if (bucket_pos_.size() < arrival_.size()) bucket_pos_.resize(arrival_.size());
  int cursor = 0;
  for (int slot : touched_) {
    bucket_pos_[slot] = cursor;
    cursor += bucket_count_[slot];
  }
  by_slot_.resize(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    by_slot_[bucket_pos_[slot_of_pending_[i]]++] = static_cast<int>(i);
  }
  if (static_cast<int>(in_load_.size()) != sw.num_inputs()) {
    in_load_.assign(sw.num_inputs(), 0);
  }
  if (static_cast<int>(out_load_.size()) != sw.num_outputs()) {
    out_load_.assign(sw.num_outputs(), 0);
  }
  int start = 0;
  for (int slot : touched_) {
    touched_in_.clear();
    touched_out_.clear();
    const int end = start + bucket_count_[slot];
    for (int k = start; k < end; ++k) {
      const PendingFlow& f = pending[by_slot_[k]];
      if (in_load_[f.src] == 0) touched_in_.push_back(f.src);
      in_load_[f.src] += f.demand;
      if (out_load_[f.dst] == 0) touched_out_.push_back(f.dst);
      out_load_[f.dst] += f.demand;
    }
    Round bottleneck = 1;
    for (PortId p : touched_in_) {
      const Capacity cap = sw.input_capacity(p);
      bottleneck = std::max(
          bottleneck, static_cast<Round>((in_load_[p] + cap - 1) / cap));
      in_load_[p] = 0;
    }
    for (PortId q : touched_out_) {
      const Capacity cap = sw.output_capacity(q);
      bottleneck = std::max(
          bottleneck, static_cast<Round>((out_load_[q] + cap - 1) / cap));
      out_load_[q] = 0;
    }
    bottleneck_[slot] = bottleneck;
    start = end;
  }
}

void CoflowGreedyPolicyBase::SelectFlowsInto(
    const SwitchSpec& sw, Round /*t*/, std::span<const PendingFlow> pending,
    std::vector<int>* picked) {
  picked->clear();
  if (pending.empty()) return;
  stats_.Update(sw, pending, NeedsBottlenecks());

  slot_order_ = stats_.touched();
  RankGroups(slot_order_);
  int max_slot = -1;
  for (int slot : slot_order_) max_slot = std::max(max_slot, slot);
  if (static_cast<int>(rank_.size()) <= max_slot) rank_.resize(max_slot + 1);
  for (std::size_t r = 0; r < slot_order_.size(); ++r) {
    rank_[slot_order_[r]] = static_cast<int>(r);
  }

  // The same work-conserving backfill FIFO/SRPT use, here over the
  // group-priority order.
  SortAndPack(
      sw, pending,
      [&](int a, int b) {
        const int ra = rank_[stats_.slot_of_pending(a)];
        const int rb = rank_[stats_.slot_of_pending(b)];
        if (ra != rb) return ra < rb;
        if (pending[a].release != pending[b].release) {
          return pending[a].release < pending[b].release;
        }
        return pending[a].id < pending[b].id;
      },
      picked);
}

void CoflowSebfPolicy::RankGroups(std::vector<int>& slots) {
  std::sort(slots.begin(), slots.end(), [&](int a, int b) {
    if (stats_.bottleneck(a) != stats_.bottleneck(b)) {
      return stats_.bottleneck(a) < stats_.bottleneck(b);
    }
    if (stats_.arrival(a) != stats_.arrival(b)) {
      return stats_.arrival(a) < stats_.arrival(b);
    }
    return stats_.seq(a) < stats_.seq(b);
  });
}

void CoflowFifoPolicy::RankGroups(std::vector<int>& slots) {
  std::sort(slots.begin(), slots.end(), [&](int a, int b) {
    if (stats_.arrival(a) != stats_.arrival(b)) {
      return stats_.arrival(a) < stats_.arrival(b);
    }
    return stats_.seq(a) < stats_.seq(b);
  });
}

void CoflowMaxWeightPolicy::SelectFlowsInto(
    const SwitchSpec& sw, Round /*t*/, std::span<const PendingFlow> pending,
    std::vector<int>* picked) {
  picked->clear();
  if (pending.empty()) return;
  stats_.Update(sw, pending, /*with_bottlenecks=*/false);
  const BipartiteGraph& g = builder_.Build(sw, pending);
  weight_.resize(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const auto rem =
        static_cast<double>(stats_.rem(stats_.slot_of_pending(i)));
    // Positive everywhere (=> the matching is maximal); the 1/(1+rem) term
    // makes edges of nearly-drained groups outbid edges of heavy ones.
    weight_[i] = 1.0 + 1.0 / (1.0 + rem);
  }
  ++exact_solves_;
  matcher_.Solve(g, weight_, picked);
}

PolicyMatchingStats CoflowMaxWeightPolicy::matching_stats() const {
  PolicyMatchingStats s;
  s.matcher_solves = exact_solves_;
  s.matcher_full_solves = exact_solves_;
  return s;
}

std::unique_ptr<SchedulingPolicy> MakeCoflowPolicy(std::string_view name,
                                                   std::uint64_t /*seed*/) {
  if (name == "sebf") return std::make_unique<CoflowSebfPolicy>();
  if (name == "maxweight") return std::make_unique<CoflowMaxWeightPolicy>();
  if (name == "fifo") return std::make_unique<CoflowFifoPolicy>();
  FS_CHECK_MSG(false, "unknown coflow policy: " << std::string(name));
  return nullptr;
}

std::vector<std::string> AllCoflowPolicyNames() {
  return {"sebf", "maxweight", "fifo"};
}

}  // namespace flowsched
