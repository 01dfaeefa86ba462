#include "workload/arrival_source.h"

#include <algorithm>

namespace flowsched {

InstanceStreamSource::InstanceStreamSource(const Instance& instance)
    : instance_(&instance) {
  order_.reserve(instance.num_flows());
  for (const Flow& e : instance.flows()) order_.push_back(e.id);
  // Every generator emits flows in release order; sort only when not.
  const auto by_release = [&](FlowId a, FlowId b) {
    return instance.flow(a).release < instance.flow(b).release;
  };
  if (!std::is_sorted(order_.begin(), order_.end(), by_release)) {
    std::stable_sort(order_.begin(), order_.end(), by_release);
  }
  releases_.reserve(order_.size());
  for (FlowId id : order_) releases_.push_back(instance.flow(id).release);
}

void InstanceStreamSource::ArrivalsInto(Round t, std::span<const Flow>,
                                        std::vector<Flow>* out) {
  while (next_ < order_.size() && releases_[next_] <= t) {
    out->push_back(instance_->flow(order_[next_]));
    ++next_;
  }
}

Round InstanceStreamSource::NextArrivalRound(Round t) {
  // ArrivalsInto has consumed every release <= the last round it was
  // asked for, so the first unconsumed release is the next arrival.
  return next_ < order_.size() ? std::max(t, releases_[next_]) : t;
}

}  // namespace flowsched
