#include "model/switch_spec.h"

#include <algorithm>

#include "util/check.h"

namespace flowsched {

SwitchSpec::SwitchSpec(std::vector<Capacity> input_capacities,
                       std::vector<Capacity> output_capacities)
    : input_capacity_(std::move(input_capacities)),
      output_capacity_(std::move(output_capacities)) {
  FS_CHECK_MSG(!input_capacity_.empty(),
               "SwitchSpec needs at least one input port");
  FS_CHECK_MSG(!output_capacity_.empty(),
               "SwitchSpec needs at least one output port");
  for (std::size_t p = 0; p < input_capacity_.size(); ++p) {
    FS_CHECK_MSG(input_capacity_[p] >= 1,
                 "SwitchSpec input port " << p << " has non-positive capacity "
                     << input_capacity_[p]
                     << " (capacities must be >= 1; model an outage with a "
                        "scenario script, see docs/scenarios.md)");
  }
  for (std::size_t q = 0; q < output_capacity_.size(); ++q) {
    FS_CHECK_MSG(output_capacity_[q] >= 1,
                 "SwitchSpec output port " << q << " has non-positive capacity "
                     << output_capacity_[q]
                     << " (capacities must be >= 1; model an outage with a "
                        "scenario script, see docs/scenarios.md)");
  }
}

SwitchSpec SwitchSpec::Uniform(int num_inputs, int num_outputs, Capacity cap) {
  FS_CHECK_GE(num_inputs, 1);
  FS_CHECK_GE(num_outputs, 1);
  FS_CHECK_GE(cap, 1);
  return SwitchSpec(std::vector<Capacity>(num_inputs, cap),
                    std::vector<Capacity>(num_outputs, cap));
}

Capacity SwitchSpec::Kappa(const Flow& e) const {
  FS_CHECK(e.src >= 0 && e.src < num_inputs());
  FS_CHECK(e.dst >= 0 && e.dst < num_outputs());
  return std::min(input_capacity_[e.src], output_capacity_[e.dst]);
}

Capacity SwitchSpec::MinCapacity() const {
  return std::min(*std::min_element(input_capacity_.begin(), input_capacity_.end()),
                  *std::min_element(output_capacity_.begin(), output_capacity_.end()));
}

Capacity SwitchSpec::MaxCapacity() const {
  return std::max(*std::max_element(input_capacity_.begin(), input_capacity_.end()),
                  *std::max_element(output_capacity_.begin(), output_capacity_.end()));
}

}  // namespace flowsched
