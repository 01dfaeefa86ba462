// SwitchSpec: the bipartite switch S(m, m') with per-port capacities.
#ifndef FLOWSCHED_MODEL_SWITCH_SPEC_H_
#define FLOWSCHED_MODEL_SWITCH_SPEC_H_

#include <vector>

#include "model/flow.h"

namespace flowsched {

// An m-input, m'-output non-blocking switch. Port capacities bound the total
// demand that may cross a port in one round. Inputs and outputs are separate
// index spaces, both starting at 0.
class SwitchSpec {
 public:
  SwitchSpec() = default;
  SwitchSpec(std::vector<Capacity> input_capacities,
             std::vector<Capacity> output_capacities);

  // An m x m' switch with every port capacity equal to `cap` (the paper's
  // experiments use cap = 1 on a 150 x 150 switch).
  static SwitchSpec Uniform(int num_inputs, int num_outputs, Capacity cap = 1);

  int num_inputs() const { return static_cast<int>(input_capacity_.size()); }
  int num_outputs() const { return static_cast<int>(output_capacity_.size()); }

  Capacity input_capacity(PortId p) const { return input_capacity_[p]; }
  Capacity output_capacity(PortId q) const { return output_capacity_[q]; }

  const std::vector<Capacity>& input_capacities() const {
    return input_capacity_;
  }
  const std::vector<Capacity>& output_capacities() const {
    return output_capacity_;
  }

  // kappa_e = min(c_p, c_q) for flow e = (p, q).
  Capacity Kappa(const Flow& e) const;

  Capacity MinCapacity() const;
  Capacity MaxCapacity() const;

  friend bool operator==(const SwitchSpec&, const SwitchSpec&) = default;

 private:
  std::vector<Capacity> input_capacity_;
  std::vector<Capacity> output_capacity_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_MODEL_SWITCH_SPEC_H_
