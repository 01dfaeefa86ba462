// Turns a --instance argument into an Instance: either a CSV trace path
// (model/trace_io.h format) or an inline generator spec.
//
// Generator specs: "<name>" or "<name>:key=value,key=value,...".
//   poisson, coflow, cdf   Poisson flows, clustered coflows and CDF-driven
//                          traffic; api/generator_spec.h reads their keys,
//                          defaults and ranges (docs/file-formats.md)
//   shuffle   ports, wave, waves, period        (workload ShuffleWaves)
//   incast    ports, fanin, release             (single hotspot on the last
//                                                output port)
//   fig4a     phase, total                      (Lemma 5.1 lower-bound
//                                                instance, wlog choice baked)
//   fig4b     -                                 (Lemma 5.2 instance)
//   fabric    shards, partition — wraps any other source
//             ("fabric:shards=4,partition=block,<inner-spec>",
//             fabric/fabric_spec.h): loads the *inner* instance unchanged
//             and stamps it with the fabric spec so fabric.* solvers
//             recover the shard topology while flow-level solvers run the
//             same traffic on one big switch
// Anything that is not a known generator name is treated as a file path:
// coflow traces (trace_io.h Facebook-convention header) are detected by
// their header row, everything else parses as an instance CSV.
//
// Every loaded instance is stamped with its source text
// (Instance::source()).
#ifndef FLOWSCHED_API_INSTANCE_SOURCE_H_
#define FLOWSCHED_API_INSTANCE_SOURCE_H_

#include <optional>
#include <string>

#include "model/instance.h"

namespace flowsched {

// Loads from a generator spec or a CSV file; nullopt + *error on failure
// (unknown generator key, malformed or out-of-range value, unreadable or
// unparsable file).
std::optional<Instance> LoadInstance(const std::string& source,
                                     std::string* error = nullptr);

// True when `source` names a generator (vs. a file path).
bool IsGeneratorSpec(const std::string& source);

// Validates `source` as far as possible WITHOUT generating anything:
// generator specs (fabric wrappers included, recursively) are parsed and
// every key checked against the generator's accepted set (poisson, coflow
// and cdf values against their ranges too), with the offending key named
// in *error; an unknown generator NAME on a generator-shaped source
// ("name:key=value,..." with a pathless name) is rejected too. Genuine
// file paths return true — existence and content are load-time concerns. Sweep expansion calls this so a typo'd template
// fails the whole campaign up front instead of per task, after other
// tasks already ran (campaign/sweep_spec.h).
bool ValidateInstanceSpec(const std::string& source,
                          std::string* error = nullptr);

}  // namespace flowsched

#endif  // FLOWSCHED_API_INSTANCE_SOURCE_H_
