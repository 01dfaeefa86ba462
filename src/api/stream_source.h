// Streaming counterpart of api/instance_source.h: turns a --spec / --trace
// argument into a pull-based ArrivalSource without materializing the
// stream.
//
// Supported sources:
//   poisson / coflow generator specs with the same keys LoadInstance
//     accepts, plus `rounds=inf` for an unbounded stream (which then
//     requires load > 0, or the end-of-stream scan would never terminate);
//   instance-CSV file paths — streamed row by row (rows must be sorted by
//     release; generator-written traces are).
//
// The remaining generators (shuffle, incast, fig4a/b, fabric wrappers) and
// coflow traces are batch-shaped — load them with LoadInstance and replay
// through InstanceStreamSource instead; this factory rejects them with an
// error saying so.
#ifndef FLOWSCHED_API_STREAM_SOURCE_H_
#define FLOWSCHED_API_STREAM_SOURCE_H_

#include <memory>
#include <string>

#include "workload/arrival_source.h"

namespace flowsched {

// Null + *error on failure (unknown generator, bad key, unreadable file,
// malformed trace header). The returned source owns any backing file
// stream.
std::unique_ptr<ArrivalSource> MakeStreamSource(
    const std::string& source, std::string* error = nullptr);

}  // namespace flowsched

#endif  // FLOWSCHED_API_STREAM_SOURCE_H_
