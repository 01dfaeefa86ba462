// Session core of the flowsched_serve daemon: everything except transport
// setup (stdin vs. socket, flag parsing) lives here so tests and the
// --smoke self-check can drive full sessions over string streams.
//
// A session writes line-oriented replies:
//   MATCH <round> <id>...   flows scheduled in a round (unless disabled)
//   STATS <json>            periodic (every stats_every rounds) and on the
//                           wire STATS command
//   ERROR <message>         malformed/rejected input line (line is ignored,
//                           the session continues)
//   DONE <json>             final summary on STOP / EOF / stream end
#ifndef FLOWSCHED_SERVE_DAEMON_H_
#define FLOWSCHED_SERVE_DAEMON_H_

#include <csignal>
#include <iosfwd>
#include <memory>
#include <string>

#include "core/online/policy.h"
#include "scenario/scenario.h"
#include "serve/streaming_simulator.h"
#include "workload/arrival_source.h"

namespace flowsched {

struct ServeOptions {
  std::string policy = "online.srpt";  // Any online.* / coflow.* policy.
  std::uint64_t seed = 1;              // For seeded policies (online.random).
  Round stats_every = 0;               // Periodic STATS cadence; 0 = off.
  bool emit_match = true;
  bool validate = true;
  Round max_rounds = -1;  // < 0: unbounded.
  // Fault-injection script applied to the session's switch (--scenario).
  const ScenarioScript* scenario = nullptr;
  // Cooperative shutdown flag (SIGINT/SIGTERM): pull sessions finish the
  // round in flight and emit DONE (StreamingOptions::stop).
  const volatile std::sig_atomic_t* stop = nullptr;
  // Matching-kernel knobs for the maxweight policies (exact Hungarian by
  // default; approx_eps > 0 opts into the auction matcher).
  MatchingOptions matching;
};

// Builds the policy behind a registry-style name: "online.<p>" maps to
// MakePolicy(p), "coflow.<p>" to MakeCoflowPolicy(p). Null + *error for
// anything else.
std::unique_ptr<SchedulingPolicy> MakeServePolicy(
    const std::string& name, std::string* error, std::uint64_t seed = 1,
    const MatchingOptions& matching = {});

// Wire-protocol session: reads commands from `in` until STOP or EOF,
// writes MATCH/STATS/ERROR lines and the final DONE summary to `out`.
// Returns the summary (summary.source_error is never set here; protocol
// errors are per-line ERROR replies).
StreamingSummary RunWireSession(const SwitchSpec& sw, std::istream& in,
                                std::ostream& out,
                                const ServeOptions& options);

// Pull session over a source (generator spec or trace): runs the stream to
// completion, writing MATCH/STATS lines and the final DONE summary.
StreamingSummary RunSourceSession(ArrivalSource& source,
                                  std::ostream& out,
                                  const ServeOptions& options);

}  // namespace flowsched

#endif  // FLOWSCHED_SERVE_DAEMON_H_
