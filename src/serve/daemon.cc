#include "serve/daemon.h"

#include <istream>
#include <ostream>

#include "coflow/coflow_policies.h"
#include "serve/wire_protocol.h"

namespace flowsched {

std::unique_ptr<SchedulingPolicy> MakeServePolicy(const std::string& name,
                                                  std::string* error,
                                                  std::uint64_t seed,
                                                  const MatchingOptions& matching) {
  const auto dot = name.find('.');
  const std::string family = name.substr(0, dot);
  const std::string policy =
      dot == std::string::npos ? std::string() : name.substr(dot + 1);
  if (family == "online" && !policy.empty()) {
    for (const std::string& known : AllPolicyNames()) {
      if (known == policy) return MakePolicy(policy, seed, matching);
    }
  } else if (family == "coflow" && !policy.empty()) {
    for (const std::string& known : AllCoflowPolicyNames()) {
      if (known == policy) return MakeCoflowPolicy(policy, seed, matching);
    }
  }
  if (error != nullptr) {
    std::string names;
    for (const std::string& p : AllPolicyNames()) names += " online." + p;
    for (const std::string& p : AllCoflowPolicyNames()) names += " coflow." + p;
    *error = "unknown policy \"" + name + "\"; available:" + names;
  }
  return nullptr;
}

StreamingSummary RunWireSession(const SwitchSpec& sw, std::istream& in,
                                std::ostream& out,
                                const ServeOptions& options) {
  std::string policy_error;
  const auto policy = MakeServePolicy(options.policy, &policy_error,
                                      options.seed, options.matching);
  if (policy == nullptr) {
    out << "ERROR " << policy_error << '\n';
    StreamingSummary summary;
    summary.source_error = true;
    summary.error = policy_error;
    return summary;
  }
  StreamingOptions sim_options;
  sim_options.max_rounds = options.max_rounds;
  sim_options.validate = options.validate;
  sim_options.stats_every = options.stats_every;
  sim_options.stats_out = nullptr;  // Wire stats lines carry a prefix.
  sim_options.match_out = options.emit_match ? &out : nullptr;
  sim_options.scenario = options.scenario;
  sim_options.stop = options.stop;
  StreamingSimulator sim(sw, *policy, sim_options);
  {
    // A scenario that cannot bind to this switch fails the session up
    // front (the summary carries the line-tagged error).
    const StreamingSummary probe = sim.Summarize();
    if (probe.source_error) {
      out << "ERROR " << probe.error << '\n';
      out << "DONE " << probe.ToJson() << '\n';
      out.flush();
      return probe;
    }
  }
  std::string line;
  std::string error;
  WireCommand command;
  bool stopped = false;
  // A signal mid-session exits the read loop (the handler is installed
  // without SA_RESTART, so the blocking read returns) and still emits the
  // final DONE summary below.
  while (!stopped && !(options.stop != nullptr && *options.stop != 0) &&
         std::getline(in, line)) {
    if (!ParseWireLine(line, &command, &error)) {
      out << "ERROR " << error << '\n';
      continue;
    }
    switch (command.kind) {
      case WireCommand::Kind::kNone:
        break;
      case WireCommand::Kind::kArrive:
        if (!sim.Inject(command.flow, &error)) {
          out << "ERROR " << error << '\n';
        }
        break;
      case WireCommand::Kind::kTick:
        if (options.max_rounds >= 0 && sim.round() >= options.max_rounds) {
          out << "ERROR round cap reached (max_rounds="
              << options.max_rounds << ")\n";
          break;
        }
        sim.Step();
        if (options.stats_every > 0 &&
            sim.round() % options.stats_every == 0) {
          out << "STATS " << sim.StatsLine() << '\n';
        }
        break;
      case WireCommand::Kind::kStats:
        out << "STATS " << sim.StatsLine() << '\n';
        break;
      case WireCommand::Kind::kFault:
        if (!sim.ForceFault(command.port, &error)) {
          out << "ERROR " << error << '\n';
        }
        break;
      case WireCommand::Kind::kRecover:
        if (!sim.ForceRecover(command.port, &error)) {
          out << "ERROR " << error << '\n';
        }
        break;
      case WireCommand::Kind::kStop:
        stopped = true;
        break;
    }
  }
  const StreamingSummary summary = sim.Summarize();
  out << "DONE " << summary.ToJson() << '\n';
  out.flush();
  return summary;
}

StreamingSummary RunSourceSession(ArrivalSource& source,
                                  std::ostream& out,
                                  const ServeOptions& options) {
  std::string policy_error;
  const auto policy = MakeServePolicy(options.policy, &policy_error,
                                      options.seed, options.matching);
  if (policy == nullptr) {
    out << "ERROR " << policy_error << '\n';
    StreamingSummary summary;
    summary.source_error = true;
    summary.error = policy_error;
    return summary;
  }
  StreamingOptions sim_options;
  sim_options.max_rounds = options.max_rounds;
  sim_options.validate = options.validate;
  sim_options.stats_every = options.stats_every;
  sim_options.stats_out = &out;
  sim_options.match_out = options.emit_match ? &out : nullptr;
  sim_options.scenario = options.scenario;
  sim_options.stop = options.stop;
  StreamingSimulator sim(source.sw(), *policy, sim_options);
  const StreamingSummary summary = sim.Run(source);
  out << "DONE " << summary.ToJson() << '\n';
  out.flush();
  return summary;
}

}  // namespace flowsched
