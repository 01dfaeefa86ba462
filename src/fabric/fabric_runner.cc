#include "fabric/fabric_runner.h"

#include <algorithm>
#include <string>

#include "util/check.h"
#include "util/rng.h"

namespace flowsched {

bool ProjectScenarioOps(const ScenarioScript& script,
                        const FabricAssignment& fa, int shard,
                        std::vector<ScenarioOp>* ops, std::string* error) {
  FS_CHECK_GE(shard, 0);
  FS_CHECK_LT(shard, fa.shards);
  ops->clear();
  const int num_hosts = static_cast<int>(fa.shard_of_host.size());
  const std::vector<PortId>& in_map = fa.shard_input_host[shard];
  const std::vector<PortId>& out_map = fa.shard_output_host[shard];
  // Every local port whose global host satisfies `affects` gets the op; the
  // within-round order (inputs ascending, then outputs) is a pure function
  // of the maps.
  const auto expand = [&](Round t, Capacity cap, const auto& affects) {
    for (std::size_t p = 0; p < in_map.size(); ++p) {
      if (in_map[p] >= 0 && affects(in_map[p])) {
        ops->push_back({t, /*input_side=*/true, static_cast<PortId>(p), cap});
      }
    }
    for (std::size_t q = 0; q < out_map.size(); ++q) {
      if (out_map[q] >= 0 && affects(out_map[q])) {
        ops->push_back({t, /*input_side=*/false, static_cast<PortId>(q), cap});
      }
    }
  };
  for (const ScenarioEvent& e : script.events()) {
    Capacity cap = 0;
    switch (e.kind) {
      case ScenarioEvent::Kind::kPortDown:
      case ScenarioEvent::Kind::kPodDown:
        cap = 0;
        break;
      case ScenarioEvent::Kind::kPortUp:
      case ScenarioEvent::Kind::kPodUp:
        cap = kScenarioRestore;
        break;
      case ScenarioEvent::Kind::kSetCapacity:
        cap = e.capacity;
        break;
      case ScenarioEvent::Kind::kMigrate:
        // Consumed before partitioning (ApplyScenarioMigrations); there is
        // no per-shard capacity op to project.
        continue;
    }
    const bool pod_event = e.kind == ScenarioEvent::Kind::kPodDown ||
                           e.kind == ScenarioEvent::Kind::kPodUp;
    if (pod_event) {
      // The script's pods must be the fabric's pods — a PODS header written
      // for another topology would silently hit the wrong hosts.
      if (script.pods() != fa.shards) {
        *error = "line " + std::to_string(e.line) + ": scenario declares " +
                 std::to_string(script.pods()) + " pods but the fabric has " +
                 std::to_string(fa.shards) + " shards";
        return false;
      }
      const int pod = e.target;
      expand(e.t, cap, [&](PortId g) { return fa.shard_of_host[g] == pod; });
    } else {
      if (e.target >= num_hosts) {
        *error = "line " + std::to_string(e.line) + ": host " +
                 std::to_string(e.target) + " out of range (fabric has " +
                 std::to_string(num_hosts) + " hosts)";
        return false;
      }
      expand(e.t, cap, [&](PortId g) { return g == e.target; });
    }
  }
  return true;
}

ReplayRun RunFabric(const Instance& instance, const FabricAssignment& fa,
                    const ReplayOptions& options) {
  FS_CHECK_EQ(static_cast<std::size_t>(instance.num_flows()),
              fa.shard_of_flow.size());
  FS_CHECK(options.make_policy != nullptr);
  const int shards = fa.shards;
  ReplayRun result;
  // Projection happens up front so a bad script surfaces before any shard
  // simulates.
  const ScenarioScript* script = options.sim.scenario;
  std::vector<std::vector<ScenarioOp>> shard_ops;
  if (script != nullptr && !script->empty()) {
    shard_ops.resize(shards);
    for (int s = 0; s < shards; ++s) {
      std::string perr;
      if (!ProjectScenarioOps(*script, fa, s, &shard_ops[s], &perr)) {
        result.truncated = true;
        result.error = "scenario: " + perr;
        return result;
      }
    }
  }

  std::vector<ReplayRun> runs(shards);
  int busy_shards = 0;
  for (int s = 0; s < shards; ++s) {
    if (fa.shard_instances[s].num_flows() == 0) continue;
    ReplayOptions shard = options;
    shard.seed = Rng::DeriveSeed(options.seed, static_cast<std::uint64_t>(s));
    shard.sim.scenario = nullptr;
    shard.sim.scenario_ops = shard_ops.empty() ? nullptr : &shard_ops[s];
    const ReplayRun& run = runs[s] = Replay(fa.shard_instances[s], shard);
    result.rounds = std::max(result.rounds, run.rounds);
    result.peak_backlog = std::max(result.peak_backlog, run.peak_backlog);
    result.downtime_rounds =
        std::max(result.downtime_rounds, run.downtime_rounds);
    result.matching.matcher_full_solves += run.matching.matcher_full_solves;
    result.avg_port_utilization += run.avg_port_utilization;
    ++busy_shards;
    if (run.truncated && !result.truncated) {
      result.truncated = true;
      result.error = "pod " + std::to_string(s) + ": " + run.error;
    }
  }
  if (busy_shards > 0) result.avg_port_utilization /= busy_shards;
  if (result.truncated) return result;

  result.schedule = Schedule(instance.num_flows());
  for (FlowId e = 0; e < instance.num_flows(); ++e) {
    const int s = fa.shard_of_flow[e];
    result.schedule.Assign(e, runs[s].schedule.round_of(fa.local_flow_id[e]));
  }
  return result;
}

}  // namespace flowsched
