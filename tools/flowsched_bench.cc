// flowsched_bench: the value cells CI asserts. Runs every online.*, coflow.*
// and fabric.* solver once on a fixed set of paper-scale instances
// (validation off, seed 7), plus streaming and fault-scenario cells, and
// writes each cell's schedule values to BENCH_core.json.
// tools/check_bench_values.py compares a run against the committed file
// field by field; timing lives in perfbench/.
//
// Usage:
//   flowsched_bench [--out=PATH]    (default BENCH_core.json)
//
// The JSON schema is documented in docs/file-formats.md.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "api/registry.h"
#include "api/stream_source.h"
#include "core/online/simulator.h"
#include "scenario/scenario.h"
#include "serve/daemon.h"
#include "serve/streaming_simulator.h"
#include "util/json.h"
#include "util/provenance.h"
#include "util/table.h"

// ---- Global allocation counter -------------------------------------------
// Replacing the global operator new lets the harness report how many heap
// allocations each cell's run performs (the simulator core's
// zero-allocation contract shows up as a flat count across cells).

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flowsched {
namespace {

constexpr std::uint64_t kSeed = 7;

struct BenchCell {
  std::string instance;
  std::string solver;
  bool ok = false;
  std::string error;
  long long rounds = 0;
  long long peak_backlog = 0;
  long long allocations = 0;
  double total_response = 0.0;
  double avg_response = 0.0;
  double max_response = 0.0;
  long long makespan = 0;
  // scenario: cells only (-1 elsewhere). Surge is the peak backlog over the
  // fault-free twin's peak; drain is rounds simulated past the last event.
  long long backlog_surge = -1;
  long long drain_rounds = -1;
  long long downtime_rounds = -1;
};

// Every registered solver is run on each of these.
const std::vector<std::string> kInstances = {
    "poisson:ports=256,load=1.0,rounds=195,seed=1",
    "coflow:ports=256,load=1.0,rounds=195,width=16,skew=0.7,seed=1",
    // The sharding cell: fabric.* solvers split this 4 ways (fabric.<p> x
    // non-fabric instances are skipped; every other solver runs the inner
    // instance unsharded for the 1-switch baseline on identical traffic).
    "fabric:shards=4,partition=block,"
    "coflow:ports=256,load=1.0,rounds=195,width=16,skew=0.7,seed=1",
    "shuffle:ports=256,wave=64,waves=8,period=2",
    "incast:ports=256,fanin=255",
    "fig4a:phase=128,total=1024",
    "fig4b",
    // Realistic traffic (src/traffic/): one cell per checked-in datacenter
    // CDF at the paper's 256-port scale, load 0.9.
    "cdf:dist=websearch,ports=256,load=0.9,rounds=195,seed=1",
    "cdf:dist=fbhdp,ports=256,load=0.9,rounds=195,seed=1",
    "cdf:dist=alistorage,ports=256,load=0.9,rounds=195,seed=1",
};

// Generator specs run through the streaming service (src/serve/) with
// online.srpt; the first and third replay the same traffic as batch cells.
const std::vector<std::string> kStreams = {
    "poisson:ports=256,load=1.0,rounds=195,seed=1",
    "poisson:ports=64,load=0.9,rounds=100000,seed=1",
    "cdf:dist=websearch,ports=256,load=0.9,rounds=195,seed=1",
    "cdf:dist=alistorage,ports=64,load=0.9,rounds=20000,seed=1",
};

// Mid-run loss of a quarter of the fabric (pod 0 of 4) under sustained
// near-saturation load, then recovery and drain (online.srpt).
struct ScenarioCellSpec {
  std::string instance;
  std::string script;  // Scenario script text (scenario/scenario.h).
};
const std::vector<ScenarioCellSpec> kScenarios = {
    {"poisson:ports=256,load=0.9,rounds=195,seed=1",
     "PODS 4\nPOD_DOWN 60 0\nPOD_UP 120 0\n"},
};

std::vector<std::string> SimulationSolverNames() {
  std::vector<std::string> names;
  for (const std::string& name : SolverRegistry::Global().Names()) {
    if (name.rfind("online.", 0) == 0 || name.rfind("coflow.", 0) == 0 ||
        name.rfind("fabric.", 0) == 0) {
      names.push_back(name);
    }
  }
  return names;
}

// fabric.* solvers need a shard topology, which only fabric: instances
// carry; pairing them with anything else would just run the error path.
bool SkipCell(const std::string& instance_spec, const std::string& solver) {
  return solver.rfind("fabric.", 0) == 0 &&
         instance_spec.rfind("fabric:", 0) != 0;
}

// Heap allocations performed by fn().
template <typename Fn>
long long CountAllocations(Fn&& fn) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return static_cast<long long>(
      g_alloc_count.load(std::memory_order_relaxed) - before);
}

BenchCell RunCell(const std::string& instance_spec, const Instance& instance,
                  const std::string& solver) {
  BenchCell cell;
  cell.instance = instance_spec;
  cell.solver = solver;
  SolveOptions options;
  options.seed = kSeed;
  options.params["validate"] = "0";
  SolveReport report;
  cell.allocations = CountAllocations([&] {
    report = SolverRegistry::Global().Solve(solver, instance, options);
  });
  if (!report.ok) {
    cell.error = report.error;
    return cell;
  }
  cell.ok = true;
  cell.total_response = report.metrics.total_response;
  cell.avg_response = report.metrics.avg_response;
  cell.max_response = report.metrics.max_response;
  cell.makespan = report.metrics.makespan;
  auto diagnostic = [&](const char* key) {
    const auto it = report.diagnostics.find(key);
    return it == report.diagnostics.end() ? 0
                                          : static_cast<long long>(it->second);
  };
  cell.rounds = diagnostic("rounds_simulated");
  cell.peak_backlog = diagnostic("peak_backlog");
  return cell;
}

// One generator spec through the streaming service; the spec never
// materializes as an Instance.
BenchCell RunStreamCell(const std::string& spec) {
  BenchCell cell;
  cell.instance = "stream:" + spec;
  cell.solver = "online.srpt";
  std::string error;
  const auto source = MakeStreamSource(spec, &error);
  const auto policy = MakeServePolicy(cell.solver, &error, kSeed);
  if (source == nullptr || policy == nullptr) {
    cell.error = error;
    return cell;
  }
  StreamingOptions options;
  options.validate = false;
  StreamingSimulator sim(source->sw(), *policy, options);
  StreamingSummary summary;
  cell.allocations = CountAllocations([&] { summary = sim.Run(*source); });
  if (summary.source_error) {
    cell.error = summary.error;
    return cell;
  }
  cell.ok = true;
  cell.rounds = summary.rounds;
  cell.peak_backlog = summary.peak_backlog;
  cell.total_response = summary.total_response;
  cell.avg_response = summary.mean_response;
  cell.max_response = summary.max_response;
  cell.makespan = summary.rounds;
  return cell;
}

// The faulted instance through batch Simulate with online.srpt: the timed
// script reshapes the effective capacities mid-run, and the fault-free twin
// gives the surge baseline. A script that strands flows fails the cell
// rather than aborting the harness.
BenchCell RunScenarioCell(const ScenarioCellSpec& spec) {
  BenchCell cell;
  cell.instance = "scenario:" + spec.instance;
  cell.solver = "online.srpt";
  std::string error;
  const auto instance = LoadInstance(spec.instance, &error);
  ScenarioScript script;
  if (!instance.has_value() ||
      !ScenarioScript::ParseText(spec.script, &script, &error)) {
    cell.error = error;
    return cell;
  }
  const auto policy = MakeServePolicy(cell.solver, &error, kSeed);
  if (policy == nullptr) {
    cell.error = error;
    return cell;
  }
  SimulationOptions options;
  options.validate = false;
  const SimulationResult base = Simulate(*instance, *policy, options);
  options.scenario = &script;
  SimulationResult r;
  cell.allocations =
      CountAllocations([&] { r = Simulate(*instance, *policy, options); });
  if (r.truncated) {
    cell.error = r.error;
    return cell;
  }
  cell.ok = true;
  cell.rounds = r.rounds;
  cell.peak_backlog = r.peak_backlog;
  cell.total_response = r.metrics.total_response;
  cell.avg_response = r.metrics.avg_response;
  cell.max_response = r.metrics.max_response;
  cell.makespan = r.metrics.makespan;
  cell.backlog_surge = r.peak_backlog - base.peak_backlog;
  cell.drain_rounds =
      std::max<long long>(0, r.rounds - script.last_event_round());
  cell.downtime_rounds = r.downtime_rounds;
  return cell;
}

void WriteJson(std::ostream& out, const std::vector<BenchCell>& cells) {
  out << "{\n";
  out << "  \"suite\": \"core\",\n";
#ifdef NDEBUG
  out << "  \"build_type\": \"Release\",\n";
#else
  out << "  \"build_type\": \"Debug\",\n";
#endif
  WriteProvenanceJson(out, CollectProvenance(), 2);
  out << ",\n";
  out << "  \"seed\": " << kSeed << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const BenchCell& c = cells[i];
    out << "    {\"instance\": \"" << JsonEscape(c.instance)
        << "\", \"solver\": \"" << JsonEscape(c.solver) << "\", \"ok\": "
        << (c.ok ? "true" : "false");
    if (c.ok) {
      out << ", \"rounds\": " << c.rounds
          << ", \"peak_backlog\": " << c.peak_backlog
          << ", \"allocations\": " << c.allocations
          << ", \"total_response\": " << JsonNum(c.total_response)
          << ", \"avg_response\": " << JsonNum(c.avg_response)
          << ", \"max_response\": " << JsonNum(c.max_response)
          << ", \"makespan\": " << c.makespan;
      if (c.downtime_rounds >= 0) {
        out << ", \"backlog_surge\": " << c.backlog_surge
            << ", \"recovery_drain_rounds\": " << c.drain_rounds
            << ", \"downtime_rounds\": " << c.downtime_rounds;
      }
    } else {
      out << ", \"error\": \"" << JsonEscape(c.error) << "\"";
    }
    out << "}" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

int Run(int argc, char** argv) {
  std::string out_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << "flowsched_bench [--out=PATH]\n";
      return 0;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "error: unknown argument \"" << arg << "\"\n";
      return 2;
    }
  }

  std::vector<BenchCell> cells;
  const std::vector<std::string> solvers = SimulationSolverNames();
  for (const std::string& spec : kInstances) {
    std::string error;
    const auto instance = LoadInstance(spec, &error);
    if (!instance.has_value()) {
      std::cerr << "error: " << spec << ": " << error << "\n";
      return 2;
    }
    for (const std::string& solver : solvers) {
      if (!SkipCell(spec, solver)) {
        cells.push_back(RunCell(spec, *instance, solver));
      }
    }
  }
  for (const std::string& spec : kStreams) {
    cells.push_back(RunStreamCell(spec));
  }
  for (const ScenarioCellSpec& spec : kScenarios) {
    cells.push_back(RunScenarioCell(spec));
  }

  TextTable table({"instance", "solver", "rounds", "peak_backlog",
                   "avg_response", "max_response", "allocs"});
  int failures = 0;
  for (const BenchCell& c : cells) {
    if (c.ok) {
      table.Row(c.instance, c.solver, c.rounds, c.peak_backlog,
                c.avg_response, c.max_response, c.allocations);
    } else {
      ++failures;
      table.Row(c.instance, c.solver, "FAIL: " + c.error, "-", "-", "-", "-");
    }
  }
  table.Print(std::cout);

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 2;
  }
  WriteJson(out, cells);
  std::cout << cells.size() << " cells (" << failures
            << " failed) written to " << out_path << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace flowsched

int main(int argc, char** argv) { return flowsched::Run(argc, argv); }
