// perfbench_driver: runs one benchmark workload for a given time and seed,
// checks every output, and prints the metrics. See README.md for the
// workloads, the metrics and what each layer metric should move.
//
//   perfbench_driver --workload replay-srpt --seed 1 --seconds 10 --trace 0
//                    [--spans-out spans.csv]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics (spans taken around the calls
// into each layer, kept in memory and written to --spans-out at the end).
// The last line of stdout is a JSON object with the keys correct,
// attempted, failed and metrics; the line before it is the full report.
#include <sched.h>
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "api/registry.h"
#include "checks.h"
#include "core/art_lp.h"
#include "core/art_scheduler.h"
#include "core/online/simulator.h"
#include "model/metrics.h"
#include "serve/daemon.h"
#include "serve/streaming_simulator.h"
#include "serve/wire_protocol.h"
#include "serve_client.h"
#include "span_trace.h"
#include "traced_policy.h"
#include "util/json.h"
#include "util/proc_stats.h"
#include "util/provenance.h"
#include "util/stats.h"

namespace perfbench {
namespace {

using flowsched::Instance;
using flowsched::SolveReport;

enum class Kind { kReplay, kServe, kOffline };

struct Workload {
  const char* name;
  Kind kind;
  const char* spec;    // Generator spec without its seed.
  const char* solver;  // Registered solver (serve: the daemon's policy).
  // Instances per run, with generator seeds seed * 1000 + i. A run
  // averages over several, because one instance's maximum response (and
  // Theorem 1's solve time) depends on its seed far more than on the
  // program.
  int instances;
  // Instances solved between two calibration kernels (see HostSpeed), so
  // that each stretch of timed work is about 0.2-0.8 s.
  int per_kernel;
  const char* why;
};

constexpr Workload kWorkloads[] = {
    {"replay-maxweight", Kind::kReplay,
     "poisson:ports=256,load=1.0,rounds=195", "online.maxweight", 4, 1,
     "paper-scale 5.2 cell with the slowest policy: graph build plus "
     "matcher is about 95% of Simulate"},
    {"replay-srpt", Kind::kReplay, "poisson:ports=256,load=0.9,rounds=375",
     "online.srpt", 8, 2,
     "same batch path with a cheap policy and no matcher, so the round "
     "loop's own time outweighs selection"},
    {"serve-srpt", Kind::kServe, "poisson:ports=256,load=0.9,rounds=375",
     "online.srpt", 8, 1,
     "replay-srpt's traffic sent round by round to flowsched_serve by one "
     "closed-loop client: streaming loop, wire protocol and pipes"},
    {"offline-art", Kind::kOffline, "poisson:ports=8,load=1.0,rounds=8",
     "art.theorem1", 768, 96,
     "Theorem 1 offline scheduler (c=2) over 768 small instances: nearly "
     "all time is the iterative rounding LP, the only workload where lp runs"},
};

// Theorem 1's default c; its schedules validate under a (1+c) allowance.
constexpr int kArtC = 2;
// Every measured loop runs at least this many operations.
constexpr int kMinOps = 3;

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;
};

// Everything a run reports.
struct Result {
  std::vector<Metric> metrics;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, double> notes;  // Extra figures for the report.
  std::vector<std::string> predictions;

  void Set(const std::string& name, double value, std::size_t samples) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.samples = samples;
        return;
      }
    }
    problems.push_back("unknown metric " + name);
  }
  // Counts one operation; a non-empty `problem` fails it.
  void Op(const std::string& problem) {
    ++attempted;
    if (!problem.empty()) {
      ++failed;
      problems.push_back(problem);
    }
  }
  void Predict(const std::string& claim, bool met) {
    predictions.push_back(claim + (met ? ": met" : ": not met"));
  }
};

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},          {"solve_s", "s"},
    {"flows_per_s", "1/s"},    {"decision_p50_us", "us"},
    {"decision_p99_us", "us"}, {"peak_rss_mb", "MB"},
    {"avg_response", "rounds"}, {"max_response", "rounds"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"workload.generate_ms", "ms"},
    {"api.solve_ms", "ms"},
    {"online.select_ms", "ms"},
    {"online.select_p99_us", "us"},
    {"online.loop_self_ms", "ms"},
    {"online.select_calls", "count"},
    {"online.backlog_mean", "count"},
    {"graph.full_solves", "count"},
    {"graph.cache_hits", "count"},
    {"graph.prefix_resumes", "count"},
    {"graph.reuse_ratio", "ratio"},
    {"model.validate_ms", "ms"},
    {"model.metrics_ms", "ms"},
    {"serve.parse_ms", "ms"},
    {"serve.inject_ms", "ms"},
    {"serve.step_self_ms", "ms"},
    {"serve.select_ms", "ms"},
    {"serve.stats_ms", "ms"},
    {"serve.inproc_p50_us", "us"},
    {"serve.ipc_p50_us", "us"},
    {"serve.daemon_cpu_s", "s"},
    {"serve.daemon_busy_ratio", "ratio"},
    {"serve.request_bytes", "bytes"},
    {"serve.reply_bytes", "bytes"},
    {"art.rounding_ms", "ms"},
    {"art.rounding_iterations", "count"},
    {"art.pack_ms", "ms"},
    {"lp.lp0_ms", "ms"},
    {"lp.simplex_iterations", "count"},
    {"lp.rows", "count"},
    {"lp.cols", "count"},
    {"trace_overhead", "ratio"},
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double P99(const std::vector<double>& v) {
  return v.empty() ? 0.0 : flowsched::Percentile(v, 99.0);
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---- Host-speed normalisation. ------------------------------------------
//
// On a shared 4-vCPU Xeon VM, the same solve runs up to
// 30% slower (at times 75%) for a fraction of a second to minutes at a
// time, on every core, pinned or not, and its CPU time slows with it. A
// fixed calibration kernel that shares no code with flowsched slows down
// with the host: over 70 alternations with a replay-maxweight solve the two
// times moved together (correlation 0.83), and over 150 alternations
// normalising by the kernel cut the spread (quartile distance over median)
// of ten-sample medians from 0.12-0.14 to 0.03-0.04 for that solve, from
// 0.18-0.20 to 0.07 for a 375-round srpt solve, and from 0.27-0.39 to
// 0.14-0.18 for a batch of Theorem 1 solves. A floating-point kernel did
// better on the Theorem 1 batch in one such experiment and worse in the
// next, so there is one kernel. The slow spells can be short, so untraced
// runs time the kernel between stretches of 0.2-0.8 s of work and scale
// each stretch's times by kReferenceKernelS over the mean of the two kernel
// times around it: seconds on a host that runs the kernel in
// kReferenceKernelS. The report gives the median factor, so raw times can
// be recovered.
constexpr double kReferenceKernelS = 0.040;

// Sorts eight fixed pseudo-random 64K-element arrays; about 40 ms.
double KernelSeconds() {
  std::vector<std::uint32_t> v(1 << 16);
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t sink = 0;
  const std::int64_t start = NowNs();
  for (int rep = 0; rep < 8; ++rep) {
    for (std::uint32_t& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = static_cast<std::uint32_t>(x);
    }
    std::sort(v.begin(), v.end());
    sink += v[rep];
  }
  const double seconds = Seconds(NowNs() - start);
  // Keeps the sorts observable.
  return sink == 1 ? seconds + 1e-12 : seconds;
}

// The host's speed over a run, read from the calibration kernel timed at
// the start and at every Mark().
class HostSpeed {
 public:
  HostSpeed() : last_s_(KernelSeconds()) {}

  // Times the kernel again; returns the factor for the times taken since
  // the previous mark: kReferenceKernelS over the mean of the two kernel
  // times.
  double Mark() {
    const double now_s = KernelSeconds();
    factors_.push_back(kReferenceKernelS / ((last_s_ + now_s) / 2.0));
    last_s_ = now_s;
    return factors_.back();
  }
  double median_factor() const { return Median(factors_); }

 private:
  double last_s_;
  std::vector<double> factors_;
};

// Runs op(0), ..., op(n - 1), each of which appends raw times to *times,
// with a Mark() after every `every` calls and after the last; the times
// appended since the previous mark are scaled by its factor.
void MarkedLoop(HostSpeed& speed, std::size_t n, int every,
                std::vector<double>* times,
                const std::function<void(std::size_t)>& op) {
  std::size_t begin = times->size();
  for (std::size_t k = 0; k < n; ++k) {
    op(k);
    if ((k + 1) % every == 0 || k + 1 == n) {
      const double factor = speed.Mark();
      for (; begin < times->size(); ++begin) (*times)[begin] *= factor;
    }
  }
}

// Runs op(0), op(1), ... for at least `seconds` and kMinOps operations.
void RepeatFor(double seconds, const std::function<void(int)>& op) {
  const std::int64_t start = NowNs();
  for (int i = 0; i < kMinOps || Seconds(NowNs() - start) < seconds; ++i) {
    op(i);
  }
}

// The set-up every workload shares: LoadInstance for each of the run's
// instances (plus `after`, inside the timed region: serve renders its
// session scripts there), done `times` times. Untraced runs set up once
// more per pass, so the set-up median spans the whole run.
std::vector<Instance> Setup(
    const Workload& w, std::uint64_t seed, SpanTrace* trace, int times,
    std::vector<double>* seconds,
    const std::function<void(const std::vector<Instance>&)>& after = {}) {
  std::vector<Instance> instances;
  for (int rep = 0; rep < times; ++rep) {
    const std::int64_t t0 = NowNs();
    instances.clear();
    for (int i = 0; i < w.instances; ++i) {
      const std::string spec = std::string(w.spec) + ",seed=" +
                               std::to_string(seed * 1000 + i);
      std::string error;
      std::optional<Instance> instance;
      {
        ScopedSpan span(trace, "workload.generate");
        instance = flowsched::LoadInstance(spec, &error);
      }
      FS_CHECK_MSG(instance.has_value(), "LoadInstance: " << error);
      instances.push_back(std::move(*instance));
    }
    if (after) after(instances);
    seconds->push_back(Seconds(NowNs() - t0));
  }
  return instances;
}

flowsched::CapacityAllowance ExpectedAllowance(const Workload& w) {
  return w.kind == Kind::kOffline
             ? flowsched::CapacityAllowance::Factor(1.0 + kArtC)
             : flowsched::CapacityAllowance::Exact();
}

// Checks one batch solve. The first is validated in full; later ones must
// reproduce its schedule exactly (same seed, same program).
std::string CheckBatch(const Workload& w, const Instance& instance,
                       const SolveReport& report, const SolveReport* first) {
  if (first == nullptr) {
    std::string problem =
        CheckSolveReport(instance, report, ExpectedAllowance(w));
    if (problem.empty() && w.kind == Kind::kOffline &&
        (!report.lower_bound.has_value() ||
         report.objective < *report.lower_bound - 1e-6)) {
      problem = "Theorem 1 schedule beats its own LP(0) lower bound";
    }
    return problem;
  }
  if (!report.ok) return "solve failed: " + report.error;
  if (report.schedule.assignments() != first->schedule.assignments()) {
    return "schedule differs from the first solve on the same input";
  }
  return "";
}

// ---- Batch workloads (replay-*, offline-art), untraced. -----------------

// The online policy behind a registered "online.<policy>" solver.
std::string PolicyName(const Workload& w) {
  return std::string(w.solver).substr(std::strlen("online."));
}

// Appends the round times of the batch loop on `instance`, read at the
// only boundary it exposes: from one policy call to the next. The last
// call is left out, because what follows it is Simulate's validation and
// metrics of the whole run (30 ms on a replay-srpt instance), not a round.
void AppendRoundTimesUs(const Instance& instance,
                        const std::string& policy_name,
                        std::vector<double>* us) {
  SpanTrace calls;
  const auto inner = flowsched::MakePolicy(policy_name);
  TracedPolicy policy(*inner, calls, "select");
  const flowsched::SimulationResult r = flowsched::Simulate(instance, policy);
  const std::vector<Span>& spans = calls.spans();
  for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
    us->push_back(static_cast<double>(spans[i + 1].start_ns -
                                      spans[i].start_ns) / 1e3);
  }
}

// One operation is a Solve call; a pass solves each of the run's instances
// once. A decision is one round of a replay (timed by one clocked Simulate
// of each instance per pass) or one instance's solve on offline-art; the
// percentiles pool the decisions of every pass, so that p99 has at least
// ten samples beyond it.
void RunBatch(const Workload& w, const Args& args, Result* out) {
  std::vector<double> setup;  // One per pass.
  std::vector<double> untimed;
  const std::vector<Instance> instances =
      Setup(w, args.seed, nullptr, 1, &untimed);
  const auto& registry = flowsched::SolverRegistry::Global();
  std::vector<SolveReport> first(instances.size());
  std::vector<double> solve_s;      // One per pass.
  std::vector<double> decision_us;  // Every decision of every pass.
  HostSpeed speed;
  RepeatFor(args.seconds, [&](int pass) {
    Setup(w, args.seed, nullptr, 1, &setup);
    setup.back() *= speed.Mark();
    std::vector<double> solve_us;
    MarkedLoop(speed, instances.size(), w.per_kernel, &solve_us,
               [&](std::size_t k) {
                 const std::int64_t t0 = NowNs();
                 SolveReport report = registry.Solve(w.solver, instances[k]);
                 solve_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
                 out->Op(CheckBatch(w, instances[k], report,
                                    pass == 0 ? nullptr : &first[k]));
                 if (pass == 0) first[k] = std::move(report);
               });
    double pass_us = 0.0;
    for (const double us : solve_us) pass_us += us;
    solve_s.push_back(pass_us / 1e6);
    if (w.kind == Kind::kOffline) {
      decision_us.insert(decision_us.end(), solve_us.begin(), solve_us.end());
      return;
    }
    MarkedLoop(speed, instances.size(), w.per_kernel, &decision_us,
               [&](std::size_t k) {
                 AppendRoundTimesUs(instances[k], PolicyName(w), &decision_us);
               });
  });
  double flows = 0.0;
  for (const Instance& i : instances) flows += i.num_flows();
  double total_response = 0.0;
  double sum_max = 0.0;
  double objective = 0.0;
  double lower_bound = 0.0;
  for (const SolveReport& r : first) {
    total_response += r.metrics.total_response;
    sum_max += r.metrics.max_response;
    objective += r.objective;
    lower_bound += r.lower_bound.value_or(0.0);
  }
  const double k = static_cast<double>(instances.size());
  out->Set("setup_s", Median(setup), setup.size());
  out->Set("solve_s", Median(solve_s), solve_s.size());
  out->Set("flows_per_s", flows / Median(solve_s), solve_s.size());
  out->Set("decision_p50_us", Median(decision_us), decision_us.size());
  out->Set("decision_p99_us", P99(decision_us), decision_us.size());
  out->Set("peak_rss_mb",
           static_cast<double>(flowsched::PeakRssKb()) / 1024.0, 1);
  out->Set("avg_response", total_response / flows, instances.size());
  out->Set("max_response", sum_max / k, instances.size());
  out->notes["flows"] = flows;
  out->notes["instances"] = k;
  out->notes["speed_factor"] = speed.median_factor();
  if (lower_bound > 0.0) out->notes["lp_ratio"] = objective / lower_bound;
}

// ---- serve-srpt. ---------------------------------------------------------

std::vector<std::string> DaemonArgv(const SessionScript& script) {
  return {PERFBENCH_SERVE_BINARY,
          "--ports=" + std::to_string(script.sw.num_inputs()),
          "--policy=online.srpt", "--stats-every=1"};
}

// The batch replays of the same arrivals, which the sessions must
// reproduce.
std::vector<flowsched::ScheduleMetrics> ReferenceMetrics(
    const std::vector<Instance>& instances, Result* out) {
  std::vector<flowsched::ScheduleMetrics> metrics;
  for (const Instance& instance : instances) {
    const SolveReport report =
        flowsched::SolverRegistry::Global().Solve("online.srpt", instance);
    const std::string problem = CheckSolveReport(
        instance, report, flowsched::CapacityAllowance::Exact());
    if (!problem.empty()) out->problems.push_back("reference: " + problem);
    metrics.push_back(report.metrics);
  }
  return metrics;
}

// Audits one session's replies and counts its rounds as operations.
void AuditSession(const SessionScript& script, const SessionResult& session,
                  double reference_total, Result* out) {
  MatchAudit audit(script.sw, script.sent);
  std::size_t begin = 0;
  for (const std::size_t end : session.round_end) {
    std::string problem;
    std::string_view replies(session.replies);
    replies = replies.substr(begin, end - begin);
    while (!replies.empty() && problem.empty()) {
      const std::size_t eol = replies.find('\n');
      const std::string_view line = replies.substr(0, eol);
      replies.remove_prefix(eol + 1);
      if (line.rfind("MATCH ", 0) == 0) {
        problem = audit.OnMatch(line);
      } else if (line.rfind("STATS ", 0) != 0) {
        problem = "unexpected reply: " + std::string(line);
      }
    }
    out->Op(problem);
    begin = end;
  }
  std::string problem = session.error;
  if (problem.empty()) problem = audit.CheckAllMatched();
  if (problem.empty()) {
    problem = CheckDone(session.done_json,
                        static_cast<long long>(script.sent.size()),
                        reference_total);
  }
  if (problem.empty() && audit.total_response() != reference_total) {
    problem = "MATCH lines add up to a different total response";
  }
  if (!problem.empty()) {
    // The session as a whole failed; charge it to its last round.
    out->problems.push_back(problem);
    if (session.round_end.empty()) ++out->attempted;
    out->failed = std::min(out->failed + 1, out->attempted);
  }
}

// One session per instance: the scripts and the Setup() hook that renders
// them inside the timed set-up.
struct Sessions {
  std::vector<SessionScript> scripts;
  std::function<void(const std::vector<Instance>&)> Render() {
    return [this](const std::vector<Instance>& instances) {
      scripts.clear();
      for (const Instance& i : instances) {
        scripts.push_back(RenderSessionScript(i));
      }
    };
  }
};

// One operation is a round; a pass runs one session per instance, each
// against a fresh daemon.
void RunServe(const Workload& w, const Args& args, Result* out) {
  Sessions sessions;
  std::vector<double> setup;  // One per pass, with its daemons' start-up.
  std::vector<double> untimed;
  const std::vector<Instance> instances =
      Setup(w, args.seed, nullptr, 1, &untimed, sessions.Render());
  const std::vector<flowsched::ScheduleMetrics> reference =
      ReferenceMetrics(instances, out);
  std::vector<double> solve_s, rss;  // One per pass.
  std::vector<double> all_rounds_us;  // Every round of every pass.
  double total_response = 0.0;
  double sum_max = 0.0;
  HostSpeed speed;
  RepeatFor(args.seconds, [&](int) {
    Setup(w, args.seed, nullptr, 1, &setup, sessions.Render());
    setup.back() *= speed.Mark();
    solve_s.push_back(0.0);
    rss.push_back(0.0);
    total_response = sum_max = 0.0;
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const SessionScript& script = sessions.scripts[k];
      const SessionResult session = RunServeSession(DaemonArgv(script), script);
      const double factor = speed.Mark();
      AuditSession(script, session, reference[k].total_response, out);
      setup.back() += session.spawn_s * factor;
      solve_s.back() += session.session_s * factor;
      for (const double us : session.round_us) {
        all_rounds_us.push_back(us * factor);
      }
      rss.back() = std::max(
          rss.back(), static_cast<double>(session.peak_rss_kb) / 1024.0);
      flowsched::JsonValue done;
      std::string error;
      flowsched::ParseJson(session.done_json, done, &error);
      total_response += done.GetNumber("total_response");
      sum_max += done.GetNumber("max_response");
    }
  });
  double flows = 0.0;
  for (const Instance& i : instances) flows += i.num_flows();
  const double k = static_cast<double>(instances.size());
  out->Set("setup_s", Median(setup), setup.size());
  out->Set("solve_s", Median(solve_s), solve_s.size());
  out->Set("flows_per_s", flows / Median(solve_s), solve_s.size());
  out->Set("decision_p50_us", Median(all_rounds_us), all_rounds_us.size());
  out->Set("decision_p99_us", P99(all_rounds_us), all_rounds_us.size());
  out->Set("peak_rss_mb", Median(rss), rss.size());
  out->Set("avg_response", total_response / flows, instances.size());
  out->Set("max_response", sum_max / k, instances.size());
  out->notes["flows"] = flows;
  out->notes["instances"] = k;
  out->notes["rounds"] = static_cast<double>(all_rounds_us.size()) /
                         static_cast<double>(solve_s.size());
  out->notes["speed_factor"] = speed.median_factor();
}

// In-process replay of a session script: ParseWireLine for each line of a
// round, StreamingSimulator::Inject for each ARRIVE, then Step and the
// STATS line the daemon writes per TICK. With a trace, each of those is a
// span and the policy is wrapped in a TracedPolicy.
struct InprocResult {
  double seconds = 0.0;
  std::vector<double> round_us;
  flowsched::StreamingSummary summary;
  std::string error;
};

InprocResult ReplayInProcess(const SessionScript& script, SpanTrace* trace) {
  InprocResult result;
  const auto policy = flowsched::MakeServePolicy("online.srpt", &result.error);
  std::unique_ptr<TracedPolicy> traced;
  if (trace != nullptr) {
    traced = std::make_unique<TracedPolicy>(*policy, *trace, "serve.select");
  }
  std::ostringstream match_out;
  flowsched::StreamingOptions options;
  options.stats_every = 1;
  options.match_out = &match_out;
  flowsched::StreamingSimulator sim(
      script.sw, traced != nullptr ? *traced : *policy, options);
  std::vector<flowsched::WireCommand> commands;
  std::string line;
  const std::int64_t start = NowNs();
  for (std::size_t t = 0; t < script.rounds.size() || sim.backlog_size() > 0;
       ++t) {
    const std::int64_t round_start = NowNs();
    std::string_view text =
        t < script.rounds.size() ? std::string_view(script.rounds[t]) : "TICK\n";
    ScopedSpan round_span(trace, "serve.round");
    {
      ScopedSpan span(trace, "serve.parse");
      commands.clear();
      while (!text.empty()) {
        const std::size_t eol = text.find('\n');
        line.assign(text.substr(0, eol));
        text.remove_prefix(eol + 1);
        commands.emplace_back();
        if (!flowsched::ParseWireLine(line, &commands.back(), &result.error)) {
          return result;
        }
      }
    }
    {
      ScopedSpan span(trace, "serve.inject");
      for (const flowsched::WireCommand& c : commands) {
        if (c.kind == flowsched::WireCommand::Kind::kArrive &&
            !sim.Inject(c.flow, &result.error)) {
          return result;
        }
      }
    }
    {
      ScopedSpan span(trace, "serve.step");
      sim.Step();
    }
    {
      ScopedSpan span(trace, "serve.stats");
      line = sim.StatsLine();
    }
    match_out.str("");
    result.round_us.push_back(static_cast<double>(NowNs() - round_start) / 1e3);
  }
  result.seconds = Seconds(NowNs() - start);
  result.summary = sim.Summarize();
  return result;
}

// ---- Traced runs. --------------------------------------------------------

// Median over operations of a per-operation span figure.
double MedianPerOp(int ops, const std::function<double(int)>& per_op) {
  std::vector<double> v;
  for (int op = 0; op < ops; ++op) v.push_back(per_op(op));
  return Median(v);
}

// Median over operations of the summed time of the spans called `name`.
double MedianTotalMs(const SpanTrace& trace, const char* name, int ops) {
  return MedianPerOp(ops, [&](int op) { return trace.TotalMs(name, op); });
}

// LoadInstance time of one set-up (all of the run's instances), in ms.
double GenerateMs(const SpanTrace& trace, std::size_t setups) {
  return trace.TotalMs("workload.generate", -1) / static_cast<double>(setups);
}

std::vector<double> DurationsMs(const SpanTrace& trace, const char* name) {
  std::vector<double> ms;
  for (const std::int64_t d : trace.Durations(name)) {
    ms.push_back(static_cast<double>(d) / 1e6);
  }
  return ms;
}

// One operation is a pass over the run's instances; each instance is
// solved through the facade, simulated untraced and traced, and its traced
// schedule validated and measured by separate calls.
void TraceReplay(const Workload& w, const Args& args, SpanTrace& trace,
                 Result* out) {
  std::vector<double> setup;
  trace.set_op(-1);
  const std::vector<Instance> instances = Setup(w, args.seed, &trace, 3, &setup);
  const std::string policy_name = PolicyName(w);
  const auto& registry = flowsched::SolverRegistry::Global();
  std::vector<double> plain_s;
  // Summed over the instances of one pass (every pass repeats them).
  std::int64_t calls = 0;
  std::int64_t backlog = 0;
  flowsched::PolicyMatchingStats stats;
  std::vector<SolveReport> first(instances.size());
  int ops = 0;
  RepeatFor(args.seconds, [&](int op) {
    ops = op + 1;
    trace.set_op(op);
    calls = backlog = 0;
    stats = {};
    std::int64_t plain_ns = 0;
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const Instance& instance = instances[k];
      SolveReport report;
      {
        ScopedSpan span(&trace, "api.solve");
        report = registry.Solve(w.solver, instance);
      }
      std::string problem =
          CheckBatch(w, instance, report, op == 0 ? nullptr : &first[k]);

      // The untraced pass; it alternates sides with the traced one so
      // neither always runs on warmer caches.
      const auto plain_pass = [&] {
        const auto plain = flowsched::MakePolicy(policy_name);
        const std::int64_t t0 = NowNs();
        const flowsched::SimulationResult r =
            flowsched::Simulate(instance, *plain);
        plain_ns += NowNs() - t0;
      };
      if (op % 2 == 0) plain_pass();
      const auto inner = flowsched::MakePolicy(policy_name);
      TracedPolicy policy(*inner, trace, "online.select");
      const flowsched::SimulationResult sim = [&] {
        ScopedSpan span(&trace, "online.simulate");
        return flowsched::Simulate(instance, policy);
      }();
      if (op % 2 == 1) plain_pass();
      std::optional<std::string> invalid;
      {
        ScopedSpan span(&trace, "model.validate");
        invalid = sim.schedule.ValidationError(sim.realized);
      }
      flowsched::ScheduleMetrics metrics;
      {
        ScopedSpan span(&trace, "model.metrics");
        metrics = flowsched::ComputeMetrics(sim.realized, sim.schedule);
      }
      if (problem.empty() && invalid.has_value()) {
        problem = "traced: " + *invalid;
      }
      if (problem.empty() &&
          (metrics.avg_response != report.metrics.avg_response ||
           metrics.max_response != report.metrics.max_response)) {
        problem = "traced run's responses differ from the untraced solve's";
      }
      out->Op(problem);
      calls += policy.calls();
      backlog += policy.backlog_total();
      const flowsched::PolicyMatchingStats s = policy.matching_stats();
      stats.matcher_full_solves += s.matcher_full_solves;
      stats.matcher_cache_hits += s.matcher_cache_hits;
      stats.matcher_prefix_resumes += s.matcher_prefix_resumes;
      stats.matcher_reused_rows += s.matcher_reused_rows;
      stats.matcher_total_rows += s.matcher_total_rows;
      if (op == 0) first[k] = std::move(report);
    }
    plain_s.push_back(Seconds(plain_ns));
  });

  std::vector<double> select_us;
  for (const double ms : DurationsMs(trace, "online.select")) {
    select_us.push_back(ms * 1e3);
  }
  const double simulate_ms = MedianTotalMs(trace, "online.simulate", ops);
  const double select_ms = MedianTotalMs(trace, "online.select", ops);
  const double loop_self_ms = MedianPerOp(
      ops, [&](int op) { return trace.SelfMs("online.simulate", op); });
  const std::size_t n = static_cast<std::size_t>(ops);
  out->Set("workload.generate_ms", GenerateMs(trace, setup.size()),
           setup.size());
  out->Set("api.solve_ms", MedianTotalMs(trace, "api.solve", ops), n);
  out->Set("online.select_ms", select_ms, n);
  out->Set("online.select_p99_us", P99(select_us), select_us.size());
  out->Set("online.loop_self_ms", loop_self_ms, n);
  out->Set("online.select_calls", static_cast<double>(calls), 1);
  out->Set("online.backlog_mean",
           calls > 0 ? static_cast<double>(backlog) / calls : 0.0, 1);
  out->Set("graph.full_solves", static_cast<double>(stats.matcher_full_solves), 1);
  out->Set("graph.cache_hits", static_cast<double>(stats.matcher_cache_hits), 1);
  out->Set("graph.prefix_resumes",
           static_cast<double>(stats.matcher_prefix_resumes), 1);
  out->Set("graph.reuse_ratio",
           stats.matcher_total_rows > 0
               ? static_cast<double>(stats.matcher_reused_rows) /
                     static_cast<double>(stats.matcher_total_rows)
               : 0.0,
           1);
  out->Set("model.validate_ms", MedianTotalMs(trace, "model.validate", ops), n);
  out->Set("model.metrics_ms", MedianTotalMs(trace, "model.metrics", ops), n);
  out->Set("trace_overhead", simulate_ms / (Median(plain_s) * 1e3) - 1.0, n);
  out->notes["simulate_ms"] = simulate_ms;
  if (std::strcmp(w.name, "replay-maxweight") == 0) {
    out->Predict("selection is at least 90% of Simulate",
                 select_ms >= 0.9 * simulate_ms);
  } else {
    out->Predict("online.loop_self_ms is greater than online.select_ms",
                 loop_self_ms > select_ms);
  }
}

// LP(0) of the iterative rounding (aligned 4-round windows, constraint (7)
// of the paper) over `horizon` rounds, built row for row and column for
// column as ArtIterativeRounding builds it, so the lp layer can be timed
// on the very problem Theorem 1 solves first.
flowsched::LpProblem BuildArtLp0(const Instance& instance,
                                 flowsched::Round horizon) {
  const flowsched::SwitchSpec& sw = instance.sw();
  const int n = instance.num_flows();
  const int ports = sw.num_inputs() + sw.num_outputs();
  flowsched::LpProblem lp;
  for (int e = 0; e < n; ++e) lp.AddRow(flowsched::RowSense::kGe, 1.0);
  for (flowsched::Round a = 0; a < horizon / 4; ++a) {
    for (int p = 0; p < sw.num_inputs(); ++p) {
      lp.AddRow(flowsched::RowSense::kLe,
                4.0 * static_cast<double>(sw.input_capacity(p)));
    }
    for (int q = 0; q < sw.num_outputs(); ++q) {
      lp.AddRow(flowsched::RowSense::kLe,
                4.0 * static_cast<double>(sw.output_capacity(q)));
    }
  }
  std::vector<std::pair<int, double>> entries(3);
  for (const flowsched::Flow& f : instance.flows()) {
    for (flowsched::Round t = f.release; t < horizon; ++t) {
      const int window = n + (t / 4) * ports;
      entries[0] = {f.id, 1.0};
      entries[1] = {window + f.src, 1.0};
      entries[2] = {window + sw.num_inputs() + f.dst, 1.0};
      lp.AddColumn(static_cast<double>(t - f.release) + 0.5, entries);
    }
  }
  return lp;
}

// One operation is a pass over the run's instances; each instance is
// solved through the facade, scheduled untraced and traced, rounded alone
// and has its LP(0) solved alone.
void TraceOffline(const Workload& w, const Args& args, SpanTrace& trace,
                  Result* out) {
  std::vector<double> setup;
  trace.set_op(-1);
  const std::vector<Instance> instances = Setup(w, args.seed, &trace, 3, &setup);
  const auto& registry = flowsched::SolverRegistry::Global();
  flowsched::ArtSchedulerOptions options;
  options.c = kArtC;
  std::vector<double> plain_s;
  double rounding_iterations = 0.0;
  double lp_iterations = 0.0;
  double lp_rows = 0.0;
  double lp_cols = 0.0;
  std::vector<SolveReport> first(instances.size());
  int ops = 0;
  RepeatFor(args.seconds, [&](int op) {
    ops = op + 1;
    trace.set_op(op);
    std::int64_t plain_ns = 0;
    rounding_iterations = lp_iterations = lp_rows = lp_cols = 0.0;
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const Instance& instance = instances[k];
      SolveReport report;
      {
        ScopedSpan span(&trace, "api.solve");
        report = registry.Solve(w.solver, instance);
      }
      std::string problem =
          CheckBatch(w, instance, report, op == 0 ? nullptr : &first[k]);
      const auto plain_pass = [&] {
        const std::int64_t t0 = NowNs();
        const flowsched::ArtSchedulerResult r =
            flowsched::ScheduleArtWithAugmentation(instance, options);
        plain_ns += NowNs() - t0;
      };
      if (op % 2 == 0) plain_pass();
      const flowsched::ArtSchedulerResult result = [&] {
        ScopedSpan span(&trace, "art.schedule");
        return flowsched::ScheduleArtWithAugmentation(instance, options);
      }();
      if (op % 2 == 1) plain_pass();
      flowsched::ArtRoundingReport rounding;
      {
        ScopedSpan span(&trace, "art.rounding");
        flowsched::ArtIterativeRounding(instance, options.rounding, &rounding);
      }
      const flowsched::LpProblem lp = BuildArtLp0(instance, rounding.horizon);
      const flowsched::SimplexResult lp0 = [&] {
        ScopedSpan span(&trace, "lp.lp0");
        return flowsched::SolveLp(lp, options.rounding.simplex);
      }();
      std::optional<std::string> invalid;
      {
        ScopedSpan span(&trace, "model.validate");
        invalid = result.schedule.ValidationError(instance, result.allowance);
      }
      flowsched::ScheduleMetrics metrics;
      {
        ScopedSpan span(&trace, "model.metrics");
        metrics = flowsched::ComputeMetrics(instance, result.schedule);
      }
      if (problem.empty() && invalid.has_value()) {
        problem = "traced: " + *invalid;
      }
      if (problem.empty() &&
          (metrics.avg_response != report.metrics.avg_response ||
           metrics.max_response != report.metrics.max_response)) {
        problem = "traced run's responses differ from the untraced solve's";
      }
      if (problem.empty() &&
          (!lp0.ok() || std::abs(lp0.objective - rounding.lp0_objective) >
                            1e-6 * std::max(1.0, rounding.lp0_objective))) {
        problem = "LP(0) solved alone differs from the rounding's LP(0)";
      }
      out->Op(problem);
      if (op == 0) first[k] = std::move(report);
      rounding_iterations += rounding.iterations;
      lp_iterations += static_cast<double>(lp0.iterations);
      lp_rows += lp.num_rows();
      lp_cols += lp.num_cols();
    }
    plain_s.push_back(Seconds(plain_ns));
  });
  const std::size_t n = static_cast<std::size_t>(ops);
  const double solve_ms = MedianTotalMs(trace, "api.solve", ops);
  const double schedule_ms = MedianTotalMs(trace, "art.schedule", ops);
  const double rounding_ms = MedianTotalMs(trace, "art.rounding", ops);
  out->Set("workload.generate_ms", GenerateMs(trace, setup.size()),
           setup.size());
  out->Set("api.solve_ms", solve_ms, n);
  out->Set("model.validate_ms", MedianTotalMs(trace, "model.validate", ops), n);
  out->Set("model.metrics_ms", MedianTotalMs(trace, "model.metrics", ops), n);
  out->Set("art.rounding_ms", rounding_ms, n);
  out->Set("art.rounding_iterations", rounding_iterations, 1);
  out->Set("art.pack_ms", schedule_ms - rounding_ms, n);
  out->Set("lp.lp0_ms", MedianTotalMs(trace, "lp.lp0", ops), n);
  out->Set("lp.simplex_iterations", lp_iterations, 1);
  out->Set("lp.rows", lp_rows, 1);
  out->Set("lp.cols", lp_cols, 1);
  out->Set("trace_overhead", schedule_ms / (Median(plain_s) * 1e3) - 1.0, n);
  out->notes["instances"] = static_cast<double>(instances.size());
  out->Predict("art.rounding_ms is at least 90% of solve_s",
               rounding_ms >= 0.9 * solve_ms);
}

// One operation is a pass: one session per instance, each followed (or
// preceded, alternately) by untraced and traced in-process replays of its
// script.
void TraceServe(const Workload& w, const Args& args, SpanTrace& trace,
                Result* out) {
  Sessions sessions;
  std::vector<double> setup;
  trace.set_op(-1);
  const std::vector<Instance> instances =
      Setup(w, args.seed, &trace, 3, &setup, sessions.Render());
  const std::vector<flowsched::ScheduleMetrics> reference = [&] {
    ScopedSpan span(&trace, "api.solve");
    return ReferenceMetrics(instances, out);
  }();
  // Per pass, summed over its sessions.
  std::vector<double> session_s, cpu_s, busy, reply_bytes;
  std::vector<double> plain_s, traced_s;
  // Pooled over every round of every pass.
  std::vector<double> session_round_us, inproc_us;
  double rounds = 0.0;
  int ops = 0;
  RepeatFor(args.seconds, [&](int op) {
    ops = op + 1;
    trace.set_op(op);
    double pass_s = 0.0, pass_cpu_s = 0.0, pass_bytes = 0.0;
    double pass_plain_s = 0.0, pass_traced_s = 0.0;
    rounds = 0.0;
    for (std::size_t k = 0; k < instances.size(); ++k) {
      const SessionScript& script = sessions.scripts[k];
      const SessionResult session = RunServeSession(DaemonArgv(script), script);
      AuditSession(script, session, reference[k].total_response, out);
      rounds += static_cast<double>(session.round_us.size());
      pass_s += session.session_s;
      pass_cpu_s += session.cpu_s;
      pass_bytes += static_cast<double>(session.reply_bytes);
      session_round_us.insert(session_round_us.end(),
                              session.round_us.begin(), session.round_us.end());

      // Alternate which replay goes first, so neither always runs warmer.
      InprocResult plain;
      if (op % 2 == 0) plain = ReplayInProcess(script, nullptr);
      const InprocResult traced = ReplayInProcess(script, &trace);
      if (op % 2 == 1) plain = ReplayInProcess(script, nullptr);
      pass_plain_s += plain.seconds;
      pass_traced_s += traced.seconds;
      inproc_us.insert(inproc_us.end(), plain.round_us.begin(),
                       plain.round_us.end());
      for (const InprocResult& r : {std::cref(plain), std::cref(traced)}) {
        if (!r.error.empty()) {
          out->problems.push_back("in-process replay: " + r.error);
        } else if (r.summary.total_response != reference[k].total_response ||
                   r.summary.max_response != reference[k].max_response) {
          out->problems.push_back(
              "in-process replay's responses differ from the batch replay's");
        }
      }
    }
    session_s.push_back(pass_s);
    cpu_s.push_back(pass_cpu_s);
    busy.push_back(pass_cpu_s / pass_s);
    reply_bytes.push_back(pass_bytes / rounds);
    plain_s.push_back(pass_plain_s);
    traced_s.push_back(pass_traced_s);
  });
  double request_bytes = 0.0;
  double script_rounds = 0.0;
  for (const SessionScript& script : sessions.scripts) {
    request_bytes += static_cast<double>(script.bytes);
    script_rounds += static_cast<double>(script.rounds.size());
  }
  const std::size_t n = static_cast<std::size_t>(ops);
  const double inproc_p50 = Median(inproc_us);
  const double select_ms = MedianTotalMs(trace, "serve.select", ops);
  const double session_ms = Median(session_s) * 1e3;
  out->Set("workload.generate_ms", GenerateMs(trace, setup.size()),
           setup.size());
  out->Set("api.solve_ms", trace.TotalMs("api.solve", -1), 1);
  out->Set("serve.parse_ms", MedianTotalMs(trace, "serve.parse", ops), n);
  out->Set("serve.inject_ms", MedianTotalMs(trace, "serve.inject", ops), n);
  out->Set("serve.step_self_ms",
           MedianPerOp(ops, [&](int op) { return trace.SelfMs("serve.step", op); }),
           n);
  out->Set("serve.select_ms", select_ms, n);
  out->Set("serve.stats_ms", MedianTotalMs(trace, "serve.stats", ops), n);
  out->Set("serve.inproc_p50_us", inproc_p50, inproc_us.size());
  out->Set("serve.ipc_p50_us", Median(session_round_us) - inproc_p50,
           session_round_us.size());
  out->Set("serve.daemon_cpu_s", Median(cpu_s), n);
  out->Set("serve.daemon_busy_ratio", Median(busy), n);
  out->Set("serve.request_bytes", request_bytes / script_rounds,
           sessions.scripts.size());
  out->Set("serve.reply_bytes", Median(reply_bytes), n);
  out->Set("trace_overhead", Median(traced_s) / Median(plain_s) - 1.0, n);
  out->notes["session_ms"] = session_ms;
  out->notes["rounds"] = rounds;
  out->Predict("serve.select_ms is less than half of the session time",
               select_ms < 0.5 * session_ms);
}

// ---- Output. -------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int i = CPU_SETSIZE - 1; i >= 0 && cpu < 0; --i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void Print(const Args& args, int cpu, const Result& r) {
  const Workload& w = *args.workload;
  const flowsched::Provenance p = flowsched::CollectProvenance();
  const bool correct = r.failed == 0 && r.problems.empty();
  const double failed_ratio =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::cout << "workload " << w.name << " seed " << args.seed
            << (args.trace ? " (traced)" : "") << ": " << w.why << '\n';
  for (const Metric& m : r.metrics) {
    std::cout << "  " << m.name << " = " << Num(m.value) << ' ' << m.unit
              << " (n=" << m.samples << ")\n";
  }
  std::cout << "  failed_ratio = " << Num(failed_ratio) << " (" << r.failed
            << " of " << r.attempted << " operations)\n";
  for (const auto& [name, value] : r.notes) {
    std::cout << "  [" << name << " = " << Num(value) << "]\n";
  }
  for (const std::string& claim : r.predictions) {
    std::cout << "  prediction: " << claim << '\n';
  }
  for (const std::string& problem : r.problems) {
    std::cout << "  FAILED: " << problem << '\n';
  }

  std::ostringstream metrics;
  std::ostringstream samples;
  for (const Metric& m : r.metrics) {
    const char* sep = &m == &r.metrics.front() ? "" : ", ";
    metrics << sep << '"' << m.name << "\": {\"value\": " << Num(m.value)
            << ", \"unit\": \"" << m.unit << "\"}";
    samples << sep << '"' << m.name << "\": " << m.samples;
  }
  std::ostringstream report;
  report << "{\"report\": {" << flowsched::JsonStr("workload", w.name) << ", "
         << flowsched::JsonStr("why", w.why) << ", "
         << flowsched::JsonStr("instances",
                               std::to_string(w.instances) + " x " + w.spec +
                                   ",seed=" + std::to_string(args.seed) +
                                   "000+i")
         << ", " << flowsched::JsonStr("solver", w.solver)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << Num(args.seconds)
         << ", \"trace\": " << (args.trace ? 1 : 0) << ", "
         << flowsched::JsonStr("git_sha", p.git_sha) << ", "
         << flowsched::JsonStr("build_type", p.build_type) << ", "
         << flowsched::JsonStr("compiler", p.compiler) << ", "
         << flowsched::JsonStr("compiler_flags", p.compiler_flags)
         << ", \"nproc\": " << p.hardware_threads
         << ", \"pinned_cpu\": " << cpu
         << ", \"failed_ratio\": " << Num(failed_ratio)
         << ", \"samples\": {" << samples.str() << "}, \"predictions\": [";
  for (std::size_t i = 0; i < r.predictions.size(); ++i) {
    report << (i ? ", " : "") << '"' << flowsched::JsonEscape(r.predictions[i])
           << '"';
  }
  report << "], \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size() && i < 20; ++i) {
    report << (i ? ", " : "") << '"' << flowsched::JsonEscape(r.problems[i])
           << '"';
  }
  report << "]}}";
  std::cout << report.str() << '\n';
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 == argc) {
      *error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) {
        *error = "unknown workload " + value;
        return false;
      }
    } else if (key == "--seed") {
      // Multi-instance workloads derive seed * 1000 + i, which must stay
      // within the generators' signed 64-bit seed.
      args->seed = std::stoull(value);
      if (args->seed > 1'000'000'000'000'000ULL) {
        *error = "--seed must be at most 10^15";
        return false;
      }
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      *error = "unknown argument " + key;
      return false;
    }
  }
  if (args->workload == nullptr) *error = "--workload is required";
  return error->empty();
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  try {
    if (!ParseArgs(argc, argv, &args, &error)) {
      std::cerr << "perfbench_driver: " << error << '\n';
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: bad number: " << e.what() << '\n';
    return 2;
  }
  // A daemon that dies mid-session must fail the session, not the driver.
  ::signal(SIGPIPE, SIG_IGN);
  // One core for the driver and, by inheritance, the daemon it starts.
  const int cpu = PinToOneCpu();
  const Workload& w = *args.workload;
  Result result;
  for (const auto& [name, unit] : args.trace ? kPerLayer : kEndToEnd) {
    result.metrics.push_back(Metric{name, unit, 0.0, 0});
  }
  if (!args.trace) {
    if (w.kind == Kind::kServe) {
      RunServe(w, args, &result);
    } else {
      RunBatch(w, args, &result);
    }
  } else {
    SpanTrace trace;
    if (w.kind == Kind::kReplay) {
      TraceReplay(w, args, trace, &result);
    } else if (w.kind == Kind::kOffline) {
      TraceOffline(w, args, trace, &result);
    } else {
      TraceServe(w, args, trace, &result);
    }
    if (!args.spans_out.empty() && !trace.WriteCsv(args.spans_out)) {
      result.problems.push_back("cannot write " + args.spans_out);
    }
  }
  Print(args, cpu, result);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
