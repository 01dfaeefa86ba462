// flowsched_serve: the streaming scheduler daemon — drive an online or
// coflow policy over an unbounded flow stream, emitting per-round MATCH
// lines and periodic JSONL stats with O(live flows) memory.
//
// Modes (first match wins):
//   --smoke          self-check: stream a generated instance through both
//                    the trace path and the wire protocol and require the
//                    realized schedule and aggregates to be bit-identical
//                    to the batch simulator; exit nonzero on any mismatch
//   --spec=SPEC      pull arrivals from a generator spec (poisson|coflow|
//                    cdf, same keys as flowsched_cli --instance, plus
//                    rounds=inf for an endless stream)
//   --trace=PATH     stream an instance CSV row by row ("-" = stdin)
//   --tcp=PORT       wire protocol over TCP, one client (POSIX only)
//   --unix=PATH      wire protocol over a unix socket, one client
//   (default)        wire protocol on stdin/stdout
//
// Wire protocol (docs/serve-protocol.md): clients send
//   ARRIVE id src dst size [coflow] | TICK | STATS | STOP
// and receive MATCH / STATS / ERROR lines plus a final DONE summary.
//
// Examples:
//   flowsched_serve --spec "poisson:ports=64,load=0.9,rounds=1000000"
//   flowsched_serve --trace=trace.csv --policy=coflow.sebf --stats-every=64
//   printf 'ARRIVE 0 0 1 1\nTICK\nSTOP\n' | flowsched_serve --ports=4
//
// SIGINT/SIGTERM request a graceful stop: the session finishes its current
// round and emits the final DONE summary before the process exits. Socket
// accept/read errors are logged and the daemon keeps accepting — only a
// signal (or --tcp/--unix bind failure at startup) ends it.
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "api/instance_source.h"
#include "api/stream_source.h"
#include "core/online/simulator.h"
#include "model/schedule.h"
#include "model/trace_io.h"
#include "scenario/scenario.h"
#include "serve/daemon.h"
#include "serve/stream_sources.h"

#if defined(__unix__) || defined(__APPLE__)
#define FLOWSCHED_HAVE_SOCKETS 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace flowsched {
namespace {

// Set by the SIGINT/SIGTERM handler; every session loop polls it between
// rounds, so a signal drains the current round and still emits DONE.
volatile std::sig_atomic_t g_stop = 0;

extern "C" void HandleStopSignal(int) { g_stop = 1; }

void InstallStopHandlers() {
#if defined(__unix__) || defined(__APPLE__)
  // No SA_RESTART: a signal must interrupt the blocking read()/accept() so
  // the session loop can observe g_stop instead of sleeping in the kernel.
  struct sigaction sa {};
  sa.sa_handler = HandleStopSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
#endif
}

struct ServeCli {
  std::string spec;
  std::string trace;
  std::string unix_path;
  std::string scenario;   // --scenario: path or inline:<script>.
  int tcp_port = -1;
  int ports = 16;         // Wire-mode switch geometry.
  long long cap = 1;
  bool smoke = false;
  ServeOptions serve;
};

void PrintUsage(std::ostream& out) {
  out << "flowsched_serve: streaming scheduler daemon.\n"
         "  --spec=SPEC        generator stream (poisson|coflow|cdf:k=v,...;\n"
         "                     rounds=inf for an endless stream)\n"
         "  --trace=PATH       stream an instance CSV; \"-\" reads stdin\n"
         "  --tcp=PORT         wire protocol over TCP (clients served one "
         "at a time)\n"
         "  --unix=PATH        wire protocol over a unix socket\n"
         "  --policy=NAME      online.<p> or coflow.<p> (default "
         "online.srpt)\n"
         "  --scenario=S       fault-injection script: a path or "
         "inline:<script>\n"
         "                     with ';' line separators "
         "(docs/scenarios.md)\n"
         "  --ports=N          wire-mode switch: N inputs and N outputs\n"
         "  --cap=C            wire-mode switch: uniform port capacity\n"
         "  --seed=N           RNG seed for randomized policies\n"
         "  --stats-every=N    emit a stats line every N rounds\n"
         "  --max-rounds=N     truncate after N rounds (default: run to "
         "drain)\n"
         "  --no-match         suppress per-round MATCH lines\n"
         "  --no-validate      skip per-round selection audits\n"
         "  --approx=EPS       eps-approximate auction matcher for\n"
         "                     maxweight policies (default 0 = the exact\n"
         "                     Hungarian matcher)\n"
         "  --smoke            run the streaming-vs-batch self-check\n"
         "With no mode flag, speaks the wire protocol on stdin/stdout\n"
         "(docs/serve-protocol.md). SIGINT/SIGTERM finish the current\n"
         "round and emit the final DONE summary.\n";
}

// Accepts --name=value and --name value.
bool TakeValue(int argc, char** argv, int& i, const std::string& name,
               std::string* value) {
  const std::string arg = argv[i];
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    *value = arg.substr(prefix.size());
    return true;
  }
  if (arg == "--" + name && i + 1 < argc) {
    *value = argv[++i];
    return true;
  }
  return false;
}

bool ParseCount(const std::string& value, long long* out) {
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || end == value.c_str()) return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, ServeCli& cli, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    long long n = 0;
    const auto count = [&](const char* name) {
      if (!TakeValue(argc, argv, i, name, &value)) return false;
      if (!ParseCount(value, &n)) {
        error = arg + ": expected an integer, got \"" + value + "\"";
        n = -1;  // Error already set; caller returns false below.
      }
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      std::exit(0);
    } else if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--no-match") {
      cli.serve.emit_match = false;
    } else if (arg == "--no-validate") {
      cli.serve.validate = false;
    } else if (TakeValue(argc, argv, i, "approx", &value)) {
      char* end = nullptr;
      cli.serve.matching.approx_eps = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' ||
          !std::isfinite(cli.serve.matching.approx_eps) ||
          cli.serve.matching.approx_eps < 0.0) {
        error = "--approx needs a finite number >= 0, got \"" + value + "\"";
        return false;
      }
    } else if (TakeValue(argc, argv, i, "spec", &value)) {
      cli.spec = value;
    } else if (TakeValue(argc, argv, i, "trace", &value)) {
      cli.trace = value;
    } else if (TakeValue(argc, argv, i, "unix", &value)) {
      cli.unix_path = value;
    } else if (TakeValue(argc, argv, i, "policy", &value)) {
      cli.serve.policy = value;
    } else if (TakeValue(argc, argv, i, "scenario", &value)) {
      cli.scenario = value;
    } else if (count("tcp")) {
      cli.tcp_port = static_cast<int>(n);
    } else if (count("ports")) {
      cli.ports = static_cast<int>(n);
    } else if (count("cap")) {
      cli.cap = n;
    } else if (count("seed")) {
      cli.serve.seed = static_cast<std::uint64_t>(n);
    } else if (count("stats-every")) {
      cli.serve.stats_every = static_cast<Round>(n);
    } else if (count("max-rounds")) {
      cli.serve.max_rounds = static_cast<Round>(n);
    } else {
      error = "unknown argument \"" + arg + "\" (try --help)";
      return false;
    }
    if (!error.empty()) return false;
  }
  return true;
}

#ifdef FLOWSCHED_HAVE_SOCKETS
// A minimal streambuf that reads one fd and writes another (the same fd
// for a socket) in blocks — enough iostream for RunWireSession, nothing
// more. A read that a signal interrupts returns EOF, so SIGINT/SIGTERM
// ends a session idle on input and it still writes DONE.
class FdStreamBuf : public std::streambuf {
 public:
  FdStreamBuf(int in_fd, int out_fd) : in_fd_(in_fd), out_fd_(out_fd) {
    setg(rbuf_, rbuf_, rbuf_);
    setp(wbuf_, wbuf_ + sizeof(wbuf_));
  }
  ~FdStreamBuf() override { sync(); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(in_fd_, rbuf_, sizeof(rbuf_));
    if (n <= 0) return traits_type::eof();
    setg(rbuf_, rbuf_, rbuf_ + n);
    return traits_type::to_int_type(rbuf_[0]);
  }

  int_type overflow(int_type ch) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(out_fd_, p, static_cast<size_t>(pptr() - p));
      if (n <= 0) return -1;
      p += n;
    }
    setp(wbuf_, wbuf_ + sizeof(wbuf_));
    return 0;
  }

 private:
  int in_fd_;
  int out_fd_;
  char rbuf_[4096];
  char wbuf_[4096];
};

// One wire session over the given fds. Like std::cin and std::cout,
// reading the next command flushes the pending replies, so a client that
// waits for a round's reply before sending the next round gets it.
StreamingSummary ServeFds(int in_fd, int out_fd, const SwitchSpec& sw,
                          const ServeOptions& options) {
  FdStreamBuf buf(in_fd, out_fd);
  std::istream in(&buf);
  std::ostream out(&buf);
  in.tie(&out);
  return RunWireSession(sw, in, out, options);
}

// Serves wire sessions one client at a time until a stop signal arrives.
// A failed accept (or a client whose connection died mid-session — the
// session just sees EOF and summarizes) is logged and the daemon keeps
// accepting; nothing a client does can take the listener down.
int ServeSocket(int listen_fd, const SwitchSpec& sw,
                const ServeOptions& options) {
  int status = 0;
  while (g_stop == 0) {
    std::fprintf(stderr, "flowsched_serve: waiting for a client...\n");
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client < 0) {
      if (g_stop != 0 || errno == EINTR) break;
      std::perror("flowsched_serve: accept (continuing)");
      continue;
    }
    const StreamingSummary summary = ServeFds(client, client, sw, options);
    if (summary.source_error) {
      std::fprintf(stderr, "flowsched_serve: session error: %s (continuing)\n",
                   summary.error.c_str());
      status = 1;
    }
    ::close(client);
  }
  ::close(listen_fd);
  return status;
}

int ServeTcp(int port, const SwitchSpec& sw, const ServeOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 1) != 0) {
    std::perror("bind/listen");
    ::close(fd);
    return 1;
  }
  std::fprintf(stderr, "flowsched_serve: listening on 127.0.0.1:%d\n", port);
  return ServeSocket(fd, sw, options);
}

int ServeUnix(const std::string& path, const SwitchSpec& sw,
              const ServeOptions& options) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "unix socket path too long\n");
    return 1;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 1) != 0) {
    std::perror("bind/listen");
    ::close(fd);
    return 1;
  }
  std::fprintf(stderr, "flowsched_serve: listening on %s\n", path.c_str());
  return ServeSocket(fd, sw, options);
}
#endif  // FLOWSCHED_HAVE_SOCKETS

// --- --smoke: streaming-vs-batch equivalence self-check. ------------------

bool SmokeFail(const std::string& what) {
  std::cerr << "SMOKE FAIL: " << what << '\n';
  return false;
}

// Splits captured daemon output into MATCH assignments + sanity-checks
// every line's shape. `prefixed` selects wire framing ("STATS {...}")
// versus source framing (bare JSONL).
bool ParseMatchLines(const std::string& output, bool prefixed,
                     std::map<FlowId, Round>* assigned) {
  std::istringstream lines(output);
  std::string line;
  Round last_round = -1;
  bool saw_done = false;
  while (std::getline(lines, line)) {
    if (line.rfind("MATCH ", 0) == 0) {
      std::istringstream fields(line.substr(6));
      Round t = -1;
      if (!(fields >> t) || t < 0 || t < last_round) {
        return SmokeFail("bad MATCH round in \"" + line + "\"");
      }
      last_round = t;
      FlowId id = -1;
      int picked = 0;
      while (fields >> id) {
        if (!assigned->emplace(id, t).second) {
          return SmokeFail("flow " + std::to_string(id) + " matched twice");
        }
        ++picked;
      }
      if (picked == 0 || !fields.eof()) {
        return SmokeFail("malformed MATCH line \"" + line + "\"");
      }
    } else if (line.rfind("DONE {", 0) == 0) {
      saw_done = true;
    } else if (prefixed ? line.rfind("STATS {\"round\":", 0) == 0
                        : line.rfind("{\"round\":", 0) == 0) {
      // Periodic or requested stats line; shape-checked by the prefix.
    } else {
      return SmokeFail("unexpected output line \"" + line + "\"");
    }
  }
  if (!saw_done) return SmokeFail("no DONE summary line");
  return true;
}

bool CheckSummary(const char* path, const StreamingSummary& summary,
                  const SimulationResult& batch, int num_flows) {
  const auto fail = [&](const std::string& what) {
    return SmokeFail(std::string(path) + ": " + what);
  };
  if (summary.source_error || !summary.error.empty()) {
    return fail("source error: " + summary.error);
  }
  if (summary.truncated) return fail("unexpectedly truncated");
  if (summary.flows != num_flows || summary.arrived != num_flows) {
    return fail("flows=" + std::to_string(summary.flows) + " arrived=" +
                std::to_string(summary.arrived) + ", want " +
                std::to_string(num_flows));
  }
  if (summary.rounds != batch.rounds) {
    return fail("rounds=" + std::to_string(summary.rounds) + ", batch " +
                std::to_string(batch.rounds));
  }
  if (summary.total_response != batch.metrics.total_response ||
      summary.max_response != batch.metrics.max_response) {
    return fail("response aggregates diverge from batch");
  }
  if (summary.peak_backlog != batch.peak_backlog) {
    return fail("peak_backlog=" + std::to_string(summary.peak_backlog) +
                ", batch " + std::to_string(batch.peak_backlog));
  }
  if (summary.avg_port_utilization != batch.avg_port_utilization) {
    return fail("utilization diverges from batch");
  }
  return true;
}

bool CheckSchedule(const char* path, const std::map<FlowId, Round>& assigned,
                   const SimulationResult& batch) {
  Schedule streamed(batch.schedule.num_flows());
  for (const auto& [id, t] : assigned) {
    if (id < 0 || id >= streamed.num_flows()) {
      return SmokeFail(std::string(path) + ": matched unknown flow id " +
                       std::to_string(id));
    }
    streamed.Assign(id, t);
  }
  std::ostringstream got;
  std::ostringstream want;
  WriteScheduleCsv(streamed, got);
  WriteScheduleCsv(batch.schedule, want);
  if (got.str() != want.str()) {
    return SmokeFail(std::string(path) +
                     ": realized schedule differs from batch");
  }
  return true;
}

int RunSmoke(const ServeCli& cli) {
  ServeOptions options = cli.serve;
  options.stats_every = options.stats_every > 0 ? options.stats_every : 128;
  options.emit_match = true;

  // Batch reference policy (fresh policies are built inside each streaming
  // session from the same name + seed).
  std::string error;
  const auto batch_policy = MakeServePolicy(options.policy, &error,
                                            options.seed);
  if (batch_policy == nullptr) return SmokeFail(error), 1;

  // ~6k flows: big enough to exercise retirement and stats windows, small
  // enough for a CI leg. Matching-based policies only take unit demands.
  const std::string spec =
      batch_policy->RequiresUnitDemands()
          ? "poisson:ports=16,cap=2,load=0.95,rounds=400,dmax=1,seed=7"
          : "poisson:ports=16,cap=2,load=0.95,rounds=400,dmax=4,seed=7";
  const auto instance = LoadInstance(spec, &error);
  if (!instance.has_value()) return SmokeFail(error), 1;
  const SimulationResult batch = Simulate(*instance, *batch_policy);

  // Path 1: the trace pipeline (CSV text -> TraceStreamSource -> daemon).
  std::ostringstream csv;
  WriteInstanceCsv(*instance, csv);
  std::istringstream trace_in(csv.str());
  TraceStreamSource trace(trace_in);
  std::ostringstream trace_out;
  const StreamingSummary trace_summary =
      RunSourceSession(trace, trace_out, options);
  std::map<FlowId, Round> trace_assigned;
  if (!ParseMatchLines(trace_out.str(), /*prefixed=*/false, &trace_assigned) ||
      !CheckSummary("trace", trace_summary, batch, instance->num_flows()) ||
      !CheckSchedule("trace", trace_assigned, batch)) {
    return 1;
  }

  // Path 2: the wire protocol, replaying the same arrivals round by round.
  std::ostringstream script;
  int next_flow = 0;
  for (Round t = 0; t < batch.rounds; ++t) {
    while (next_flow < instance->num_flows() &&
           instance->flow(next_flow).release == t) {
      const Flow& f = instance->flow(next_flow);
      script << "ARRIVE " << f.id << ' ' << f.src << ' ' << f.dst << ' '
             << f.demand << '\n';
      ++next_flow;
    }
    script << "TICK\n";
  }
  script << "STOP\n";
  std::istringstream wire_in(script.str());
  std::ostringstream wire_out;
  const StreamingSummary wire_summary =
      RunWireSession(instance->sw(), wire_in, wire_out, options);
  std::map<FlowId, Round> wire_assigned;
  if (!ParseMatchLines(wire_out.str(), /*prefixed=*/true, &wire_assigned) ||
      !CheckSummary("wire", wire_summary, batch, instance->num_flows()) ||
      !CheckSchedule("wire", wire_assigned, batch)) {
    return 1;
  }

  std::cout << "SMOKE OK: " << instance->num_flows() << " flows, "
            << batch.rounds << " rounds, policy " << options.policy
            << ", streaming == batch on both paths\n";
  return 0;
}

int Main(int argc, char** argv) {
  ServeCli cli;
  std::string error;
  if (!ParseArgs(argc, argv, cli, error)) {
    std::cerr << "flowsched_serve: " << error << '\n';
    return 2;
  }
  if (cli.smoke) return RunSmoke(cli);

  InstallStopHandlers();
  cli.serve.stop = &g_stop;
  ScenarioScript scenario;
  if (!cli.scenario.empty()) {
    if (!LoadScenarioParam(cli.scenario, &scenario, &error)) {
      std::cerr << "flowsched_serve: scenario: " << error << '\n';
      return 2;
    }
    cli.serve.scenario = &scenario;
  }

  if (!cli.spec.empty() || !cli.trace.empty()) {
    std::unique_ptr<ArrivalSource> source;
    // Owns the stdin-backed source when --trace=-; unused otherwise.
    std::unique_ptr<TraceStreamSource> stdin_trace;
    if (!cli.spec.empty()) {
      source = MakeStreamSource(cli.spec, &error);
    } else if (cli.trace == "-") {
      stdin_trace = std::make_unique<TraceStreamSource>(std::cin);
      if (!stdin_trace->ok()) error = "stdin: " + stdin_trace->error();
    } else {
      source = MakeStreamSource(cli.trace, &error);
    }
    ArrivalSource* active =
        stdin_trace != nullptr ? stdin_trace.get() : source.get();
    if (active == nullptr || !error.empty()) {
      std::cerr << "flowsched_serve: " << error << '\n';
      return 2;
    }
    const StreamingSummary summary =
        RunSourceSession(*active, std::cout, cli.serve);
    return summary.source_error ? 1 : 0;
  }

  const SwitchSpec sw = SwitchSpec::Uniform(cli.ports, cli.ports, cli.cap);
  if (cli.tcp_port >= 0 || !cli.unix_path.empty()) {
#ifdef FLOWSCHED_HAVE_SOCKETS
    return cli.tcp_port >= 0 ? ServeTcp(cli.tcp_port, sw, cli.serve)
                             : ServeUnix(cli.unix_path, sw, cli.serve);
#else
    std::cerr << "flowsched_serve: sockets unavailable on this platform; "
                 "use stdin/stdout or --trace\n";
    return 2;
#endif
  }
#ifdef FLOWSCHED_HAVE_SOCKETS
  // Not std::cin/std::cout: synced with C stdio they move a character per
  // call, and unsynced, std::cin retries a read that a signal interrupted.
  const StreamingSummary summary =
      ServeFds(STDIN_FILENO, STDOUT_FILENO, sw, cli.serve);
#else
  const StreamingSummary summary =
      RunWireSession(sw, std::cin, std::cout, cli.serve);
#endif
  return summary.source_error ? 1 : 0;
}

}  // namespace
}  // namespace flowsched

int main(int argc, char** argv) { return flowsched::Main(argc, argv); }
