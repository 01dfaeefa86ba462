// flowsched_serve: the streaming scheduler daemon — drive an online or
// coflow policy over an unbounded flow stream, emitting per-round MATCH
// lines and periodic JSONL stats with O(live flows) memory.
//
// Modes (first match wins):
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
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>

#include "api/stream_source.h"
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
    } else if (arg == "--no-match") {
      cli.serve.emit_match = false;
    } else if (arg == "--no-validate") {
      cli.serve.validate = false;
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
      if (error.empty() && (n < 1 || n > 65535)) {
        error = "--tcp needs a port in 1..65535, got " + value;
      }
      cli.tcp_port = static_cast<int>(n);
    } else if (count("ports")) {
      if (error.empty() && (n < 1 || n > std::numeric_limits<int>::max())) {
        error = "--ports needs 1 <= N < 2^31, got " + value;
      }
      cli.ports = static_cast<int>(n);
    } else if (count("cap")) {
      if (error.empty() && n < 1) error = "--cap needs C >= 1, got " + value;
      cli.cap = n;
    } else if (count("seed")) {
      cli.serve.seed = static_cast<std::uint64_t>(n);
    } else if (count("stats-every")) {
      if (error.empty() && n < 0) {
        error = "--stats-every needs N >= 0, got " + value;
      }
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

int Main(int argc, char** argv) {
  ServeCli cli;
  std::string error;
  if (!ParseArgs(argc, argv, cli, error)) {
    std::cerr << "flowsched_serve: " << error << '\n';
    return 2;
  }
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
