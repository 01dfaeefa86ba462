// Closed-loop client for flowsched_serve over stdin/stdout.
//
// The client renders an instance's arrivals as a wire session script,
// starts the daemon as a child process, and sends one round at a time: the
// round's ARRIVE lines and a TICK, then it waits for the round's reply
// before sending the next, as a switch must have the current matching
// before it can run the next round. After the last arrival round it keeps
// sending TICKs until every sent id has been matched.
//
// The daemon runs with --stats-every=1, because a TICK whose selection is
// empty emits no MATCH line; the STATS line it then writes after every TICK
// marks the end of each round's reply (and adds one line per round to the
// timed path). Pipes rather than --unix/--tcp: RunWireSession never flushes
// after a round, and only stdio mode delivers each reply at once (std::cin
// is tied to std::cout); the socket modes buffer replies until the session
// ends, which would stall a closed-loop client.
#ifndef PERFBENCH_SERVE_CLIENT_H_
#define PERFBENCH_SERVE_CLIENT_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "model/instance.h"

namespace perfbench {

// One wire session: the text of each round and the flows it sends.
struct SessionScript {
  flowsched::SwitchSpec sw;
  // sent[id]: the flow sent with that id; release = the round it is sent in.
  std::vector<flowsched::Flow> sent;
  // rounds[t]: round t's "ARRIVE id src dst size" lines, then "TICK".
  std::vector<std::string> rounds;
  long long bytes = 0;
};

SessionScript RenderSessionScript(const flowsched::Instance& instance);

// A child process whose stdin and stdout are pipes to this process. The
// destructor closes both pipes, kills the child if it still runs and reaps
// it.
class ChildProcess {
 public:
  // Null with *error set when the pipes or the fork fail.
  static std::unique_ptr<ChildProcess> Start(
      const std::vector<std::string>& argv, std::string* error);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool Write(std::string_view data);
  // Next line of the child's stdout without its newline. The view stays
  // valid until the next call. False at end of output or on error.
  bool ReadLine(std::string_view* line);
  // Closes the child's stdin and waits for it; returns its exit status
  // (-1 when it did not exit normally).
  int CloseAndWait();

 private:
  ChildProcess(pid_t pid, int in_fd, int out_fd)
      : pid_(pid), in_fd_(in_fd), out_fd_(out_fd) {}

  pid_t pid_;
  int in_fd_;
  int out_fd_;
  std::string buffer_;
  std::size_t begin_ = 0;  // Start of the unread part of buffer_.
};

// VmHWM of a live process in KiB; -1 when unreadable.
long long ProcPeakRssKb(pid_t pid);
// User plus system CPU time of a live process in seconds; -1 when
// unreadable.
double ProcCpuSeconds(pid_t pid);

struct SessionResult {
  std::string error;          // Set when the session could not complete.
  double spawn_s = 0.0;       // Start to the reply to a first STATS.
  double session_s = 0.0;     // First round sent to last round's reply.
  std::vector<double> round_us;  // Per round: first byte sent to reply read.
  // All reply lines of the rounds; round t's replies end at round_end[t].
  std::string replies;
  std::vector<std::size_t> round_end;
  long long reply_bytes = 0;
  std::string done_json;      // Payload of the final DONE line.
  long long peak_rss_kb = -1;  // Daemon VmHWM before STOP.
  double cpu_s = -1.0;         // Daemon CPU time before STOP.
};

// Runs one closed-loop session against a fresh daemon started with `argv`.
SessionResult RunServeSession(const std::vector<std::string>& argv,
                              const SessionScript& script);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_CLIENT_H_
