// Drives the real flowsched_serve binary in --unix mode with one closed-loop
// client: the client sends a round (ARRIVE lines + TICK) only after the
// previous round's STATS reply arrived, as a switch controller must. A
// daemon that buffers replies until the session ends stalls this client;
// every read here has a deadline so that shows up as a failure, not a hang.
// The same closed loop runs over the default stdin/stdout transport, and
// the flag checks run the binary to completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/instance_source.h"
#include "api/registry.h"
#include "serve/daemon.h"

#if defined(FLOWSCHED_SERVE_BIN) && defined(__unix__)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#endif

namespace {

#if defined(FLOWSCHED_SERVE_BIN) && defined(__unix__)

constexpr int kReplyTimeoutMs = 5000;

// Kills and reaps the daemon, closes the client socket and removes the
// socket directory, whichever of them exist.
struct SessionFixture {
  pid_t daemon = -1;
  int fd = -1;
  std::string dir;
  std::string path;

  ~SessionFixture() {
    if (fd >= 0) ::close(fd);
    if (daemon > 0) {
      ::kill(daemon, SIGKILL);
      ::waitpid(daemon, nullptr, 0);
    }
    if (!path.empty()) ::unlink(path.c_str());
    if (!dir.empty()) ::rmdir(dir.c_str());
  }
};

bool SendAll(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads one line into *line within kReplyTimeoutMs; false on timeout/EOF.
bool ReadLine(int fd, std::string* buffer, std::string* line) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kReplyTimeoutMs);
  for (;;) {
    const std::size_t nl = buffer->find('\n');
    if (nl != std::string::npos) {
      *line = buffer->substr(0, nl);
      buffer->erase(0, nl + 1);
      return true;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) return false;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(ServeSocketTest, ClosedLoopClientGetsEachRoundsReplyBeforeNextRound) {
  SessionFixture s;
  char dir_template[] = "/tmp/flowsched_sock_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  s.dir = dir_template;
  s.path = s.dir + "/serve.sock";
  const std::string unix_arg = "--unix=" + s.path;

  s.daemon = ::fork();
  ASSERT_GE(s.daemon, 0);
  if (s.daemon == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    ::execl(FLOWSCHED_SERVE_BIN, "flowsched_serve", unix_arg.c_str(),
            "--ports=4", "--policy=online.srpt", "--stats-every=1",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // The daemon binds the socket after start-up; retry the connect briefly.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(s.path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, s.path.c_str(), s.path.size() + 1);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    s.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(s.fd, 0);
    if (::connect(s.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      break;
    }
    ::close(s.fd);
    s.fd = -1;
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "daemon never accepted on " << s.path;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  std::string buffer;
  std::string line;
  int next_id = 0;
  for (int round = 0; round < 8; ++round) {
    std::string text;
    for (int k = 0; k < 3; ++k) {
      text += "ARRIVE " + std::to_string(next_id++) + ' ' +
              std::to_string(k) + ' ' + std::to_string((k + round) % 4) +
              " 1\n";
    }
    text += "TICK\n";
    ASSERT_TRUE(SendAll(s.fd, text)) << "round " << round;
    // This round's reply: optional MATCH lines, then the STATS line.
    for (;;) {
      ASSERT_TRUE(ReadLine(s.fd, &buffer, &line))
          << "no STATS reply to round " << round << " within "
          << kReplyTimeoutMs << " ms";
      if (line.rfind("STATS ", 0) == 0) break;
      ASSERT_EQ(line.rfind("MATCH ", 0), 0u) << line;
    }
  }
  ASSERT_TRUE(SendAll(s.fd, "STOP\n"));
  do {
    ASSERT_TRUE(ReadLine(s.fd, &buffer, &line)) << "no DONE after STOP";
  } while (line.rfind("DONE ", 0) != 0);
}

// The daemon on stdin/stdout pipes (the default transport). Kills and
// reaps it unless a test already waited for it.
struct PipeDaemon {
  pid_t pid = -1;
  int to = -1;    // Its stdin.
  int from = -1;  // Its stdout.

  ~PipeDaemon() {
    if (to >= 0) ::close(to);
    if (from >= 0) ::close(from);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  bool Start(const std::vector<std::string>& args) {
    int in[2];
    int out[2];
    if (::pipe2(in, O_CLOEXEC) != 0) return false;
    if (::pipe2(out, O_CLOEXEC) != 0) {
      ::close(in[0]);
      ::close(in[1]);
      return false;
    }
    std::vector<char*> argv = {const_cast<char*>("flowsched_serve")};
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    pid = ::fork();
    if (pid == 0) {
      ::dup2(in[0], STDIN_FILENO);
      ::dup2(out[1], STDOUT_FILENO);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
      ::execv(FLOWSCHED_SERVE_BIN, argv.data());
      ::_exit(127);
    }
    ::close(in[0]);
    ::close(out[1]);
    to = in[1];
    from = out[0];
    return pid > 0;
  }

  bool Write(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::write(to, text.data() + sent, text.size() - sent);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Exit status once it ends by itself, or -1.
  int Wait() {
    int status = 0;
    const pid_t waited = ::waitpid(pid, &status, 0);
    pid = -1;
    return waited > 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

// 30 rounds on an 8-port switch: 1-5 arrivals each, every third flow
// coflow-tagged, a malformed line, and a FAULT/RECOVER pair.
std::vector<std::string> StdioRounds() {
  std::vector<std::string> rounds;
  int id = 0;
  for (int r = 0; r < 30; ++r) {
    std::string text;
    for (int k = 0; k <= r % 5; ++k, ++id) {
      text += "ARRIVE " + std::to_string(id) + ' ' +
              std::to_string((3 * k + r) % 8) + ' ' +
              std::to_string((k + 2 * r) % 8) + " 1";
      if (id % 3 == 0) text += ' ' + std::to_string(id / 6);
      text += '\n';
    }
    if (r == 7) text += "BOGUS 1\n";
    if (r == 11) text += "FAULT 2\n";
    if (r == 15) text += "RECOVER 2\n";
    rounds.push_back(text + "TICK\n");
  }
  return rounds;
}

TEST(ServeStdioTest, ClosedLoopRepliesMatchTheInProcessSession) {
  signal(SIGPIPE, SIG_IGN);  // A dead daemon fails a write, not the test.
  PipeDaemon d;
  ASSERT_TRUE(d.Start({"--ports=8", "--policy=online.srpt",
                       "--stats-every=1"}));
  const std::vector<std::string> rounds = StdioRounds();
  std::string buffer;
  std::string line;
  std::string received;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    ASSERT_TRUE(d.Write(rounds[r])) << "round " << r;
    // This round's reply ends with its STATS line; it must arrive before
    // the next round is sent.
    do {
      ASSERT_TRUE(ReadLine(d.from, &buffer, &line))
          << "no STATS reply to round " << r << " within " << kReplyTimeoutMs
          << " ms";
      received += line + '\n';
    } while (line.rfind("STATS ", 0) != 0);
  }
  ASSERT_TRUE(d.Write("STOP\n"));
  do {
    ASSERT_TRUE(ReadLine(d.from, &buffer, &line)) << "no DONE after STOP";
    received += line + '\n';
  } while (line.rfind("DONE ", 0) != 0);
  EXPECT_EQ(d.Wait(), 0);
  EXPECT_EQ(buffer, "");

  std::string script;
  for (const std::string& text : rounds) script += text;
  std::istringstream in(script + "STOP\n");
  std::ostringstream out;
  flowsched::ServeOptions options;
  options.stats_every = 1;
  flowsched::RunWireSession(flowsched::SwitchSpec::Uniform(8, 8, 1), in, out,
                            options);
  EXPECT_EQ(received, out.str());
  EXPECT_NE(received.find("ERROR unknown command \"BOGUS\""),
            std::string::npos);
}

// SIGINT while the daemon waits for input, its stdin still open: the read
// returns, and the session ends with DONE instead of waiting for more input.
TEST(ServeStdioTest, SigintWhileIdleEndsTheSessionWithDone) {
  PipeDaemon d;
  ASSERT_TRUE(d.Start({"--ports=4"}));
  ASSERT_TRUE(d.Write("ARRIVE 0 0 1 1\nTICK\n"));
  std::string buffer;
  std::string line;
  ASSERT_TRUE(ReadLine(d.from, &buffer, &line));
  EXPECT_EQ(line, "MATCH 0 0");
  // The reply is flushed just before the daemon blocks reading the next
  // line; give it time to get into that read.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ::kill(d.pid, SIGINT);
  ASSERT_TRUE(ReadLine(d.from, &buffer, &line)) << "no DONE after SIGINT";
  EXPECT_EQ(line.rfind("DONE {\"flows\":1,", 0), 0u) << line;
  EXPECT_EQ(d.Wait(), 0);
}

// Runs flowsched_serve with `args` and stdin from /dev/null; returns its
// exit status (-1 if it did not exit) and its stdout and stderr in *output.
int RunServe(const std::string& args, std::string* output) {
  const std::string command =
      std::string(FLOWSCHED_SERVE_BIN) + " " + args + " </dev/null 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char chunk[256];
  while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr) *output += chunk;
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// A port outside 1..65535 or a negative STATS cadence is refused while
// the flags are parsed, before any socket is opened or a session starts.
TEST(ServeCliTest, OutOfRangeTcpPortOrStatsCadenceExitsTwo) {
  const std::pair<const char*, const char*> cases[] = {
      {"--tcp=-5", "--tcp"},
      {"--tcp=0", "--tcp"},
      {"--tcp=70000", "--tcp"},
      {"--stats-every=-3", "--stats-every"}};
  for (const auto& [args, flag] : cases) {
    SCOPED_TRACE(args);
    std::string output;
    EXPECT_EQ(RunServe(std::string(args) + " --ports=4", &output), 2);
    EXPECT_NE(output.find(flag), std::string::npos) << output;
    EXPECT_EQ(output.find("listening"), std::string::npos) << output;
    EXPECT_EQ(output.find("DONE"), std::string::npos) << output;
  }
}

#else

TEST(ServeSocketTest, ClosedLoopClientGetsEachRoundsReplyBeforeNextRound) {
  GTEST_SKIP() << "needs a POSIX build with the flowsched_serve tool";
}

TEST(ServeStdioTest, ClosedLoopRepliesMatchTheInProcessSession) {
  GTEST_SKIP() << "needs a POSIX build with the flowsched_serve tool";
}

TEST(ServeStdioTest, SigintWhileIdleEndsTheSessionWithDone) {
  GTEST_SKIP() << "needs a POSIX build with the flowsched_serve tool";
}

TEST(ServeCliTest, OutOfRangeTcpPortOrStatsCadenceExitsTwo) {
  GTEST_SKIP() << "needs a POSIX build with the flowsched_serve tool";
}

#endif

// coflow.maxweight and fabric.maxweight run only the exact Hungarian: no
// solver documents an `approx` knob, the facade refuses one as an unknown
// key, and flowsched_serve has no --approx flag.
TEST(ServeCliTest, NoSolverOrFlagSelectsAnApproximateMatcher) {
  const flowsched::SolverRegistry& registry =
      flowsched::SolverRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const auto keys = registry.Create(name)->ParamKeys();
    EXPECT_EQ(std::count(keys.begin(), keys.end(), "approx"), 0) << name;
  }
  std::string error;
  const auto instance = flowsched::LoadInstance(
      "coflow:ports=8,load=0.9,rounds=10,width=3,skew=0.5,seed=4", &error);
  ASSERT_TRUE(instance.has_value()) << error;
  for (const char* name : {"coflow.maxweight", "fabric.maxweight"}) {
    SCOPED_TRACE(name);
    flowsched::SolveOptions options;
    options.params["approx"] = "0.5";
    const flowsched::SolveReport r = registry.Solve(name, *instance, options);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("unknown parameter \"approx\""), std::string::npos)
        << r.error;
  }
#if defined(FLOWSCHED_SERVE_BIN) && defined(__unix__)
  std::string output;
  EXPECT_EQ(RunServe("--approx=0.5 --ports=4 --policy=coflow.maxweight",
                     &output),
            2);
  EXPECT_NE(output.find("--approx"), std::string::npos) << output;
  EXPECT_EQ(output.find("MATCH"), std::string::npos) << output;
#endif
}

}  // namespace
