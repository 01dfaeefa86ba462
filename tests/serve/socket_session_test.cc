// Drives the real flowsched_serve binary in --unix mode with one closed-loop
// client: the client sends a round (ARRIVE lines + TICK) only after the
// previous round's STATS reply arrived, as a switch controller must. A
// daemon that buffers replies until the session ends stalls this client;
// every read here has a deadline so that shows up as a failure, not a hang.
#include <gtest/gtest.h>

#include <chrono>
#include <string>

#if defined(FLOWSCHED_SERVE_BIN) && defined(__unix__)
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

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

#else

TEST(ServeSocketTest, ClosedLoopClientGetsEachRoundsReplyBeforeNextRound) {
  GTEST_SKIP() << "needs a POSIX build with the flowsched_serve tool";
}

#endif

}  // namespace
