#include "serve_client.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "span_trace.h"

namespace perfbench {
namespace {

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

void CloseFd(int* fd) {
  if (*fd >= 0) ::close(*fd);
  *fd = -1;
}

}  // namespace

SessionScript RenderSessionScript(const flowsched::Instance& instance) {
  SessionScript script;
  script.sw = instance.sw();
  script.sent = instance.flows();
  const flowsched::Round last = instance.MaxRelease();
  script.rounds.resize(static_cast<std::size_t>(last) + 1);
  for (const flowsched::Flow& f : instance.flows()) {
    std::string& text = script.rounds[static_cast<std::size_t>(f.release)];
    text += "ARRIVE " + std::to_string(f.id) + ' ' + std::to_string(f.src) +
            ' ' + std::to_string(f.dst) + ' ' + std::to_string(f.demand) +
            '\n';
  }
  for (std::string& text : script.rounds) {
    text += "TICK\n";
    script.bytes += static_cast<long long>(text.size());
  }
  return script;
}

std::unique_ptr<ChildProcess> ChildProcess::Start(
    const std::vector<std::string>& argv, std::string* error) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int to_child[2];
  int from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    ::close(to_child[0]);
    ::close(to_child[1]);
    return nullptr;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(to_child[1]);
    ::close(from_child[0]);
    return nullptr;
  }
  return std::unique_ptr<ChildProcess>(
      new ChildProcess(pid, to_child[1], from_child[0]));
}

ChildProcess::~ChildProcess() {
  CloseFd(&in_fd_);
  CloseFd(&out_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

bool ChildProcess::Write(std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(in_fd_, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool ChildProcess::ReadLine(std::string_view* line) {
  std::size_t scanned = begin_;
  for (;;) {
    const std::size_t nl = buffer_.find('\n', scanned);
    if (nl != std::string::npos) {
      *line = std::string_view(buffer_).substr(begin_, nl - begin_);
      begin_ = nl + 1;
      return true;
    }
    // Drop consumed bytes before reading more.
    buffer_.erase(0, begin_);
    begin_ = 0;
    scanned = buffer_.size();
    char chunk[1 << 16];
    const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

int ChildProcess::CloseAndWait() {
  CloseFd(&in_fd_);
  CloseFd(&out_fd_);
  int status = 0;
  const pid_t waited = ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (waited < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

long long ProcPeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

double ProcCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  long long utime = 0;
  long long stime = 0;
  if (!(fields >> utime >> stime)) return -1.0;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

SessionResult RunServeSession(const std::vector<std::string>& argv,
                              const SessionScript& script) {
  SessionResult result;
  const std::int64_t spawn_start = NowNs();
  std::unique_ptr<ChildProcess> daemon = ChildProcess::Start(argv, &result.error);
  if (daemon == nullptr) return result;
  std::string_view line;
  if (!daemon->Write("STATS\n") || !daemon->ReadLine(&line) ||
      line.rfind("STATS ", 0) != 0) {
    result.error = "daemon did not answer a first STATS";
    return result;
  }
  result.spawn_s = SecondsSince(spawn_start);

  const long long to_match = static_cast<long long>(script.sent.size());
  // A round loop that drains nothing for this long has stalled.
  const std::size_t max_rounds = script.rounds.size() + script.sent.size() + 1;
  long long matched = 0;
  const std::int64_t session_start = NowNs();
  std::int64_t last_reply = session_start;
  for (std::size_t t = 0;
       t < script.rounds.size() || matched < to_match; ++t) {
    if (t == max_rounds) {
      result.error = "session did not drain after " +
                     std::to_string(max_rounds) + " rounds";
      return result;
    }
    const std::string_view request =
        t < script.rounds.size() ? std::string_view(script.rounds[t]) : "TICK\n";
    const std::int64_t sent_at = NowNs();
    if (!daemon->Write(request)) {
      result.error = "daemon closed its input in round " + std::to_string(t);
      return result;
    }
    const std::size_t round_begin = result.replies.size();
    for (;;) {
      if (!daemon->ReadLine(&line)) {
        result.error = "daemon output ended in round " + std::to_string(t);
        return result;
      }
      result.replies.append(line);
      result.replies.push_back('\n');
      if (line.rfind("STATS ", 0) == 0) break;
    }
    last_reply = NowNs();
    result.round_us.push_back(static_cast<double>(last_reply - sent_at) / 1e3);
    result.round_end.push_back(result.replies.size());
    // Count this round's matches (ids follow "MATCH <round>").
    const std::string_view replies(result.replies);
    if (replies.compare(round_begin, 6, "MATCH ") == 0) {
      const std::size_t eol = replies.find('\n', round_begin);
      matched += std::count(replies.begin() + round_begin,
                            replies.begin() + eol, ' ') - 1;
    }
  }
  result.session_s = static_cast<double>(last_reply - session_start) / 1e9;
  result.reply_bytes = static_cast<long long>(result.replies.size());
  // The daemon is blocked reading its next command, so /proc still holds
  // its counters.
  result.peak_rss_kb = ProcPeakRssKb(daemon->pid());
  result.cpu_s = ProcCpuSeconds(daemon->pid());
  if (!daemon->Write("STOP\n") || !daemon->ReadLine(&line) ||
      line.rfind("DONE ", 0) != 0) {
    result.error = "daemon sent no DONE after STOP";
    return result;
  }
  result.done_json = std::string(line.substr(5));
  const int status = daemon->CloseAndWait();
  if (status != 0) {
    result.error = "daemon exited with status " + std::to_string(status);
  }
  return result;
}

}  // namespace perfbench
