#include "serve/wire_protocol.h"

#include <array>
#include <charconv>
#include <string_view>
#include <utility>

namespace flowsched {
namespace {

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

// No verb takes more than 5 operands. Tokenize stops at one token past
// that and reports kMaxTokens + 1, which every arity check rejects.
constexpr std::size_t kMaxTokens = 6;
using Tokens = std::array<std::string_view, kMaxTokens>;

bool IsSeparator(char c) { return c == ' ' || c == '\t' || c == '\r'; }

std::size_t Tokenize(std::string_view line, Tokens& tokens) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && IsSeparator(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !IsSeparator(line[i])) ++i;
    if (i > start) {
      if (n == kMaxTokens) return kMaxTokens + 1;
      tokens[n++] = line.substr(start, i - start);
    }
  }
  return n;
}

bool ParseInt64(std::string_view s, std::int64_t& out) {
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc() && ptr == last;
}

}  // namespace

bool ParseWireLine(const std::string& line, WireCommand* command,
                   std::string* error) {
  command->kind = WireCommand::Kind::kNone;
  command->flow = Flow{};
  command->port = 0;
  // Error text is built only on failure: success allocates nothing.
  Tokens tokens;
  const std::size_t n = Tokenize(line, tokens);
  if (n == 0 || tokens[0][0] == '#') return true;  // kNone.
  const std::string_view verb = tokens[0];
  if (verb == "TICK" || verb == "STATS" || verb == "STOP") {
    if (n != 1) return Fail(error, std::string(verb) + " takes no arguments");
    command->kind = verb == "TICK"    ? WireCommand::Kind::kTick
                    : verb == "STATS" ? WireCommand::Kind::kStats
                                      : WireCommand::Kind::kStop;
    return true;
  }
  if (verb == "FAULT" || verb == "RECOVER") {
    if (n != 2) {
      return Fail(error, std::string(verb) + " wants: " + std::string(verb) +
                             " <port>");
    }
    std::int64_t port = 0;
    if (!ParseInt64(tokens[1], port)) {
      return Fail(error,
                  std::string(verb) + " port must be a decimal integer");
    }
    constexpr std::int64_t kMaxPort = 2147483647;  // PortId is int.
    if (port < 0 || port > kMaxPort) {
      return Fail(error, std::string(verb) + " port must be in [0, 2^31)");
    }
    command->kind = verb == "FAULT" ? WireCommand::Kind::kFault
                                    : WireCommand::Kind::kRecover;
    command->port = static_cast<PortId>(port);
    return true;
  }
  if (verb == "ARRIVE") {
    if (n != 5 && n != 6) {
      return Fail(error,
                  "ARRIVE wants: ARRIVE <id> <src> <dst> <size> [coflow]");
    }
    std::int64_t id = 0, src = 0, dst = 0, size = 0, coflow = 0;
    if (!ParseInt64(tokens[1], id) || !ParseInt64(tokens[2], src) ||
        !ParseInt64(tokens[3], dst) || !ParseInt64(tokens[4], size) ||
        (n == 6 && !ParseInt64(tokens[5], coflow))) {
      return Fail(error, "ARRIVE arguments must be decimal integers");
    }
    constexpr std::int64_t kMaxId = 2147483647;  // FlowId/CoflowId are int.
    if (id < 0 || id > kMaxId) {
      return Fail(error, "ARRIVE id must be in [0, 2^31)");
    }
    if (src < 0 || src > kMaxId || dst < 0 || dst > kMaxId) {
      return Fail(error, "ARRIVE ports must be in [0, 2^31)");
    }
    if (size < 1) return Fail(error, "ARRIVE size must be >= 1");
    if (n == 6 && (coflow < 0 || coflow > kMaxId)) {
      return Fail(error, "ARRIVE coflow tag must be in [0, 2^31)");
    }
    command->kind = WireCommand::Kind::kArrive;
    command->flow.id = static_cast<FlowId>(id);
    command->flow.src = static_cast<PortId>(src);
    command->flow.dst = static_cast<PortId>(dst);
    command->flow.demand = size;
    command->flow.coflow =
        n == 6 ? static_cast<CoflowId>(coflow) : kNoCoflow;
    return true;
  }
  return Fail(error, "unknown command \"" + std::string(verb) +
                         "\" (want ARRIVE, TICK, STATS, FAULT, RECOVER, "
                         "or STOP)");
}

}  // namespace flowsched
