#include "serve/wire_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "serve/daemon.h"

namespace flowsched {
namespace {

WireCommand MustParse(const std::string& line) {
  WireCommand command;
  std::string error;
  EXPECT_TRUE(ParseWireLine(line, &command, &error)) << error;
  return command;
}

std::string MustFail(const std::string& line) {
  WireCommand command;
  std::string error;
  EXPECT_FALSE(ParseWireLine(line, &command, &error)) << line;
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(WireProtocolTest, ParsesArrive) {
  const WireCommand c = MustParse("ARRIVE 3 0 5 2");
  EXPECT_EQ(c.kind, WireCommand::Kind::kArrive);
  EXPECT_EQ(c.flow.id, 3);
  EXPECT_EQ(c.flow.src, 0);
  EXPECT_EQ(c.flow.dst, 5);
  EXPECT_EQ(c.flow.demand, 2);
  EXPECT_EQ(c.flow.coflow, kNoCoflow);
}

TEST(WireProtocolTest, ParsesArriveWithCoflowTag) {
  const WireCommand c = MustParse("ARRIVE 1 2 3 1 42");
  EXPECT_EQ(c.flow.coflow, 42);
}

TEST(WireProtocolTest, ParsesControlCommands) {
  EXPECT_EQ(MustParse("TICK").kind, WireCommand::Kind::kTick);
  EXPECT_EQ(MustParse("STATS").kind, WireCommand::Kind::kStats);
  EXPECT_EQ(MustParse("STOP").kind, WireCommand::Kind::kStop);
}

TEST(WireProtocolTest, BlankAndCommentLinesAreNoops) {
  EXPECT_EQ(MustParse("").kind, WireCommand::Kind::kNone);
  EXPECT_EQ(MustParse("   ").kind, WireCommand::Kind::kNone);
  EXPECT_EQ(MustParse("# comment").kind, WireCommand::Kind::kNone);
}

TEST(WireProtocolTest, RejectsMalformedLines) {
  MustFail("ARRIVE");                   // Too few fields.
  MustFail("ARRIVE 1 2 3");             // Still too few.
  MustFail("ARRIVE 1 2 3 1 7 9");       // Too many.
  MustFail("ARRIVE x 2 3 1");           // Non-numeric.
  MustFail("ARRIVE -1 2 3 1");          // Negative id.
  MustFail("ARRIVE 1 2 3 0");           // Zero size.
  MustFail("ARRIVE 1 2 3 1 -2");        // Negative coflow tag.
  MustFail("ARRIVE 2147483648 0 0 1");  // Id overflows int.
  MustFail("TICK 3");                   // TICK takes no operands.
  MustFail("LAUNCH");                   // Unknown verb.
}

// Every ParseWireLine error text, pinned exactly: clients see it verbatim
// after "ERROR ".
constexpr char kArriveUsage[] =
    "ARRIVE wants: ARRIVE <id> <src> <dst> <size> [coflow]";
constexpr char kArriveNotInteger[] =
    "ARRIVE arguments must be decimal integers";
constexpr char kArriveId[] = "ARRIVE id must be in [0, 2^31)";
constexpr char kArrivePorts[] = "ARRIVE ports must be in [0, 2^31)";
constexpr char kArriveSize[] = "ARRIVE size must be >= 1";
constexpr char kArriveCoflow[] = "ARRIVE coflow tag must be in [0, 2^31)";
constexpr char kUnknownPrefix[] = "unknown command \"";
constexpr char kUnknownSuffix[] =
    "\" (want ARRIVE, TICK, STATS, FAULT, RECOVER, or STOP)";

TEST(WireProtocolMessageTest, ControlVerbsTakeNoArguments) {
  EXPECT_EQ(MustFail("TICK 3"), "TICK takes no arguments");
  EXPECT_EQ(MustFail("STATS x"), "STATS takes no arguments");
  EXPECT_EQ(MustFail("STOP x"), "STOP takes no arguments");
}

TEST(WireProtocolMessageTest, FaultAndRecoverPort) {
  EXPECT_EQ(MustFail("FAULT"), "FAULT wants: FAULT <port>");
  EXPECT_EQ(MustFail("RECOVER 1 2"), "RECOVER wants: RECOVER <port>");
  EXPECT_EQ(MustFail("FAULT x"), "FAULT port must be a decimal integer");
  EXPECT_EQ(MustFail("RECOVER 3x"), "RECOVER port must be a decimal integer");
  EXPECT_EQ(MustFail("FAULT -1"), "FAULT port must be in [0, 2^31)");
  EXPECT_EQ(MustFail("RECOVER 2147483648"),
            "RECOVER port must be in [0, 2^31)");
  EXPECT_EQ(MustParse("RECOVER 2147483647").port, 2147483647);
}

TEST(WireProtocolMessageTest, ArriveErrors) {
  EXPECT_EQ(MustFail("ARRIVE"), kArriveUsage);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3"), kArriveUsage);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 1 7 9"), kArriveUsage);
  EXPECT_EQ(MustFail("ARRIVE x 2 3 1"), kArriveNotInteger);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 +1"), kArriveNotInteger);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 1 y"), kArriveNotInteger);
  EXPECT_EQ(MustFail("ARRIVE 99999999999999999999 2 3 1"), kArriveNotInteger);
  EXPECT_EQ(MustFail("ARRIVE -1 2 3 1"), kArriveId);
  EXPECT_EQ(MustFail("ARRIVE 2147483648 0 0 1"), kArriveId);
  EXPECT_EQ(MustFail("ARRIVE 1 -2 3 1"), kArrivePorts);
  EXPECT_EQ(MustFail("ARRIVE 1 2 2147483648 1"), kArrivePorts);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 0"), kArriveSize);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 -5 7"), kArriveSize);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 1 -2"), kArriveCoflow);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 1 2147483648"), kArriveCoflow);
  // The checks run in a fixed order: id, then ports, size, coflow tag.
  EXPECT_EQ(MustFail("ARRIVE -1 -2 3 0 -1"), kArriveId);
  EXPECT_EQ(MustFail("ARRIVE 1 -2 3 0 -1"), kArrivePorts);
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 0 -1"), kArriveSize);
}

TEST(WireProtocolMessageTest, UnknownVerbIsQuoted) {
  EXPECT_EQ(MustFail("LAUNCH"),
            std::string(kUnknownPrefix) + "LAUNCH" + kUnknownSuffix);
  EXPECT_EQ(MustFail("tick 1 2"),
            std::string(kUnknownPrefix) + "tick" + kUnknownSuffix);
}

TEST(WireProtocolMessageTest, SevenOrMoreTokensFailTheArityCheck) {
  EXPECT_EQ(MustFail("TICK a b c d e f"), "TICK takes no arguments");
  EXPECT_EQ(MustFail("ARRIVE 1 2 3 1 7 9 9"), kArriveUsage);
  EXPECT_EQ(MustFail("FAULT 1 2 3 4 5 6 7 8"), "FAULT wants: FAULT <port>");
  EXPECT_EQ(MustFail("NOPE 1 2 3 4 5 6 7"),
            std::string(kUnknownPrefix) + "NOPE" + kUnknownSuffix);
}

TEST(WireProtocolMessageTest, TabsAndCarriageReturnsSeparateTokens) {
  const WireCommand c = MustParse("\tARRIVE\t3 0\r5  2\t9\r");
  EXPECT_EQ(c.kind, WireCommand::Kind::kArrive);
  EXPECT_EQ(c.flow.id, 3);
  EXPECT_EQ(c.flow.dst, 5);
  EXPECT_EQ(c.flow.demand, 2);
  EXPECT_EQ(c.flow.coflow, 9);
  EXPECT_EQ(MustParse("TICK\r").kind, WireCommand::Kind::kTick);
  EXPECT_EQ(MustParse("\r\t \r").kind, WireCommand::Kind::kNone);
  EXPECT_EQ(MustFail("TICK\t3"), "TICK takes no arguments");
  EXPECT_EQ(MustFail("STOP\rx"), "STOP takes no arguments");
}

TEST(WireProtocolMessageTest, CommentsTakeAnyNumberOfTokens) {
  EXPECT_EQ(MustParse("# a b c d e f g h i j").kind, WireCommand::Kind::kNone);
  EXPECT_EQ(MustParse("  #ARRIVE 1 2 3 1 7 9 9").kind,
            WireCommand::Kind::kNone);
}

// A direct reference parser with owned tokens and no token cap, the oracle
// for the fuzz test below.
bool ReferenceParse(const std::string& line, WireCommand* command,
                    std::string* error) {
  *command = WireCommand{};
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : line + ' ') {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!token.empty()) tokens.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  const auto fail = [&](const std::string& msg) {
    *error = msg;
    return false;
  };
  // Optional '-', then decimal digits (any number of leading zeros) whose
  // value fits int64.
  const auto integer = [](const std::string& s, long long* out) {
    const bool negative = !s.empty() && s[0] == '-';
    std::string digits = s.substr(negative ? 1 : 0);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    digits.erase(0, std::min(digits.find_first_not_of('0'), digits.size() - 1));
    const std::string limit =
        negative ? "9223372036854775808" : "9223372036854775807";
    if (digits.size() > limit.size() ||
        (digits.size() == limit.size() && digits > limit)) {
      return false;
    }
    const unsigned long long magnitude = std::stoull(digits);
    *out = static_cast<long long>(negative ? 0 - magnitude : magnitude);
    return true;
  };
  constexpr long long kMax = 2147483647;
  if (tokens.empty() || tokens[0][0] == '#') return true;
  const std::string& verb = tokens[0];
  if (verb == "TICK" || verb == "STATS" || verb == "STOP") {
    if (tokens.size() != 1) return fail(verb + " takes no arguments");
    command->kind = verb == "TICK"    ? WireCommand::Kind::kTick
                    : verb == "STATS" ? WireCommand::Kind::kStats
                                      : WireCommand::Kind::kStop;
    return true;
  }
  if (verb == "FAULT" || verb == "RECOVER") {
    if (tokens.size() != 2) return fail(verb + " wants: " + verb + " <port>");
    long long port = 0;
    if (!integer(tokens[1], &port)) {
      return fail(verb + " port must be a decimal integer");
    }
    if (port < 0 || port > kMax) {
      return fail(verb + " port must be in [0, 2^31)");
    }
    command->kind = verb == "FAULT" ? WireCommand::Kind::kFault
                                    : WireCommand::Kind::kRecover;
    command->port = static_cast<PortId>(port);
    return true;
  }
  if (verb == "ARRIVE") {
    if (tokens.size() != 5 && tokens.size() != 6) return fail(kArriveUsage);
    long long v[5] = {0, 0, 0, 0, 0};
    for (std::size_t k = 1; k < tokens.size(); ++k) {
      if (!integer(tokens[k], &v[k - 1])) return fail(kArriveNotInteger);
    }
    if (v[0] < 0 || v[0] > kMax) return fail(kArriveId);
    if (v[1] < 0 || v[1] > kMax || v[2] < 0 || v[2] > kMax) {
      return fail(kArrivePorts);
    }
    if (v[3] < 1) return fail(kArriveSize);
    if (tokens.size() == 6 && (v[4] < 0 || v[4] > kMax)) {
      return fail(kArriveCoflow);
    }
    command->kind = WireCommand::Kind::kArrive;
    command->flow.id = static_cast<FlowId>(v[0]);
    command->flow.src = static_cast<PortId>(v[1]);
    command->flow.dst = static_cast<PortId>(v[2]);
    command->flow.demand = v[3];
    command->flow.coflow =
        tokens.size() == 6 ? static_cast<CoflowId>(v[4]) : kNoCoflow;
    return true;
  }
  return fail(kUnknownPrefix + verb + kUnknownSuffix);
}

// Seeded mutation fuzzing: ~100k lines derived from valid ones by byte
// flips, inserts, deletes, duplicated tokens, long digit runs and embedded
// NUL / CR / tab bytes. Every line must parse to exactly what the reference
// parser gives — the same command, or the same pinned error text.
TEST(WireProtocolFuzzTest, MutatedLinesMatchTheReferenceParser) {
  const std::vector<std::string> seeds = {
      "ARRIVE 3 0 5 2",      "ARRIVE 1 2 3 1 42", "ARRIVE 0 0 0 1 0",
      "ARRIVE 2147483647 1 1 9 2147483647",      "TICK",
      "STATS",               "STOP",              "FAULT 3",
      "RECOVER 0",           "# comment 1 2 3",   "",
  };
  const std::string alphabet = std::string("0123456789-+ \t\r#x", 17) +
                               std::string(1, '\0') + "\x7f\xff";
  std::mt19937_64 rng(20200715);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int accepted = 0;
  int rejected = 0;
  for (int iter = 0; iter < 100000; ++iter) {
    std::string line = seeds[pick(seeds.size())];
    const std::size_t mutations = 1 + pick(4);
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t at = line.empty() ? 0 : pick(line.size() + 1);
      switch (pick(6)) {
        case 0:  // Flip one byte to a random value.
          if (!line.empty()) line[pick(line.size())] = static_cast<char>(rng());
          break;
        case 1:  // Insert a byte from the interesting alphabet.
          line.insert(at, 1, alphabet[pick(alphabet.size())]);
          break;
        case 2:  // Delete a short run.
          if (!line.empty()) {
            line.erase(pick(line.size()), 1 + pick(3));
          }
          break;
        case 3: {  // Duplicate a space-delimited token.
          const std::size_t start = line.rfind(' ', at == 0 ? 0 : at - 1);
          const std::size_t from = start == std::string::npos ? 0 : start;
          const std::size_t end = line.find(' ', from + 1);
          const std::string token = line.substr(
              from, end == std::string::npos ? std::string::npos : end - from);
          line.insert(from, token.empty() ? " " : token);
          break;
        }
        case 4:  // A long digit run, up to past int64's range.
          line.insert(at, std::string(1 + pick(30), "0123456789"[pick(10)]));
          break;
        default:  // An embedded NUL, CR or tab.
          line.insert(at, 1, "\0\r\t"[pick(3)]);
          break;
      }
      if (line.size() > 200) line.resize(200);
    }
    WireCommand got;
    WireCommand want;
    std::string got_error = "(unset)";
    std::string want_error;
    const bool ok = ParseWireLine(line, &got, &got_error);
    ASSERT_EQ(ok, ReferenceParse(line, &want, &want_error)) << "line: " << line;
    if (ok) {
      ++accepted;
      EXPECT_EQ(got_error, "(unset)") << "success must not touch *error";
      EXPECT_EQ(got.kind, want.kind) << line;
      EXPECT_EQ(got.flow, want.flow) << line;
      EXPECT_EQ(got.port, want.port) << line;
    } else {
      ++rejected;
      ASSERT_EQ(got_error, want_error) << "line: " << line;
    }
  }
  // The mutations must reach both outcomes, not just one.
  EXPECT_GT(accepted, 10000);
  EXPECT_GT(rejected, 10000);
}

std::vector<std::string> SessionLines(const std::string& script,
                                      ServeOptions options = {},
                                      int ports = 4, Capacity cap = 1) {
  const SwitchSpec sw = SwitchSpec::Uniform(ports, ports, cap);
  std::istringstream in(script);
  std::ostringstream out;
  RunWireSession(sw, in, out, options);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

TEST(WireSessionTest, ScriptedSessionProducesExpectedReplies) {
  // Two flows on disjoint ports: SRPT schedules both in round 0.
  const auto lines = SessionLines(
      "ARRIVE 0 0 1 1\n"
      "ARRIVE 1 2 3 1\n"
      "TICK\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "MATCH 0 0 1");
  EXPECT_EQ(lines[1].rfind("DONE {\"flows\":2,", 0), 0u) << lines[1];
}

TEST(WireSessionTest, ContendingFlowsTakeTwoRounds) {
  // Same src port, capacity 1: one flow per round.
  const auto lines = SessionLines(
      "ARRIVE 7 0 1 1\n"
      "ARRIVE 9 0 2 1\n"
      "TICK\n"
      "TICK\n"
      "STOP\n");
  ASSERT_GE(lines.size(), 3u);
  // SRPT breaks the size tie by release then id order.
  EXPECT_EQ(lines[0], "MATCH 0 7");
  EXPECT_EQ(lines[1], "MATCH 1 9");
}

TEST(WireSessionTest, ErrorsDoNotEndTheSession) {
  const auto lines = SessionLines(
      "ARRIVE 0 99 0 1\n"  // Port out of range.
      "NONSENSE\n"
      "ARRIVE 0 0 1 1\n"   // Valid after two errors.
      "TICK\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("ERROR ", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ERROR ", 0), 0u);
  EXPECT_EQ(lines[2], "MATCH 0 0");
  EXPECT_EQ(lines[3].rfind("DONE ", 0), 0u);
}

TEST(WireSessionTest, DuplicateLiveIdRejectedButReusableAfterCompletion) {
  const auto lines = SessionLines(
      "ARRIVE 5 0 1 1\n"
      "ARRIVE 5 1 2 1\n"  // Still live: rejected.
      "TICK\n"
      "ARRIVE 5 1 2 1\n"  // Flow 5 completed in round 0: id is free again.
      "TICK\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("ERROR flow id 5 is already live", 0), 0u);
  EXPECT_EQ(lines[1], "MATCH 0 5");
  EXPECT_EQ(lines[2], "MATCH 1 5");
}

TEST(WireSessionTest, StatsCommandEmitsPrefixedJson) {
  const auto lines = SessionLines(
      "ARRIVE 0 0 1 1\n"
      "TICK\n"
      "STATS\n"
      "STOP\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1].rfind("STATS {\"round\":1,", 0), 0u) << lines[1];
}

TEST(WireSessionTest, UnitDemandPolicyRejectsWideFlows) {
  // Capacity 2 makes demand 2 feasible for the switch, so the rejection
  // below is the policy's unit-demand requirement, not a range check.
  ServeOptions options;
  options.policy = "online.maxweight";
  const auto lines = SessionLines(
      "ARRIVE 0 0 1 2\n"
      "STOP\n",
      options, /*ports=*/4, /*cap=*/2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "ERROR policy maxweight requires unit demands");
}

TEST(WireSessionTest, RoundCapStopsTicks) {
  ServeOptions options;
  options.max_rounds = 1;
  const auto lines = SessionLines(
      "TICK\n"
      "TICK\n"
      "STOP\n",
      options);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERROR round cap reached", 0), 0u);
  EXPECT_EQ(lines[1].rfind("DONE ", 0), 0u);
}

TEST(WireSessionTest, UnknownPolicyFailsUpfront) {
  ServeOptions options;
  options.policy = "online.nope";
  const auto lines = SessionLines("STOP\n", options);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("ERROR unknown policy", 0), 0u);
}

TEST(WireSessionTest, EofActsAsStop) {
  const auto lines = SessionLines("ARRIVE 0 0 1 1\nTICK\n");  // No STOP.
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1].rfind("DONE ", 0), 0u);
}

}  // namespace
}  // namespace flowsched
