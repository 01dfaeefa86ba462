// Text wire protocol of the flowsched_serve daemon (one command per line;
// full specification in docs/serve-protocol.md):
//
//   ARRIVE <id> <src> <dst> <size> [coflow]   queue a flow for this round
//   TICK                                      simulate one round
//   STATS                                     request a stats line now
//   FAULT <port>                              down host <port> (both sides)
//   RECOVER <port>                            restore host <port> to base
//   STOP                                      finish: final summary, exit
//
// Blank lines and lines starting with '#' are ignored. Tokens are
// whitespace-separated decimal integers. The daemon replies with MATCH /
// STATS / DONE / ERROR lines (serve/daemon.h).
#ifndef FLOWSCHED_SERVE_WIRE_PROTOCOL_H_
#define FLOWSCHED_SERVE_WIRE_PROTOCOL_H_

#include <string>

#include "model/flow.h"

namespace flowsched {

struct WireCommand {
  enum class Kind {
    kNone,  // Blank line or comment — nothing to do.
    kArrive,
    kTick,
    kStats,
    kFault,
    kRecover,
    kStop,
  };
  Kind kind = Kind::kNone;
  Flow flow;  // For kArrive: id/src/dst/demand/coflow (release unset).
  PortId port = 0;  // For kFault/kRecover: the host to down/restore.
};

// Parses one protocol line. Returns false (with *error set) on a malformed
// line — unknown verb, wrong arity, unparsable integer, size < 1. A line
// that parses allocates nothing.
bool ParseWireLine(const std::string& line, WireCommand* command,
                   std::string* error);

}  // namespace flowsched

#endif  // FLOWSCHED_SERVE_WIRE_PROTOCOL_H_
