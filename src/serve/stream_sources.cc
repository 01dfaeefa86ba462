#include "serve/stream_sources.h"

#include <algorithm>

namespace flowsched {

void RoundGeneratorSource::DrawThrough(Round t) {
  while (next_draw_ <= t && !DrawingDone()) {
    DrawRound(next_draw_, &buffer_);
    ++next_draw_;
  }
}

void RoundGeneratorSource::DrawUntilNonEmpty() {
  while (buffer_.empty() && !DrawingDone()) {
    DrawRound(next_draw_, &buffer_);
    ++next_draw_;
  }
}

void RoundGeneratorSource::ArrivalsInto(Round t, std::span<const Flow>,
                                        std::vector<Flow>* out) {
  DrawThrough(t);
  // The buffer may extend past t when Exhausted()/NextArrivalRound() drew
  // ahead; releases are non-decreasing, so the due arrivals are a prefix.
  std::size_t due = 0;
  while (due < buffer_.size() && buffer_[due].release <= t) ++due;
  out->insert(out->end(), buffer_.begin(), buffer_.begin() + due);
  buffer_.erase(buffer_.begin(), buffer_.begin() + due);
}

bool RoundGeneratorSource::Exhausted(Round /*t*/) {
  // Mirrors InstanceStreamSource::Exhausted ("every flow emitted"): draw
  // forward past any empty tail so a stream whose last arrivals are long
  // gone reports done at the same round a replay of the batch instance
  // does.
  DrawUntilNonEmpty();
  return buffer_.empty();
}

Round RoundGeneratorSource::NextArrivalRound(Round t) {
  DrawThrough(t);
  DrawUntilNonEmpty();
  return buffer_.empty() ? t : std::max(t, buffer_.front().release);
}

TraceStreamSource::TraceStreamSource(std::istream& in) : reader_(in) {
  if (!reader_.ok()) {
    error_ = reader_.error();
    return;
  }
  Pull();
}

void TraceStreamSource::Pull() {
  const Round prev_release = have_lookahead_ ? lookahead_.release : 0;
  Flow next;
  if (!reader_.NextFlow(&next)) {
    have_lookahead_ = false;
    if (!reader_.ok()) error_ = reader_.error();
    return;
  }
  if (next.release < prev_release) {
    have_lookahead_ = false;
    error_ = "line " + std::to_string(reader_.line()) +
             ": trace rows must be sorted by release for streaming (release " +
             std::to_string(next.release) + " after " +
             std::to_string(prev_release) + ")";
    return;
  }
  lookahead_ = next;
  have_lookahead_ = true;
}

void TraceStreamSource::ArrivalsInto(Round t, std::span<const Flow>,
                                     std::vector<Flow>* out) {
  while (have_lookahead_ && lookahead_.release <= t) {
    out->push_back(lookahead_);
    Pull();
  }
}

Round TraceStreamSource::NextArrivalRound(Round t) {
  return have_lookahead_ ? std::max(t, lookahead_.release) : t;
}

}  // namespace flowsched
