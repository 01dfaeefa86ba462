// Deterministic random number generation for workloads and tests.
//
// A thin, explicitly-seeded wrapper around xoshiro256** plus the
// distributions the simulator needs (uniform ints/reals, Poisson).
// Every generator is constructed from a 64-bit seed, so experiments are
// reproducible across platforms (unlike std:: distributions, whose output
// is implementation-defined; we implement the distributions ourselves).
//
// Threading contract (audited for the parallel experiment runner): an Rng
// is mutable state and is NOT thread-safe — never share one across threads.
// Parallel code derives one independent stream per unit of work instead,
// either via Fork(stream_id) or, when only a seed (not a generator) is
// needed, via the stateless DeriveSeed(seed, stream_id). Both are pure
// functions of (construction seed, stream_id) — they ignore how much the
// parent has been consumed — so per-task streams are identical no matter
// which thread runs the task or in what order tasks are scheduled.
#ifndef FLOWSCHED_UTIL_RNG_H_
#define FLOWSCHED_UTIL_RNG_H_

#include <cstdint>

#include "util/check.h"

namespace flowsched {

// xoshiro256** 1.0 by Blackman & Vigna (public domain), seeded via splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  // Uniform on [0, 2^64).
  std::uint64_t NextU64();

  // Uniform on [0, n). Requires n > 0. Uses rejection to avoid modulo bias.
  std::uint64_t UniformU64(std::uint64_t n);

  // Uniform integer on [lo, hi] inclusive. Requires lo <= hi.
  int UniformInt(int lo, int hi);

  // Uniform real on [0, 1).
  double UniformReal();

  // Poisson with mean `mean` >= 0. Knuth's method for small means,
  // PTRS-style normal-approximation rejection fallback for large means.
  int Poisson(double mean);

  // Geometric-like bounded integer in [1, cap]: value v with
  // P(v) proportional to ratio^(v-1). Used by demand distributions.
  int TruncatedGeometric(double ratio, int cap);

  // Derives an independent stream (e.g. one per trial).
  Rng Fork(std::uint64_t stream_id) const;

  // Stateless counterpart of Fork(): splitmix64-mixes (seed, stream_id)
  // into a decorrelated child seed. Chain calls to mix in multiple
  // coordinates, e.g. DeriveSeed(DeriveSeed(base, cell), trial) — the
  // campaign runner seeds every task this way so results are byte-identical
  // regardless of thread count or schedule.
  static std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream_id);

 private:
  std::uint64_t state_[4];
  std::uint64_t seed_;
};

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_RNG_H_
