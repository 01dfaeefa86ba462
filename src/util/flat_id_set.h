// A set of int ids in one flat slot array: open addressing with linear
// probing and backward-shift erase (no tombstones pile up under churn),
// doubled when half full, so it allocates only when it grows. Streaming
// wire mode keeps its live flow ids in one.
#ifndef FLOWSCHED_UTIL_FLAT_ID_SET_H_
#define FLOWSCHED_UTIL_FLAT_ID_SET_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace flowsched {

class FlatIdSet {
 public:
  // False when `id` is already in the set.
  bool Insert(int id) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const std::size_t i = Find(id);
    if (slots_[i] == id) return false;
    slots_[i] = id;
    ++size_;
    return true;
  }

  // False when `id` is not in the set. Every later key of the probe run
  // whose home slot is not cyclically after the hole moves back into it.
  bool Erase(int id) {
    if (size_ == 0) return false;
    std::size_t hole = Find(id);
    if (slots_[hole] != id) return false;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; slots_[j] != kEmpty;
         j = (j + 1) & mask) {
      if (((j - Home(slots_[j])) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmpty;
    --size_;
    return true;
  }

  bool Contains(int id) const { return size_ > 0 && slots_[Find(id)] == id; }
  std::size_t size() const { return size_; }

 private:
  // Below every int, so any id can be stored.
  static constexpr std::int64_t kEmpty = std::numeric_limits<int64_t>::min();

  std::size_t Home(std::int64_t id) const {  // Fibonacci hashing.
    return (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  // The slot holding `id`, or the empty slot that ends its probe run.
  std::size_t Find(std::int64_t id) const {
    std::size_t i = Home(id);
    while (slots_[i] != kEmpty && slots_[i] != id) {
      i = (i + 1) & (slots_.size() - 1);
    }
    return i;
  }

  void Grow() {
    std::vector<std::int64_t> old(slots_.empty() ? 16 : 2 * slots_.size(),
                                  kEmpty);
    old.swap(slots_);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const std::int64_t id : old) {
      if (id != kEmpty) slots_[Find(id)] = id;
    }
  }

  std::vector<std::int64_t> slots_;  // A power of two in size, or empty.
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_FLAT_ID_SET_H_
