// A map from int ids to int values in flat slot arrays: open addressing
// with linear probing and backward-shift erase (no tombstones pile up
// under churn), doubled when half full, so it allocates only when it
// grows. It is never iterated, so slot order cannot leak into results.
// The coflow policies key group slots in one (coflow/coflow_policies.h),
// and streaming wire mode keeps its live flow ids in one.
#ifndef FLOWSCHED_UTIL_FLAT_ID_MAP_H_
#define FLOWSCHED_UTIL_FLAT_ID_MAP_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace flowsched {

class FlatIdMap {
 public:
  // Inserts (id, value) unless `id` is present. Returns the value stored
  // under `id` and whether it was inserted.
  std::pair<int, bool> TryEmplace(int id, int value) {
    if (2 * (size_ + 1) > keys_.size()) Grow();
    const std::size_t i = Find(id);
    if (keys_[i] == id) return {values_[i], false};
    keys_[i] = id;
    values_[i] = value;
    ++size_;
    return {value, true};
  }

  // False when `id` is not in the map; else removes it and, when `value`
  // is given, stores its value there. Every later key of the probe run
  // whose home slot is not cyclically after the hole moves back into it.
  bool Erase(int id, int* value = nullptr) {
    if (size_ == 0) return false;
    std::size_t hole = Find(id);
    if (keys_[hole] != id) return false;
    if (value != nullptr) *value = values_[hole];
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t j = (hole + 1) & mask; keys_[j] != kEmpty;
         j = (j + 1) & mask) {
      if (((j - Home(keys_[j])) & mask) >= ((j - hole) & mask)) {
        keys_[hole] = keys_[j];
        values_[hole] = values_[j];
        hole = j;
      }
    }
    keys_[hole] = kEmpty;
    --size_;
    return true;
  }

  bool Contains(int id) const { return size_ > 0 && keys_[Find(id)] == id; }
  std::size_t size() const { return size_; }

  // Empties the map, keeping its slots.
  void Clear() {
    keys_.assign(keys_.size(), kEmpty);
    size_ = 0;
  }

 private:
  // Below every int, so any id can be stored.
  static constexpr std::int64_t kEmpty = std::numeric_limits<int64_t>::min();

  std::size_t Home(std::int64_t id) const {  // Fibonacci hashing.
    return (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  // The slot holding `id`, or the empty slot that ends its probe run.
  std::size_t Find(std::int64_t id) const {
    std::size_t i = Home(id);
    while (keys_[i] != kEmpty && keys_[i] != id) {
      i = (i + 1) & (keys_.size() - 1);
    }
    return i;
  }

  void Grow() {
    std::vector<std::int64_t> old_keys(keys_.empty() ? 16 : 2 * keys_.size(),
                                       kEmpty);
    std::vector<int> old_values(old_keys.size());
    old_keys.swap(keys_);
    old_values.swap(values_);
    shift_ = 64 - std::countr_zero(keys_.size());
    for (std::size_t j = 0; j < old_keys.size(); ++j) {
      if (old_keys[j] == kEmpty) continue;
      const std::size_t i = Find(old_keys[j]);
      keys_[i] = old_keys[j];
      values_[i] = old_values[j];
    }
  }

  std::vector<std::int64_t> keys_;  // A power of two in size, or empty.
  std::vector<int> values_;         // Parallel to keys_.
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_FLAT_ID_MAP_H_
