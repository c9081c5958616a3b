// Recycled slot pool: the storage behind the simulator's queue entries.
//
// A slot is a dense 32-bit index into a vector that only grows; released
// slots go on a free list and are handed out again LIFO, so a steady-state
// workload reuses the same few (cache-warm) slots and allocates nothing.
// Every id fits the 24-bit slot field of the simulator's 16-byte queue
// entry, and the pool asserts that limit itself — one check shared by the
// action, delivery-record and payload pools.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/assert.h"

namespace multipub::net {

template <typename T>
class SlotPool {
 public:
  static constexpr std::uint32_t kSlotBits = 24;
  /// Most slots that can be live at once (16M).
  static constexpr std::size_t kCapacity = std::size_t{1} << kSlotBits;

  /// A free slot, value-initialised on first use and left as the last
  /// holder released it otherwise.
  [[nodiscard]] std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    MP_EXPECTS(items_.size() < kCapacity);
    items_.emplace_back();
    return static_cast<std::uint32_t>(items_.size() - 1);
  }

  void release(std::uint32_t slot) { free_.push_back(slot); }

  [[nodiscard]] T& operator[](std::uint32_t slot) { return items_[slot]; }
  [[nodiscard]] const T& operator[](std::uint32_t slot) const {
    return items_[slot];
  }

 private:
  std::vector<T> items_;
  std::vector<std::uint32_t> free_;
};

}  // namespace multipub::net
