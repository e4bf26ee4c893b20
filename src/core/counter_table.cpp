#include "tvp/core/counter_table.hpp"

#include <stdexcept>

namespace tvp::core {

CounterTable::CounterTable(std::size_t capacity, std::uint8_t lock_threshold,
                           unsigned row_bits, unsigned link_bits)
    : lock_threshold_(lock_threshold), row_bits_(row_bits),
      link_bits_(link_bits) {
  if (capacity == 0) throw std::invalid_argument("CounterTable: zero capacity");
  if (capacity > 255)
    throw std::invalid_argument("CounterTable: capacity above 255 unsupported");
  if (lock_threshold_ == 0)
    throw std::invalid_argument("CounterTable: zero lock threshold");
  slots_.assign(capacity, Entry{});
  rows_.assign(capacity, 0);
}

void CounterTable::clear() noexcept {
  // Slots past size_ have not been written since the last clear.
  for (std::size_t i = 0; i < size_; ++i) slots_[i] = Entry{};
  size_ = 0;
}

std::uint64_t CounterTable::state_bits() const noexcept {
  // row + 8-bit count + lock bit + link index (log2 of the linked
  // history table's capacity; 5 bits for the default 32 entries) + valid.
  return static_cast<std::uint64_t>(slots_.size()) *
         (row_bits_ + 8 + 1 + link_bits_ + 1);
}

}  // namespace tvp::core
