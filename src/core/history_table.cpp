#include "tvp/core/history_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace tvp::core {

HistoryTable::HistoryTable(std::size_t capacity, unsigned row_bits,
                           unsigned interval_bits)
    : capacity_(capacity), row_bits_(row_bits), interval_bits_(interval_bits) {
  if (capacity_ == 0)
    throw std::invalid_argument("HistoryTable: zero capacity");
  if (capacity_ > 255)
    throw std::invalid_argument(
        "HistoryTable: capacity above 255 does not fit the hardware's "
        "8-bit counter-table link (0xFF is reserved for no link)");
  rows_.assign(capacity_, kInvalidRow);
  intervals_.assign(capacity_, 0);
}

std::uint32_t HistoryTable::interval_at(std::uint8_t index) const {
  if (index >= capacity_ || rows_[index] == kInvalidRow)
    throw std::out_of_range("HistoryTable::interval_at");
  return intervals_[index];
}

dram::RowId HistoryTable::row_at(std::uint8_t index) const {
  if (index >= capacity_ || rows_[index] == kInvalidRow)
    throw std::out_of_range("HistoryTable::row_at");
  return rows_[index];
}

void HistoryTable::clear() noexcept {
  std::fill(rows_.begin(), rows_.end(), kInvalidRow);
  head_ = 0;
  size_ = 0;
}

std::uint64_t HistoryTable::state_bits() const noexcept {
  return static_cast<std::uint64_t>(capacity_) * (row_bits_ + interval_bits_);
}

}  // namespace tvp::core
