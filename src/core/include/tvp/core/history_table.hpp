// The per-bank history table (Section III).
//
// Stores (row, refresh interval of the last mitigation-triggered extra
// activation). A hit lets the weight calculation restart from that
// interval instead of the row's refresh slot, suppressing redundant
// extra activations for already-protected aggressors. Replacement is
// FIFO; the table is cleared when a new refresh window starts. In
// hardware the lookup is a sequential search finished before the next
// ACT of the same bank (Table II budget) — the cost model in tvp::hw
// charges one cycle per entry for it.
//
// Layout is structure-of-arrays: a dense row-id column (the per-ACT
// membership scan) and a parallel interval column, nothing else. A
// slot's validity is encoded in the row column itself (kInvalidRow),
// and the FIFO fill discipline keeps every valid slot inside [0, size_)
// — slots past size_ have never been written — so the scan bound is the
// live size, not the capacity: an empty table (every window start)
// scans nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/util/scan.hpp"

namespace tvp::core {

class HistoryTable {
 public:
  /// @p capacity entries (the paper uses 32 -> 120 B per 1 GB bank), at
  /// most 255 — slot indices are the values of the hardware's 8-bit
  /// CaPRoMi counter-table link, which reserves 0xFF for no link;
  /// @p row_bits / @p interval_bits size the storage estimate.
  HistoryTable(std::size_t capacity, unsigned row_bits, unsigned interval_bits);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Sequential search; returns the stored interval on a hit.
  std::optional<std::uint32_t> lookup(dram::RowId row) const noexcept {
    const std::size_t i = find(row);
    if (i == size_) return std::nullopt;
    return intervals_[i];
  }

  /// A filter of the rows stored with @p interval: bit (row % 64) is set
  /// for each of them, so a clear bit proves a row is not.
  std::uint64_t row_filter(std::uint32_t interval) const noexcept {
    std::uint64_t filter = 0;
    for (std::size_t i = 0; i < size_; ++i)
      if (intervals_[i] == interval)
        filter |= std::uint64_t{1} << (rows_[i] & 63u);
    return filter;
  }

  /// Index of @p row in the table (the "address" CaPRoMi links into its
  /// counter entries), or nullopt.
  std::optional<std::uint8_t> index_of(dram::RowId row) const noexcept {
    const std::size_t i = find(row);
    if (i == size_) return std::nullopt;
    return static_cast<std::uint8_t>(i);
  }

  /// Stored interval at @p index; throws std::out_of_range when invalid.
  std::uint32_t interval_at(std::uint8_t index) const;

  /// Row stored at @p index; throws std::out_of_range when invalid.
  dram::RowId row_at(std::uint8_t index) const;

  /// Inserts or updates (row -> interval). Updates keep the entry's FIFO
  /// position; inserts evict the oldest entry when full.
  void insert(dram::RowId row, std::uint32_t interval) {
    const std::size_t i = find(row);
    if (i != size_) {
      intervals_[i] = interval;  // update in place, keep the slot
      return;
    }
    // Overwrite the oldest slot (hardware FIFO head pointer). While the
    // table is filling, head_ == size_, so the write extends the dense
    // valid prefix.
    rows_[head_] = row;
    intervals_[head_] = interval;
    head_ = (head_ + 1) % capacity_;
    if (size_ < capacity_) ++size_;
  }

  /// Clears all entries (new refresh window).
  void clear() noexcept;

  /// Storage in bits: capacity * (row + interval).
  std::uint64_t state_bits() const noexcept;

 private:
  /// Marks an invalid slot in the row column. Safe as a sentinel: a real
  /// row id is < rows_per_bank <= 2^32 - 1, so it never equals
  /// 0xFFFFFFFF.
  static constexpr dram::RowId kInvalidRow = 0xFFFFFFFFu;

  std::size_t find(dram::RowId row) const noexcept {
    // The simulator's hottest scan (once per ACT for every *PRoMi
    // variant): util::find_u32's SSE2 sweep of the dense row column,
    // bounded by the live size (the valid slots are exactly [0, size_)).
    return util::find_u32(rows_.data(), size_, row);
  }

  // Fixed slots with a head pointer, like the hardware FIFO: slot
  // indices stay stable until the slot itself is overwritten, which is
  // what keeps CaPRoMi's link indices valid.
  std::vector<dram::RowId> rows_;
  std::vector<std::uint32_t> intervals_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  unsigned row_bits_;
  unsigned interval_bits_;
};

}  // namespace tvp::core
