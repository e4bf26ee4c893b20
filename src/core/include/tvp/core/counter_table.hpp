// CaPRoMi's per-interval counter table (Section III-D).
//
// Tracks activation counts of rows *within one refresh interval*. On a
// miss with a full table one randomly chosen entry is replaced — unless
// that entry has reached the lock threshold (the lock bit prevents
// evicting frequently activated rows; the FSM's "fail" edge in Fig. 3).
// The hardware's per-entry link to a history-table slot is counted in
// state_bits(); the simulator finds the slot by a history lookup in the
// REF walk instead (CaPRoMi::on_refresh).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/util/rng.hpp"
#include "tvp/util/scan.hpp"

namespace tvp::core {

class CounterTable {
 public:
  struct Entry {
    dram::RowId row = 0;
    std::uint8_t count = 0;
    bool locked = false;
    bool valid = false;
  };

  /// @p capacity entries (the paper sizes it at 64, between the average
  /// 40 and maximum 165 activations per interval); @p lock_threshold is
  /// the activation count at which an entry becomes irreplaceable;
  /// @p row_bits and @p link_bits size the storage estimate — pass
  /// util::bits_for(history capacity) for @p link_bits (5 for the
  /// paper's 32-entry history table).
  CounterTable(std::size_t capacity, std::uint8_t lock_threshold,
               unsigned row_bits, unsigned link_bits = 5);

  std::size_t capacity() const noexcept { return slots_.size(); }
  std::size_t size() const noexcept { return size_; }

  /// Records one activation of @p row. Increments on a hit (saturating,
  /// setting the lock bit at the threshold); inserts on a miss; when
  /// full, attempts one random replacement via @p rng which fails if the
  /// chosen entry is locked. Returns the entry index touched, or nullopt
  /// when the replacement failed. Inlined: it runs once per ACT in
  /// CaPRoMi's batch kernel.
  std::optional<std::size_t> on_activate(dram::RowId row, util::Rng& rng) {
    // Dense scan over the valid prefix (see the invariant note below);
    // identical decisions to a full valid-checked sweep because no slot
    // past size_ is ever valid.
    const std::size_t n = size_;
    const std::size_t hit = util::find_u32(rows_.data(), n, row);
    if (hit != n) {
      Entry& e = slots_[hit];
      if (e.count < 0xFF) ++e.count;
      if (e.count >= lock_threshold_) e.locked = true;
      return hit;
    }
    if (n < slots_.size()) {
      slots_[n] = Entry{row, 1, false, true};
      rows_[n] = row;
      size_ = n + 1;
      return n;
    }
    // Full: one random replacement attempt; locked entries win (Fig. 3
    // "fail" edge) and the new row is simply not tracked this interval.
    const std::size_t victim = rng.below(slots_.size());
    if (slots_[victim].locked) return std::nullopt;
    slots_[victim] = Entry{row, 1, false, true};
    rows_[victim] = row;
    return victim;
  }

  /// Read-only view of the slots (REF-time decision walk); the valid
  /// entries are exactly [0, size()).
  const std::vector<Entry>& slots() const noexcept { return slots_; }

  /// Clears the table (end of refresh interval, after decisions).
  void clear() noexcept;

  /// Storage in bits: capacity * (row + count + lock + link).
  std::uint64_t state_bits() const noexcept;

 private:
  // Valid entries always occupy the prefix [0, size_): inserts fill the
  // first free slot (== size_), replacement overwrites a valid slot in
  // place, and clear() empties the prefix (slots past size_ have not been
  // written since the previous clear). Three walks rely on this: the
  // hot-path scan in on_activate (util::find_u32's SSE2 sweep of the
  // dense rows_ mirror up to size_, with no validity checks), CaPRoMi's
  // REF walk over [0, size()) and clear() itself.
  std::vector<Entry> slots_;
  std::vector<dram::RowId> rows_;  // rows_[i] == slots_[i].row for i < size_
  std::size_t size_ = 0;
  std::uint8_t lock_threshold_;
  unsigned row_bits_;
  unsigned link_bits_;
};

}  // namespace tvp::core
