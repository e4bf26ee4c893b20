// Refresh scheduling: which rows are refreshed in which refresh interval.
//
// TiVaPRoMi's weight (Eq. 1) assumes refresh interval i refreshes rows
// [i*RowsPI, (i+1)*RowsPI). Section IV checks the technique against
// three alternative device-side orders; this class implements all four:
//   (i)   kNeighborSequential — the assumed order,
//   (ii)  kNeighborRemapped   — sequential with a few spare-row swaps,
//   (iii) kRandom             — a fixed random permutation,
//   (iv)  kCounterMask        — interval counter XOR a constant mask.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/dram/remap.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::dram {

enum class RefreshPolicy {
  kNeighborSequential,
  kNeighborRemapped,
  kRandom,
  kCounterMask,
};

const char* to_string(RefreshPolicy policy) noexcept;

/// Deterministic per-device refresh order. The order is fixed at
/// construction (real devices hard-wire it); every row is refreshed
/// exactly once per refresh window under every policy.
class RefreshScheduler {
 public:
  /// @param rows_per_bank   number of rows (power of two)
  /// @param refresh_intervals RefInt intervals per window
  /// @param policy          device-side refresh order
  /// @param rng             seeds policies (ii)/(iii)/(iv)
  /// @param remap_swaps     swap count for kNeighborRemapped
  RefreshScheduler(RowId rows_per_bank, std::uint32_t refresh_intervals,
                   RefreshPolicy policy, util::Rng& rng,
                   std::size_t remap_swaps = 16);

  RefreshPolicy policy() const noexcept { return policy_; }
  std::uint32_t refresh_intervals() const noexcept { return intervals_; }
  RowId rows_per_bank() const noexcept { return rows_; }
  /// RowsPI: rows refreshed per interval.
  RowId rows_per_interval() const noexcept { return rows_ / intervals_; }

  /// Replaces @p out with the physical rows refreshed in interval
  /// @p interval (mod RefInt). A caller that keeps @p out across
  /// intervals allocates only on the first call.
  void rows_in_interval(std::uint32_t interval, std::vector<RowId>& out) const;

  /// Interval (within the window) in which physical row @p row is
  /// refreshed — the ground truth the device implements.
  std::uint32_t interval_of_row(RowId row) const noexcept;

  /// The controller-side *assumed* mapping f_r = r / RowsPI that the
  /// TiVaPRoMi weight calculation uses regardless of the true policy.
  std::uint32_t assumed_interval_of_row(RowId row) const noexcept {
    return static_cast<std::uint32_t>(row / rows_per_interval());
  }

 private:
  RowId rows_;
  std::uint32_t intervals_;
  RefreshPolicy policy_;
  std::uint32_t mask_ = 0;                 // kCounterMask
  std::vector<std::uint32_t> row_to_interval_;  // kRandom / kNeighborRemapped
  std::vector<std::vector<RowId>> interval_rows_;  // inverse, same policies
};

}  // namespace tvp::dram
