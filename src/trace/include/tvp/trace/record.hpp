// The unit of work flowing into the memory controller: one row access.
#pragma once

#include <cstddef>
#include <cstdint>

#include "tvp/dram/geometry.hpp"

namespace tvp::trace {

/// Identifies who generated a record (core index or attacker).
using SourceId = std::uint8_t;

/// One memory request at row granularity.
///
/// Records carry a ground-truth `is_attack` tag set by the generators.
/// Mitigation techniques never see the tag; the experiment harness uses
/// it to compute the false-positive rate (an extra activation triggered
/// by a benign access is a false positive).
struct AccessRecord {
  std::uint64_t time_ps = 0;     ///< arrival time at the controller
  dram::BankId bank = 0;         ///< flat bank index
  dram::RowId row = 0;           ///< logical (controller-visible) row
  bool write = false;
  bool is_attack = false;
  SourceId source = 0;

  bool operator==(const AccessRecord&) const = default;
};

/// One bank's pre-partitioned column view over a record span (SoA): the
/// span's records with this bank id, in arrival order, as separate
/// contiguous arrays. `serials[k]` is the span-relative index of the
/// k-th element (strictly ascending), so a consumer can rebase a lane
/// onto any sub-range of the span; the lanes of a span together hold
/// every serial of [0, span length) once. A corpus block is nothing but
/// its lanes (zero-copy out of the mapped file), so the controller skips
/// its own scatter pass and the records themselves never exist unless a
/// consumer rebuilds them (gather_lanes). `max_row` bounds the lane's
/// rows from above, computed when a block's lanes are verified (a lane
/// cut short keeps its block lane's maximum), letting the controller
/// range-check a whole lane in O(1).
struct BankLaneView {
  const dram::RowId* rows = nullptr;
  const std::uint64_t* times = nullptr;
  const std::uint32_t* serials = nullptr;
  /// Bit 0: write; bit 1: is_attack.
  const std::uint8_t* flags = nullptr;
  const SourceId* sources = nullptr;
  std::size_t count = 0;
  dram::RowId max_row = 0;  ///< 0 when the lane is empty
};

/// Lane flag bits (BankLaneView::flags).
inline constexpr std::uint8_t kLaneWrite = 1;
inline constexpr std::uint8_t kLaneAttack = 2;

/// Rebuilds the records whose serials fall in [@p from, @p to) of the
/// span that @p lanes (@p banks of them; lane b holds bank b) describe,
/// into out[0, to - from). @p cursors holds, per lane, the first element
/// not yet rebuilt (all zero for a fresh span) and is advanced past the
/// elements written. Requires what a corpus block's first touch proves:
/// each lane's serials ascend, the lanes' serials together are a
/// permutation of the span, and every element below a cursor has a
/// serial below @p from.
void gather_lanes(const BankLaneView* lanes, std::size_t banks,
                  std::size_t* cursors, std::size_t from, std::size_t to,
                  AccessRecord* out);

/// Cuts @p lanes (@p banks of them, holding a time-ordered span) to the
/// span's records before @p end_ps, which are a prefix of the span and
/// of every lane: each lane keeps its elements before its first time at
/// or past @p end_ps. Returns how many records the lanes keep.
std::size_t cut_lanes_before(BankLaneView* lanes, std::size_t banks,
                             std::uint64_t end_ps);

}  // namespace tvp::trace
