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
/// onto any sub-range of the span. Produced by a corpus block's lanes
/// (zero-copy out of the mapped file) so the controller skips its own
/// scatter pass; `max_row` is the lane's row maximum, computed when the
/// lanes are verified, letting the controller range-check a whole lane
/// in O(1).
struct BankLaneView {
  const dram::RowId* rows = nullptr;
  const std::uint64_t* times = nullptr;
  const std::uint32_t* serials = nullptr;
  const std::uint8_t* writes = nullptr;
  std::size_t count = 0;
  dram::RowId max_row = 0;  ///< 0 when the lane is empty
};

}  // namespace tvp::trace
