#include "tvp/dram/refresh.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"

namespace tvp::dram {

const char* to_string(RefreshPolicy policy) noexcept {
  switch (policy) {
    case RefreshPolicy::kNeighborSequential: return "neighbor-sequential";
    case RefreshPolicy::kNeighborRemapped: return "neighbor-remapped";
    case RefreshPolicy::kRandom: return "random-permutation";
    case RefreshPolicy::kCounterMask: return "counter-mask";
  }
  return "?";
}

RefreshScheduler::RefreshScheduler(RowId rows_per_bank,
                                   std::uint32_t refresh_intervals,
                                   RefreshPolicy policy, util::Rng& rng,
                                   std::size_t remap_swaps)
    : rows_(rows_per_bank), intervals_(refresh_intervals), policy_(policy) {
  if (rows_ == 0 || intervals_ == 0)
    throw std::invalid_argument("RefreshScheduler: zero rows or intervals");
  if (rows_ % intervals_ != 0)
    throw std::invalid_argument(
        "RefreshScheduler: rows_per_bank must be a multiple of refresh_intervals");

  const RowId rpi = rows_ / intervals_;
  switch (policy_) {
    case RefreshPolicy::kNeighborSequential:
      break;  // purely arithmetic
    case RefreshPolicy::kCounterMask:
      if (!util::is_pow2(intervals_))
        throw std::invalid_argument(
            "RefreshScheduler: counter-mask policy needs power-of-two intervals");
      mask_ = static_cast<std::uint32_t>(rng.below(intervals_));
      break;
    case RefreshPolicy::kNeighborRemapped: {
      // Sequential order over *logical* slots, with a few rows swapped
      // into foreign slots (spare-row replacement).
      row_to_interval_.resize(rows_);
      for (RowId r = 0; r < rows_; ++r) row_to_interval_[r] = r / rpi;
      RowRemapper remap(rows_, remap_swaps, rng);
      for (RowId r = 0; r < rows_; ++r) {
        const RowId phys = remap.to_physical(r);
        if (phys != r) row_to_interval_[phys] = r / rpi;
      }
      break;
    }
    case RefreshPolicy::kRandom: {
      // Fixed random permutation of rows, chunked into intervals.
      std::vector<RowId> perm(rows_);
      std::iota(perm.begin(), perm.end(), 0u);
      for (RowId i = rows_ - 1; i > 0; --i)
        std::swap(perm[i], perm[rng.below(i + 1)]);
      row_to_interval_.resize(rows_);
      for (RowId idx = 0; idx < rows_; ++idx)
        row_to_interval_[perm[idx]] = idx / rpi;
      break;
    }
  }

  if (!row_to_interval_.empty()) {
    interval_rows_.resize(intervals_);
    for (auto& v : interval_rows_) v.reserve(rpi);
    for (RowId r = 0; r < rows_; ++r)
      interval_rows_[row_to_interval_[r]].push_back(r);
  }
}

void RefreshScheduler::rows_in_interval(std::uint32_t interval,
                                        std::vector<RowId>& out) const {
  interval %= intervals_;
  const RowId rpi = rows_per_interval();
  switch (policy_) {
    case RefreshPolicy::kNeighborSequential:
      out.resize(rpi);
      std::iota(out.begin(), out.end(), interval * rpi);
      return;
    case RefreshPolicy::kCounterMask:
      out.resize(rpi);
      std::iota(out.begin(), out.end(), ((interval ^ mask_) % intervals_) * rpi);
      return;
    case RefreshPolicy::kNeighborRemapped:
    case RefreshPolicy::kRandom:
      out = interval_rows_[interval];
      return;
  }
}

std::uint32_t RefreshScheduler::interval_of_row(RowId row) const noexcept {
  const RowId rpi = rows_per_interval();
  switch (policy_) {
    case RefreshPolicy::kNeighborSequential:
      return static_cast<std::uint32_t>(row / rpi);
    case RefreshPolicy::kCounterMask:
      return (static_cast<std::uint32_t>(row / rpi) ^ mask_) % intervals_;
    case RefreshPolicy::kNeighborRemapped:
    case RefreshPolicy::kRandom:
      return row_to_interval_[row];
  }
  return 0;
}

}  // namespace tvp::dram
