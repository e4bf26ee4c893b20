// Trace-level statistics: validates that a generated workload matches
// the Table I calibration targets (activations per refresh interval,
// attack share, row-reuse) before it is fed to a mitigation experiment.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tvp/trace/record.hpp"
#include "tvp/util/histogram.hpp"
#include "tvp/util/stats.hpp"

namespace tvp::trace {

/// Accumulates per-record statistics; add() must see records in time
/// order (asserted in debug builds by the harness, not here).
class TraceStats {
 public:
  /// @p t_refi_ps defines the refresh-interval bucketing;
  /// @p banks the number of banks (for per-bank rates).
  TraceStats(std::uint64_t t_refi_ps, std::uint32_t banks);

  /// Throws std::invalid_argument naming the bank when the record's
  /// bank is not below the configured bank count.
  void add(const AccessRecord& record);

  std::uint64_t records() const noexcept { return records_; }
  std::uint64_t attack_records() const noexcept { return attack_; }
  std::uint64_t writes() const noexcept { return writes_; }
  double attack_fraction() const noexcept {
    return records_ ? static_cast<double>(attack_) / static_cast<double>(records_) : 0.0;
  }

  /// Distinct (bank, row) pairs touched.
  std::size_t unique_rows() const noexcept { return row_counts_.size(); }

  /// Mean / max activations per refresh interval per *active* bank.
  /// Finalised lazily; cheap to call repeatedly.
  util::RunningStat acts_per_interval_per_bank() const;

  /// Histogram over [lo, hi) of the same samples: one per (refresh
  /// interval, bank) pair that saw an activation, its activation total.
  util::Histogram acts_per_interval_histogram(double lo, double hi,
                                              std::size_t bins) const;

  /// Activation count of the single most-activated (bank, row).
  std::uint64_t hottest_row_count() const noexcept;

 private:
  std::uint64_t t_refi_ps_;
  std::uint32_t banks_;
  std::uint64_t records_ = 0;
  std::uint64_t attack_ = 0;
  std::uint64_t writes_ = 0;
  std::unordered_map<std::uint64_t, std::uint64_t> row_counts_;  // key: bank<<32|row
  // interval index -> per-bank activation counts (sparse over intervals)
  std::unordered_map<std::uint64_t, std::uint64_t> interval_bank_counts_;
};

}  // namespace tvp::trace
