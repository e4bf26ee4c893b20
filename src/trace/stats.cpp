#include "tvp/trace/stats.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tvp::trace {

TraceStats::TraceStats(std::uint64_t t_refi_ps, std::uint32_t banks)
    : t_refi_ps_(t_refi_ps), banks_(banks) {
  if (t_refi_ps_ == 0 || banks_ == 0)
    throw std::invalid_argument("TraceStats: zero tREFI or banks");
}

void TraceStats::add(const AccessRecord& record) {
  if (record.bank >= banks_)  // the (interval, bank) key needs it in range
    throw std::invalid_argument("TraceStats: record bank " + std::to_string(record.bank) +
                                " outside the " + std::to_string(banks_) + " banks");
  ++records_;
  if (record.is_attack) ++attack_;
  if (record.write) ++writes_;
  const std::uint64_t row_key =
      (static_cast<std::uint64_t>(record.bank) << 32) | record.row;
  ++row_counts_[row_key];
  const std::uint64_t interval = record.time_ps / t_refi_ps_;
  const std::uint64_t ib_key = interval * banks_ + record.bank;
  ++interval_bank_counts_[ib_key];
}

util::RunningStat TraceStats::acts_per_interval_per_bank() const {
  util::RunningStat stat;
  for (const auto& [key, count] : interval_bank_counts_)
    stat.add(static_cast<double>(count));
  return stat;
}

util::Histogram TraceStats::acts_per_interval_histogram(double lo, double hi,
                                                        std::size_t bins) const {
  util::Histogram hist(lo, hi, bins);
  for (const auto& [key, count] : interval_bank_counts_)
    hist.add(static_cast<double>(count));
  return hist;
}

std::uint64_t TraceStats::hottest_row_count() const noexcept {
  std::uint64_t peak = 0;
  for (const auto& [key, count] : row_counts_) peak = std::max(peak, count);
  return peak;
}

}  // namespace tvp::trace
