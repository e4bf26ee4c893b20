#include "tvp/mitigation/prac.hpp"

#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"
#include "tvp/util/scan.hpp"

namespace tvp::mitigation {

Prac::Prac(PracConfig config, util::Rng) : cfg_(config) {
  if (cfg_.rows_per_bank == 0 || cfg_.refresh_intervals == 0)
    throw std::invalid_argument("Prac: zero geometry");
  if (cfg_.row_threshold == 0)
    throw std::invalid_argument("Prac: zero threshold");
  if (cfg_.rows_per_bank % cfg_.refresh_intervals != 0)
    throw std::invalid_argument("Prac: rows must be a multiple of RefInt");
  counts_.assign(cfg_.rows_per_bank, 0);
}

void Prac::observe(dram::RowId row, mem::ActionBuffer& out) {
  if (++counts_[row] < cfg_.row_threshold) return;
  counts_[row] = 0;
  ++alerts_;  // the device raises ALERT; the back-off refreshes neighbours
  mem::MitigationAction action;
  action.kind = mem::MitigationAction::Kind::kActNeighbors;
  action.row = row;
  action.suspect = row;
  out.push_back(action);
}

void Prac::on_activates(const dram::RowId* rows, std::size_t n,
                         const mem::MitigationContext&,
                         mem::ActionBuffer& out) {
  // The per-row counter table spans the whole bank, so the lane's future
  // rows are prefetched a few ACTs ahead of their increments.
  constexpr std::size_t kPrefetchDist = 8;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDist < n)
      util::prefetch_read(&counts_[rows[i + kPrefetchDist]]);
    const std::size_t before = out.size();
    observe(rows[i], out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

void Prac::on_refresh(const mem::MitigationContext& ctx,
                      mem::ActionBuffer&) {
  // The per-row counter restarts when the row's victims get their
  // scheduled refresh (same slot bookkeeping as CRA's in-DRAM table).
  const dram::RowId rpi = cfg_.rows_per_bank / cfg_.refresh_intervals;
  const dram::RowId base = ctx.interval_in_window * rpi;
  for (dram::RowId r = base; r < base + rpi; ++r) counts_[r] = 0;
}

std::uint64_t Prac::in_dram_bits() const noexcept {
  return static_cast<std::uint64_t>(cfg_.rows_per_bank) *
         util::bits_for(cfg_.row_threshold + 1);
}

mem::BankMitigationFactory make_prac_factory(PracConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Prac>(config, rng);
  };
}

}  // namespace tvp::mitigation
