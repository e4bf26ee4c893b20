#include "tvp/mitigation/cra.hpp"

#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"
#include "tvp/util/scan.hpp"

namespace tvp::mitigation {

Cra::Cra(CraConfig config, util::Rng) : cfg_(config) {
  if (cfg_.rows_per_bank == 0 || cfg_.refresh_intervals == 0)
    throw std::invalid_argument("Cra: zero geometry");
  if (cfg_.row_threshold == 0)
    throw std::invalid_argument("Cra: zero threshold");
  if (cfg_.rows_per_bank % cfg_.refresh_intervals != 0)
    throw std::invalid_argument("Cra: rows must be a multiple of RefInt");
  counts_.assign(cfg_.rows_per_bank, 0);
}

void Cra::observe(dram::RowId row, mem::ActionBuffer& out) {
  if (++counts_[row] < cfg_.row_threshold) return;
  counts_[row] = 0;
  mem::MitigationAction action;
  action.kind = mem::MitigationAction::Kind::kActNeighbors;
  action.row = row;
  action.suspect = row;
  out.push_back(action);
}

void Cra::on_activates(const dram::RowId* rows, std::size_t n,
                        const mem::MitigationContext&,
                        mem::ActionBuffer& out) {
  // The counter table spans every row of the bank (the lane's accesses
  // scatter across it), so the next few counters are prefetched ahead of
  // the increment — the lane hands us the future rows for free.
  constexpr std::size_t kPrefetchDist = 8;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDist < n)
      util::prefetch_read(&counts_[rows[i + kPrefetchDist]]);
    const std::size_t before = out.size();
    observe(rows[i], out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

void Cra::on_refresh(const mem::MitigationContext& ctx,
                     mem::ActionBuffer&) {
  // Counters of the rows refreshed this interval restart (their victims'
  // charge is fresh again). CRA assumes the sequential slot mapping.
  const dram::RowId rpi = cfg_.rows_per_bank / cfg_.refresh_intervals;
  const dram::RowId base = ctx.interval_in_window * rpi;
  for (dram::RowId r = base; r < base + rpi; ++r) counts_[r] = 0;
}

std::uint64_t Cra::state_bits() const noexcept {
  return static_cast<std::uint64_t>(cfg_.rows_per_bank) *
         util::bits_for(cfg_.row_threshold + 1);
}

mem::BankMitigationFactory make_cra_factory(CraConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Cra>(config, rng);
  };
}

}  // namespace tvp::mitigation
