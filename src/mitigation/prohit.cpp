#include "tvp/mitigation/prohit.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"

namespace tvp::mitigation {

ProHit::ProHit(ProHitConfig config, util::Rng rng) : cfg_(config), rng_(rng) {
  if (cfg_.hot_entries == 0 || cfg_.cold_entries == 0)
    throw std::invalid_argument("ProHit: zero table capacity");
  if (cfg_.rows_per_bank == 0)
    throw std::invalid_argument("ProHit: zero rows_per_bank");
  hot_.reserve(cfg_.hot_entries);
  cold_.reserve(cfg_.cold_entries);
}

std::optional<std::size_t> ProHit::find(const std::vector<Victim>& table,
                                        dram::RowId row) noexcept {
  for (std::size_t i = 0; i < table.size(); ++i)
    if (table[i].row == row) return i;
  return std::nullopt;
}

void ProHit::observe_victim(dram::RowId victim, dram::RowId aggressor) {
  if (const auto pos = find(hot_, victim)) {
    hot_[*pos].suspect = aggressor;
    // Probabilistic promotion one step toward the top.
    if (*pos > 0 && rng_.bernoulli_q32(cfg_.promote_prob.raw()))
      std::swap(hot_[*pos], hot_[*pos - 1]);
    return;
  }
  if (const auto pos = find(cold_, victim)) {
    cold_[*pos].suspect = aggressor;
    if (rng_.bernoulli_q32(cfg_.promote_prob.raw())) {
      const Victim promoted = cold_[*pos];
      cold_.erase(cold_.begin() + static_cast<std::ptrdiff_t>(*pos));
      if (hot_.size() == cfg_.hot_entries) {
        // Hot bottom is demoted back to cold (FIFO tail).
        cold_.push_back(hot_.back());
        hot_.pop_back();
      }
      hot_.push_back(promoted);
    }
    return;
  }
  if (rng_.bernoulli_q32(cfg_.insert_prob.raw())) {
    if (cold_.size() == cfg_.cold_entries) cold_.erase(cold_.begin());
    cold_.push_back(Victim{victim, aggressor});
  }
}

void ProHit::on_activates(const dram::RowId* rows, std::size_t n,
                           const mem::MitigationContext&, mem::ActionBuffer&) {
  // Observe only; the refresh is issued at REF.
  for (std::size_t i = 0; i < n; ++i) {
    const dram::RowId row = rows[i];
    if (row > 0) observe_victim(row - 1, row);
    if (row + 1 < cfg_.rows_per_bank) observe_victim(row + 1, row);
  }
}

void ProHit::on_refresh(const mem::MitigationContext&,
                        mem::ActionBuffer& out) {
  if (hot_.empty()) return;
  const Victim top = hot_.front();
  hot_.erase(hot_.begin());
  mem::MitigationAction action;
  action.kind = mem::MitigationAction::Kind::kActRow;
  action.row = top.row;
  action.suspect = top.suspect;
  out.push_back(action);
}

std::uint64_t ProHit::state_bits() const noexcept {
  // Each entry stores a victim row address (+ valid); two tables.
  const std::uint64_t entry_bits = util::bits_for(cfg_.rows_per_bank) + 1;
  return (cfg_.hot_entries + cfg_.cold_entries) * entry_bits;
}

mem::BankMitigationFactory make_prohit_factory(ProHitConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<ProHit>(config, rng);
  };
}

}  // namespace tvp::mitigation
