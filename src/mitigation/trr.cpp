#include "tvp/mitigation/trr.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"

namespace tvp::mitigation {

Trr::Trr(TrrConfig config, util::Rng rng) : cfg_(config), rng_(rng) {
  if (cfg_.sampler_entries == 0)
    throw std::invalid_argument("Trr: zero sampler entries");
  if (cfg_.victims_per_ref == 0)
    throw std::invalid_argument("Trr: zero refresh budget");
  if (cfg_.rfm_enabled && cfg_.raaimt == 0)
    throw std::invalid_argument("Trr: zero RAAIMT");
  if (cfg_.rows_per_bank == 0)
    throw std::invalid_argument("Trr: zero rows_per_bank");
  rows_.assign(cfg_.sampler_entries, 0);
  scores_.assign(cfg_.sampler_entries, 0);
}

void Trr::on_activates(const dram::RowId* rows, std::size_t n,
                        const mem::MitigationContext&,
                        mem::ActionBuffer& out) {
  // The generator, the RFM count and the sampler columns live in locals
  // for the lane; the generator and the count are stored back once.
  util::Rng rng = rng_;
  std::uint32_t raa = raa_;
  dram::RowId* const sampled = rows_.data();
  std::uint32_t* const scores = scores_.data();
  const std::uint32_t entries = cfg_.sampler_entries;
  for (std::size_t i = 0; i < n; ++i) {
    const dram::RowId row = rows[i];
    // Frequency-biased reservoir sampling. The first entry that is free
    // or holds the row takes the ACT; a free entry scores 0, so both
    // cases store the row and add one to the score. The scan selects
    // instead of branching on each entry.
    std::uint32_t hit = entries;
    for (std::uint32_t e = entries; e-- > 0;)
      hit = (scores[e] == 0) | (sampled[e] == row) ? e : hit;
    if (hit != entries) {
      sampled[hit] = row;
      ++scores[hit];
    } else {
      // Every entry holds another row: the first lowest-scoring one is
      // replaced with probability 1/(score+1).
      std::uint32_t low = 0;
      for (std::uint32_t e = 1; e < entries; ++e)
        low = scores[e] < scores[low] ? e : low;
      if (rng.below(scores[low] + 1) == 0) {
        sampled[low] = row;
        scores[low] = 1;
      }
    }

    if (cfg_.rfm_enabled && ++raa >= cfg_.raaimt) {
      raa = 0;
      ++rfm_commands_;
      const std::size_t before = out.size();
      refresh_opportunity(out);
      out.stamp_origin(before, static_cast<std::uint32_t>(i));
    }
  }
  rng_ = rng;
  raa_ = raa;
}

void Trr::refresh_opportunity(mem::ActionBuffer& out) {
  // Refresh the victims of the highest-scoring samples (the first of
  // equals), then retire them.
  const std::uint32_t entries = cfg_.sampler_entries;
  for (std::uint32_t budget = 0; budget < cfg_.victims_per_ref; ++budget) {
    std::uint32_t best = 0;
    for (std::uint32_t e = 1; e < entries; ++e)
      best = scores_[e] > scores_[best] ? e : best;
    if (scores_[best] == 0) return;
    mem::MitigationAction action;
    action.kind = mem::MitigationAction::Kind::kActNeighbors;
    action.row = rows_[best];
    action.suspect = rows_[best];
    out.push_back(action);
    scores_[best] = 0;
  }
}

void Trr::on_refresh(const mem::MitigationContext&,
                     mem::ActionBuffer& out) {
  raa_ = 0;  // REF also resets the RFM accumulation (DDR5 semantics)
  refresh_opportunity(out);
}

std::uint64_t Trr::state_bits() const noexcept {
  const unsigned row_bits = util::bits_for(cfg_.rows_per_bank);
  const unsigned score_bits = 8;
  const unsigned raa_bits = cfg_.rfm_enabled ? util::bits_for(cfg_.raaimt + 1) : 0;
  return cfg_.sampler_entries * (row_bits + score_bits + 1) + raa_bits;
}

mem::BankMitigationFactory make_trr_factory(TrrConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Trr>(config, rng);
  };
}

}  // namespace tvp::mitigation
