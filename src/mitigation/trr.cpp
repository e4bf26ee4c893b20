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
  sampler_.assign(cfg_.sampler_entries, Sample{});
}

void Trr::observe(dram::RowId row, mem::ActionBuffer& out) {
  // Frequency-biased reservoir sampling.
  Sample* lowest = &sampler_.front();
  bool tracked = false;
  for (auto& s : sampler_) {
    if (s.valid && s.row == row) {
      ++s.score;
      tracked = true;
      break;
    }
    if (!s.valid) {
      s = Sample{row, 1, true};
      tracked = true;
      break;
    }
    if (s.score < lowest->score) lowest = &s;
  }
  if (!tracked && rng_.below(lowest->score + 1) == 0)
    *lowest = Sample{row, 1, true};

  if (cfg_.rfm_enabled && ++raa_ >= cfg_.raaimt) {
    raa_ = 0;
    ++rfm_commands_;
    refresh_opportunity(out);
  }
}

void Trr::on_activates(const dram::RowId* rows, std::size_t n,
                        const mem::MitigationContext&,
                        mem::ActionBuffer& out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.size();
    observe(rows[i], out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

void Trr::refresh_opportunity(mem::ActionBuffer& out) {
  // Refresh the victims of the highest-scoring samples, then retire them.
  for (std::uint32_t budget = 0; budget < cfg_.victims_per_ref; ++budget) {
    Sample* best = nullptr;
    for (auto& s : sampler_)
      if (s.valid && (best == nullptr || s.score > best->score)) best = &s;
    if (best == nullptr) return;
    mem::MitigationAction action;
    action.kind = mem::MitigationAction::Kind::kActNeighbors;
    action.row = best->row;
    action.suspect = best->row;
    out.push_back(action);
    best->valid = false;
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
