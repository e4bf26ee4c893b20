#include "tvp/mitigation/graphene.hpp"

#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"
#include "tvp/util/scan.hpp"

namespace tvp::mitigation {

Graphene::Graphene(GrapheneConfig config, util::Rng) : cfg_(config) {
  if (cfg_.entries == 0) throw std::invalid_argument("Graphene: zero capacity");
  if (cfg_.row_threshold == 0)
    throw std::invalid_argument("Graphene: zero threshold");
  if (cfg_.rows_per_bank == 0)
    throw std::invalid_argument("Graphene: zero rows_per_bank");
  rows_.assign(cfg_.entries, 0);
  counts_.assign(cfg_.entries, 0);
}

void Graphene::observe(dram::RowId row, mem::ActionBuffer& out) {
  std::size_t slot = util::find_u32(rows_.data(), live_, row);
  if (slot != live_) {
    ++counts_[slot];
  } else if (live_ < cfg_.entries) {
    // Free slot: the dense prefix grows by one.
    slot = live_++;
    rows_[slot] = row;
    counts_[slot] = spill_ + 1;
  } else {
    // Misra-Gries swap with the first spill-level entry; slot order is
    // identical to the former first-invalid / first-at-spill walk.
    std::size_t swap_slot = cfg_.entries;
    for (std::size_t i = 0; i < cfg_.entries; ++i) {
      if (counts_[i] <= spill_) {
        swap_slot = i;
        break;
      }
    }
    if (swap_slot == cfg_.entries) {
      ++spill_;
      return;
    }
    slot = swap_slot;
    rows_[slot] = row;
    counts_[slot] = spill_ + 1;
  }

  if (counts_[slot] >= cfg_.row_threshold) {
    mem::MitigationAction action;
    action.kind = mem::MitigationAction::Kind::kActNeighbors;
    action.row = row;
    action.suspect = row;
    out.push_back(action);
    // Neighbours restored; the estimate restarts at the spill floor.
    counts_[slot] = spill_;
  }
}

void Graphene::on_activates(const dram::RowId* rows, std::size_t n,
                             const mem::MitigationContext&,
                             mem::ActionBuffer& out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.size();
    observe(rows[i], out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

void Graphene::on_refresh(const mem::MitigationContext& ctx,
                          mem::ActionBuffer&) {
  if (!ctx.window_start) return;
  live_ = 0;
  spill_ = 0;
}

std::uint64_t Graphene::state_bits() const noexcept {
  const unsigned row_bits = util::bits_for(cfg_.rows_per_bank);
  const unsigned count_bits = util::bits_for(cfg_.row_threshold + 1);
  return cfg_.entries * (row_bits + count_bits + 1) + count_bits;
}

mem::BankMitigationFactory make_graphene_factory(GrapheneConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Graphene>(config, rng);
  };
}

}  // namespace tvp::mitigation
