#include "tvp/mitigation/twice.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"
#include "tvp/util/scan.hpp"

namespace tvp::mitigation {

Twice::Twice(TwiceConfig config, util::Rng) : cfg_(config) {
  if (cfg_.entries == 0) throw std::invalid_argument("Twice: zero capacity");
  if (cfg_.row_threshold == 0 || cfg_.pruning_slope == 0)
    throw std::invalid_argument("Twice: zero threshold");
  if (cfg_.rows_per_bank == 0 || cfg_.refresh_intervals == 0)
    throw std::invalid_argument("Twice: zero geometry");
  rows_.assign(cfg_.entries, 0);
  counts_.assign(cfg_.entries, 0);
  lifes_.assign(cfg_.entries, 0);
}

void Twice::on_activates(const dram::RowId* rows, std::size_t n,
                          const mem::MitigationContext&,
                          mem::ActionBuffer& out) {
  // The table's columns and live count sit in locals for the lane, so a
  // hit costs the scan and an increment.
  dram::RowId* const keys = rows_.data();
  std::uint32_t* const counts = counts_.data();
  std::uint32_t* const lifes = lifes_.data();
  const std::uint32_t threshold = cfg_.row_threshold;
  const std::size_t capacity = cfg_.entries;
  std::size_t live = live_;
  for (std::size_t i = 0; i < n; ++i) {
    const dram::RowId row = rows[i];
    // SIMD sweep of the dense row column — the simulation stand-in for
    // the hardware CAM's single-cycle associative match.
    const std::size_t hit = util::find_u32(keys, live, row);
    if (hit != live) {
      if (++counts[hit] >= threshold)
        mitigate(hit, row, static_cast<std::uint32_t>(i), out);
      continue;
    }
    if (live == capacity) {
      // Table exhausted: TWiCe's sizing analysis says this cannot happen;
      // record it so the tests can assert the guarantee.
      ++overflow_drops_;
      continue;
    }
    keys[live] = row;
    counts[live] = 1;
    lifes[live] = 0;
    ++live;
  }
  live_ = live;
  peak_live_ = std::max(peak_live_, live);  // live only grows between REFs
}

void Twice::mitigate(std::size_t entry, dram::RowId row, std::uint32_t origin,
                     mem::ActionBuffer& out) {
  mem::MitigationAction action;
  action.kind = mem::MitigationAction::Kind::kActNeighbors;
  action.row = row;
  action.suspect = row;
  action.origin = origin;
  out.push_back(action);
  // Neighbours restored; counting starts over for this aggressor.
  counts_[entry] = 0;
  lifes_[entry] = 0;
}

void Twice::on_refresh(const mem::MitigationContext& ctx,
                       mem::ActionBuffer&) {
  if (ctx.window_start) {
    live_ = 0;
    return;
  }
  // Age every live entry and prune those that cannot reach
  // row_threshold at their pace: an entry must sustain at least
  // pruning_slope activations per interval of life (TWiCe's validity
  // condition). Pruned slots are swap-compacted from the back; the
  // swapped-in entry comes from a not-yet-visited position, so the
  // no-advance retry processes every entry exactly once.
  for (std::size_t i = 0; i < live_;) {
    const std::uint32_t life = ++lifes_[i];
    if (counts_[i] < static_cast<std::uint64_t>(cfg_.pruning_slope) * life) {
      --live_;
      rows_[i] = rows_[live_];
      counts_[i] = counts_[live_];
      lifes_[i] = lifes_[live_];
    } else {
      ++i;
    }
  }
}

std::uint64_t Twice::state_bits() const noexcept {
  // row (CAM tag) + count + life + valid, per entry.
  const unsigned row_bits = util::bits_for(cfg_.rows_per_bank);
  const unsigned count_bits = util::bits_for(cfg_.row_threshold + 1);
  const unsigned life_bits = util::bits_for(cfg_.refresh_intervals);
  return static_cast<std::uint64_t>(cfg_.entries) *
         (row_bits + count_bits + life_bits + 1);
}

mem::BankMitigationFactory make_twice_factory(TwiceConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<Twice>(config, rng);
  };
}

}  // namespace tvp::mitigation
