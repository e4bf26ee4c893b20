#include "tvp/mitigation/mrloc.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"
#include "tvp/util/scan.hpp"

namespace tvp::mitigation {

MrLoc::MrLoc(MrLocConfig config, util::Rng rng) : cfg_(config), rng_(rng) {
  if (cfg_.queue_entries == 0)
    throw std::invalid_argument("MrLoc: zero queue capacity");
  if (cfg_.rows_per_bank == 0)
    throw std::invalid_argument("MrLoc: zero rows_per_bank");
  if (cfg_.p_max < cfg_.p_min)
    throw std::invalid_argument("MrLoc: p_max below p_min");
  queue_.reserve(cfg_.queue_entries);
  full_lut_.resize(cfg_.queue_entries);
  for (std::size_t d = 0; d < cfg_.queue_entries; ++d)
    full_lut_[d] = raw_probability(d, cfg_.queue_entries);
}

std::uint64_t MrLoc::raw_probability(std::size_t depth,
                                     std::size_t size) const {
  // Recency-weighted: depth 0 = oldest gets p_min, depth size-1 = newest
  // gets p_max, ramping linearly. A single-entry queue is both oldest
  // and newest at once — the ramp degenerates to its midpoint
  // (p_min + p_max) / 2, the limit of the ramp's mean. (Assigning the
  // sole entry the full p_max — the old behaviour — double-counted its
  // recency: one hit in a cold queue was treated as the strongest
  // locality signal the technique can express.)
  const std::uint64_t span = cfg_.p_max.raw() - cfg_.p_min.raw();
  return cfg_.p_min.raw() +
         (size > 1 ? span * depth / (size - 1) : span / 2);
}

util::FixedProb MrLoc::probability_at(std::size_t depth) const {
  if (depth >= queue_.size())
    throw std::out_of_range("MrLoc::probability_at");
  return util::FixedProb::from_raw(
      static_cast<std::uint32_t>(raw_probability(depth, queue_.size())));
}

void MrLoc::observe_victim(dram::RowId victim, dram::RowId aggressor,
                           mem::ActionBuffer& out) {
  const std::size_t n = queue_.size();
  dram::RowId* const q = queue_.data();
  const std::size_t depth = util::find_u32(q, n, victim);
  if (depth != n) {
    const std::uint64_t raw = n == cfg_.queue_entries
                                  ? full_lut_[depth]
                                  : raw_probability(depth, n);
    if (rng_.bernoulli_q32(raw)) {
      mem::MitigationAction action;
      action.kind = mem::MitigationAction::Kind::kActRow;
      action.row = victim;
      action.suspect = aggressor;
      out.push_back(action);
    }
    // Re-insert at the most recent position.
    std::memmove(q + depth, q + depth + 1,
                 (n - 1 - depth) * sizeof(dram::RowId));
    q[n - 1] = victim;
  } else if (n == cfg_.queue_entries) {
    // Full and missing: evict the oldest.
    std::memmove(q, q + 1, (n - 1) * sizeof(dram::RowId));
    q[n - 1] = victim;
  } else {
    queue_.push_back(victim);
  }
}

void MrLoc::on_activates(const dram::RowId* rows, std::size_t n,
                         const mem::MitigationContext&,
                         mem::ActionBuffer& out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.size();
    const dram::RowId row = rows[i];
    if (row > 0) observe_victim(row - 1, row, out);
    if (row + 1 < cfg_.rows_per_bank) observe_victim(row + 1, row, out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

std::uint64_t MrLoc::state_bits() const noexcept {
  return cfg_.queue_entries * (util::bits_for(cfg_.rows_per_bank) + 1);
}

mem::BankMitigationFactory make_mrloc_factory(MrLocConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<MrLoc>(config, rng);
  };
}

}  // namespace tvp::mitigation
