// MRLoc — Mitigating Row-hammering based on memory Locality
// (You & Yang, DAC 2019).
//
// Keeps a FIFO queue of recently implicated victim rows. When a victim
// re-appears while still queued, it is refreshed with a probability
// weighted by its queue recency (more recent -> more likely): locality
// concentrates the probability budget on rows under active pressure.
// Overhead ends up close to PARA's and the technique remains vulnerable
// to multi-aggressor patterns (the queue thrashes, so the weighted boost
// never engages — Table III: vulnerable = yes).
//
// The queue is a flat contiguous array (oldest first) rather than a
// linked structure: the membership scan — two per ACT, the simulator's
// former hottest loop — is a vectorizable sweep of at most queue_entries
// row ids, and erase/evict are single memmoves. Once the default
// 16-entry queue is full, an SSE2 target keeps it in four registers for
// a whole lane instead: its cost was the queue's round trip through
// memory, not its layout. The recency-weighted probabilities for the
// steady (full-queue) state come from a precomputed table, so the hot
// path performs no division.
#pragma once

#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/fixed_prob.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct MrLocConfig {
  std::size_t queue_entries = 16;
  /// Probability for the least recent queued victim...
  util::FixedProb p_min = util::FixedProb::from_double(0.0002);
  /// ...ramping linearly to the most recent one.
  util::FixedProb p_max = util::FixedProb::from_double(0.0012);
  dram::RowId rows_per_bank = 131072;
};

class MrLoc final : public mem::IBankMitigation {
 public:
  MrLoc(MrLocConfig config, util::Rng rng);

  const char* name() const noexcept override { return "MRLoc"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext&,
                  mem::ActionBuffer&) override {}
  std::uint64_t state_bits() const noexcept override;

  std::size_t queue_size() const noexcept { return queue_.size(); }
  /// The probability assigned to queue depth @p depth (0 = oldest) at
  /// the current queue size — exposed so tests can pin the recency ramp,
  /// including the degenerate single-entry queue.
  util::FixedProb probability_at(std::size_t depth) const;

 private:
  void observe_victim(dram::RowId victim, dram::RowId aggressor,
                      mem::ActionBuffer& out);
  std::uint64_t raw_probability(std::size_t depth, std::size_t size) const;

  MrLocConfig cfg_;
  util::Rng rng_;
  std::vector<dram::RowId> queue_;       // [0] = oldest, back = most recent
  std::vector<std::uint64_t> full_lut_;  // raw prob per depth, full queue
};

mem::BankMitigationFactory make_mrloc_factory(MrLocConfig config = {});

}  // namespace tvp::mitigation
