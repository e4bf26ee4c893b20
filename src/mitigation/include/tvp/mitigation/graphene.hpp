// Graphene (Park et al., MICRO 2020) — extension baseline.
//
// Published one year before TiVaPRoMi's venue year closed the gap
// between counters and probabilistic schemes from the other side:
// a Misra-Gries frequent-item summary needs only ~(acts per window /
// threshold) counters to *deterministically* catch every row that could
// reach the Row-Hammer threshold. It is not part of the paper's Table
// III; we include it so the design space around TiVaPRoMi is complete
// (see the extension_frontier bench).
//
// Algorithm per bank and refresh window:
//  * table of k (row, count) entries plus one spillover counter s;
//  * ACT of a tracked row: count++;
//  * ACT of an untracked row: take a free slot with count = s + 1, else
//    replace an entry whose count equals s (Misra-Gries swap), else s++;
//  * count reaching the threshold: act_n, and the count restarts at s;
//  * window start: everything resets.
// Guarantee: any row with more than `threshold` activations in a window
// is in the table when it crosses (the summary's frequent-item bound).
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct GrapheneConfig {
  /// Entries per bank; must exceed (max acts per window) / threshold
  /// (64 covers DDR4: 165 * 8192 / 34750 ~ 39).
  std::size_t entries = 64;
  /// Deterministic mitigation threshold (flip_threshold / 4).
  std::uint32_t row_threshold = 139'000 / 4;
  dram::RowId rows_per_bank = 131072;
};

class Graphene final : public mem::IBankMitigation {
 public:
  Graphene(GrapheneConfig config, util::Rng rng);

  const char* name() const noexcept override { return "Graphene"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  std::uint32_t spillover() const noexcept { return spill_; }
  std::size_t tracked() const noexcept { return live_; }

 private:
  /// The per-ACT step of on_activates.
  void observe(dram::RowId row, mem::ActionBuffer& out);

  GrapheneConfig cfg_;
  // Structure-of-arrays summary: tracked entries are the dense prefix
  // [0, live_) of two parallel columns (slots are taken in index order,
  // Misra-Gries swaps overwrite a slot in place, and entries only
  // invalidate at a window reset — so validity is positional). The
  // per-ACT associative match is a SIMD sweep of the row column
  // (util::find_u32), the simulation stand-in for the hardware CAM.
  std::vector<dram::RowId> rows_;
  std::vector<std::uint32_t> counts_;
  std::size_t live_ = 0;
  std::uint32_t spill_ = 0;
};

mem::BankMitigationFactory make_graphene_factory(GrapheneConfig config = {});

}  // namespace tvp::mitigation
