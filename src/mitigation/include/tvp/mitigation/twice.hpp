// TWiCe — Time Window Counters (Lee et al., ISCA 2019).
//
// A pruned counter table: every activated row gets a counter; at each
// refresh-interval boundary, entries whose count has not kept pace with
// the minimum rate an attack needs (count < th_PI * life) are pruned —
// TWiCe's proof shows no dangerous row can be pruned. When a counter
// reaches the row threshold (flip threshold / 4, accounting for two
// aggressors and window phase), the row's neighbours are refreshed
// deterministically. Accurate and near-zero overhead, but the table is
// a CAM, which makes the hardware enormous (Table III: 740x PARA on
// DDR4, 9904x on DDR3).
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct TwiceConfig {
  /// CAM capacity per bank; sized from the pruning analysis (the
  /// harmonic bound keeps live entries far below this).
  std::size_t entries = 560;
  /// Deterministic mitigation threshold: flip_threshold / 4.
  std::uint32_t row_threshold = 139'000 / 4;
  /// Pruning slope th_PI: minimum activations per interval of life an
  /// entry must sustain; ceil(row_threshold / RefInt).
  std::uint32_t pruning_slope = 5;
  std::uint32_t refresh_intervals = 8192;
  dram::RowId rows_per_bank = 131072;
};

class Twice final : public mem::IBankMitigation {
 public:
  Twice(TwiceConfig config, util::Rng rng);

  const char* name() const noexcept override { return "TWiCe"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  std::size_t live_entries() const noexcept { return live_; }
  std::size_t peak_live_entries() const noexcept { return peak_live_; }
  /// ACTs that could not be tracked because the table overflowed; must
  /// stay 0 for the safety proof to hold (tested).
  std::uint64_t overflow_drops() const noexcept { return overflow_drops_; }

 private:
  /// Issues act_n for the row in @p entry (the ACT at lane index
  /// @p origin reached row_threshold) and restarts the entry's count.
  void mitigate(std::size_t entry, dram::RowId row, std::uint32_t origin,
                mem::ActionBuffer& out);

  TwiceConfig cfg_;
  // The hardware CAM, laid out as structure-of-arrays: live entries are
  // the dense prefix [0, live_) of three parallel columns, so the
  // per-ACT associative match is a SIMD sweep of the row column
  // (util::find_u32) instead of a hash lookup. Pruning swap-compacts
  // the prefix; TWiCe draws no randomness and on_refresh emits no
  // actions, so entry order is unobservable and compaction is safe.
  std::vector<dram::RowId> rows_;
  std::vector<std::uint32_t> counts_;
  std::vector<std::uint32_t> lifes_;  // completed intervals since allocation
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t overflow_drops_ = 0;
};

mem::BankMitigationFactory make_twice_factory(TwiceConfig config = {});

}  // namespace tvp::mitigation
