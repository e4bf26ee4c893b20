// PRAC — Per-Row Activation Counting (JEDEC DDR5 update, 2024) —
// extension baseline.
//
// The endpoint of the counter lineage this paper argues against on area
// grounds: the counters move *into the DRAM array itself* (one per row,
// updated during the row cycle), so controller-side storage drops to
// zero and the device signals back-pressure (ALERT) when a row needs
// mitigation. With a per-row counter there is no tracker to evade and
// the trigger threshold can be derated far below the weakest cell
// (solving the A6 weak-row margin problem). The costs — array area,
// extended row cycle, ALERT back-off bandwidth — are outside this
// simulator's scope; we model the protection semantics and count the
// ALERT-driven mitigations.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct PracConfig {
  dram::RowId rows_per_bank = 131072;
  std::uint32_t refresh_intervals = 8192;
  /// Derated trigger: flip threshold / 8 by default (headroom for weak
  /// rows and multi-sided pressure; PRAC deployments derate aggressively
  /// because per-row counting makes false positives cheap and rare).
  std::uint32_t row_threshold = 139'000 / 8;
};

class Prac final : public mem::IBankMitigation {
 public:
  Prac(PracConfig config, util::Rng rng);

  const char* name() const noexcept override { return "PRAC"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  /// Controller-side state: none — the counters live in the array.
  std::uint64_t state_bits() const noexcept override { return 0; }

  /// ALERT events (each one costs the channel a back-off window in a
  /// real system; reported so benches can price the protection).
  std::uint64_t alerts() const noexcept { return alerts_; }
  /// In-DRAM storage the array pays (bits), for honest comparisons.
  std::uint64_t in_dram_bits() const noexcept;

 private:
  /// The per-ACT step of on_activates.
  void observe(dram::RowId row, mem::ActionBuffer& out);

  PracConfig cfg_;
  std::vector<std::uint32_t> counts_;
  std::uint64_t alerts_ = 0;
};

mem::BankMitigationFactory make_prac_factory(PracConfig config = {});

}  // namespace tvp::mitigation
