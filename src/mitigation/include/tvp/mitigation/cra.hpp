// CRA — Counter-based Row Activation (Kim, Nair, Qureshi, CAL 2015).
//
// The brute-force tabled counter: one dedicated counter per row (stored
// in DRAM in the original proposal because tens of KBs to MBs per bank
// cannot live in the controller). A row reaching the threshold gets its
// neighbours refreshed deterministically and the counter restarts; a
// row's counter is cleared when the row itself is refreshed.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct CraConfig {
  dram::RowId rows_per_bank = 131072;
  std::uint32_t refresh_intervals = 8192;
  /// Deterministic mitigation threshold: flip_threshold / 4.
  std::uint32_t row_threshold = 139'000 / 4;
};

class Cra final : public mem::IBankMitigation {
 public:
  Cra(CraConfig config, util::Rng rng);

  const char* name() const noexcept override { return "CRA"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  std::uint32_t counter(dram::RowId row) const { return counts_.at(row); }

 private:
  /// The per-ACT step of on_activates.
  void observe(dram::RowId row, mem::ActionBuffer& out);

  CraConfig cfg_;
  std::vector<std::uint32_t> counts_;  // one per row
};

mem::BankMitigationFactory make_cra_factory(CraConfig config = {});

}  // namespace tvp::mitigation
