// In-DRAM Target Row Refresh (TRR) with optional DDR5-style RFM —
// extension baseline.
//
// Production DDR4 devices shipped "TRR": a tiny in-DRAM sampler tracks a
// handful of candidate aggressor rows; when a refresh opportunity comes
// (REF, or in DDR5 an explicit RFM command that the controller must
// issue after every RAAIMT activations), the device refreshes the
// victims of the sampled rows. TRRespass showed that attacks with more
// simultaneous aggressors than sampler entries slip through — our
// many-sided attack generator reproduces exactly that (see the
// extension_attacks bench). This model lets the repository demonstrate
// the weakness the academic trackers (including TiVaPRoMi) do not have.
//
// Sampler policy: frequency-biased reservoir — an activation of an
// already-sampled row increments its score, and one of an unsampled row
// takes the first free entry or else replaces the first lowest-scoring
// entry with probability 1/(score+1). The first entry that is free or
// holds the row wins, so a row that a later entry holds is sampled a
// second time into an earlier free one.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct TrrConfig {
  std::uint32_t sampler_entries = 4;   ///< typical shipped TRR size class
  std::uint32_t victims_per_ref = 2;   ///< act_n budget per refresh opportunity
  bool rfm_enabled = false;            ///< DDR5 refresh-management commands
  std::uint32_t raaimt = 64;           ///< ACTs per bank between RFMs
  dram::RowId rows_per_bank = 131072;
};

class Trr final : public mem::IBankMitigation {
 public:
  Trr(TrrConfig config, util::Rng rng);

  const char* name() const noexcept override {
    return cfg_.rfm_enabled ? "TRR+RFM" : "TRR";
  }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  std::uint64_t rfm_commands() const noexcept { return rfm_commands_; }

 private:
  /// Refreshes the victims of the highest-scoring samples and retires
  /// them.
  void refresh_opportunity(mem::ActionBuffer& out);

  TrrConfig cfg_;
  util::Rng rng_;
  // The sampler as two columns, one entry per index. A score of 0 marks
  // a free entry (a sampled row scores at least 1).
  std::vector<dram::RowId> rows_;
  std::vector<std::uint32_t> scores_;
  std::uint32_t raa_ = 0;  ///< rolling accumulated ACT count (RFM)
  std::uint64_t rfm_commands_ = 0;
};

mem::BankMitigationFactory make_trr_factory(TrrConfig config = {});

}  // namespace tvp::mitigation
