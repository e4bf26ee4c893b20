// PARA — Probabilistic Adjacent Row Activation (Kim et al., ISCA 2014).
//
// The stateless baseline: on every ACT, with a small static probability
// p, one randomly chosen neighbour of the activated row is refreshed.
// p >= 0.001 is considered effective (Section II). Its weakness is the
// static probability: the refresh chance per aggressor activation never
// escalates, and every benign activation pays the same false-positive
// tax.
#pragma once

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/fixed_prob.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct ParaConfig {
  util::FixedProb p = util::FixedProb::from_double(0.001);
  dram::RowId rows_per_bank = 131072;
};

class Para final : public mem::IBankMitigation {
 public:
  Para(ParaConfig config, util::Rng rng);

  const char* name() const noexcept override { return "PARA"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext&,
                  mem::ActionBuffer&) override {}
  /// Stateless apart from the 32-bit LFSR.
  std::uint64_t state_bits() const noexcept override { return 32; }

 private:
  /// The per-ACT step of on_activates.
  void observe(dram::RowId row, mem::ActionBuffer& out);

  ParaConfig cfg_;
  util::Rng rng_;
};

mem::BankMitigationFactory make_para_factory(ParaConfig config = {});

}  // namespace tvp::mitigation
