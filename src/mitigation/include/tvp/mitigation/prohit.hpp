// ProHit (Son et al., DAC 2017).
//
// Tracks *victim* rows of frequently activated rows in two small tables:
// a cold (candidate) table and a hot (priority) table. Insertion into
// cold and promotion toward the top of hot are probabilistic; at every
// refresh interval the top hot entry is refreshed and retired. More
// robust than PARA against sequential multi-aggressor patterns, at the
// price of a higher activation overhead and false-positive rate
// (Table III: 0.6 % overhead, 0.34 % FPR).
#pragma once

#include <optional>
#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/fixed_prob.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct ProHitConfig {
  std::size_t hot_entries = 4;
  std::size_t cold_entries = 8;
  /// Probability that a brand-new victim enters the cold table.
  util::FixedProb insert_prob = util::FixedProb::pow2(8);  // 2^-8
  /// Probability that a cold hit promotes into hot / a hot hit moves up.
  util::FixedProb promote_prob = util::FixedProb::pow2(6);  // 2^-6
  dram::RowId rows_per_bank = 131072;
};

class ProHit final : public mem::IBankMitigation {
 public:
  ProHit(ProHitConfig config, util::Rng rng);

  const char* name() const noexcept override { return "ProHit"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  std::size_t hot_size() const noexcept { return hot_.size(); }
  std::size_t cold_size() const noexcept { return cold_.size(); }

 private:
  struct Victim {
    dram::RowId row;      // victim to refresh
    dram::RowId suspect;  // aggressor that implicated it
  };

  void observe_victim(dram::RowId victim, dram::RowId aggressor);
  static std::optional<std::size_t> find(const std::vector<Victim>& table,
                                         dram::RowId row) noexcept;

  ProHitConfig cfg_;
  util::Rng rng_;
  std::vector<Victim> hot_;   // hot_[0] is the top (next to refresh)
  std::vector<Victim> cold_;  // cold_[0] is the oldest
};

mem::BankMitigationFactory make_prohit_factory(ProHitConfig config = {});

}  // namespace tvp::mitigation
