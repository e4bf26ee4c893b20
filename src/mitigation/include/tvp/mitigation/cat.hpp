// CAT — Counter-based Adaptive Tree (Seyedzadeh et al., ISCA 2018;
// refined as CAT-TWO [10]).
//
// The paper's Section II describes this family as the first attempt to
// shrink tabled counters: a binary tree over the row-address space whose
// unbalanced shape adapts to the access distribution. Each leaf counts
// the activations of the row range it covers; when a leaf accumulates a
// split quantum of activations it is split (if node budget remains), so
// frequently hammered regions get tracked at ever finer granularity
// until a single-row leaf deterministically triggers act_n.
//
// The paper also states its weakness: "An attacker might fill all the
// levels of the tree to make it balanced and saturated before it reaches
// the levels where it would track the aggressor rows precisely." When
// the node budget is exhausted, a coarse leaf crossing the threshold
// cannot name an aggressor row — the defence is blind. The
// extension_tree bench reproduces exactly that failure.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/mem/mitigation.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::mitigation {

struct CatConfig {
  /// Total tree nodes per bank ("no less than 1 KB per bank", Section
  /// II; 341 nodes of ~4.5 B keep that claim honest).
  std::uint32_t node_budget = 341;
  /// Deterministic single-row mitigation threshold (flip threshold / 4).
  std::uint32_t trigger_threshold = 139'000 / 4;
  /// Activations a leaf absorbs before it splits. The default
  /// trigger/ (2 * depth) keeps the worst-case untracked accumulation
  /// below trigger/2 on the way down (CAT's safety argument).
  std::uint32_t split_quantum = 139'000 / 4 / 34;
  dram::RowId rows_per_bank = 131072;  ///< must be a power of two
};

class Cat final : public mem::IBankMitigation {
 public:
  Cat(CatConfig config, util::Rng rng);

  const char* name() const noexcept override { return "CAT"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  std::uint32_t nodes_used() const noexcept {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  /// Times a coarse (multi-row) leaf crossed the trigger threshold while
  /// the tree was saturated — each is a mitigation the defence could not
  /// perform (the Section II attack succeeding).
  std::uint64_t blind_triggers() const noexcept { return blind_triggers_; }

 private:
  /// The per-ACT step of on_activates.
  void observe(dram::RowId row, mem::ActionBuffer& out);

  struct Node {
    std::uint32_t count = 0;
    std::int32_t left = -1;   ///< child indices; -1 = leaf
    std::int32_t right = -1;
    std::uint8_t depth = 0;   ///< 0 = root (whole bank)
  };

  void reset_tree();

  CatConfig cfg_;
  std::vector<Node> nodes_;
  std::uint8_t max_depth_;
  std::uint64_t blind_triggers_ = 0;
};

mem::BankMitigationFactory make_cat_factory(CatConfig config = {});

}  // namespace tvp::mitigation
