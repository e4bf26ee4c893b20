// Row-Hammer attacker models.
//
// The paper's attacker (Section IV) is "similar to the attack suggested
// in [12] using cache flushing": aggressor rows are activated as fast as
// the bank allows, with the aggressor count per targeted bank swept from
// 1 to 20. We emit the DRAM-visible activation pattern directly (a
// cache-flushing attacker defeats the caches by construction) and tag
// every record with is_attack = true for ground-truth accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/trace/source.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::trace {

enum class AttackPattern {
  kSingleSided,     ///< one aggressor per victim (row v+1)
  kDoubleSided,     ///< both neighbours of each victim (v-1, v+1)
  kMultiAggressor,  ///< many aggressors activated sequentially (ProHit's
                    ///< PARA-evading pattern; equals double-sided with
                    ///< several victims)
  kFlood,           ///< one single row activated back-to-back
                    ///< (Section III-A / IV flooding attack)
  kManySided,       ///< TRRespass-style: a band of `sides` aggressor rows
                    ///< on each side of every victim, cycled sequentially
                    ///< to thrash small tracker tables
  kHalfDouble,      ///< distance-2 hammering: the far rows (v +/- 2) are
                    ///< hammered hard, the near rows (v +/- 1) only get
                    ///< occasional "dribble" activations; only effective
                    ///< when the disturbance blast radius is 2
  kFuzzed,          ///< explicit activation schedule (AttackConfig::
                    ///< schedule) replayed cyclically — the emission form
                    ///< of the PatternFuzzer's non-uniform frequency/
                    ///< phase/amplitude patterns (fuzzer.hpp)
};

const char* to_string(AttackPattern pattern) noexcept;

/// Configuration of one attacker thread hammering one bank.
struct AttackConfig {
  AttackPattern pattern = AttackPattern::kDoubleSided;
  dram::BankId bank = 0;
  /// Victim rows the attacker wants to flip (aggressors are derived).
  /// For kFlood this is the single hammered row itself.
  std::vector<dram::RowId> victims;
  dram::RowId rows_per_bank = 131072;
  /// Spacing between attacker activations. Defaults to tRC (45 ns) —
  /// the fastest a single bank permits.
  std::uint64_t interarrival_ps = 45'000;
  std::uint64_t start_ps = 0;
  std::uint64_t end_ps = ~0ull;
  SourceId source_id = 255;
  /// kManySided: aggressor band half-width per victim (>= 1).
  std::uint32_t sides = 4;
  /// kHalfDouble: far-row activations per near-row "dribble" activation.
  std::uint32_t far_per_near = 16;
  /// kFuzzed: the explicit base-period activation order, emitted
  /// cyclically with the configured interarrival. Rows must be in
  /// range and must not contain any victim. Built by PatternFuzzer;
  /// ignored by every other pattern.
  std::vector<dram::RowId> schedule;
};

/// Emits the attacker's activation stream: the derived aggressor rows,
/// activated round-robin with fixed spacing.
class AttackSource final : public TraceSource {
 public:
  explicit AttackSource(AttackConfig config);

  /// One non-virtual loop; stops short (and returns 0 from then on) at
  /// end_ps.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;

  /// Hammered aggressor rows (the far rows for kHalfDouble).
  const std::vector<dram::RowId>& aggressors() const noexcept { return aggressors_; }
  /// Dribbled near rows (kHalfDouble only; empty otherwise).
  const std::vector<dram::RowId>& dribble_rows() const noexcept { return dribble_; }
  const AttackConfig& config() const noexcept { return cfg_; }

 private:
  AttackConfig cfg_;
  std::vector<dram::RowId> aggressors_;
  std::vector<dram::RowId> dribble_;
  std::uint64_t now_ps_;
  std::size_t cursor_ = 0;
  std::size_t dribble_cursor_ = 0;
  // kHalfDouble: records since the last dribble (one every
  // far_per_near + 1).
  std::uint64_t since_dribble_ = 0;
};

/// Picks @p n_victims well-separated victim rows in a bank (at least 8
/// rows apart so aggressor sets never overlap) and returns a
/// double-sided AttackConfig for them.
AttackConfig make_multi_aggressor_attack(dram::BankId bank, dram::RowId rows_per_bank,
                                         std::size_t n_victims, util::Rng& rng);

}  // namespace tvp::trace
