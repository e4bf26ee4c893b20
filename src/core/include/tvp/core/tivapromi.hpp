// TiVaPRoMi: the paper's four time-varying probabilistic mitigation
// variants (Section III).
//
//  * LiPRoMi   — linear weighting, Eq. (1)
//  * LoPRoMi   — logarithmic weighting, Eq. (2)
//  * LoLiPRoMi — linear when the row is in the history table, else log
//  * CaPRoMi   — counter-assisted: per-interval counter table, decisions
//                taken collectively at each REF with p = cnt * w_log * Pbase
//
// All variants share the small per-bank history table and the base
// probability Pbase chosen so that RefInt * Pbase ~ 0.001 (PARA's p).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tvp/core/counter_table.hpp"
#include "tvp/core/history_table.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/util/fixed_prob.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::core {

enum class Variant { kLinear, kLogarithmic, kLogLinear, kCounterAssisted };

const char* to_string(Variant variant) noexcept;

/// The escalation of the linear weight w (Eq. 1). kLinear and
/// kLogarithmic are the paper's Eq. 1 and Eq. 2; kSqrt and kQuadratic
/// are an exploration extension (not in the paper) that maps the design
/// space between the two.
enum class WeightShape { kLinear, kLogarithmic, kSqrt, kQuadratic };

const char* to_string(WeightShape shape) noexcept;

/// The shaped weight for an elapsed-interval count @p w.
std::uint32_t shaped_weight(WeightShape shape, std::uint32_t w,
                            std::uint32_t ref_int) noexcept;

/// Shared configuration of all four variants.
struct TiVaPRoMiConfig {
  std::uint32_t refresh_intervals = 8192;  ///< RefInt
  dram::RowId rows_per_bank = 131072;
  /// Pbase = 2^-pbase_exp; 23 gives RefInt*Pbase = 9.8e-4 (Table I).
  unsigned pbase_exp = 23;
  std::size_t history_entries = 32;
  // CaPRoMi only:
  std::size_t counter_entries = 64;
  std::uint8_t lock_threshold = 16;
  /// Exploration knob (0 = the paper's Section III-D behaviour): when a
  /// REF-time decision fires for a row whose last *issued* extra
  /// activation is younger than this many intervals, the issue is
  /// skipped (the row's victims were restored that recently). Values up
  /// to ~400 are safe for the 139 K threshold at 165 ACTs/interval:
  /// 165 * (cooldown + reissue latency) stays below 69.5 K. This probes
  /// the mechanism that could explain the paper's unusually low CaPRoMi
  /// overhead (see EXPERIMENTS.md, T3 discussion).
  std::uint32_t capromi_reissue_cooldown = 0;

  /// RowsPI under the assumed sequential refresh mapping.
  dram::RowId rows_per_interval() const noexcept {
    return rows_per_bank / refresh_intervals;
  }
  /// Pbase as exact fixed-point.
  util::FixedProb pbase() const noexcept { return util::FixedProb::pow2(pbase_exp); }
  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

/// Common state and helpers; concrete variants implement the FSMs.
class TiVaPRoMiBase : public mem::IBankMitigation {
 public:
  TiVaPRoMiBase(TiVaPRoMiConfig config, util::Rng rng);

  const TiVaPRoMiConfig& config() const noexcept { return cfg_; }
  const HistoryTable& history() const noexcept { return history_; }

 protected:
  /// The controller-side assumed refresh slot f_r = r / RowsPI. RowsPI
  /// is a power of two in every paper configuration, so the hot path
  /// divides by shifting; the general division is kept as fallback.
  std::uint32_t assumed_slot(dram::RowId row) const noexcept {
    return rpi_is_pow2_
               ? static_cast<std::uint32_t>(row >> rpi_shift_)
               : static_cast<std::uint32_t>(row / cfg_.rows_per_interval());
  }
  /// Triggers the extra activation: emits act_n and updates the table.
  void trigger(dram::RowId row, std::uint32_t interval,
               mem::ActionBuffer& out);

  TiVaPRoMiConfig cfg_;
  util::Rng rng_;
  HistoryTable history_;
  util::FixedProb pbase_;
  bool rpi_is_pow2_ = false;
  unsigned rpi_shift_ = 0;
};

/// LiPRoMi / LoPRoMi / LoLiPRoMi: decision on every ACT (Fig. 2 FSM).
/// Each decision compares one random number with Pbase * shape(w), using
/// the hit shape for a row in the history table and the miss shape
/// otherwise. LiPRoMi is linear/linear, LoPRoMi log/log, LoLiPRoMi
/// linear/log (linear for rows already protected this window, lower
/// expected risk), and an exploration shape s is s/s.
class ProbabilisticTiVaPRoMi final : public TiVaPRoMiBase {
 public:
  /// @p variant must be kLinear, kLogarithmic or kLogLinear.
  ProbabilisticTiVaPRoMi(Variant variant, TiVaPRoMiConfig config, util::Rng rng);
  /// The exploration class "TiVaPRoMi[shape]": @p shape on hits and
  /// misses alike.
  ProbabilisticTiVaPRoMi(WeightShape shape, TiVaPRoMiConfig config, util::Rng rng);

  const char* name() const noexcept override { return name_; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  /// The weight this technique would use right now: Eq. 1 / Eq. 2 (or
  /// the exploration shape) computed directly, the reference the ACT
  /// kernel is tested against (also used by the flood-analysis bench).
  std::uint32_t weight_for(dram::RowId row, std::uint32_t interval) const noexcept;

 private:
  ProbabilisticTiVaPRoMi(WeightShape hit, WeightShape miss, const char* name,
                         TiVaPRoMiConfig config, util::Rng rng);

  /// The Q0.32 Bernoulli threshold Pbase * shape(w) of a decision at
  /// linear weight @p w: weight_for's formula.
  std::uint64_t threshold(WeightShape shape, std::uint32_t w) const noexcept {
    return pbase_.scaled(shaped_weight(shape, w, cfg_.refresh_intervals)).raw();
  }

  WeightShape hit_;
  WeightShape miss_;
  const char* name_;
  // The draw-first screen, read off every threshold by the constructor:
  // none reaches draw_ceiling_, so a draw at or above it cannot trigger.
  // screen_ is false when a threshold reaches 2^32 (an auto-trigger,
  // which draws nothing); zero_hit_ / zero_miss_ mark a shape whose w = 0
  // threshold is 0 (a decision that draws nothing).
  std::uint64_t draw_ceiling_ = 0;
  bool screen_ = false;
  bool zero_hit_ = false;
  bool zero_miss_ = false;
};

/// CaPRoMi: counters during the interval, collective decision at REF
/// (Fig. 3 FSM).
class CaPRoMi final : public TiVaPRoMiBase {
 public:
  CaPRoMi(TiVaPRoMiConfig config, util::Rng rng);

  const char* name() const noexcept override { return "CaPRoMi"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext& ctx,
                    mem::ActionBuffer& out) override;
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override;
  std::uint64_t state_bits() const noexcept override;

  const CounterTable& counters() const noexcept { return counters_; }
  /// REF-time decisions skipped by the re-issue cooldown (0 when the
  /// knob is off).
  std::uint64_t suppressed_reissues() const noexcept { return suppressed_; }

 private:
  CounterTable counters_;
  std::uint64_t suppressed_ = 0;
};

/// Factory for the MitigationEngine: per-bank instances of @p variant.
mem::BankMitigationFactory make_tivapromi_factory(Variant variant,
                                                  TiVaPRoMiConfig config);

/// Factory for the exploration class: per-bank
/// ProbabilisticTiVaPRoMi instances with @p shape on hits and misses.
mem::BankMitigationFactory make_shaped_factory(WeightShape shape,
                                               TiVaPRoMiConfig config);

}  // namespace tvp::core
