#include "tvp/core/tivapromi.hpp"

#include <algorithm>
#include <stdexcept>

#include "tvp/core/weighting.hpp"
#include "tvp/util/bitutil.hpp"

namespace tvp::core {

const char* to_string(Variant variant) noexcept {
  switch (variant) {
    case Variant::kLinear: return "LiPRoMi";
    case Variant::kLogarithmic: return "LoPRoMi";
    case Variant::kLogLinear: return "LoLiPRoMi";
    case Variant::kCounterAssisted: return "CaPRoMi";
  }
  return "?";
}

void TiVaPRoMiConfig::validate() const {
  if (refresh_intervals == 0 || rows_per_bank == 0)
    throw std::invalid_argument("TiVaPRoMiConfig: zero RefInt or rows");
  if (rows_per_bank % refresh_intervals != 0)
    throw std::invalid_argument(
        "TiVaPRoMiConfig: rows_per_bank must be a multiple of RefInt");
  if (pbase_exp == 0 || pbase_exp > 32)
    throw std::invalid_argument("TiVaPRoMiConfig: pbase_exp out of range");
  if (history_entries == 0 || counter_entries == 0)
    throw std::invalid_argument("TiVaPRoMiConfig: zero table capacity");
  if (history_entries > 255)
    throw std::invalid_argument(
        "TiVaPRoMiConfig: history_entries above 255 do not fit the "
        "hardware's 8-bit counter-table link (0xFF is reserved for no link)");
  // The time-varying probability must stay a probability at the maximum
  // weight: RefInt * Pbase <= 1. (Computed on raw values: FixedProb's
  // scaled() saturates and would mask the overflow.)
  if (static_cast<std::uint64_t>(refresh_intervals) * pbase().raw() >
      util::FixedProb::kOne)
    throw std::invalid_argument("TiVaPRoMiConfig: RefInt * Pbase exceeds 1");
}

namespace {
// Validates before any member consumes the config. Member initializers
// run before the constructor body, so validating in the body would let
// an invalid config (e.g. rows_per_bank == 0) reach the history-table
// sizing math first; routing the config through this helper in the
// cfg_ initializer guarantees the intended invalid_argument fires
// before HistoryTable (or a derived class's CounterTable) sees it.
TiVaPRoMiConfig validated(TiVaPRoMiConfig config) {
  config.validate();
  return config;
}
}  // namespace

TiVaPRoMiBase::TiVaPRoMiBase(TiVaPRoMiConfig config, util::Rng rng)
    : cfg_(validated(std::move(config))),
      rng_(rng),
      history_(cfg_.history_entries,
               util::bits_for(cfg_.rows_per_bank),
               util::bits_for(cfg_.refresh_intervals)),
      pbase_(cfg_.pbase()) {
  const dram::RowId rpi = cfg_.rows_per_interval();
  rpi_is_pow2_ = (rpi & (rpi - 1)) == 0;
  if (rpi_is_pow2_) rpi_shift_ = util::ceil_log2(rpi);
}

void TiVaPRoMiBase::trigger(dram::RowId row, std::uint32_t interval,
                            mem::ActionBuffer& out) {
  mem::MitigationAction action;
  action.kind = mem::MitigationAction::Kind::kActNeighbors;
  action.row = row;
  action.suspect = row;
  out.push_back(action);
  history_.insert(row, interval);
}

namespace {
WeightShape hit_shape(Variant variant) {
  if (variant == Variant::kCounterAssisted)
    throw std::invalid_argument(
        "ProbabilisticTiVaPRoMi: use the CaPRoMi class for kCounterAssisted");
  return variant == Variant::kLogarithmic ? WeightShape::kLogarithmic
                                          : WeightShape::kLinear;
}

WeightShape miss_shape(Variant variant) {
  return variant == Variant::kLinear ? WeightShape::kLinear
                                     : WeightShape::kLogarithmic;
}
}  // namespace

ProbabilisticTiVaPRoMi::ProbabilisticTiVaPRoMi(Variant variant,
                                               TiVaPRoMiConfig config,
                                               util::Rng rng)
    : ProbabilisticTiVaPRoMi(hit_shape(variant), miss_shape(variant),
                             to_string(variant), config, rng) {}

ProbabilisticTiVaPRoMi::ProbabilisticTiVaPRoMi(WeightShape shape,
                                               TiVaPRoMiConfig config,
                                               util::Rng rng)
    : ProbabilisticTiVaPRoMi(shape, shape, to_string(shape), config, rng) {}

ProbabilisticTiVaPRoMi::ProbabilisticTiVaPRoMi(WeightShape hit,
                                               WeightShape miss,
                                               const char* name,
                                               TiVaPRoMiConfig config,
                                               util::Rng rng)
    : TiVaPRoMiBase(config, rng), hit_(hit), miss_(miss), name_(name) {
  for (std::uint32_t w = 0; w < cfg_.refresh_intervals; ++w)
    draw_ceiling_ =
        std::max({draw_ceiling_, threshold(hit_, w), threshold(miss_, w)});
  screen_ = draw_ceiling_ < util::FixedProb::kOne;
  // A threshold is 0 only at w = 0: Pbase is at least 2^-32 and every
  // shape maps w >= 1 to at least 1.
  zero_hit_ = threshold(hit_, 0) == 0;
  zero_miss_ = threshold(miss_, 0) == 0;
}

std::uint32_t ProbabilisticTiVaPRoMi::weight_for(dram::RowId row,
                                                 std::uint32_t interval) const noexcept {
  const auto stored = history_.lookup(row);
  const std::uint32_t reference = stored.value_or(assumed_slot(row));
  const std::uint32_t w =
      linear_weight(interval, reference, cfg_.refresh_intervals);
  return shaped_weight(stored ? hit_ : miss_, w, cfg_.refresh_intervals);
}

void ProbabilisticTiVaPRoMi::on_activates(const dram::RowId* rows,
                                          std::size_t n,
                                          const mem::MitigationContext& ctx,
                                          mem::ActionBuffer& out) {
  // The decision kernel: each decision is
  // bernoulli(Pbase * weight_for(row, i)) (bernoulli_q32 draws nothing at
  // threshold 0 or 2^32).
  //
  // Draw first: a decision whose threshold lies in (0, 2^32) draws one
  // number whatever the threshold, so drawing it before the history
  // search changes no draw, and a draw at or above every threshold (all
  // but a share of about RefInt * Pbase) needs no search, no Eq. 1 and
  // no threshold. A decision that may draw nothing takes the exact
  // branch: every ACT when a threshold reaches 2^32; a row in its own
  // refresh slot (a miss at w = 0) when the miss threshold is 0 there;
  // and a row the history table may hold with this interval (a hit at
  // w = 0) when the hit threshold is 0 there.
  const std::uint32_t ref_int = cfg_.refresh_intervals;
  const std::uint64_t ceiling = draw_ceiling_;
  const std::uint32_t interval = ctx.interval_in_window;
  // Bit (row % 64) set: the row takes the exact branch.
  std::uint64_t exact_rows = ~std::uint64_t{0};
  if (screen_) exact_rows = zero_hit_ ? history_.row_filter(interval) : 0;
  // The generator lives in registers for the lane: the action buffer's
  // stores could otherwise alias its state.
  util::Rng rng = rng_;
  for (std::size_t i = 0; i < n; ++i) {
    const dram::RowId row = rows[i];
    const bool screened = ((exact_rows >> (row & 63u)) & 1u) == 0 &&
                          !(zero_miss_ && assumed_slot(row) == interval);
    std::uint64_t draw = 0;
    if (screened) {
      draw = rng.next() >> 32;
      if (draw >= ceiling) continue;
    }
    const auto stored = history_.lookup(row);
    const std::uint32_t reference = stored ? *stored : assumed_slot(row);
    const std::uint32_t w = linear_weight(interval, reference, ref_int);
    const std::uint64_t p = threshold(stored ? hit_ : miss_, w);
    if (screened ? draw < p : rng.bernoulli_q32(p)) {
      const std::size_t before = out.size();
      trigger(row, interval, out);
      out.stamp_origin(before, static_cast<std::uint32_t>(i));
      if (zero_hit_) exact_rows |= std::uint64_t{1} << (row & 63u);
    }
  }
  rng_ = rng;
}

void ProbabilisticTiVaPRoMi::on_refresh(const mem::MitigationContext& ctx,
                                        mem::ActionBuffer&) {
  // Fig. 2 ref path: update the interval counter (implicit — the
  // controller passes it in) and reset the table at a window boundary.
  if (ctx.window_start) history_.clear();
}

std::uint64_t ProbabilisticTiVaPRoMi::state_bits() const noexcept {
  return history_.state_bits();
}

CaPRoMi::CaPRoMi(TiVaPRoMiConfig config, util::Rng rng)
    : TiVaPRoMiBase(config, rng),
      counters_(config.counter_entries, config.lock_threshold,
                util::bits_for(config.rows_per_bank),
                util::bits_for(config.history_entries)) {}

void CaPRoMi::on_activates(const dram::RowId* rows, std::size_t n,
                           const mem::MitigationContext&, mem::ActionBuffer&) {
  // Count only; decisions are deferred to the REF command (Fig. 3).
  // The paper's hardware also runs a parallel history search per ACT to
  // link the counter entry to its history slot — we defer that search
  // to the REF walk, where it is bit-identical (see on_refresh) and
  // costs one scan per tracked row per interval instead of one per ACT.
  for (std::size_t i = 0; i < n; ++i) counters_.on_activate(rows[i], rng_);
}

void CaPRoMi::on_refresh(const mem::MitigationContext& ctx,
                         mem::ActionBuffer& out) {
  if (ctx.window_start) {
    // New refresh window: both tables restart; the final interval of the
    // previous window forfeits its (statistically negligible) decision.
    history_.clear();
    counters_.clear();
    return;
  }
  const std::uint32_t i = ctx.interval_in_window;
  // The counter table's valid entries are exactly its prefix
  // [0, size()), so this visits the same entries in the same order as a
  // sweep of every valid slot, and makes the same draws.
  const std::vector<CounterTable::Entry>& slots = counters_.slots();
  for (std::size_t k = 0, n = counters_.size(); k < n; ++k) {
    const CounterTable::Entry& entry = slots[k];
    // Deferred parallel-history search (the paper's hardware captures a
    // link per ACT; see on_activates). Searching here instead is
    // bit-identical: the history table only mutates inside this walk —
    // never during the ACT phase — and a row evicted by an earlier
    // trigger in the same walk can only re-enter via its own trigger,
    // so "linked at the row's walk position" matches what an ACT-time
    // link check would have concluded.
    const auto stored = history_.lookup(entry.row);
    const bool linked = stored.has_value();
    const std::uint32_t reference = linked ? *stored : assumed_slot(entry.row);
    const std::uint32_t w = linear_weight(i, reference, cfg_.refresh_intervals);
    const std::uint32_t w_log = log_weight(w);
    const util::FixedProb p =
        pbase_.scaled(static_cast<std::uint64_t>(entry.count) * w_log);
    if (rng_.bernoulli_q32(p.raw())) {
      // Re-issue cooldown (exploration): a row whose victims were
      // restored less than `cooldown` intervals ago is skipped without
      // touching its history entry, so the reference keeps aging and an
      // issue is guaranteed once the cooldown has passed.
      if (cfg_.capromi_reissue_cooldown != 0 && linked &&
          w < cfg_.capromi_reissue_cooldown) {
        ++suppressed_;
        continue;
      }
      trigger(entry.row, i, out);
    }
  }
  counters_.clear();
}

std::uint64_t CaPRoMi::state_bits() const noexcept {
  return history_.state_bits() + counters_.state_bits();
}

const char* to_string(WeightShape shape) noexcept {
  switch (shape) {
    case WeightShape::kLinear: return "TiVaPRoMi[linear]";
    case WeightShape::kLogarithmic: return "TiVaPRoMi[log]";
    case WeightShape::kSqrt: return "TiVaPRoMi[sqrt]";
    case WeightShape::kQuadratic: return "TiVaPRoMi[quadratic]";
  }
  return "?";
}

std::uint32_t shaped_weight(WeightShape shape, std::uint32_t w,
                            std::uint32_t ref_int) noexcept {
  switch (shape) {
    case WeightShape::kLinear: return w;
    case WeightShape::kLogarithmic: return log_weight(w);
    case WeightShape::kSqrt: return sqrt_weight(w, ref_int);
    case WeightShape::kQuadratic: return quadratic_weight(w, ref_int);
  }
  return w;
}

mem::BankMitigationFactory make_shaped_factory(WeightShape shape,
                                               TiVaPRoMiConfig config) {
  config.validate();
  return [shape, config](dram::BankId, util::Rng rng)
             -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<ProbabilisticTiVaPRoMi>(shape, config, rng);
  };
}

mem::BankMitigationFactory make_tivapromi_factory(Variant variant,
                                                  TiVaPRoMiConfig config) {
  config.validate();
  return [variant, config](dram::BankId, util::Rng rng)
             -> std::unique_ptr<mem::IBankMitigation> {
    if (variant == Variant::kCounterAssisted)
      return std::make_unique<CaPRoMi>(config, rng);
    return std::make_unique<ProbabilisticTiVaPRoMi>(variant, config, rng);
  };
}

}  // namespace tvp::core
