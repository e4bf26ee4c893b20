// A scripted technique and a naive model of a whole memory system, the
// reference the controller's walk is checked against (tests/mem_test.cpp
// for one system, tests/cohort_test.cpp for a cohort). The naive model
// shares no code with mem::MemoryController or dram::DisturbanceModel:
// a plain count and a bool latch per row, one bank timeline per bank,
// and every command applied one at a time in arrival order.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/trace/record.hpp"

namespace tvp::test {

/// The actions of the scripted technique: a fixed function of the row
/// and of how often the bank has seen it (ACT time), or of the bank and
/// the interval (REF time). Both the technique and the naive model
/// evaluate it, so neither reads the other's state. `variant` shifts the
/// periods, so that the members of a cohort act at different records but
/// often on the same rows; a script that does not `act` emits nothing.
struct Script {
  std::uint32_t variant = 0;
  bool act = true;

  template <typename Emit>
  void on_act(dram::RowId row, std::uint32_t seen, dram::RowId rows,
              Emit&& emit) const {
    if (!act) return;
    if (seen % (7 + variant) == 0)
      emit(mem::MitigationAction::Kind::kActNeighbors, row, row);
    if (seen % (9 + 2 * variant) == 0 && row + 2 < rows)
      emit(mem::MitigationAction::Kind::kActRow, row + 2, row);
  }

  template <typename Emit>
  void on_ref(dram::BankId bank, std::uint32_t interval, dram::RowId rows,
              Emit&& emit) const {
    if (!act) return;
    if ((interval + bank + variant) % 3 == 0) {
      const dram::RowId row = (interval * (37 + variant) + bank * 5) % rows;
      emit(mem::MitigationAction::Kind::kActNeighbors, row, row);
    }
    if (interval % 4 == (1 + variant) % 4) {
      const dram::RowId row = (interval * 11 + 1 + variant) % rows;
      emit(mem::MitigationAction::Kind::kActRow, row, row);
    }
  }
};

class Scripted final : public mem::IBankMitigation {
 public:
  Scripted(dram::BankId bank, dram::RowId rows, Script script = {})
      : bank_(bank), rows_(rows), script_(script) {}
  const char* name() const noexcept override { return "scripted"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const mem::MitigationContext&,
                    mem::ActionBuffer& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t before = out.size();
      script_.on_act(rows[i], ++seen_[rows[i]], rows_,
                     [&](mem::MitigationAction::Kind kind, dram::RowId row,
                         dram::RowId suspect) {
                       out.push_back(mem::MitigationAction{kind, row, suspect});
                     });
      out.stamp_origin(before, static_cast<std::uint32_t>(i));
    }
  }
  void on_refresh(const mem::MitigationContext& ctx,
                  mem::ActionBuffer& out) override {
    script_.on_ref(bank_, ctx.interval_in_window, rows_,
                   [&](mem::MitigationAction::Kind kind, dram::RowId row,
                       dram::RowId suspect) {
                     out.push_back(mem::MitigationAction{kind, row, suspect});
                   });
  }
  std::uint64_t state_bits() const noexcept override { return 0; }

 private:
  dram::BankId bank_;
  dram::RowId rows_;
  Script script_;
  std::map<dram::RowId, std::uint32_t> seen_;
};

inline mem::BankMitigationFactory scripted_factory(dram::RowId rows,
                                                   Script script = {}) {
  return [rows, script](dram::BankId bank, util::Rng) {
    return std::make_unique<Scripted>(bank, rows, script);
  };
}

/// A naive controller + disturbance model running @p script: the demand
/// ACT, then the script's actions, record by record; each refresh tick
/// applied bank by bank (the tRFC floor, the refresh rows, then that
/// bank's REF-time actions), as MemoryController's tick does. A bank is
/// busy tRC after each of its activations; an ACT that finds it busy is
/// delayed. Only the device's per-row threshold draw is taken from the
/// model under test. Covers act_n radius 1, no remapping and the
/// sequential refresh order.
class NaiveSystem {
 public:
  using Oracle = std::function<bool(dram::BankId, dram::RowId)>;

  NaiveSystem(const mem::ControllerConfig& cfg,
              const dram::DisturbanceModel& device, Script script = {},
              Oracle oracle = {})
      : cfg_(cfg),
        banks_(cfg.geometry.total_banks()),
        rows_(cfg.geometry.rows_per_bank),
        params_(device.params()),
        script_(script),
        oracle_(std::move(oracle)),
        count_(std::size_t{banks_} * rows_, 0),
        latch_(std::size_t{banks_} * rows_, false),
        threshold_(std::size_t{banks_} * rows_, 0),
        ready_(banks_, 0),
        seen_(banks_),
        next_refresh_ps_(cfg.timing.t_refi_ps()) {
    for (dram::BankId b = 0; b < banks_; ++b)
      for (dram::RowId r = 0; r < rows_; ++r)
        threshold_[index(b, r)] = device.threshold_of(b, r);
  }

  void feed(const trace::AccessRecord& r) {
    advance_to(r.time_ps);
    const std::uint32_t interval = interval_in_window();
    ++demand_acts_;
    if (ready_[r.bank] > r.time_ps) ++delayed_acts_;
    ready_[r.bank] = std::max(ready_[r.bank], r.time_ps) + cfg_.timing.t_rc_ps;
    activate(r.bank, r.row, interval);
    script_.on_act(r.row, ++seen_[r.bank][r.row], rows_,
                   [&](mem::MitigationAction::Kind kind, dram::RowId row,
                       dram::RowId suspect) {
                     issue(r.bank, kind, row, suspect, interval, demand_acts_);
                   });
  }

  void advance_to(std::uint64_t time_ps) {
    while (next_refresh_ps_ <= time_ps) {
      const std::uint64_t boundary = next_refresh_ps_;
      ++global_interval_;
      const std::uint32_t interval = interval_in_window();
      const dram::RowId per_interval = rows_ / cfg_.timing.refresh_intervals;
      for (dram::BankId b = 0; b < banks_; ++b) {
        ready_[b] = std::max(ready_[b], boundary + cfg_.timing.t_rfc_ps);
        for (dram::RowId k = 0; k < per_interval; ++k) {
          const std::size_t i = index(b, interval * per_interval + k);
          count_[i] = 0;
          latch_[i] = false;
        }
        script_.on_ref(b, interval, rows_,
                       [&](mem::MitigationAction::Kind kind, dram::RowId row,
                           dram::RowId suspect) {
                         issue(b, kind, row, suspect, interval,
                               std::max<std::uint64_t>(demand_acts_, 1));
                       });
      }
      next_refresh_ps_ += cfg_.timing.t_refi_ps();
    }
  }

  std::uint64_t activations() const { return activations_; }
  std::uint64_t peak_q8() const { return peak_q8_; }
  const std::vector<dram::FlipEvent>& flips() const { return flips_; }
  std::uint64_t count_q8(dram::BankId bank, dram::RowId row) const {
    return count_[index(bank, row)];
  }
  std::uint64_t demand_acts() const { return demand_acts_; }
  std::uint64_t delayed_acts() const { return delayed_acts_; }
  std::uint64_t triggers() const { return triggers_; }
  std::uint64_t extra_acts() const { return extra_acts_; }
  std::uint64_t fp_extra_acts() const { return fp_extra_acts_; }
  std::uint64_t first_extra_act_at() const { return first_extra_act_at_; }
  const std::array<std::uint64_t, mem::ControllerStats::kPhaseBins>&
  extra_acts_by_phase() const {
    return by_phase_;
  }

 private:
  std::size_t index(dram::BankId bank, dram::RowId row) const {
    return std::size_t{bank} * rows_ + row;
  }
  std::uint32_t interval_in_window() const {
    return static_cast<std::uint32_t>(global_interval_ %
                                      cfg_.timing.refresh_intervals);
  }
  void disturb(dram::BankId bank, std::int64_t row, std::uint64_t q8,
               std::uint32_t interval) {
    if (row < 0 || row >= static_cast<std::int64_t>(rows_)) return;
    const std::size_t i = index(bank, static_cast<dram::RowId>(row));
    count_[i] += q8;
    peak_q8_ = std::max(peak_q8_, count_[i]);
    if (!latch_[i] && count_[i] >= std::uint64_t{threshold_[i]} * 256) {
      latch_[i] = true;
      flips_.push_back(dram::FlipEvent{bank, static_cast<dram::RowId>(row),
                                       activations_, interval});
    }
  }
  void activate(dram::BankId bank, dram::RowId row, std::uint32_t interval) {
    ++activations_;
    count_[index(bank, row)] = 0;
    latch_[index(bank, row)] = false;
    const std::int64_t r = row;
    disturb(bank, r - 1, 256, interval);
    disturb(bank, r + 1, 256, interval);
    if (params_.blast_radius >= 2) {
      disturb(bank, r - 2, params_.distance2_weight_q8, interval);
      disturb(bank, r + 2, params_.distance2_weight_q8, interval);
    }
  }
  /// One extra activation: the bank is busy for another tRC.
  void extra(dram::BankId bank, dram::RowId row, std::uint32_t interval) {
    ready_[bank] += cfg_.timing.t_rc_ps;
    activate(bank, row, interval);
  }
  void issue(dram::BankId bank, mem::MitigationAction::Kind kind,
             dram::RowId row, dram::RowId suspect, std::uint32_t interval,
             std::uint64_t first_at) {
    ++triggers_;
    if (first_extra_act_at_ == 0) first_extra_act_at_ = first_at;
    const std::uint64_t before = activations_;
    if (kind == mem::MitigationAction::Kind::kActRow) {
      extra(bank, row, interval);
    } else {
      if (row > 0) extra(bank, row - 1, interval);
      if (row + 1 < rows_) extra(bank, row + 1, interval);
    }
    const std::uint64_t cost = activations_ - before;
    extra_acts_ += cost;
    if (oracle_ && !oracle_(bank, suspect)) fp_extra_acts_ += cost;
    by_phase_[interval * mem::ControllerStats::kPhaseBins /
              cfg_.timing.refresh_intervals] += cost;
  }

  mem::ControllerConfig cfg_;
  std::uint32_t banks_;
  dram::RowId rows_;
  dram::DisturbanceParams params_;
  Script script_;
  Oracle oracle_;
  std::vector<std::uint64_t> count_;
  std::vector<bool> latch_;
  std::vector<std::uint32_t> threshold_;
  std::vector<std::uint64_t> ready_;
  std::vector<std::map<dram::RowId, std::uint32_t>> seen_;
  std::uint64_t activations_ = 0;
  std::uint64_t peak_q8_ = 0;
  std::vector<dram::FlipEvent> flips_;
  std::uint64_t demand_acts_ = 0;
  std::uint64_t delayed_acts_ = 0;
  std::uint64_t triggers_ = 0;
  std::uint64_t extra_acts_ = 0;
  std::uint64_t fp_extra_acts_ = 0;
  std::uint64_t first_extra_act_at_ = 0;
  std::array<std::uint64_t, mem::ControllerStats::kPhaseBins> by_phase_{};
  std::uint64_t global_interval_ = 0;
  std::uint64_t next_refresh_ps_;
};

/// The hammering scenario of the walk oracle: 4 banks x 512 rows, 64
/// intervals (RowsPI = 8), a 30-ACT threshold with 30% variation and
/// blast radius 2, and three windows of double-sided hammering of a few
/// rows per bank mixed with scattered ACTs — so victims flip, stay
/// latched while the hammering goes on, are restored (by ACT, act_n or
/// refresh) and flip again. One record in four follows the previous one
/// on its bank half a tRC or one and a half tRC later, so ACTs stall
/// behind demand ACTs, and some only behind extra ACTs.
struct HammerScenario {
  mem::ControllerConfig cfg;
  dram::DisturbanceParams params;
  std::vector<trace::AccessRecord> records;
  std::uint64_t end_ps = 0;

  HammerScenario() {
    cfg.geometry.banks_per_rank = 4;
    cfg.geometry.rows_per_bank = 512;
    cfg.timing.refresh_intervals = 64;
    params.flip_threshold = 30;
    params.variation_pct = 30;
    params.blast_radius = 2;
    params.distance2_weight_q8 = 64;
    util::Rng rng(2024);
    const std::uint64_t step = cfg.timing.t_refi_ps() / 90;
    end_ps = 3 * cfg.timing.t_refw_ps;
    dram::BankId bank = 0;
    for (std::uint64_t t = 1; t < end_ps;) {
      const dram::RowId hot = hot_row(bank) + (rng.below(2) == 0 ? 0 : 2);
      const dram::RowId row = rng.below(4) != 0
                                  ? hot
                                  : static_cast<dram::RowId>(rng.below(512));
      trace::AccessRecord r;
      r.time_ps = t;
      r.bank = bank;
      r.row = row;
      r.write = rng.below(3) == 0;
      records.push_back(r);
      const bool burst = rng.below(4) == 0;
      if (!burst) bank = static_cast<dram::BankId>(rng.below(4));
      t += burst ? cfg.timing.t_rc_ps * (1 + 2 * rng.below(2)) / 2 : step;
    }
  }

  static dram::RowId hot_row(dram::BankId bank) { return 40 + 100 * bank; }
  /// The hammered rows are the real aggressors.
  static bool aggressor(dram::BankId bank, dram::RowId row) {
    return row == hot_row(bank) || row == hot_row(bank) + 2;
  }
};

}  // namespace tvp::test
