#include "tvp/mem/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace tvp::mem {

void CommandTiming::validate() const {
  base.validate();
  if (t_rcd_ps == 0 || t_rp_ps == 0 || t_cl_ps == 0 || t_ras_ps == 0 ||
      t_burst_ps == 0 || t_faw_ps == 0)
    throw std::invalid_argument("CommandTiming: all parameters must be nonzero");
  if (t_rcd_ps + t_ras_ps > base.t_refi_ps())
    throw std::invalid_argument("CommandTiming: row cycle exceeds tREFI");
}

const char* to_string(PagePolicy policy) noexcept {
  return policy == PagePolicy::kOpenPage ? "open-page" : "closed-page";
}

const char* to_string(MitigationPlacement placement) noexcept {
  return placement == MitigationPlacement::kImmediate ? "immediate"
                                                      : "idle-deferred";
}

CommandScheduler::CommandScheduler(dram::Geometry geometry, CommandTiming timing,
                                   PagePolicy policy, MitigationEngine* engine,
                                   MitigationPlacement placement)
    : geom_(geometry),
      timing_(timing),
      policy_(policy),
      engine_(engine),
      placement_(placement) {
  geom_.validate();
  timing_.validate();
  if (engine_ != nullptr && engine_->banks() != geom_.total_banks())
    throw std::invalid_argument("CommandScheduler: engine bank count mismatch");
  banks_.resize(geom_.total_banks());
  next_refresh_ps_ = timing_.base.t_refi_ps();
}

std::uint64_t CommandScheduler::issue_act(Bank& bank, std::uint64_t earliest_ps) {
  // tFAW: at most four ACTs per rolling window across the channel.
  std::uint64_t act_ps = earliest_ps;
  if (recent_acts_.size() >= 4) {
    const std::uint64_t window_start = recent_acts_[recent_acts_.size() - 4];
    if (act_ps < window_start + timing_.t_faw_ps) {
      act_ps = window_start + timing_.t_faw_ps;
      ++stats_.faw_stalls;
    }
  }
  recent_acts_.push_back(act_ps);
  if (recent_acts_.size() > 8)
    recent_acts_.erase(recent_acts_.begin(), recent_acts_.begin() + 4);
  bank.act_ps = act_ps;
  return act_ps;
}

void CommandScheduler::run_mitigation_acts(Bank& bank, dram::BankId id,
                                           std::uint64_t now_ps,
                                           const MitigationAction* actions,
                                           std::size_t count) {
  if (count == 0) return;
  std::uint64_t t = std::max(bank.ready_ps, now_ps);
  if (bank.row_open) {
    // Close the demand row first (respecting tRAS) — a mitigation ACT
    // on an open bank would be protocol-illegal.
    const std::uint64_t pre_ps = std::max(t, bank.act_ps + timing_.t_ras_ps);
    emit(dram::Command::kPrecharge, id, bank.open_row, pre_ps);
    bank.row_open = false;
    t = pre_ps + timing_.t_rp_ps;
  }
  for (std::size_t a = 0; a < count; ++a) {
    const MitigationAction& action = actions[a];
    // Each extra activation is a closed ACT/PRE pair on this bank; act_n
    // touches both neighbours (two row cycles), kActRow one.
    const std::uint32_t rows =
        action.kind == MitigationAction::Kind::kActNeighbors ? 2u : 1u;
    for (std::uint32_t i = 0; i < rows; ++i) {
      t = std::max(t, bank.act_ps + timing_.base.t_rc_ps);
      t = issue_act(bank, t);
      emit(dram::Command::kActivate, id, action.row, t);
      const std::uint64_t pre_ps = t + timing_.t_ras_ps;
      emit(dram::Command::kPrecharge, id, action.row, pre_ps);
      t = pre_ps + timing_.t_rp_ps;
      ++stats_.mitigation_acts;
    }
  }
  bank.ready_ps = t;
}

void CommandScheduler::place_mitigation(Bank& bank, dram::BankId id,
                                        std::uint64_t now_ps,
                                        const ActionBuffer& actions) {
  if (actions.empty()) return;
  if (placement_ == MitigationPlacement::kImmediate) {
    run_mitigation_acts(bank, id, now_ps, actions.data(), actions.size());
    return;
  }
  bank.deferred.insert(bank.deferred.end(), actions.begin(), actions.end());
  // Bounded postponement: if no idle gap has shown up for a while, issue
  // anyway. (Deferring an act_n by a bounded amount is within the
  // protection model's own tolerance — CaPRoMi defers its activations a
  // whole refresh interval by design.)
  if (bank.deferred.size() >= kMaxDeferred)
    flush_deferred(bank, id, now_ps);
}

void CommandScheduler::flush_deferred(Bank& bank, dram::BankId id,
                                      std::uint64_t now_ps) {
  if (bank.deferred.empty()) return;
  // The backlog vector is issued in place and then cleared (not
  // swapped out), so its capacity is reused across flushes.
  run_mitigation_acts(bank, id, now_ps, bank.deferred.data(),
                      bank.deferred.size());
  bank.deferred.clear();
}

void CommandScheduler::refresh_tick(std::uint64_t boundary_ps) {
  ++global_interval_;
  ++stats_.refresh_commands;
  MitigationContext ctx;
  ctx.interval_in_window = interval_in_window();
  ctx.global_interval = global_interval_;
  ctx.window_start = ctx.interval_in_window == 0;
  for (dram::BankId id = 0; id < banks_.size(); ++id) {
    Bank& bank = banks_[id];
    std::uint64_t ref_ps = std::max(bank.ready_ps, boundary_ps);
    if (bank.row_open) {
      // All banks must be precharged before REF.
      const std::uint64_t pre_ps =
          std::max(ref_ps, bank.act_ps + timing_.t_ras_ps);
      emit(dram::Command::kPrecharge, id, bank.open_row, pre_ps);
      bank.row_open = false;
      ref_ps = pre_ps + timing_.t_rp_ps;
    }
    emit(dram::Command::kRefresh, id, 0, ref_ps);
    bank.ready_ps = ref_ps + timing_.base.t_rfc_ps;
    if (engine_ != nullptr) {
      // REF-time actions (CaPRoMi's collective decisions) issue in the
      // refresh shadow either way — the bank is blocked anyway.
      const ActionBuffer& actions = engine_->on_refresh(id, ctx);
      run_mitigation_acts(bank, id, bank.ready_ps, actions.data(),
                          actions.size());
    }
  }
}

std::uint64_t CommandScheduler::deferred_backlog() const noexcept {
  std::uint64_t total = 0;
  for (const auto& bank : banks_) total += bank.deferred.size();
  return total;
}

void CommandScheduler::service_bank(Bank& bank, dram::BankId id,
                                    std::uint64_t until_ps) {
  while (!bank.queue.empty()) {
    // Only serve work that can start before `until_ps`; the rest waits
    // for the next arrival or refresh boundary (event ordering).
    if (std::max(bank.ready_ps, bank.queue.front().record.time_ps) > until_ps)
      break;
    // FR-FCFS: among the waiting requests, serve an open-row hit first
    // (bounded scan depth models a realistic scheduler window).
    std::size_t pick = 0;
    if (bank.row_open && policy_ == PagePolicy::kOpenPage) {
      const std::size_t depth = std::min<std::size_t>(bank.queue.size(), 16);
      for (std::size_t i = 0; i < depth; ++i) {
        if (bank.queue[i].record.row == bank.open_row) {
          pick = i;
          break;
        }
      }
      if (bank.queue[pick].record.row != bank.open_row) pick = 0;
    }
    const Pending pending = bank.queue[pick];
    bank.queue.erase(bank.queue.begin() + static_cast<std::ptrdiff_t>(pick));
    --queued_;

    const std::uint64_t arrival = pending.record.time_ps;
    std::uint64_t t = std::max(bank.ready_ps, arrival);
    bool activated = false;

    if (bank.row_open && bank.open_row == pending.record.row &&
        policy_ == PagePolicy::kOpenPage) {
      ++stats_.row_hits;
    } else {
      if (bank.row_open) {
        // Conflict: precharge first (respect tRAS).
        const std::uint64_t pre_ps =
            std::max(t, bank.act_ps + timing_.t_ras_ps);
        emit(dram::Command::kPrecharge, id, bank.open_row, pre_ps);
        t = pre_ps + timing_.t_rp_ps;
        ++stats_.row_conflicts;
      } else {
        ++stats_.row_misses;
      }
      t = issue_act(bank, t);
      emit(dram::Command::kActivate, id, pending.record.row, t);
      t += timing_.t_rcd_ps;
      activated = true;
      ++stats_.demand_acts;
      bank.row_open = true;
      bank.open_row = pending.record.row;
    }

    // Column command + data burst.
    emit(pending.record.write ? dram::Command::kWrite : dram::Command::kRead,
         id, pending.record.row, t);
    const std::uint64_t done = t + timing_.t_cl_ps + timing_.t_burst_ps;
    bank.ready_ps = t + timing_.t_burst_ps;

    if (policy_ == PagePolicy::kClosedPage) {
      const std::uint64_t pre_ps =
          std::max(bank.ready_ps, bank.act_ps + timing_.t_ras_ps);
      emit(dram::Command::kPrecharge, id, bank.open_row, pre_ps);
      bank.ready_ps = pre_ps + timing_.t_rp_ps;
      bank.row_open = false;
    }

    ++stats_.requests;
    const double latency = static_cast<double>(done - arrival);
    stats_.latency_ps.add(latency);
    stats_.latency_tail.add(latency);

    if (activated && engine_ != nullptr) {
      // A lane of one: the scheduler decides per request (an open-page
      // hit issues no ACT), so it cannot build larger lanes.
      MitigationContext ctx;
      ctx.interval_in_window = interval_in_window();
      ctx.global_interval = global_interval_;
      ctx.window_start = false;
      place_mitigation(bank, id, bank.ready_ps,
                       engine_->on_activates(id, &pending.record.row, 1, ctx));
    }
  }
}

void CommandScheduler::service_all(std::uint64_t until_ps) {
  for (dram::BankId id = 0; id < banks_.size(); ++id)
    service_bank(banks_[id], id, until_ps);
}

void CommandScheduler::push(const trace::AccessRecord& record) {
  if (record.time_ps < now_ps_)
    throw std::invalid_argument("CommandScheduler: records must be time-ordered");
  now_ps_ = record.time_ps;
  while (next_refresh_ps_ <= now_ps_) {
    service_all(next_refresh_ps_);  // finish pre-boundary work first
    refresh_tick(next_refresh_ps_);
    next_refresh_ps_ += timing_.base.t_refi_ps();
  }
  if (record.bank >= banks_.size())
    throw std::out_of_range("CommandScheduler: bank out of range");
  Bank& bank = banks_[record.bank];
  // The bank has verifiably been idle since its last command completed:
  // deferred mitigation issues inside that past gap, off the demand
  // path, before the new arrival takes the bank.
  if (bank.queue.empty() && bank.ready_ps <= now_ps_)
    flush_deferred(bank, record.bank, bank.ready_ps);
  bank.queue.push_back(Pending{record, now_ps_});
  ++queued_;
  peak_queue_ = std::max(peak_queue_, queued_);
  service_bank(bank, record.bank, now_ps_);
}

void CommandScheduler::drain() {
  service_all(~0ull);
  for (dram::BankId id = 0; id < banks_.size(); ++id)
    flush_deferred(banks_[id], id, banks_[id].ready_ps);
}

}  // namespace tvp::mem
