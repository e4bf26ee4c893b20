// Command-level memory-controller model.
//
// MemoryController, in controller.hpp, is the activation-accurate spine the
// reproduction experiments run on: it counts every ACT and feeds the
// disturbance model, but abstracts command scheduling. CommandScheduler
// complements it with a queueing model at DDR command granularity —
// FR-FCFS arbitration, open/closed page policy, bank state machines with
// tRCD/tRP/tCL/tRAS/tFAW, refresh blackouts, and the mitigation act_n
// path — so the *performance* cost of a mitigation technique (added
// latency, lost row hits) can be measured, not just its activation
// count. This is what the paper's introduction means by "a performance
// penalty due to a high number of extra row activations".
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/dram/protocol.hpp"
#include "tvp/dram/timing.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/trace/record.hpp"
#include "tvp/util/stats.hpp"

namespace tvp::mem {

/// DDR command timing beyond the coarse dram::Timing (all picoseconds;
/// defaults model DDR4-2400-ish latencies).
struct CommandTiming {
  dram::Timing base;               ///< tRC / tRFC / tREFI / clock
  std::uint64_t t_rcd_ps = 13'750; ///< ACT -> RD/WR
  std::uint64_t t_rp_ps = 13'750;  ///< PRE -> ACT
  std::uint64_t t_cl_ps = 13'750;  ///< RD -> first data
  std::uint64_t t_ras_ps = 32'000; ///< ACT -> PRE (min row-open time)
  std::uint64_t t_burst_ps = 3'333;///< data burst on the bus
  std::uint64_t t_faw_ps = 21'000; ///< four-activate window per rank

  void validate() const;
};

enum class PagePolicy {
  kOpenPage,   ///< keep the row open; hits skip ACT entirely
  kClosedPage, ///< precharge after every access
};

const char* to_string(PagePolicy policy) noexcept;

/// When mitigation activations are issued relative to demand traffic.
/// The paper's Section I/II argue for controller-side mitigation partly
/// because DIMM-side logic "must no longer rely on predetermined memory
/// timings": an autonomous device injects its activations immediately,
/// in the demand path, while a controller that owns the mitigation can
/// slip them into idle gaps. kImmediate models the former, kIdleDeferred
/// the latter (deferred work is flushed when the bank queue drains, or
/// at the next refresh boundary at the latest — protection is never
/// postponed past a REF).
enum class MitigationPlacement {
  kImmediate,
  kIdleDeferred,
};

const char* to_string(MitigationPlacement placement) noexcept;

/// Aggregated performance counters of one scheduler run.
struct SchedulerStats {
  std::uint64_t requests = 0;
  std::uint64_t row_hits = 0;        ///< served from an open row
  std::uint64_t row_misses = 0;      ///< needed ACT (empty bank)
  std::uint64_t row_conflicts = 0;   ///< needed PRE + ACT
  std::uint64_t demand_acts = 0;
  std::uint64_t mitigation_acts = 0; ///< extra activations issued
  std::uint64_t refresh_commands = 0;
  std::uint64_t faw_stalls = 0;      ///< ACTs delayed by the tFAW window
  util::RunningStat latency_ps;      ///< request completion - arrival
  util::PercentileTracker latency_tail;

  double row_hit_rate() const noexcept {
    return requests ? static_cast<double>(row_hits) / static_cast<double>(requests)
                    : 0.0;
  }
};

/// FR-FCFS command scheduler over one channel.
///
/// Usage: push() requests in arrival order (any inter-bank pattern),
/// then drain(). The mitigation engine is optional — pass nullptr for a
/// baseline run; with an engine, every demand ACT consults it and its
/// extra activations are issued as closed-page activate/precharge pairs
/// on the same bank, competing for the same timing budget.
class CommandScheduler {
 public:
  CommandScheduler(dram::Geometry geometry, CommandTiming timing,
                   PagePolicy policy, MitigationEngine* engine = nullptr,
                   MitigationPlacement placement = MitigationPlacement::kImmediate);

  /// Enqueues a request; must be non-decreasing in time_ps.
  void push(const trace::AccessRecord& record);

  /// Runs the simulation until every queued request has completed.
  void drain();

  const SchedulerStats& stats() const noexcept { return stats_; }

  /// Maximum simultaneously queued requests seen (back-pressure proxy).
  std::size_t peak_queue_depth() const noexcept { return peak_queue_; }

  /// Observes every DDR command the scheduler issues (ACT/PRE/RD/WR/REF
  /// with issue times). Commands arrive in per-bank causal order; sort
  /// by time for a bus-order view. Used with dram::ProtocolChecker to
  /// prove the emitted stream is protocol-legal (see scheduler_test).
  using CommandObserver = std::function<void(const dram::TimedCommand&)>;
  void set_observer(CommandObserver observer) { observer_ = std::move(observer); }

  /// Deferred mitigation actions currently waiting for an idle gap
  /// (always 0 with kImmediate placement, and after drain()).
  std::uint64_t deferred_backlog() const noexcept;

 private:
  struct Pending {
    trace::AccessRecord record;
    std::uint64_t enqueue_ps;
  };
  struct Bank {
    bool row_open = false;
    dram::RowId open_row = 0;
    std::uint64_t ready_ps = 0;      ///< earliest next command issue
    std::uint64_t act_ps = 0;        ///< last ACT time (tRAS accounting)
    std::deque<Pending> queue;
    std::vector<MitigationAction> deferred;  ///< kIdleDeferred backlog
  };

  void service_bank(Bank& bank, dram::BankId id, std::uint64_t until_ps);
  void service_all(std::uint64_t until_ps);
  std::uint64_t issue_act(Bank& bank, std::uint64_t earliest_ps);
  void emit(dram::Command command, dram::BankId bank, dram::RowId row,
            std::uint64_t time_ps) {
    if (observer_) observer_(dram::TimedCommand{command, bank, row, time_ps});
  }
  void run_mitigation_acts(Bank& bank, dram::BankId id, std::uint64_t now_ps,
                           const MitigationAction* actions, std::size_t count);
  /// Deferred actions are flushed at idle gaps, or forcibly once this
  /// many accumulate on a bank (bounded postponement).
  static constexpr std::size_t kMaxDeferred = 8;
  void place_mitigation(Bank& bank, dram::BankId id, std::uint64_t now_ps,
                        const ActionBuffer& actions);
  void flush_deferred(Bank& bank, dram::BankId id, std::uint64_t now_ps);
  void refresh_tick(std::uint64_t boundary_ps);
  std::uint32_t interval_in_window() const noexcept {
    return static_cast<std::uint32_t>(global_interval_ %
                                      timing_.base.refresh_intervals);
  }

  dram::Geometry geom_;
  CommandTiming timing_;
  PagePolicy policy_;
  MitigationEngine* engine_;
  MitigationPlacement placement_;
  std::vector<Bank> banks_;
  std::vector<std::uint64_t> recent_acts_;  ///< rank-wide ACT history (tFAW)
  std::uint64_t now_ps_ = 0;
  std::uint64_t next_refresh_ps_;
  std::uint64_t global_interval_ = 0;
  std::size_t queued_ = 0;
  std::size_t peak_queue_ = 0;
  SchedulerStats stats_;
  CommandObserver observer_;
};

}  // namespace tvp::mem
