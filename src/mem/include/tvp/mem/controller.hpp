// The memory controller: consumes a time-ordered request stream, drives
// refresh, enforces per-bank activation timing, invokes the mitigation
// engine, and reports every physical row activation / refresh to the
// disturbance model. This is the spine that every experiment runs on.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/dram/geometry.hpp"
#include "tvp/dram/refresh.hpp"
#include "tvp/dram/remap.hpp"
#include "tvp/dram/timing.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/trace/record.hpp"
#include "tvp/util/parallel.hpp"
#include "tvp/util/stats.hpp"

namespace tvp::mem {

/// Aggregated controller counters for one run.
struct ControllerStats {
  std::uint64_t demand_acts = 0;      ///< ACTs from the request stream
  std::uint64_t extra_acts = 0;       ///< row activations issued by mitigation
  std::uint64_t fp_extra_acts = 0;    ///< ...whose suspect was NOT a real aggressor
  std::uint64_t triggers = 0;         ///< mitigation decisions (one may cost 1-2 acts)
  std::uint64_t refresh_intervals = 0;
  std::uint64_t rows_refreshed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t delayed_acts = 0;     ///< ACTs stalled by tRC/tRFC
  std::uint64_t first_extra_act_at = 0;  ///< demand-act count at first trigger (0 = never)
  util::RunningStat acts_per_interval;   ///< per active bank
  /// Extra activations binned by window phase (64 bins over RefInt):
  /// shows *when* inside the refresh window a technique spends its
  /// budget (TiVaPRoMi bursts just after the window clear; PARA is flat).
  static constexpr std::size_t kPhaseBins = 64;
  std::array<std::uint64_t, kPhaseBins> extra_acts_by_phase{};

  /// The paper's "Activations Overhead %": extra / demand * 100.
  double overhead_pct() const noexcept {
    return demand_acts
               ? 100.0 * static_cast<double>(extra_acts) / static_cast<double>(demand_acts)
               : 0.0;
  }
  /// The paper's "False Positive Rate %": false-positive extra activations
  /// per demand activation.
  double fpr_pct() const noexcept {
    return demand_acts
               ? 100.0 * static_cast<double>(fp_extra_acts) / static_cast<double>(demand_acts)
               : 0.0;
  }
};

/// Everything the controller needs to run.
struct ControllerConfig {
  dram::Geometry geometry;
  dram::Timing timing;
  dram::RefreshPolicy refresh_policy = dram::RefreshPolicy::kNeighborSequential;
  std::size_t remap_swaps = 16;     ///< spare-row swaps (policy (ii) & remapper)
  bool remap_rows = false;          ///< enable logical->physical remapping
  /// How far the act_n command reaches: 1 activates the two adjacent
  /// rows (the paper's command); 2 additionally restores the rows at
  /// distance two — the countermeasure to half-double-style attacks
  /// (see the extension_attacks bench). Cost scales accordingly.
  std::uint32_t act_n_radius = 1;
  /// Worker threads for the batched (on_records) hot path: independent
  /// banks of one refresh segment run concurrently, bit-identical to
  /// serial execution (per-bank state is disjoint; shared counters are
  /// slot-and-reduced; flip events are re-sequenced into serial order).
  /// 1 = serial (the default — seed sweeps already parallelize across
  /// runs, so per-run sharding would oversubscribe), 0 = auto
  /// (TVP_JOBS), N = exactly N workers. With bank_jobs > 1 the
  /// aggressor oracle must be safe to call from multiple threads.
  std::size_t bank_jobs = 1;
  /// Collect the per-stage wall-clock breakdown (StageProfile timers).
  /// Off by default: the act counters are always maintained, but the
  /// clock_gettime calls per segment are taken only when profiling.
  bool profile = false;
};

/// Per-stage breakdown of the columnar hot path, for perf attribution
/// (bench/perf_hotpath --profile). The *_ns timers accumulate only when
/// ControllerConfig::profile is set; the act counters are always live —
/// they are how replay tests prove a corpus's lanes actually skipped the
/// re-partition pass.
struct StageProfile {
  std::uint64_t partition_ns = 0;    ///< per-bank lane scatter (+ validation)
  std::uint64_t mitigation_ns = 0;   ///< bank-shard dispatch (techniques + lane bookkeeping)
  /// Time inside MitigationEngine::on_activates, summed over the bank
  /// shards and a cohort's members: the technique-kernel part of
  /// mitigation_ns when serial (with bank_jobs > 1 it adds up the workers
  /// and can exceed it).
  std::uint64_t kernel_ns = 0;
  std::uint64_t disturbance_ns = 0;  ///< serial reduce + flip re-sequencing/commit
  std::uint64_t scattered_acts = 0;    ///< ACTs partitioned by the controller
  std::uint64_t partitioned_acts = 0;  ///< ACTs fed from pre-built corpus lanes
};

/// Ground-truth oracle: is @p suspect row of @p bank a real aggressor?
/// Supplied by the experiment harness (it knows the attack config); used
/// only for statistics, never visible to the techniques.
using AggressorOracle = std::function<bool(dram::BankId, dram::RowId)>;

class MemoryController {
 public:
  /// @p engine and @p disturbance must outlive the controller.
  MemoryController(ControllerConfig config, MitigationEngine& engine,
                   dram::DisturbanceModel& disturbance, util::Rng& rng);
  /// A cohort: one memory system per engine (its *member*), all fed the
  /// same requests. They share the partition pass, the refresh schedule
  /// and the demand walk over @p disturbance (a model of
  /// engines.size() members); each member has its own engine, bank
  /// timing and extra activations. Member m's results equal a
  /// one-engine controller's over the same requests. @p engines and
  /// @p disturbance must outlive the controller.
  MemoryController(ControllerConfig config,
                   std::vector<MitigationEngine*> engines,
                   dram::DisturbanceModel& disturbance, util::Rng& rng);

  /// Feeds a batch of requests — the only way a record reaches the
  /// controller; a single request is a batch of one. Records must arrive
  /// in non-decreasing time order (throws std::invalid_argument
  /// otherwise, after processing the valid prefix).
  ///
  /// The batch is split into *refresh segments* (maximal runs that
  /// cross no refresh boundary, so the mitigation context is constant),
  /// each segment is partitioned once into per-bank SoA lanes
  /// (contiguous row / timestamp / sequence columns), and every bank's
  /// lane is handed to its technique in one on_activates call —
  /// concurrently across banks when cfg.bank_jobs > 1. The observable result (stats, disturbance state, flip events,
  /// RNG streams) is independent of how the stream is cut into batches
  /// and of the jobs setting; see DESIGN.md "The ACT hot path" for the
  /// argument.
  void on_records(const trace::AccessRecord* records, std::size_t count);

  /// Like on_records, but for a span of @p count records given as its
  /// per-bank lanes (a corpus block): @p lanes holds @p lane_banks
  /// column views (lane b holds bank b) whose serials index the span,
  /// and @p records may be null and is not read. When the lanes are
  /// usable (bank count matches the geometry, every lane row is in
  /// range) the controller feeds them zero-copy and skips the scatter
  /// pass; otherwise it rebuilds the span's records from the lanes and
  /// takes on_records — same observable results either way, including
  /// the throw after the valid prefix and its message. With @p lanes
  /// null this is on_records(@p records, @p count).
  ///
  /// Precondition: the lanes hold a time-ordered span of @p count
  /// records (each lane's serials ascend, together they are a
  /// permutation of [0, count), and the times ascend in serial order).
  /// trace::MmapSource, the only producer of lanes, proves that on a
  /// block's first touch before it hands the block out; a lane count
  /// sum other than @p count throws std::invalid_argument. The
  /// controller relies on it: it cuts each refresh segment with one
  /// binary search per lane over the lane times, takes the segment's
  /// first time (checked against the controller clock, as on_records
  /// checks every record) from the lane heads and its last time (the
  /// new clock) from the cut ends.
  void on_records_partitioned(const trace::AccessRecord* records,
                              std::size_t count,
                              const trace::BankLaneView* lanes,
                              std::size_t lane_banks);

  /// Advances refresh processing up to @p time_ps without new requests
  /// (completes the final partial window of a run).
  void advance_to(std::uint64_t time_ps);

  /// Installs the false-positive oracle (optional; without it all extra
  /// activations count as potential false positives = 0 known aggressors).
  void set_aggressor_oracle(AggressorOracle oracle) { oracle_ = std::move(oracle); }

  /// Member @p member's counters: the shared demand, read/write, refresh
  /// and acts-per-interval counts with the member's own triggers, extra
  /// ACTs and stalls.
  ControllerStats stats(std::size_t member = 0) const;
  const StageProfile& stage_profile() const noexcept { return profile_; }
  const dram::RefreshScheduler& refresh_scheduler() const noexcept { return scheduler_; }
  const dram::RowRemapper& remapper() const noexcept { return remapper_; }

  /// Current refresh interval within the window / globally.
  std::uint32_t interval_in_window() const noexcept {
    return static_cast<std::uint32_t>(global_interval_ % timing_.refresh_intervals);
  }
  std::uint64_t global_interval() const noexcept { return global_interval_; }

 private:
  /// Per-bank working state of one refresh segment. Cache-line aligned
  /// and written only by the worker that owns the bank, so concurrent
  /// shards never share a written line.
  ///
  /// The lane_* pointers are the columnar view run_bank_shard consumes:
  /// on the scatter path they point into the shard-owned column vectors
  /// (serial_base 0); on the corpus-partitioned path they borrow the
  /// mmap'd partition columns directly (serials are span-relative, so
  /// serial_base rebases them to the segment).
  struct alignas(64) BankShard {
    /// A record that triggered: its segment serial and the extra
    /// activations it issued (the prefix-sum input for flip tags).
    struct Trigger {
      std::uint32_t serial = 0;
      std::uint32_t extra = 0;
    };
    /// One member's side of the bank: its action cursor during the walk
    /// and its per-segment outputs.
    struct Member {
      const MitigationAction* act = nullptr;
      const MitigationAction* act_end = nullptr;
      std::size_t next = 0;  ///< lane index of its next action's origin
      std::uint64_t triggers = 0;
      std::uint64_t extra = 0;
      std::uint64_t fp_extra = 0;
      std::uint64_t delayed = 0;  ///< stalls beyond the shared timeline's
      std::vector<Trigger> triggered;  ///< in serial order
    };
    /// Grows the scatter columns (at least doubling) once a segment
    /// fills them; sized by this bank's own lanes, never by the segment.
    void grow_columns();
    /// Charges @p member's extra ACT of @p t_rc to its lag.
    void delay(std::uint32_t member, std::uint64_t t_rc) {
      if (lag[member] == 0) lagging.push_back(member);
      lag[member] += t_rc;
    }
    /// Moves the lagging members' timelines to time @p t, at or past the
    /// shared @p ready (a demand ACT, or a REF's tRFC floor): a lag
    /// shrinks by the shared idle gap, and a demand ACT that the member
    /// still stalls counts as its own delayed ACT when @p demand.
    void catch_up(std::uint64_t ready, std::uint64_t t, bool demand) {
      const std::uint64_t gap = t - ready;
      for (std::size_t i = 0; i < lagging.size();) {
        const std::uint32_t m = lagging[i];
        if (lag[m] > gap) {
          lag[m] -= gap;
          members[m].delayed += demand;
          ++i;
        } else {
          lag[m] = 0;
          lagging[i] = lagging.back();
          lagging.pop_back();
        }
      }
    }

    // Scatter-built columns (SoA; filled by the partition pass through
    // lane_count; their size is the capacity).
    std::vector<std::uint32_t> serials;  ///< segment-serial per record
    std::vector<dram::RowId> rows;       ///< logical row per record
    std::vector<std::uint64_t> times;    ///< time_ps per record
    std::vector<std::uint8_t> flag_col;  ///< trace::kLaneWrite per record
    // The lane view actually consumed (owned columns or borrowed corpus
    // lane columns).
    const dram::RowId* lane_rows = nullptr;
    const std::uint64_t* lane_times = nullptr;
    const std::uint32_t* lane_serials = nullptr;
    const std::uint8_t* lane_flags = nullptr;
    std::size_t lane_count = 0;
    std::uint32_t serial_base = 0;
    dram::DisturbanceModel::Lane lane;
    // Per-segment outputs, written by run_bank_shard and folded into
    // the stats by the serial reduce.
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t delayed = 0;
    std::uint64_t kernel_ns = 0;  ///< on_activates time (profile only)
    std::vector<Member> members;
    // The bank's timing: bank_ready_ps_ is the shared timeline, that of
    // the demand ACTs alone (of the one member, in a cohort of one); a
    // member of a larger cohort is lag[m] behind it, which only its own
    // extra ACTs grow.
    std::vector<std::uint64_t> lag;
    std::vector<std::uint32_t> lagging;  ///< members with a lag
  };

  void process_refresh_boundaries(std::uint64_t up_to_ps);
  void refresh_interval_tick();
  /// Issues @p member's REF-time actions, committing each activation at
  /// once.
  void issue_actions(std::uint32_t member, dram::BankId bank,
                     const ActionBuffer& actions, std::uint32_t interval);
  /// The feed loop behind on_records and on_records_partitioned: cuts
  /// the batch into refresh segments and, per segment, slices @p lanes
  /// by time (when non-null, and then @p records is not read; see
  /// on_records_partitioned's precondition) or scans and scatters the
  /// records, then runs the segment.
  void feed(const trace::AccessRecord* records, std::size_t count,
            const trace::BankLaneView* lanes);
  /// The time of the earliest lane element not yet fed: the first time
  /// of the next segment.
  std::uint64_t lane_head(const trace::BankLaneView* lanes) const;
  /// The partition pass of one segment: validates the records and
  /// scatters them into the shards' owned columns; returns the length
  /// of the valid prefix (the first bad address ends it).
  std::size_t scatter(const trace::AccessRecord* records, std::size_t count);
  /// Points the shards at the corpus lanes' slice for the segment that
  /// starts at span record @p begin and ends before the next refresh
  /// boundary (advancing lane_cursor_); returns the segment's length and
  /// sets @p last to its last time.
  std::size_t slice_lanes(const trace::BankLaneView* lanes, std::size_t begin,
                          std::uint64_t& last);
  /// Runs a refresh segment of @p valid records whose lanes are set:
  /// every bank shard (pool or serial), then the serial reduce + flip
  /// commit.
  void run_segment(std::size_t valid);
  /// The per-bank half of a segment (runs on a worker thread), driven
  /// entirely by the shard's lane_* columns; writes every per-segment
  /// output of the shard and the bank's bank_ready_ps_.
  void run_bank_shard(dram::BankId bank, const MitigationContext& ctx);

  ControllerConfig cfg_;
  dram::Timing timing_;
  std::uint32_t banks_;
  std::vector<MitigationEngine*> engines_;
  dram::DisturbanceModel& disturbance_;
  dram::RowRemapper remapper_;
  dram::RefreshScheduler scheduler_;
  AggressorOracle oracle_;
  ControllerStats stats_;  ///< the shared counters
  /// Per member: triggers, extra and false-positive ACTs, their phase
  /// bins, first_extra_act_at and the stalls beyond the shared ones.
  std::vector<ControllerStats> member_stats_;

  std::uint64_t now_ps_ = 0;
  std::uint64_t global_interval_ = 0;      // intervals completed so far
  std::uint64_t next_refresh_ps_;          // time of the next REF command
  std::vector<std::uint64_t> bank_ready_ps_;  // the shared timelines
  std::vector<std::uint32_t> interval_acts_;  // per-bank ACTs this interval
  std::vector<dram::RowId> refresh_rows_;     // rows of the current REF

  // Batched hot-path scratch (reused across segments; steady-state
  // allocation-free once capacities stabilize).
  std::vector<BankShard> shards_;
  std::vector<dram::DisturbanceModel::Lane*> lane_ptrs_;
  std::vector<std::uint64_t> act_prefix_;  // a member's per-serial activation
                                           // prefix sums (built only when
                                           // one of its flips is pending)
  std::vector<std::size_t> lane_cursor_;   // per-bank position in corpus lanes
  std::vector<trace::AccessRecord> rebuilt_;  // unusable lanes' records
  std::unique_ptr<util::WorkerPool> pool_;  // only when bank_jobs > 1
  StageProfile profile_;
};

}  // namespace tvp::mem
