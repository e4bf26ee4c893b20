#include "tvp/mem/controller.hpp"

#include <time.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

namespace tvp::mem {

namespace {
constexpr std::uint64_t kNoTrigger = std::numeric_limits<std::uint64_t>::max();

std::uint64_t monotonic_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Calls @p activate once per physical row that an action of @p kind on
/// @p physical activates, in issue order, and returns the count (the
/// action's cost): act_n reaches the rows within @p radius that exist
/// in the bank, kActRow the row itself. The one place an action becomes
/// activations, for the ACT walk and the REF path alike.
template <typename Activate>
inline std::uint32_t for_each_activation(MitigationAction::Kind kind,
                                         dram::RowId physical,
                                         dram::RowId rows_per_bank,
                                         std::int64_t radius,
                                         Activate&& activate) {
  switch (kind) {
    case MitigationAction::Kind::kActNeighbors: {
      std::uint32_t cost = 0;
      for (std::int64_t d = -radius; d <= radius; ++d) {
        if (d == 0) continue;
        const std::int64_t neighbor = static_cast<std::int64_t>(physical) + d;
        if (neighbor < 0 || neighbor >= static_cast<std::int64_t>(rows_per_bank))
          continue;
        activate(static_cast<dram::RowId>(neighbor));
        ++cost;
      }
      return cost;
    }
    case MitigationAction::Kind::kActRow:
      activate(physical);
      return 1;
  }
  return 0;
}
}  // namespace

MemoryController::MemoryController(ControllerConfig config, MitigationEngine& engine,
                                   dram::DisturbanceModel& disturbance,
                                   util::Rng& rng)
    : MemoryController(config, std::vector<MitigationEngine*>{&engine},
                       disturbance, rng) {}

MemoryController::MemoryController(ControllerConfig config,
                                   std::vector<MitigationEngine*> engines,
                                   dram::DisturbanceModel& disturbance,
                                   util::Rng& rng)
    : cfg_(config),
      timing_(config.timing),
      banks_(config.geometry.total_banks()),
      engines_(std::move(engines)),
      disturbance_(disturbance),
      remapper_(config.remap_rows
                    ? dram::RowRemapper(config.geometry.rows_per_bank,
                                        config.remap_swaps, rng)
                    : dram::RowRemapper(config.geometry.rows_per_bank)),
      scheduler_(config.geometry.rows_per_bank, config.timing.refresh_intervals,
                 config.refresh_policy, rng, config.remap_swaps) {
  cfg_.geometry.validate();
  timing_.validate();
  if (engines_.empty())
    throw std::invalid_argument("MemoryController: no mitigation engine");
  for (const MitigationEngine* engine : engines_)
    if (engine->banks() != banks_)
      throw std::invalid_argument(
          "MemoryController: engine bank count does not match geometry");
  if (disturbance_.banks() != banks_ ||
      disturbance_.rows_per_bank() != cfg_.geometry.rows_per_bank)
    throw std::invalid_argument(
        "MemoryController: disturbance model shape mismatch");
  if (disturbance_.members() != engines_.size())
    throw std::invalid_argument(
        "MemoryController: disturbance model member count does not match "
        "the engines");
  bank_ready_ps_.assign(banks_, 0);
  interval_acts_.assign(banks_, 0);
  next_refresh_ps_ = timing_.t_refi_ps();

  const std::size_t members = engines_.size();
  member_stats_.resize(members);
  shards_ = std::vector<BankShard>(banks_);
  lane_ptrs_.reserve(banks_);
  for (std::uint32_t b = 0; b < banks_; ++b) {
    shards_[b].lane = disturbance_.lane(b);
    shards_[b].members.resize(members);
    shards_[b].lag.assign(members, 0);
    lane_ptrs_.push_back(&shards_[b].lane);
  }
  lane_cursor_.assign(banks_, 0);
  std::size_t jobs = cfg_.bank_jobs == 0 ? util::job_count() : cfg_.bank_jobs;
  jobs = std::min<std::size_t>(jobs, banks_);
  if (jobs > 1) pool_ = std::make_unique<util::WorkerPool>(jobs);
}

ControllerStats MemoryController::stats(std::size_t member) const {
  ControllerStats s = stats_;
  const ControllerStats& own = member_stats_.at(member);
  s.extra_acts = own.extra_acts;
  s.fp_extra_acts = own.fp_extra_acts;
  s.triggers = own.triggers;
  s.delayed_acts += own.delayed_acts;
  s.first_extra_act_at = own.first_extra_act_at;
  s.extra_acts_by_phase = own.extra_acts_by_phase;
  return s;
}

void MemoryController::process_refresh_boundaries(std::uint64_t up_to_ps) {
  while (next_refresh_ps_ <= up_to_ps) {
    refresh_interval_tick();
    next_refresh_ps_ += timing_.t_refi_ps();
  }
}

void MemoryController::refresh_interval_tick() {
  const std::uint64_t boundary_ps = next_refresh_ps_;
  ++global_interval_;
  ++stats_.refresh_intervals;
  const auto interval = interval_in_window();

  MitigationContext ctx;
  ctx.interval_in_window = interval;
  ctx.global_interval = global_interval_;
  ctx.window_start = interval == 0;

  // All banks refresh the same row slot in lockstep (all-bank REF).
  scheduler_.rows_in_interval(interval, refresh_rows_);

  const std::uint64_t floor_ps = boundary_ps + timing_.t_rfc_ps;
  for (dram::BankId b = 0; b < banks_; ++b) {
    stats_.acts_per_interval.add(static_cast<double>(interval_acts_[b]));
    interval_acts_[b] = 0;

    if (floor_ps > bank_ready_ps_[b]) {
      shards_[b].catch_up(bank_ready_ps_[b], floor_ps, false);
      bank_ready_ps_[b] = floor_ps;
    }

    disturbance_.on_refresh_rows(b, refresh_rows_.data(), refresh_rows_.size());
    stats_.rows_refreshed += refresh_rows_.size();

    for (std::uint32_t m = 0; m < engines_.size(); ++m)
      issue_actions(m, b, engines_[m]->on_refresh(b, ctx), interval);
  }
}

void MemoryController::issue_actions(std::uint32_t member, dram::BankId bank,
                                     const ActionBuffer& actions,
                                     std::uint32_t interval) {
  const auto radius = static_cast<std::int64_t>(cfg_.act_n_radius);
  const bool solo = engines_.size() == 1;
  ControllerStats& own = member_stats_[member];
  for (const auto& action : actions) {
    ++own.triggers;
    if (own.first_extra_act_at == 0)
      own.first_extra_act_at = std::max<std::uint64_t>(stats_.demand_acts, 1);

    const std::uint32_t cost = for_each_activation(
        action.kind, remapper_.to_physical(action.row),
        cfg_.geometry.rows_per_bank, radius, [&](dram::RowId row) {
          if (solo)
            bank_ready_ps_[bank] += timing_.t_rc_ps;
          else
            shards_[bank].delay(member, timing_.t_rc_ps);
          disturbance_.on_activate(bank, row, interval, member);
        });
    own.extra_acts += cost;
    if (oracle_ && !oracle_(bank, action.suspect)) own.fp_extra_acts += cost;
    own.extra_acts_by_phase[interval * ControllerStats::kPhaseBins /
                            timing_.refresh_intervals] += cost;
  }
}

void MemoryController::on_records(const trace::AccessRecord* records,
                                  std::size_t count) {
  feed(records, count, nullptr);
}

void MemoryController::on_records_partitioned(
    const trace::AccessRecord* records, std::size_t count,
    const trace::BankLaneView* lanes, std::size_t lane_banks) {
  if (lanes == nullptr) {
    feed(records, count, nullptr);
    return;
  }
  // A whole-span check per lane (O(banks), not O(records)).
  std::size_t held = 0;
  bool usable = lane_banks == banks_;
  for (std::size_t b = 0; b < lane_banks; ++b) {
    held += lanes[b].count;
    usable = usable && (lanes[b].count == 0 ||
                        lanes[b].max_row < cfg_.geometry.rows_per_bank);
  }
  if (held != count)
    throw std::invalid_argument(
        "MemoryController: partition lanes disagree with their records");
  if (!usable) {
    // Another bank count, or a lane row out of range: the scatter path's
    // throw-with-valid-prefix semantics must apply, so rebuild the span's
    // records and feed those.
    rebuilt_.resize(count);
    std::vector<std::size_t> cursors(lane_banks, 0);
    trace::gather_lanes(lanes, lane_banks, cursors.data(), 0, count,
                        rebuilt_.data());
    feed(rebuilt_.data(), count, nullptr);
    return;
  }
  std::fill(lane_cursor_.begin(), lane_cursor_.end(), 0);
  feed(nullptr, count, lanes);
}

void MemoryController::feed(const trace::AccessRecord* records,
                            std::size_t count,
                            const trace::BankLaneView* lanes) {
  std::size_t i = 0;
  while (i < count) {
    const std::uint64_t first =
        lanes != nullptr ? lane_head(lanes) : records[i].time_ps;
    if (first < now_ps_)
      throw std::invalid_argument(
          "MemoryController: records must be time-ordered");
    process_refresh_boundaries(first);
    // A refresh segment: the maximal time-ordered run strictly before
    // the next refresh boundary (the mitigation context is constant
    // inside it). On the scatter path an out-of-order record ends the
    // segment and is rejected by the check above on the next pass,
    // after the valid prefix has been processed. Lanes come with a
    // time-ordered span (the precondition), so their cut reads no
    // record in between.
    std::size_t end;
    std::size_t valid;
    std::uint64_t last = 0;
    if (lanes != nullptr) {
      end = i + slice_lanes(lanes, i, last);
      if (end == i)
        throw std::invalid_argument(
            "MemoryController: partition lanes disagree with their records");
      valid = end - i;
    } else {
      end = i + 1;
      while (end < count && records[end].time_ps >= records[end - 1].time_ps &&
             records[end].time_ps < next_refresh_ps_)
        ++end;
      valid = scatter(records + i, end - i);
      if (valid > 0) last = records[i + valid - 1].time_ps;
    }
    if (valid > 0) {
      now_ps_ = last;
      run_segment(valid);
    }
    if (valid < end - i) {
      // The first bad address ends the segment; the valid prefix has
      // been processed, as if the records had been fed one at a time.
      const trace::AccessRecord& bad = records[i + valid];
      now_ps_ = bad.time_ps;
      throw std::out_of_range(
          bad.bank >= banks_
              ? "MemoryController: bank " + std::to_string(bad.bank) +
                    " out of range (" + std::to_string(banks_) +
                    " banks)"
              : "MemoryController: row " + std::to_string(bad.row) +
                    " out of range (" +
                    std::to_string(cfg_.geometry.rows_per_bank) +
                    " rows per bank)");
    }
    i = end;
  }
}

std::uint64_t MemoryController::lane_head(
    const trace::BankLaneView* lanes) const {
  // on_records_partitioned checked that the lanes hold the span, so
  // while records remain some lane has an element left.
  std::uint64_t head = std::numeric_limits<std::uint64_t>::max();
  for (std::uint32_t b = 0; b < banks_; ++b)
    if (lane_cursor_[b] < lanes[b].count)
      head = std::min(head, lanes[b].times[lane_cursor_[b]]);
  return head;
}

std::size_t MemoryController::slice_lanes(const trace::BankLaneView* lanes,
                                          std::size_t begin,
                                          std::uint64_t& last) {
  // Cut each bank's lane at its first time at or past the next refresh
  // boundary (a lane of a time-ordered span ascends in time, so a binary
  // search from the lane's cursor finds it): the per-bank stops are the
  // segment, zero-copy, with no per-record scan or scatter. The latest
  // time before a stop is the segment's last.
  const std::uint32_t banks = banks_;
  const std::uint64_t boundary = next_refresh_ps_;
  std::size_t taken = 0;
  last = 0;
  for (std::uint32_t b = 0; b < banks; ++b) {
    const trace::BankLaneView& lv = lanes[b];
    const std::size_t cur = lane_cursor_[b];
    const std::size_t stop = static_cast<std::size_t>(
        std::lower_bound(lv.times + cur, lv.times + lv.count, boundary) -
        lv.times);
    BankShard& s = shards_[b];
    s.lane_rows = lv.rows + cur;
    s.lane_times = lv.times + cur;
    s.lane_serials = lv.serials + cur;
    s.lane_flags = lv.flags + cur;
    s.lane_count = stop - cur;
    if (stop > cur) last = std::max(last, lv.times[stop - 1]);
    s.serial_base = static_cast<std::uint32_t>(begin);
    lane_cursor_[b] = stop;
    taken += stop - cur;
  }
  profile_.partitioned_acts += taken;
  return taken;
}

void MemoryController::BankShard::grow_columns() {
  const std::size_t capacity = std::max<std::size_t>(64, 2 * rows.size());
  serials.resize(capacity);
  rows.resize(capacity);
  times.resize(capacity);
  flag_col.resize(capacity);
}

std::size_t MemoryController::scatter(const trace::AccessRecord* records,
                                     std::size_t count) {
  const std::uint32_t banks = banks_;
  const dram::RowId rows_per_bank = cfg_.geometry.rows_per_bank;
  const bool timed = cfg_.profile;
  const std::uint64_t t0 = timed ? monotonic_ns() : 0;

  // The partition pass: validate each record and scatter it into its
  // bank's SoA lane (row / time / serial / write columns), so the
  // per-bank kernels stream contiguous columns instead of gathering
  // from the record array. The first bad address ends the pass.
  for (std::uint32_t b = 0; b < banks; ++b) shards_[b].lane_count = 0;
  std::size_t valid = 0;
  for (; valid < count; ++valid) {
    const trace::AccessRecord& r = records[valid];
    if (r.bank >= banks || r.row >= rows_per_bank) break;
    BankShard& s = shards_[r.bank];
    const std::size_t k = s.lane_count++;
    if (k == s.rows.size()) s.grow_columns();
    s.serials[k] = static_cast<std::uint32_t>(valid);
    s.rows[k] = r.row;
    s.times[k] = r.time_ps;
    s.flag_col[k] = r.write ? trace::kLaneWrite : 0;
  }
  for (std::uint32_t b = 0; b < banks; ++b) {
    BankShard& s = shards_[b];
    s.lane_rows = s.rows.data();
    s.lane_times = s.times.data();
    s.lane_serials = s.serials.data();
    s.lane_flags = s.flag_col.data();
    s.serial_base = 0;
  }
  profile_.scattered_acts += valid;
  if (timed) profile_.partition_ns += monotonic_ns() - t0;
  return valid;
}

void MemoryController::run_segment(std::size_t valid) {
  MitigationContext ctx;
  ctx.interval_in_window = interval_in_window();
  ctx.global_interval = global_interval_;
  ctx.window_start = false;
  const std::uint32_t banks = banks_;
  const bool timed = cfg_.profile;
  const std::uint64_t t0 = timed ? monotonic_ns() : 0;

  if (pool_) {
    pool_->run(banks, [&](std::size_t b) {
      run_bank_shard(static_cast<dram::BankId>(b), ctx);
    });
  } else {
    for (std::uint32_t b = 0; b < banks; ++b) run_bank_shard(b, ctx);
  }
  const std::uint64_t t1 = timed ? monotonic_ns() : 0;
  if (timed) profile_.mitigation_ns += t1 - t0;

  // Serial reduce: fold shard outputs into the shared and per-member
  // counters in bank order. Every sum is independent of which thread
  // produced it, and the order-dependent aggregates (first_extra_act_at,
  // flip events) are reconstructed from the segment-serial tags, so the
  // result is bit-identical to serial execution for any bank_jobs.
  const std::uint64_t demand_before = stats_.demand_acts;
  const std::size_t phase_bin = ctx.interval_in_window *
                                ControllerStats::kPhaseBins /
                                timing_.refresh_intervals;
  for (std::uint32_t b = 0; b < banks; ++b) {
    const BankShard& s = shards_[b];
    stats_.demand_acts += s.lane_count;
    stats_.reads += s.reads;
    stats_.writes += s.writes;
    stats_.delayed_acts += s.delayed;
    profile_.kernel_ns += s.kernel_ns;
    interval_acts_[b] += static_cast<std::uint32_t>(s.lane_count);
  }
  for (std::uint32_t m = 0; m < engines_.size(); ++m) {
    ControllerStats& own = member_stats_[m];
    std::uint64_t first_serial = kNoTrigger;
    for (std::uint32_t b = 0; b < banks; ++b) {
      const BankShard::Member& o = shards_[b].members[m];
      own.delayed_acts += o.delayed;
      own.triggers += o.triggers;
      own.extra_acts += o.extra;
      own.fp_extra_acts += o.fp_extra;
      own.extra_acts_by_phase[phase_bin] += o.extra;
      if (!o.triggered.empty())
        first_serial = std::min<std::uint64_t>(first_serial,
                                               o.triggered.front().serial);
    }
    if (own.first_extra_act_at == 0 && first_serial != kNoTrigger)
      own.first_extra_act_at = demand_before + first_serial + 1;
  }
  // Built only for a member with a pending flip: every record performs
  // its demand ACT plus the member's extras, so prefix[j] = j + the
  // extras of records < j. Only records that triggered have extras;
  // scatter those, then prefix-sum.
  disturbance_.commit_lanes(
      lane_ptrs_.data(), lane_ptrs_.size(), [this, valid](std::uint32_t m) {
        act_prefix_.assign(valid, 0);
        for (const BankShard& s : shards_)
          for (const BankShard::Trigger& t : s.members[m].triggered)
            act_prefix_[t.serial] = t.extra;
        std::uint64_t extras = 0;
        for (std::size_t j = 0; j < valid; ++j) {
          const std::uint64_t e = act_prefix_[j];
          act_prefix_[j] = j + extras;
          extras += e;
        }
        return act_prefix_.data();
      });
  if (timed) profile_.disturbance_ns += monotonic_ns() - t1;
}

void MemoryController::run_bank_shard(dram::BankId bank,
                                      const MitigationContext& ctx) {
  BankShard& s = shards_[bank];
  const std::size_t n = s.lane_count;
  const auto members = static_cast<std::uint32_t>(engines_.size());
  s.reads = s.writes = s.delayed = s.kernel_ns = 0;
  for (BankShard::Member& o : s.members) {
    o.triggers = o.extra = o.fp_extra = o.delayed = 0;
    o.triggered.clear();
  }
  if (n == 0) return;

  // Every member's technique sees the bank's lane; the walk then issues
  // the demand ACTs once and each member's actions in record order.
  const bool timed = cfg_.profile;
  std::size_t next = n;  // the next lane index at which some member acts
  for (std::uint32_t m = 0; m < members; ++m) {
    const std::uint64_t t0 = timed ? monotonic_ns() : 0;
    const ActionBuffer& actions =
        engines_[m]->on_activates(bank, s.lane_rows, n, ctx);
    if (timed) s.kernel_ns += monotonic_ns() - t0;
    BankShard::Member& o = s.members[m];
    o.act = actions.begin();
    o.act_end = actions.end();
    o.next = o.act != o.act_end ? o.act->origin : n;
    next = std::min(next, o.next);
  }

  const dram::RowId* const lane_rows = s.lane_rows;
  const std::uint64_t* const lane_times = s.lane_times;
  const std::uint32_t* const lane_serials = s.lane_serials;
  const std::uint8_t* const lane_flags = s.lane_flags;
  const std::uint32_t serial_base = s.serial_base;
  const std::uint32_t interval = ctx.interval_in_window;
  const bool remapped = !remapper_.is_identity();
  const bool solo = members == 1;
  const std::uint64_t t_rc = timing_.t_rc_ps;
  const auto rows = cfg_.geometry.rows_per_bank;
  const auto radius = static_cast<std::int64_t>(cfg_.act_n_radius);

  // The walk keeps its per-ACT state in locals whose address never
  // escapes (the lane is a copy, stored back once), so the stores into
  // the disturbance cells cannot force them through memory. The demand
  // path does no per-member work while no member lags the shared
  // timeline.
  dram::DisturbanceModel::Lane lane = s.lane;
  std::uint64_t ready = bank_ready_ps_[bank];
  std::size_t lagging = s.lagging.size();
  std::uint64_t delayed = 0;
  std::uint64_t writes = 0;
  const auto physical = [&](dram::RowId row) {
    return remapped ? remapper_.to_physical(row) : row;
  };
  // A demand ACT while some member lags: the lags catch up first. It
  // runs in a loop of its own; a lag test inside the plain demand loop
  // cost that loop about 3 ns/ACT.
  const auto settle = [&](std::size_t k) {
    if (lane_times[k] >= ready) {
      s.catch_up(ready, lane_times[k], true);
      lagging = s.lagging.size();
    }
  };
  const auto demand = [&](std::size_t k) {
    const std::uint64_t t = lane_times[k];
    delayed += ready > t;
    ready = std::max(ready, t) + t_rc;
    writes += lane_flags[k] & trace::kLaneWrite;
    lane.on_activate(physical(lane_rows[k]), interval,
                     lane_serials[k] - serial_base, 0);
  };

  for (std::size_t k = 0;; ++k) {
    // The demand-only run up to the next record some member acts on,
    // then that record's demand ACT and each member's actions in issue
    // order. If a technique breaks the non-decreasing origin contract,
    // nothing of its member from its first out-of-order action on is
    // issued.
    const std::size_t stop = std::min(next, n);
    for (; lagging != 0 && k < stop; ++k) {
      settle(k);
      demand(k);
    }
    for (; k < stop; ++k) demand(k);
    if (k >= n) break;
    if (lagging != 0) settle(k);
    demand(k);
    if (next != k) continue;

    const std::uint32_t serial = lane_serials[k] - serial_base;
    next = n;
    for (std::uint32_t m = 0; m < members; ++m) {
      BankShard::Member& o = s.members[m];
      if (o.next == k) {
        std::uint32_t offset = 0;  // activations this record has performed - 1
        for (; o.act != o.act_end && o.act->origin == k; ++o.act) {
          ++o.triggers;
          const std::uint32_t cost = for_each_activation(
              o.act->kind, physical(o.act->row), rows, radius,
              [&](dram::RowId row) {
                if (solo)
                  ready += t_rc;
                else
                  s.delay(m, t_rc);
                lane.on_extra(m, row, interval, serial, ++offset);
              });
          o.extra += cost;
          if (oracle_ && !oracle_(bank, o.act->suspect)) o.fp_extra += cost;
        }
        o.triggered.push_back(BankShard::Trigger{serial, offset});
        o.next = o.act != o.act_end && o.act->origin > k ? o.act->origin : n;
      }
      next = std::min(next, o.next);
    }
    lagging = s.lagging.size();
  }

  s.lane = lane;
  bank_ready_ps_[bank] = ready;
  s.reads = n - writes;
  s.writes = writes;
  s.delayed = delayed;
}

void MemoryController::advance_to(std::uint64_t time_ps) {
  process_refresh_boundaries(time_ps);
  now_ps_ = std::max(now_ps_, time_ps);
}

}  // namespace tvp::mem
