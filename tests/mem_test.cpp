// Unit tests for tvp::mem — the mitigation engine and the memory
// controller (refresh machinery, timing, action issue, statistics).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mem/mitigation.hpp"
#include "lane.hpp"
#include "naive_system.hpp"

namespace tvp::mem {
namespace {

using test::act;
using test::feed;

// A probe mitigation that records what it observes and can be scripted
// to emit actions.
class Probe final : public IBankMitigation {
 public:
  struct Shared {
    std::vector<std::pair<dram::BankId, dram::RowId>> activates;
    std::vector<std::pair<dram::BankId, std::uint32_t>> refreshes;
    std::vector<MitigationAction> respond_with;  // emitted on every ACT
    std::vector<MitigationAction> respond_on_refresh;  // ...on every REF
  };

  Probe(dram::BankId bank, Shared* shared) : bank_(bank), shared_(shared) {}

  const char* name() const noexcept override { return "probe"; }
  void on_activates(const dram::RowId* rows, std::size_t n,
                    const MitigationContext&, ActionBuffer& out) override {
    for (std::size_t i = 0; i < n; ++i) {
      shared_->activates.emplace_back(bank_, rows[i]);
      const std::size_t before = out.size();
      for (const auto& a : shared_->respond_with) out.push_back(a);
      out.stamp_origin(before, static_cast<std::uint32_t>(i));
    }
  }
  void on_refresh(const MitigationContext& ctx, ActionBuffer& out) override {
    shared_->refreshes.emplace_back(bank_, ctx.interval_in_window);
    for (const auto& a : shared_->respond_on_refresh) out.push_back(a);
  }
  std::uint64_t state_bits() const noexcept override { return 7; }

 private:
  dram::BankId bank_;
  Shared* shared_;
};

BankMitigationFactory probe_factory(Probe::Shared* shared) {
  return [shared](dram::BankId bank, util::Rng) {
    return std::make_unique<Probe>(bank, shared);
  };
}

ControllerConfig small_config() {
  ControllerConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.geometry.rows_per_bank = 8192;
  cfg.timing.refresh_intervals = 512;  // RowsPI = 16
  return cfg;
}

trace::AccessRecord rec(std::uint64_t t, dram::BankId bank, dram::RowId row,
                        bool write = false) {
  trace::AccessRecord r;
  r.time_ps = t;
  r.bank = bank;
  r.row = row;
  r.write = write;
  return r;
}

struct Rig {
  explicit Rig(ControllerConfig cfg = small_config(),
               Probe::Shared* shared = nullptr)
      : shared_storage(),
        shared(shared ? shared : &shared_storage),
        engine(cfg.geometry.total_banks(), probe_factory(this->shared), rng),
        disturbance(cfg.geometry.total_banks(), cfg.geometry.rows_per_bank),
        controller(cfg, engine, disturbance, rng) {}

  util::Rng rng{99};
  Probe::Shared shared_storage;
  Probe::Shared* shared;
  MitigationEngine engine;
  dram::DisturbanceModel disturbance;
  MemoryController controller;
};

// ------------------------------------------------------------------- engine

TEST(MitigationEngine, PerBankInstancesAndStateBits) {
  Probe::Shared shared;
  util::Rng rng(1);
  MitigationEngine engine(4, probe_factory(&shared), rng);
  EXPECT_EQ(engine.banks(), 4u);
  EXPECT_STREQ(engine.name(), "probe");
  EXPECT_EQ(engine.state_bits_total(), 28u);
  EXPECT_DOUBLE_EQ(engine.state_bytes_per_bank(), 7.0 / 8.0);
}

TEST(MitigationEngine, RejectsBadConstruction) {
  util::Rng rng(1);
  EXPECT_THROW(MitigationEngine(0, probe_factory(nullptr), rng),
               std::invalid_argument);
  EXPECT_THROW(MitigationEngine(2, BankMitigationFactory{}, rng),
               std::invalid_argument);
}

TEST(NoMitigation, DoesNothing) {
  NoMitigation none;
  ActionBuffer out;
  act(none, 5, {}, out);
  none.on_refresh({}, out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(none.state_bits(), 0u);
}

// --------------------------------------------------------------- controller

TEST(Controller, RoutesActivationsToRightBank) {
  Rig rig;
  feed(rig.controller, rec(100, 0, 5));
  feed(rig.controller, rec(200, 1, 7));
  ASSERT_EQ(rig.shared->activates.size(), 2u);
  EXPECT_EQ(rig.shared->activates[0], std::make_pair(dram::BankId{0}, dram::RowId{5}));
  EXPECT_EQ(rig.shared->activates[1], std::make_pair(dram::BankId{1}, dram::RowId{7}));
  EXPECT_EQ(rig.controller.stats().demand_acts, 2u);
  EXPECT_EQ(rig.controller.stats().reads, 2u);
}

TEST(Controller, RejectsOutOfOrderAndOutOfRange) {
  Rig rig;
  feed(rig.controller, rec(1000, 0, 1));
  EXPECT_THROW(feed(rig.controller, rec(500, 0, 1)), std::invalid_argument);
  // The error names the offending bank or row and the configured count.
  const auto message = [&](const trace::AccessRecord& r) {
    try {
      feed(rig.controller, r);
    } catch (const std::out_of_range& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message(rec(2000, 9, 1)), "MemoryController: bank 9 out of range (" +
                                          std::to_string(small_config().geometry.total_banks()) +
                                          " banks)");
  EXPECT_EQ(message(rec(2000, 0, 1 << 20)),
            "MemoryController: row 1048576 out of range (" +
                std::to_string(small_config().geometry.rows_per_bank) + " rows per bank)");
}

TEST(Controller, RefreshTicksPerInterval) {
  Rig rig;
  const std::uint64_t t_refi = small_config().timing.t_refi_ps();
  rig.controller.advance_to(t_refi * 3 + 1);
  // 3 boundaries crossed x 2 banks.
  EXPECT_EQ(rig.shared->refreshes.size(), 6u);
  EXPECT_EQ(rig.controller.stats().refresh_intervals, 3u);
  EXPECT_EQ(rig.controller.global_interval(), 3u);
}

TEST(Controller, EveryRowRefreshedOncePerWindow) {
  ControllerConfig cfg = small_config();
  Rig rig(cfg);
  // Hammer a victim's neighbourhood is not needed: track via disturbance.
  // Disturb every row once, then advance a full window; all counters must
  // be reset by the per-interval refreshes.
  const std::uint64_t t_refi = cfg.timing.t_refi_ps();
  feed(rig.controller, rec(1, 0, 100));  // some disturbance on 99/101
  EXPECT_GT(rig.disturbance.disturbance_q8(0, 99), 0u);
  rig.controller.advance_to(t_refi * cfg.timing.refresh_intervals + 1);
  EXPECT_EQ(rig.disturbance.disturbance_q8(0, 99), 0u);
  // One full window: every row of both banks refreshed exactly once.
  EXPECT_EQ(rig.controller.stats().rows_refreshed,
            static_cast<std::uint64_t>(cfg.geometry.rows_per_bank) * 2);
}

TEST(Controller, ActNeighborsCostsTwoActivations) {
  Rig rig;
  rig.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActNeighbors, 100, 100}};
  feed(rig.controller, rec(10, 0, 100));
  EXPECT_EQ(rig.controller.stats().extra_acts, 2u);
  EXPECT_EQ(rig.controller.stats().triggers, 1u);
  // Neighbours 99 and 101 were physically activated -> their own charge
  // restored, and the hammered row 100 got disturbed by both.
  EXPECT_EQ(rig.disturbance.disturbance_q8(0, 99), 0u);
  EXPECT_EQ(rig.disturbance.disturbance_q8(0, 101), 0u);
}

TEST(Controller, ActRowCostsOneActivation) {
  Rig rig;
  rig.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActRow, 101, 100}};
  feed(rig.controller, rec(10, 0, 100));
  EXPECT_EQ(rig.controller.stats().extra_acts, 1u);
  EXPECT_EQ(rig.disturbance.disturbance_q8(0, 101), 0u);  // restored
}

TEST(Controller, EdgeRowActNeighborsCostsOne) {
  Rig rig;
  rig.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActNeighbors, 0, 0}};
  feed(rig.controller, rec(10, 0, 0));
  EXPECT_EQ(rig.controller.stats().extra_acts, 1u);  // row 0 has one neighbour
}

TEST(Controller, OracleSplitsFalsePositives) {
  Rig rig;
  rig.controller.set_aggressor_oracle(
      [](dram::BankId, dram::RowId suspect) { return suspect == 100; });
  rig.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActNeighbors, 100, 100}};
  feed(rig.controller, rec(10, 0, 100));  // true positive
  EXPECT_EQ(rig.controller.stats().fp_extra_acts, 0u);
  rig.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActNeighbors, 200, 200}};
  feed(rig.controller, rec(20, 0, 200));  // false positive
  EXPECT_EQ(rig.controller.stats().fp_extra_acts, 2u);
  EXPECT_EQ(rig.controller.stats().extra_acts, 4u);
}

TEST(Controller, FirstExtraActRecorded) {
  Rig rig;
  feed(rig.controller, rec(10, 0, 1));
  feed(rig.controller, rec(20, 0, 2));
  EXPECT_EQ(rig.controller.stats().first_extra_act_at, 0u);
  rig.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActRow, 3, 3}};
  feed(rig.controller, rec(30, 0, 3));
  EXPECT_EQ(rig.controller.stats().first_extra_act_at, 3u);
}

TEST(Controller, HotPathIsAllocationFreeInSteadyState) {
  // The engine owns one scratch ActionBuffer per bank that is cleared
  // and reused on every lane dispatch. Emit more actions per ACT than
  // the initial capacity so each buffer has to grow once, then verify
  // the capacities never move again — i.e. the steady state performs no
  // heap allocation per record.
  Rig rig;
  std::vector<MitigationAction> burst;
  for (dram::RowId r = 200; r < 200 + 3 * ActionBuffer::kInitialCapacity; ++r)
    burst.push_back(MitigationAction{MitigationAction::Kind::kActRow, r, r});
  rig.shared->respond_with = burst;

  std::uint64_t t = 100;
  for (int i = 0; i < 16; ++i, t += 100) feed(rig.controller, rec(t, i % 2, 5));
  std::size_t settled[2];
  for (dram::BankId b = 0; b < 2; ++b) {
    settled[b] = rig.engine.bank_scratch(b).capacity();
    EXPECT_GE(settled[b], burst.size());
  }

  for (int i = 0; i < 4096; ++i, t += 100)
    feed(rig.controller, rec(t, i % 2, 5 + (i % 64)));
  for (dram::BankId b = 0; b < 2; ++b) {
    EXPECT_EQ(rig.engine.bank_scratch(b).capacity(), settled[b]);
    EXPECT_EQ(rig.engine.bank_scratch(b).size(), burst.size());  // last lane
  }
}

TEST(Controller, BatchedRecordsMatchRecordAtATime) {
  // on_records groups each refresh segment by bank before dispatching,
  // so a technique sees its own bank's ACTs in exact arrival order but
  // (unlike batches of one) not interleaved with other banks' ACTs.
  // That is the batched-path contract: per-bank observation sequences
  // and all aggregate statistics are identical to record-at-a-time
  // delivery; cross-bank interleaving is unobservable to a (per-bank)
  // technique and is not preserved.
  std::vector<trace::AccessRecord> records;
  std::uint64_t t = 100;
  for (int i = 0; i < 1000; ++i, t += 150)
    records.push_back(rec(t, i % 2, 10 + (i % 100), i % 7 == 0));

  Rig one, batched;
  one.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActNeighbors, 100, 100}};
  batched.shared->respond_with = one.shared->respond_with;
  for (const auto& r : records) feed(one.controller, r);
  for (std::size_t i = 0; i < records.size(); i += 33)
    batched.controller.on_records(records.data() + i,
                                  std::min<std::size_t>(33, records.size() - i));

  auto bank_sequence = [](const Probe::Shared& shared, dram::BankId bank) {
    std::vector<dram::RowId> rows;
    for (const auto& [b, row] : shared.activates)
      if (b == bank) rows.push_back(row);
    return rows;
  };
  ASSERT_EQ(one.shared->activates.size(), batched.shared->activates.size());
  for (dram::BankId b = 0; b < 2; ++b)
    EXPECT_EQ(bank_sequence(*one.shared, b), bank_sequence(*batched.shared, b));
  EXPECT_EQ(one.controller.stats().demand_acts,
            batched.controller.stats().demand_acts);
  EXPECT_EQ(one.controller.stats().extra_acts,
            batched.controller.stats().extra_acts);
  EXPECT_EQ(one.controller.stats().reads, batched.controller.stats().reads);
  EXPECT_EQ(one.controller.stats().writes, batched.controller.stats().writes);
  EXPECT_EQ(one.controller.stats().delayed_acts,
            batched.controller.stats().delayed_acts);
}

TEST(Controller, StageTimersRunOnlyWhenProfiling) {
  // kernel_ns times on_activates inside the mitigation stage, so with
  // one shard worker it never exceeds mitigation_ns; with profile off
  // no timer moves (the act counters always do).
  std::vector<trace::AccessRecord> records;
  std::uint64_t t = 100;
  for (int i = 0; i < 4000; ++i, t += 150)
    records.push_back(rec(t, i % 2, 10 + (i % 100)));
  for (const bool profile : {false, true}) {
    ControllerConfig cfg = small_config();
    cfg.bank_jobs = 1;
    cfg.profile = profile;
    Rig rig(cfg);
    rig.shared->respond_with = {MitigationAction{
        MitigationAction::Kind::kActNeighbors, 100, 100}};
    rig.controller.on_records(records.data(), records.size());
    const StageProfile& stages = rig.controller.stage_profile();
    EXPECT_EQ(stages.scattered_acts, records.size());
    if (!profile) {
      EXPECT_EQ(stages.partition_ns, 0u);
      EXPECT_EQ(stages.mitigation_ns, 0u);
      EXPECT_EQ(stages.kernel_ns, 0u);
      EXPECT_EQ(stages.disturbance_ns, 0u);
      continue;
    }
    EXPECT_GT(stages.mitigation_ns, 0u);
    EXPECT_LE(stages.kernel_ns, stages.mitigation_ns);
  }
}

TEST(Controller, TrcStallsBackToBackActs) {
  Rig rig;
  feed(rig.controller, rec(10, 0, 1));
  feed(rig.controller, rec(20, 0, 2));  // 10 ps later: inside tRC
  EXPECT_EQ(rig.controller.stats().delayed_acts, 1u);
  // A different bank is not stalled.
  feed(rig.controller, rec(30, 1, 2));
  EXPECT_EQ(rig.controller.stats().delayed_acts, 1u);
}

TEST(Controller, RefTimeActionsChargeTrcAfterTrfc) {
  // A REF-time act_n issues its two activations once tRFC has passed,
  // so a demand ACT one tRC after tRFC still waits for the second.
  Probe::Shared shared;
  MitigationAction action;
  action.row = 100;
  action.suspect = 100;
  shared.respond_on_refresh = {action};
  Rig rig(small_config(), &shared);
  const dram::Timing& timing = small_config().timing;
  feed(rig.controller,
       rec(timing.t_refi_ps() + timing.t_rfc_ps + timing.t_rc_ps, 0, 7));
  EXPECT_EQ(rig.controller.stats().extra_acts, 4u);  // 2 banks x 2 rows
  EXPECT_EQ(rig.controller.stats().delayed_acts, 1u);
  // At REF time the first trigger counts the demand ACTs so far, at least 1.
  EXPECT_EQ(rig.controller.stats().first_extra_act_at, 1u);
}

TEST(Controller, WritesAndReadsCounted) {
  Rig rig;
  feed(rig.controller, rec(10, 0, 1, true));
  feed(rig.controller, rec(20, 0, 2, false));
  EXPECT_EQ(rig.controller.stats().writes, 1u);
  EXPECT_EQ(rig.controller.stats().reads, 1u);
}

TEST(Controller, ActsPerIntervalStat) {
  Rig rig;
  const std::uint64_t t_refi = small_config().timing.t_refi_ps();
  for (int i = 0; i < 10; ++i)
    feed(rig.controller, rec(10 + i * 100, 0, 1 + i));
  rig.controller.advance_to(t_refi + 1);
  const auto& stat = rig.controller.stats().acts_per_interval;
  EXPECT_EQ(stat.count(), 2u);       // one interval x two banks
  EXPECT_DOUBLE_EQ(stat.max(), 10);  // all on bank 0
  EXPECT_DOUBLE_EQ(stat.min(), 0);
}

TEST(Controller, WindowStartFlagOnWrap) {
  ControllerConfig cfg = small_config();
  Probe::Shared shared;
  Rig rig(cfg, &shared);
  const std::uint64_t t_refi = cfg.timing.t_refi_ps();
  rig.controller.advance_to(t_refi * (cfg.timing.refresh_intervals + 2));
  // interval_in_window of refresh #refresh_intervals is 0 (window wrap).
  bool saw_wrap = false;
  for (const auto& [bank, interval] : shared.refreshes)
    if (interval == 0) saw_wrap = true;
  EXPECT_TRUE(saw_wrap);
}

TEST(Controller, MismatchedShapesThrow) {
  ControllerConfig cfg = small_config();
  util::Rng rng(1);
  Probe::Shared shared;
  MitigationEngine wrong_banks(1, probe_factory(&shared), rng);
  dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                     cfg.geometry.rows_per_bank);
  EXPECT_THROW(MemoryController(cfg, wrong_banks, disturbance, rng),
               std::invalid_argument);
  MitigationEngine engine(cfg.geometry.total_banks(), probe_factory(&shared), rng);
  dram::DisturbanceModel wrong_shape(cfg.geometry.total_banks(), 64);
  EXPECT_THROW(MemoryController(cfg, engine, wrong_shape, rng),
               std::invalid_argument);
}

TEST(Controller, RemappedRowsStillProtected) {
  ControllerConfig cfg = small_config();
  cfg.remap_rows = true;
  cfg.remap_swaps = 64;
  Rig rig(cfg);
  // act_n on a remapped row restores the *physical* neighbours.
  rig.shared->respond_with = {MitigationAction{
      MitigationAction::Kind::kActNeighbors, 100, 100}};
  feed(rig.controller, rec(10, 0, 100));
  const dram::RowId phys = rig.controller.remapper().to_physical(100);
  if (phys > 0) EXPECT_EQ(rig.disturbance.disturbance_q8(0, phys - 1), 0u);
  if (phys + 1 < cfg.geometry.rows_per_bank)
    EXPECT_EQ(rig.disturbance.disturbance_q8(0, phys + 1), 0u);
}

// ------------------------------------------------- independent walk oracle

TEST(Controller, WalkMatchesNaiveOracleAtEveryBatchSize) {
  const test::HammerScenario scenario;
  const ControllerConfig& cfg = scenario.cfg;
  const auto& records = scenario.records;

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    util::Rng engine_rng(5);
    MitigationEngine engine(
        cfg.geometry.total_banks(),
        test::scripted_factory(cfg.geometry.rows_per_bank), engine_rng);
    dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                       cfg.geometry.rows_per_bank,
                                       scenario.params);
    util::Rng controller_rng(6);
    MemoryController controller(cfg, engine, disturbance, controller_rng);
    controller.set_aggressor_oracle(test::HammerScenario::aggressor);
    test::NaiveSystem naive(cfg, disturbance, {},
                            test::HammerScenario::aggressor);

    for (std::size_t i = 0; i < records.size(); i += batch)
      controller.on_records(records.data() + i,
                            std::min(batch, records.size() - i));
    controller.advance_to(scenario.end_ps);
    for (const auto& r : records) naive.feed(r);
    naive.advance_to(scenario.end_ps);

    ASSERT_GT(naive.flips().size(), 20u);  // the scenario does flip
    ASSERT_EQ(disturbance.flips().size(), naive.flips().size());
    for (std::size_t i = 0; i < naive.flips().size(); ++i) {
      const dram::FlipEvent& got = disturbance.flips()[i];
      const dram::FlipEvent& want = naive.flips()[i];
      ASSERT_EQ(got.bank, want.bank) << "flip " << i;
      ASSERT_EQ(got.row, want.row) << "flip " << i;
      ASSERT_EQ(got.at_activation, want.at_activation) << "flip " << i;
      ASSERT_EQ(got.interval, want.interval) << "flip " << i;
    }
    EXPECT_EQ(disturbance.peak_disturbance_q8(), naive.peak_q8());
    EXPECT_EQ(disturbance.activations(), naive.activations());
    const ControllerStats stats = controller.stats();
    EXPECT_EQ(stats.demand_acts, records.size());
    EXPECT_GT(stats.extra_acts, 0u);
    EXPECT_GT(stats.delayed_acts, 0u);
    EXPECT_EQ(stats.delayed_acts, naive.delayed_acts());
    EXPECT_EQ(stats.triggers, naive.triggers());
    EXPECT_EQ(stats.extra_acts, naive.extra_acts());
    EXPECT_EQ(stats.fp_extra_acts, naive.fp_extra_acts());
    EXPECT_EQ(stats.extra_acts_by_phase, naive.extra_acts_by_phase());
    EXPECT_EQ(stats.first_extra_act_at, naive.first_extra_act_at());
    for (dram::BankId b = 0; b < cfg.geometry.total_banks(); ++b)
      for (dram::RowId r = 0; r < cfg.geometry.rows_per_bank; ++r)
        ASSERT_EQ(disturbance.disturbance_q8(b, r), naive.count_q8(b, r))
            << "bank " << b << " row " << r;
  }
}

}  // namespace
}  // namespace tvp::mem
