// Unit tests for tvp::exp — the registry, runner, reporting helpers,
// and the security analysis (flood + verdict).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "tvp/dram/disturbance.hpp"
#include "tvp/exp/config_io.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/registry.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/exp/verdict.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mitigation/graphene.hpp"
#include "tvp/trace/source.hpp"

namespace tvp::exp {
namespace {

SimConfig fast_config() {
  SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 10.0;
  cfg.finalize();
  return cfg;
}

// ----------------------------------------------------------------- registry

TEST(Registry, CreatesAllNineTechniques) {
  const TechniqueConfig cfg;
  util::Rng rng(1);
  for (const auto t : hw::kAllTechniques) {
    const auto factory = make_factory(t, cfg);
    ASSERT_TRUE(factory != nullptr);
    const auto instance = factory(0, rng.fork());
    ASSERT_TRUE(instance != nullptr);
    EXPECT_EQ(std::string_view(instance->name()), hw::to_string(t));
    EXPECT_GE(instance->state_bits(), 0u);
  }
}

TEST(Registry, CounterThresholdIsQuarterOfFlipThreshold) {
  TechniqueConfig cfg;
  EXPECT_EQ(cfg.counter_threshold(), 34750u);
  cfg.flip_threshold = 100'000;
  EXPECT_EQ(cfg.counter_threshold(), 25'000u);
}

// ------------------------------------------------------------------- runner

TEST(Runner, DeterministicForSameSeed) {
  const SimConfig cfg = fast_config();
  const RunResult a = run_simulation(hw::Technique::kLoLiPRoMi, cfg);
  const RunResult b = run_simulation(hw::Technique::kLoLiPRoMi, cfg);
  EXPECT_EQ(a.stats.demand_acts, b.stats.demand_acts);
  EXPECT_EQ(a.stats.extra_acts, b.stats.extra_acts);
  EXPECT_EQ(a.stats.fp_extra_acts, b.stats.fp_extra_acts);
  EXPECT_EQ(a.flips, b.flips);
  EXPECT_EQ(a.records, b.records);
}

/// Everything the batch-equivalence contract pins: the controller
/// counters plus the disturbance model's ground truth.
struct FeedOutcome {
  mem::ControllerStats stats;
  std::vector<dram::FlipEvent> flips;
  std::uint64_t activations = 0;
  std::uint64_t peak_q8 = 0;
};

/// Feeds @p records, the drained workload of @p cfg, into a fresh rig
/// in chunks of @p batch, with the workload's aggressor oracle wired
/// for FPR accounting.
FeedOutcome feed_outcome(const SimConfig& cfg,
                         const mem::BankMitigationFactory& factory,
                         std::size_t batch, std::size_t bank_jobs,
                         const std::vector<trace::AccessRecord>& records) {
  mem::ControllerConfig controller_cfg = controller_config(cfg);
  controller_cfg.bank_jobs = bank_jobs;
  Simulation sim(factory, cfg, controller_cfg);
  sim.workload();  // installs the oracle; the records are fed below
  for (std::size_t i = 0; i < records.size(); i += batch)
    sim.feed(records.data() + i, std::min(batch, records.size() - i));
  sim.advance();
  FeedOutcome out;
  out.stats = sim.controller().stats();
  out.flips = sim.disturbance().flips();
  out.activations = sim.disturbance().activations();
  out.peak_q8 = sim.disturbance().peak_disturbance_q8();
  return out;
}

TEST(Runner, BatchedDeliveryIsBitIdenticalToRecordAtATime) {
  // The batched pull path must produce the same record sequence and the
  // same RNG draw order as record-at-a-time delivery — identical stats
  // and identical flip history, for any batch size.
  SimConfig cfg = fast_config();
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();
  Streams streams(cfg.seed);
  const auto records = trace::drain(*build_workload(cfg, streams.workload));
  ASSERT_FALSE(records.empty());

  const auto factory = make_factory(hw::Technique::kLoLiPRoMi, cfg.technique);
  const FeedOutcome one = feed_outcome(cfg, factory, 1, 1, records);
  for (const std::size_t batch : {7ul, 256ul, records.size()}) {
    const FeedOutcome batched = feed_outcome(cfg, factory, batch, 1, records);
    EXPECT_EQ(one.stats.demand_acts, batched.stats.demand_acts) << "batch " << batch;
    EXPECT_EQ(one.stats.extra_acts, batched.stats.extra_acts) << "batch " << batch;
    EXPECT_EQ(one.stats.fp_extra_acts, batched.stats.fp_extra_acts)
        << "batch " << batch;
    EXPECT_EQ(one.stats.triggers, batched.stats.triggers) << "batch " << batch;
    EXPECT_EQ(one.stats.reads, batched.stats.reads) << "batch " << batch;
    EXPECT_EQ(one.flips.size(), batched.flips.size()) << "batch " << batch;
  }
}

TEST(Runner, EveryTechniqueBatchAndShardingAreBitIdentical) {
  // The full batch-equivalence contract: for every technique (the
  // unprotected baseline, the paper's nine, and Graphene), delivery via
  // on_records — at any batch size, serial or per-bank sharded — must be
  // bit-identical to record-at-a-time delivery (batch 1): every counter
  // (including the FPR / ground-truth accounting driven by the
  // aggressor oracle), the phase histogram, first_extra_act_at, and the
  // exact flip-event history.
  // A deliberately tiny system — 99 full simulations run below. The
  // refresh interval length (tREFI) matches DDR4 so per-interval ACT
  // budgets and *PRoMi weight schedules keep their real shape; thresholds
  // are scaled down so deterministic techniques trigger and real flips
  // land within the short run.
  SimConfig cfg;
  cfg.geometry.banks_per_rank = 4;
  cfg.geometry.rows_per_bank = 16384;
  cfg.timing.t_refw_ps = 2'000'000'000;  // 2 ms window
  cfg.timing.refresh_intervals = 256;    // keeps tREFI at ~7.8 us
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  cfg.technique.flip_threshold = 4000;   // counter_threshold() == 1000
  cfg.disturbance.flip_threshold = 3000;
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  attack.interarrival_ps = 180'000;  // 4 * tRC: ~11 K attack ACTs
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();

  std::unordered_set<std::uint64_t> aggressors;
  Streams streams(cfg.seed);
  const auto records =
      trace::drain(*build_workload(cfg, streams.workload, &aggressors));
  ASSERT_FALSE(records.empty());
  ASSERT_FALSE(aggressors.empty());

  std::vector<std::pair<std::string, mem::BankMitigationFactory>> variants;
  variants.emplace_back("none", [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  });
  for (const auto t : hw::kAllTechniques)
    variants.emplace_back(std::string(hw::to_string(t)),
                          make_factory(t, cfg.technique));
  mitigation::GrapheneConfig graphene_cfg;
  graphene_cfg.rows_per_bank = cfg.geometry.rows_per_bank;
  graphene_cfg.row_threshold = cfg.technique.counter_threshold();
  variants.emplace_back("Graphene",
                        mitigation::make_graphene_factory(graphene_cfg));

  const auto expect_same = [](const mem::ControllerStats& base,
                              const std::vector<dram::FlipEvent>& base_flips,
                              const mem::ControllerStats& got,
                              const std::vector<dram::FlipEvent>& got_flips,
                              const std::string& label) {
    EXPECT_EQ(base.demand_acts, got.demand_acts) << label;
    EXPECT_EQ(base.extra_acts, got.extra_acts) << label;
    EXPECT_EQ(base.fp_extra_acts, got.fp_extra_acts) << label;
    EXPECT_EQ(base.triggers, got.triggers) << label;
    EXPECT_EQ(base.reads, got.reads) << label;
    EXPECT_EQ(base.writes, got.writes) << label;
    EXPECT_EQ(base.delayed_acts, got.delayed_acts) << label;
    EXPECT_EQ(base.refresh_intervals, got.refresh_intervals) << label;
    EXPECT_EQ(base.first_extra_act_at, got.first_extra_act_at) << label;
    EXPECT_EQ(base.extra_acts_by_phase, got.extra_acts_by_phase) << label;
    ASSERT_EQ(base_flips.size(), got_flips.size()) << label;
    for (std::size_t f = 0; f < base_flips.size(); ++f) {
      EXPECT_EQ(base_flips[f].bank, got_flips[f].bank) << label;
      EXPECT_EQ(base_flips[f].row, got_flips[f].row) << label;
      EXPECT_EQ(base_flips[f].at_activation, got_flips[f].at_activation)
          << label;
      EXPECT_EQ(base_flips[f].interval, got_flips[f].interval) << label;
    }
  };

  for (const auto& [name, factory] : variants) {
    const FeedOutcome base = feed_outcome(cfg, factory, 1, 1, records);
    for (const std::size_t batch : {1ul, 7ul, 256ul, 4096ul}) {
      for (const std::size_t jobs : {1ul, 8ul}) {
        const FeedOutcome got =
            feed_outcome(cfg, factory, batch, jobs, records);
        const std::string label =
            name + " batch " + std::to_string(batch) + " jobs " +
            std::to_string(jobs);
        expect_same(base.stats, base.flips, got.stats, got.flips, label);
        EXPECT_EQ(base.activations, got.activations) << label;
        EXPECT_EQ(base.peak_q8, got.peak_q8) << label;
      }
    }
    // The runner's own feed: the workload's spans, or its 4096-record
    // batches when it lends none.
    const RunResult run = run_custom_simulation(factory, name, cfg);
    const std::string label = name + " run_custom_simulation";
    EXPECT_EQ(records.size(), run.records) << label;
    expect_same(base.stats, base.flips, run.stats, run.flip_events, label);
    EXPECT_EQ(base.peak_q8 >> 8, run.peak_disturbance) << label;
  }
}

TEST(Runner, StreamAssignmentIsPinned) {
  // Exact counts of a small attacked run, taken before the rig owned
  // the fork order. The workload stream sets the demand, the engine
  // stream PARA's coins and LoLiPRoMi's draws, and the controller
  // stream the random refresh order, which decides when an unmitigated
  // victim flips. A reordered fork, or a stream handed to the wrong
  // consumer, moves them.
  SimConfig cfg = fast_config();
  cfg.refresh_policy = dram::RefreshPolicy::kRandom;
  cfg.remap_rows = true;
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();

  struct Pin {
    hw::Technique technique;
    std::uint64_t extra_acts, triggers, fp_extra_acts, peak_disturbance;
  };
  for (const Pin& pin : {Pin{hw::Technique::kPara, 1660, 1660, 169, 13528},
                         Pin{hw::Technique::kLoLiPRoMi, 218, 109, 88, 57452}}) {
    const RunResult r = run_simulation(pin.technique, cfg);
    EXPECT_EQ(r.stats.demand_acts, 1'585'013u) << r.technique;
    EXPECT_EQ(r.stats.extra_acts, pin.extra_acts) << r.technique;
    EXPECT_EQ(r.stats.triggers, pin.triggers) << r.technique;
    EXPECT_EQ(r.stats.fp_extra_acts, pin.fp_extra_acts) << r.technique;
    EXPECT_EQ(r.peak_disturbance, pin.peak_disturbance) << r.technique;
  }
  const RunResult none = run_custom_simulation(
      [](dram::BankId, util::Rng) { return std::make_unique<mem::NoMitigation>(); },
      "none", cfg);
  EXPECT_EQ(none.peak_disturbance, 669'272u);
  EXPECT_EQ(none.victim_flips, 2u);
  ASSERT_EQ(none.flip_events.size(), 6u);
  EXPECT_EQ(none.flip_events.front().at_activation, 309'604u);
  EXPECT_EQ(none.flip_events.back().at_activation, 1'197'430u);
}

TEST(Runner, SeedChangesTheRun) {
  SimConfig cfg = fast_config();
  const RunResult a = run_simulation(hw::Technique::kPara, cfg);
  cfg.seed = 999;
  const RunResult b = run_simulation(hw::Technique::kPara, cfg);
  EXPECT_NE(a.stats.demand_acts, b.stats.demand_acts);
}

TEST(Runner, BenignRateLandsNearTarget) {
  SimConfig cfg = fast_config();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  // 10 acts/interval/bank x 8192 intervals x 2 banks, +/- 10%.
  const double expected = 10.0 * 8192 * 2;
  EXPECT_NEAR(static_cast<double>(r.stats.demand_acts), expected,
              expected * 0.1);
}

TEST(Runner, UnprotectedAttackFlipsVictim) {
  SimConfig cfg = fast_config();
  cfg.windows = 2;
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  cfg.technique.para_p = 0.0;  // no mitigation
  util::Rng rng(3);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  EXPECT_GT(r.flips, 0u);
  EXPECT_GT(r.victim_flips, 0u);
}

TEST(Runner, EveryTechniqueStopsTheAttack) {
  SimConfig cfg = fast_config();
  cfg.windows = 2;
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  util::Rng rng(3);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  for (const auto t : hw::kAllTechniques) {
    const RunResult r = run_simulation(t, cfg);
    EXPECT_EQ(r.flips, 0u) << r.technique;
  }
}

TEST(Runner, OracleMakesAttackTriggersTruePositives) {
  SimConfig cfg = fast_config();
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  util::Rng rng(5);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  const RunResult r = run_simulation(hw::Technique::kLoPRoMi, cfg);
  EXPECT_GT(r.stats.extra_acts, 0u);
  // Attack-only traffic: every trigger suspects a true aggressor.
  EXPECT_EQ(r.stats.fp_extra_acts, 0u);
  EXPECT_DOUBLE_EQ(r.fpr_pct(), 0.0);
}

TEST(Runner, StateBytesReported) {
  const SimConfig cfg = fast_config();
  EXPECT_DOUBLE_EQ(run_simulation(hw::Technique::kLiPRoMi, cfg).state_bytes_per_bank,
                   120.0);
  EXPECT_NEAR(run_simulation(hw::Technique::kCaPRoMi, cfg).state_bytes_per_bank,
              376.0, 1.0);
}

TEST(Runner, SeedSweepAggregates) {
  SimConfig cfg = fast_config();
  const SeedSweepResult sweep = run_seed_sweep(hw::Technique::kPara, cfg, 3);
  EXPECT_EQ(sweep.overhead_pct.count(), 3u);
  EXPECT_GT(sweep.overhead_pct.mean(), 0.0);
  EXPECT_EQ(sweep.technique, "PARA");
  EXPECT_THROW(run_seed_sweep(hw::Technique::kPara, cfg, 0),
               std::invalid_argument);
}

TEST(Runner, SeedSweepSumsActivationsAndKeepsThePeakDisturbance) {
  SimConfig cfg = fast_config();
  cfg.seed = 11;
  const SeedSweepResult sweep = run_seed_sweep(hw::Technique::kPara, cfg, 3);
  std::uint64_t demand = 0, extra = 0, victim_flips = 0, peak = 0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    SimConfig one = cfg;
    one.seed = cfg.seed + s;
    const RunResult run = run_simulation(hw::Technique::kPara, one);
    demand += run.stats.demand_acts;
    extra += run.stats.extra_acts;
    victim_flips += run.victim_flips;
    peak = std::max(peak, run.peak_disturbance);
  }
  EXPECT_EQ(sweep.total_demand_acts, demand);
  EXPECT_EQ(sweep.total_extra_acts, extra);
  EXPECT_EQ(sweep.total_victim_flips, victim_flips);
  EXPECT_EQ(sweep.peak_disturbance, peak);
  EXPECT_GT(demand, 0u);
  EXPECT_GT(peak, 0u);
}

TEST(Runner, SeedSweepRespectsBaseSeed) {
  // Regression: the sweep used to hardcode seeds 1000+s, ignoring
  // config.seed entirely. Seed s of the sweep must now run at
  // config.seed + s.
  SimConfig cfg = fast_config();
  cfg.seed = 42;
  const RunResult direct = run_simulation(hw::Technique::kPara, cfg);
  const SeedSweepResult one = run_seed_sweep(hw::Technique::kPara, cfg, 1);
  EXPECT_EQ(one.overhead_pct.count(), 1u);
  EXPECT_DOUBLE_EQ(one.overhead_pct.mean(), direct.overhead_pct());
  EXPECT_EQ(one.total_flips, direct.flips);

  SimConfig other = cfg;
  other.seed = 4242;
  const SeedSweepResult a = run_seed_sweep(hw::Technique::kPara, cfg, 2);
  const SeedSweepResult b = run_seed_sweep(hw::Technique::kPara, other, 2);
  EXPECT_NE(a.overhead_pct.mean(), b.overhead_pct.mean());
}

TEST(Runner, ParallelSweepMatchesSequential) {
  // The parallel grid must be bit-identical to the sequential run:
  // results land in per-seed slots and are reduced in seed order, so
  // the float-op sequence is the same for every TVP_JOBS value.
  SimConfig cfg = fast_config();
  cfg.seed = 7;
  ASSERT_EQ(setenv("TVP_JOBS", "1", 1), 0);
  const SeedSweepResult seq = run_seed_sweep(hw::Technique::kLoLiPRoMi, cfg, 4);
  ASSERT_EQ(setenv("TVP_JOBS", "4", 1), 0);
  const SeedSweepResult par = run_seed_sweep(hw::Technique::kLoLiPRoMi, cfg, 4);
  unsetenv("TVP_JOBS");

  EXPECT_EQ(par.jobs, 4u);
  EXPECT_EQ(seq.jobs, 1u);
  EXPECT_EQ(par.overhead_pct.count(), seq.overhead_pct.count());
  EXPECT_EQ(par.overhead_pct.mean(), seq.overhead_pct.mean());
  EXPECT_EQ(par.overhead_pct.stddev(), seq.overhead_pct.stddev());
  EXPECT_EQ(par.overhead_pct.min(), seq.overhead_pct.min());
  EXPECT_EQ(par.overhead_pct.max(), seq.overhead_pct.max());
  EXPECT_EQ(par.fpr_pct.count(), seq.fpr_pct.count());
  EXPECT_EQ(par.fpr_pct.mean(), seq.fpr_pct.mean());
  EXPECT_EQ(par.fpr_pct.stddev(), seq.fpr_pct.stddev());
  EXPECT_EQ(par.total_flips, seq.total_flips);
  EXPECT_EQ(par.total_victim_flips, seq.total_victim_flips);
  EXPECT_EQ(par.state_bytes_per_bank, seq.state_bytes_per_bank);
}

TEST(Sweep, ParallelParamSweepMatchesSequential) {
  const auto file = util::KeyValueFile::parse(to_config_text(fast_config()));
  const std::vector<std::string> values = {"16", "32"};
  const std::vector<hw::Technique> techs = {hw::Technique::kPara,
                                            hw::Technique::kLoLiPRoMi};
  ASSERT_EQ(setenv("TVP_JOBS", "1", 1), 0);
  const SweepResult seq =
      run_param_sweep(file, "technique.history_entries", values, techs);
  ASSERT_EQ(setenv("TVP_JOBS", "3", 1), 0);
  const SweepResult par =
      run_param_sweep(file, "technique.history_entries", values, techs);
  unsetenv("TVP_JOBS");

  ASSERT_EQ(par.cells.size(), seq.cells.size());
  for (std::size_t i = 0; i < seq.cells.size(); ++i) {
    EXPECT_EQ(par.cells[i].value, seq.cells[i].value);
    EXPECT_EQ(par.cells[i].result.stats.demand_acts,
              seq.cells[i].result.stats.demand_acts);
    EXPECT_EQ(par.cells[i].result.stats.extra_acts,
              seq.cells[i].result.stats.extra_acts);
    EXPECT_EQ(par.cells[i].result.flips, seq.cells[i].result.flips);
    EXPECT_EQ(par.cells[i].result.overhead_pct(),
              seq.cells[i].result.overhead_pct());
  }
}

TEST(Runner, BuildWorkloadCollectsAggressors) {
  SimConfig cfg = fast_config();
  util::Rng attack_rng(7);
  auto attack = trace::make_multi_aggressor_attack(
      1, cfg.geometry.rows_per_bank, 2, attack_rng);
  cfg.workload.attacks = {attack};
  cfg.finalize();
  util::Rng rng(9);
  std::unordered_set<std::uint64_t> aggressors;
  auto source = build_workload(cfg, rng, &aggressors);
  EXPECT_EQ(aggressors.size(), 4u);  // 2 victims x 2 neighbours
  EXPECT_TRUE(source->next().has_value());
}

TEST(Runner, CacheFrontendModeRuns) {
  SimConfig cfg = fast_config();
  cfg.workload.model = BenignModel::kCacheFrontend;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  cfg.finalize();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  EXPECT_GT(r.stats.demand_acts, 0u);
}

TEST(Runner, ConfigValidation) {
  SimConfig cfg = fast_config();
  cfg.windows = 0;
  EXPECT_THROW(cfg.finalize(), std::invalid_argument);
  cfg = fast_config();
  trace::AttackConfig bad;
  bad.victims = {1};
  bad.rows_per_bank = cfg.geometry.rows_per_bank;
  bad.bank = 99;
  cfg.workload.attacks = {bad};
  EXPECT_THROW(cfg.finalize(), std::invalid_argument);
}

TEST(Runner, ApplyScale) {
  SimConfig cfg;
  apply_scale(cfg, true);
  EXPECT_EQ(cfg.geometry.total_banks(), 16u);
  EXPECT_EQ(cfg.windows, 6u);
  apply_scale(cfg, false);
  EXPECT_EQ(cfg.geometry.total_banks(), 4u);
  EXPECT_EQ(cfg.windows, 2u);
}

// ------------------------------------------------------------------ config

TEST(ConfigIo, AppliesEveryKeyClass) {
  const auto file = util::KeyValueFile::parse(
      "geometry.banks = 2\n"
      "geometry.rows_per_bank = 65536\n"
      "timing.preset = ddr5\n"
      "windows = 3\n"
      "seed = 99\n"
      "refresh.policy = random\n"
      "act_n.radius = 2\n"
      "disturbance.flip_threshold = 50000\n"
      "workload.benign_rate = 7.5\n"
      "workload.model = uniform\n"
      "technique.pbase_exp = 22\n"
      "technique.history_entries = 16\n"
      "attack.count = 1\n"
      "attack.0.pattern = flood\n"
      "attack.0.bank = 1\n"
      "attack.0.victims = 4096\n"
      "attack.0.rate = 100\n");
  SimConfig config;
  apply_config(config, file);
  EXPECT_EQ(config.geometry.total_banks(), 2u);
  EXPECT_EQ(config.geometry.rows_per_bank, 65536u);
  EXPECT_EQ(config.timing.clock_hz, 2'400'000'000u);
  EXPECT_EQ(config.windows, 3u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.refresh_policy, dram::RefreshPolicy::kRandom);
  EXPECT_EQ(config.act_n_radius, 2u);
  EXPECT_EQ(config.disturbance.flip_threshold, 50000u);
  EXPECT_EQ(config.technique.flip_threshold, 50000u);
  EXPECT_EQ(config.workload.model, BenignModel::kUniformRandom);
  EXPECT_EQ(config.technique.pbase_exp, 22u);
  EXPECT_EQ(config.technique.params.history_entries, 16u);
  ASSERT_EQ(config.workload.attacks.size(), 1u);
  EXPECT_EQ(config.workload.attacks[0].pattern, trace::AttackPattern::kFlood);
  EXPECT_EQ(config.workload.attacks[0].bank, 1u);
  EXPECT_EQ(config.workload.attacks[0].victims,
            std::vector<dram::RowId>{4096});
  EXPECT_EQ(config.workload.attacks[0].interarrival_ps,
            config.timing.t_refi_ps() / 100);
}

TEST(ConfigIo, CapromiCooldownReachesTheTechnique) {
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(
                           "technique.capromi_cooldown = 128\n"));
  EXPECT_EQ(config.technique.capromi_cooldown, 128u);
  // And the registry forwards it into the CaPRoMi instance (observable
  // through behaviour: the suppressed counter activates under hammering).
  const auto factory = make_factory(hw::Technique::kCaPRoMi, config.technique);
  auto instance = factory(0, util::Rng(1));
  EXPECT_STREQ(instance->name(), "CaPRoMi");
}

TEST(ConfigIo, RandomVictimsAndUnknownKeys) {
  SimConfig config;
  apply_config(config, util::KeyValueFile::parse(
                           "attack.count = 1\nattack.0.victims = ~5\n"));
  ASSERT_EQ(config.workload.attacks.size(), 1u);
  EXPECT_EQ(config.workload.attacks[0].victims.size(), 5u);

  EXPECT_THROW(apply_config(config, util::KeyValueFile::parse("typo.key = 1\n")),
               std::invalid_argument);
  EXPECT_THROW(
      apply_config(config, util::KeyValueFile::parse("timing.preset = ddr9\n")),
      std::invalid_argument);
  EXPECT_THROW(apply_config(config, util::KeyValueFile::parse(
                                        "attack.count = 1\n"
                                        "attack.0.rate = 0\n")),
               std::invalid_argument);
}

TEST(ConfigIo, SampleConfigsLoadAndRun) {
  for (const char* name : {"paper_campaign.cfg", "modern_dram.cfg",
                           "half_double.cfg"}) {
    const std::string path = std::string(TVP_SOURCE_DIR) + "/configs/" + name;
    SimConfig config = load_sim_config(path);
    config.windows = 1;  // keep the smoke test fast
    config.finalize();
    const auto r = run_simulation(hw::Technique::kLoLiPRoMi, config);
    EXPECT_GT(r.stats.demand_acts, 0u) << path;
    EXPECT_EQ(r.flips, 0u) << path;
  }
}

TEST(ConfigIo, RoundTripPreservesTheExperiment) {
  // Every key set away from its default: the reloaded config must equal
  // the original in every field a key addresses, and run identically.
  SimConfig original;
  original.geometry.banks_per_rank = 2;
  original.geometry.rows_per_bank = 65536;
  original.timing = dram::ddr5_timing();
  original.windows = 1;
  original.seed = 77;
  original.refresh_policy = dram::RefreshPolicy::kRandom;
  original.remap_rows = true;
  original.remap_swaps = 8;
  original.act_n_radius = 2;
  original.disturbance.flip_threshold = 100'000;
  original.disturbance.blast_radius = 2;
  original.disturbance.distance2_weight_q8 = 48;
  original.disturbance.variation_pct = 10;
  original.technique.flip_threshold = original.disturbance.flip_threshold;
  original.workload.benign_acts_per_interval_per_bank = 33.3333333;
  original.workload.model = BenignModel::kFuzz;
  original.workload.trace_path = "unused.tvpc";
  FuzzSpec& fuzz = original.workload.fuzz;
  fuzz.seed = 5;
  fuzz.patterns = 2;
  fuzz.acts_per_interval = 40.1;
  fuzz.params.pairs_min = 3;
  fuzz.params.pairs_max = 5;
  fuzz.params.period_exp_min = 6;
  fuzz.params.period_exp_max = 7;
  fuzz.params.amplitude_max = 3;
  fuzz.params.decoys_max = 3;
  fuzz.params.half_double = true;
  original.technique.pbase_exp = 22;
  original.technique.params.history_entries = 48;
  original.technique.params.counter_entries = 96;
  original.technique.params.twice_entries = 300;
  original.technique.para_p = 0.002;
  original.technique.mrloc_p_min = 4e-4;
  original.technique.mrloc_p_max = 2e-3;
  original.technique.capromi_cooldown = 64;
  install_standard_campaign(original);  // one attack on bank 0
  ASSERT_EQ(original.workload.attacks.size(), 1u);
  original.workload.attacks[0].pattern = trace::AttackPattern::kManySided;
  original.workload.attacks[0].sides = 6;
  // Both values truncate one low when read back from the plain ratios
  // t_refi / interarrival and start / t_refw.
  original.workload.attacks[0].interarrival_ps = 180'030;
  original.workload.attacks[0].start_ps = 8'325'485'393;
  trace::AttackConfig half_double;
  half_double.pattern = trace::AttackPattern::kHalfDouble;
  half_double.bank = 1;
  half_double.victims = {3000};
  half_double.rows_per_bank = original.geometry.rows_per_bank;
  half_double.interarrival_ps = 180'000;
  half_double.start_ps = 12'345'678;
  half_double.far_per_near = 8;
  half_double.source_id = 201;
  original.workload.attacks.push_back(half_double);
  original.finalize();

  SimConfig reloaded;
  apply_config(reloaded, util::KeyValueFile::parse(to_config_text(original)));
  EXPECT_EQ(reloaded.geometry.banks_per_rank, original.geometry.banks_per_rank);
  EXPECT_EQ(reloaded.geometry.rows_per_bank, original.geometry.rows_per_bank);
  EXPECT_TRUE(reloaded.timing == original.timing);
  EXPECT_EQ(reloaded.windows, original.windows);
  EXPECT_EQ(reloaded.seed, original.seed);
  EXPECT_EQ(reloaded.refresh_policy, original.refresh_policy);
  EXPECT_EQ(reloaded.remap_rows, original.remap_rows);
  EXPECT_EQ(reloaded.remap_swaps, original.remap_swaps);
  EXPECT_EQ(reloaded.act_n_radius, original.act_n_radius);
  EXPECT_EQ(reloaded.disturbance.flip_threshold,
            original.disturbance.flip_threshold);
  EXPECT_EQ(reloaded.disturbance.blast_radius, original.disturbance.blast_radius);
  EXPECT_EQ(reloaded.disturbance.distance2_weight_q8,
            original.disturbance.distance2_weight_q8);
  EXPECT_EQ(reloaded.disturbance.variation_pct,
            original.disturbance.variation_pct);
  EXPECT_EQ(reloaded.technique.flip_threshold, original.technique.flip_threshold);
  EXPECT_EQ(reloaded.workload.benign_acts_per_interval_per_bank,
            original.workload.benign_acts_per_interval_per_bank);
  EXPECT_EQ(reloaded.workload.model, original.workload.model);
  EXPECT_EQ(reloaded.workload.trace_path, original.workload.trace_path);
  const FuzzSpec& got = reloaded.workload.fuzz;
  EXPECT_EQ(got.seed, fuzz.seed);
  EXPECT_EQ(got.patterns, fuzz.patterns);
  EXPECT_EQ(got.acts_per_interval, fuzz.acts_per_interval);
  EXPECT_EQ(got.params.pairs_min, fuzz.params.pairs_min);
  EXPECT_EQ(got.params.pairs_max, fuzz.params.pairs_max);
  EXPECT_EQ(got.params.period_exp_min, fuzz.params.period_exp_min);
  EXPECT_EQ(got.params.period_exp_max, fuzz.params.period_exp_max);
  EXPECT_EQ(got.params.amplitude_max, fuzz.params.amplitude_max);
  EXPECT_EQ(got.params.decoys_max, fuzz.params.decoys_max);
  EXPECT_EQ(got.params.half_double, fuzz.params.half_double);
  EXPECT_EQ(reloaded.technique.pbase_exp, original.technique.pbase_exp);
  EXPECT_EQ(reloaded.technique.params.history_entries,
            original.technique.params.history_entries);
  EXPECT_EQ(reloaded.technique.params.counter_entries,
            original.technique.params.counter_entries);
  EXPECT_EQ(reloaded.technique.params.twice_entries,
            original.technique.params.twice_entries);
  EXPECT_EQ(reloaded.technique.para_p, original.technique.para_p);
  EXPECT_EQ(reloaded.technique.mrloc_p_min, original.technique.mrloc_p_min);
  EXPECT_EQ(reloaded.technique.mrloc_p_max, original.technique.mrloc_p_max);
  EXPECT_EQ(reloaded.technique.capromi_cooldown,
            original.technique.capromi_cooldown);
  ASSERT_EQ(reloaded.workload.attacks.size(), original.workload.attacks.size());
  for (std::size_t i = 0; i < original.workload.attacks.size(); ++i) {
    const trace::AttackConfig& want = original.workload.attacks[i];
    const trace::AttackConfig& have = reloaded.workload.attacks[i];
    EXPECT_EQ(have.pattern, want.pattern) << "attack " << i;
    EXPECT_EQ(have.bank, want.bank) << "attack " << i;
    EXPECT_EQ(have.victims, want.victims) << "attack " << i;
    EXPECT_EQ(have.rows_per_bank, want.rows_per_bank) << "attack " << i;
    EXPECT_EQ(have.interarrival_ps, want.interarrival_ps) << "attack " << i;
    EXPECT_EQ(have.start_ps, want.start_ps) << "attack " << i;
    EXPECT_EQ(have.sides, want.sides) << "attack " << i;
    EXPECT_EQ(have.far_per_near, want.far_per_near) << "attack " << i;
    EXPECT_EQ(have.source_id, want.source_id) << "attack " << i;
  }
  // Same config file -> bit-identical run.
  const auto a = run_simulation(hw::Technique::kPara, original);
  const auto b = run_simulation(hw::Technique::kPara, reloaded);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.stats.demand_acts, b.stats.demand_acts);
  EXPECT_EQ(a.stats.extra_acts, b.stats.extra_acts);
}

TEST(ConfigIo, TimingWithoutAPresetIsRejected) {
  SimConfig config;
  config.timing.t_rc_ps = 48'000;
  EXPECT_THROW(to_config_text(config), std::invalid_argument);
}

TEST(ConfigIo, EveryWrittenKeyIsDocumented) {
  // configs/README.md is the key reference: every key to_config_text
  // writes, with each of its conditions on (a fuzz workload, a trace
  // path, an attack), has a row naming it in backticks.
  SimConfig config;
  config.workload.model = BenignModel::kFuzz;
  config.workload.trace_path = "corpus.tvpc";
  trace::AttackConfig attack;
  attack.victims = {1000};
  config.workload.attacks.push_back(attack);
  std::ifstream is(std::string(TVP_SOURCE_DIR) + "/configs/README.md");
  ASSERT_TRUE(is);
  std::ostringstream readme;
  readme << is.rdbuf();
  const auto file = util::KeyValueFile::parse(to_config_text(config));
  for (std::string key : file.keys()) {
    // One row documents attack.<i>.* for every attack index.
    if (key.rfind("attack.0.", 0) == 0) key = "attack.<i>." + key.substr(9);
    EXPECT_NE(readme.str().find("`" + key + "`"), std::string::npos) << key;
  }
  EXPECT_TRUE(file.has("workload.trace"));
  EXPECT_TRUE(file.has("fuzz.half_double"));
  EXPECT_TRUE(file.has("attack.0.far_per_near"));
}

// ------------------------------------------------------------------- sweep

TEST(Sweep, MatrixShapeAndDeterminism) {
  SimConfig base;
  base.geometry.banks_per_rank = 2;
  base.windows = 1;
  base.workload.benign_acts_per_interval_per_bank = 8;
  base.finalize();
  const auto file = util::KeyValueFile::parse(to_config_text(base));
  const auto sweep = run_param_sweep(
      file, "technique.history_entries", {"8", "32"},
      {hw::Technique::kLiPRoMi, hw::Technique::kPara});
  EXPECT_EQ(sweep.values.size(), 2u);
  EXPECT_EQ(sweep.techniques.size(), 2u);
  EXPECT_EQ(sweep.cells.size(), 4u);
  // PARA ignores the swept key: its two cells are identical.
  EXPECT_EQ(sweep.at(0, 1).stats.extra_acts, sweep.at(1, 1).stats.extra_acts);
  // LiPRoMi with a bigger table never does worse on this workload.
  EXPECT_LE(sweep.at(1, 0).overhead_pct(), sweep.at(0, 0).overhead_pct() + 1e-9);
  // Formatters cover every cell.
  const auto table = sweep_overhead_table(sweep);
  EXPECT_EQ(table.rows(), 2u);
  const std::string csv = sweep_to_csv(sweep);
  EXPECT_NE(csv.find("technique.history_entries,8,LiPRoMi"), std::string::npos);
  EXPECT_NE(csv.find("PARA"), std::string::npos);
}

TEST(Sweep, RejectsBadInput) {
  const util::KeyValueFile base;
  EXPECT_THROW(run_param_sweep(base, "windows", {}, {hw::Technique::kPara}),
               std::invalid_argument);
  EXPECT_THROW(run_param_sweep(base, "windows", {"1"}, {}),
               std::invalid_argument);
  EXPECT_THROW(run_param_sweep(base, "not.a.key", {"1"},
                               {hw::Technique::kPara}),
               std::invalid_argument);
}

// ------------------------------------------------------------------- report

TEST(Report, StandardCampaignRampsAggressors) {
  SimConfig cfg;
  install_standard_campaign(cfg);
  ASSERT_EQ(cfg.workload.attacks.size(), 3u);  // 4 banks: 3 attacked + control
  EXPECT_EQ(cfg.workload.attacks[0].victims.size(), 1u);
  EXPECT_EQ(cfg.workload.attacks[1].victims.size(), 4u);
  EXPECT_EQ(cfg.workload.attacks[2].victims.size(), 10u);
  for (const auto& a : cfg.workload.attacks)
    EXPECT_EQ(a.interarrival_ps, cfg.timing.t_refi_ps() / 20);
}

TEST(Report, FormatMuSigma) {
  util::RunningStat s;
  s.add(0.1);
  s.add(0.2);
  const std::string text = format_mu_sigma(s);
  EXPECT_NE(text.find("0.15"), std::string::npos);
  EXPECT_NE(text.find("%"), std::string::npos);
}

TEST(Report, SeedsFromEnvFallback) {
  // No env var set by the test harness: fallback applies.
  EXPECT_EQ(seeds_from_env(7), 7u);
}

// ------------------------------------------------------------------ verdict

TEST(Verdict, ReproducesTableIIIColumn) {
  const TechniqueConfig cfg;
  const bool expected_vulnerable[] = {
      true,   // PARA
      false,  // ProHit
      true,   // MRLoc
      false,  // TWiCe
      false,  // CRA
      true,   // LiPRoMi
      false,  // LoPRoMi
      false,  // LoLiPRoMi
      false,  // CaPRoMi
  };
  const hw::Technique order[] = {
      hw::Technique::kPara,     hw::Technique::kProHit,
      hw::Technique::kMrLoc,    hw::Technique::kTwice,
      hw::Technique::kCra,      hw::Technique::kLiPRoMi,
      hw::Technique::kLoPRoMi,  hw::Technique::kLoLiPRoMi,
      hw::Technique::kCaPRoMi,
  };
  for (std::size_t i = 0; i < 9; ++i) {
    const auto v = security_verdict(order[i], cfg, false);
    EXPECT_EQ(v.vulnerable, expected_vulnerable[i]) << v.technique << ": "
                                                    << v.reason;
  }
}

TEST(Verdict, FlipsForceVulnerable) {
  const TechniqueConfig cfg;
  const auto v = security_verdict(hw::Technique::kTwice, cfg, true);
  EXPECT_TRUE(v.vulnerable);
  EXPECT_NE(std::string_view(v.reason).find("flips"), std::string_view::npos);
}

TEST(Verdict, StaticTechniquesAreFlat) {
  const TechniqueConfig cfg;
  EXPECT_NEAR(security_verdict(hw::Technique::kPara, cfg, false).escalation,
              1.0, 0.01);
  EXPECT_NEAR(security_verdict(hw::Technique::kMrLoc, cfg, false).escalation,
              1.0, 0.01);
  EXPECT_GT(security_verdict(hw::Technique::kLoPRoMi, cfg, false).escalation,
            10.0);
}

TEST(Verdict, LinearRampHasHighestMissProbability) {
  const TechniqueConfig cfg;
  const double li = security_verdict(hw::Technique::kLiPRoMi, cfg, false).p_miss;
  const double lo = security_verdict(hw::Technique::kLoPRoMi, cfg, false).p_miss;
  const double ca = security_verdict(hw::Technique::kCaPRoMi, cfg, false).p_miss;
  EXPECT_GT(li, kMissProbThreshold);
  EXPECT_LT(lo, kMissProbThreshold);
  EXPECT_LT(ca, kMissProbThreshold);
  EXPECT_GT(li, 3 * lo);  // the log ramp is clearly safer
  EXPECT_DOUBLE_EQ(
      security_verdict(hw::Technique::kTwice, cfg, false).p_miss, 0.0);
}

TEST(Verdict, SaveScheduleShapes) {
  const TechniqueConfig cfg;
  const auto para = victim_save_schedule(hw::Technique::kPara, cfg, 1000);
  EXPECT_DOUBLE_EQ(para.front(), cfg.para_p / 2);
  EXPECT_DOUBLE_EQ(para.back(), cfg.para_p / 2);
  const auto li = victim_save_schedule(hw::Technique::kLiPRoMi, cfg, 1000);
  EXPECT_DOUBLE_EQ(li[0], 0.0);  // weight 0 in the first interval
  EXPECT_GT(li[999], li[200]);
  const auto twice = victim_save_schedule(hw::Technique::kTwice, cfg, 40000);
  EXPECT_DOUBLE_EQ(twice[34749], 1.0);  // counter threshold
  EXPECT_DOUBLE_EQ(twice[0], 0.0);
}

TEST(Flood, DeterministicTechniquesRespondAtThreshold) {
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 4;
  for (const auto t : {hw::Technique::kTwice, hw::Technique::kCra}) {
    const auto m = measure_flood(t, cfg, opts);
    EXPECT_EQ(m.no_response, 0u);
    EXPECT_DOUBLE_EQ(m.first_response_acts.mean(), 34750.0)
        << hw::to_string(t);
  }
}

TEST(Flood, AllTiVaPRoMiRespondBeforeHalfThreshold) {
  // Section IV: "all of them are sooner than 69 K activations."
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 16;
  for (const auto t : hw::kTiVaPRoMiVariants) {
    const auto m = measure_flood(t, cfg, opts);
    EXPECT_LT(m.distribution.percentile(0.5), cfg.flip_threshold / 2.0)
        << hw::to_string(t);
  }
}

TEST(Flood, LinearIsTheSlowestResponder) {
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 16;
  const double li = measure_flood(hw::Technique::kLiPRoMi, cfg, opts)
                        .distribution.percentile(0.5);
  const double lo = measure_flood(hw::Technique::kLoPRoMi, cfg, opts)
                        .distribution.percentile(0.5);
  EXPECT_GT(li, lo);
}

TEST(Flood, RandomPhaseIsMuchFaster) {
  const TechniqueConfig cfg;
  FloodOptions aligned;
  aligned.trials = 16;
  FloodOptions random_phase = aligned;
  random_phase.phase_aligned = false;
  const double a = measure_flood(hw::Technique::kLoPRoMi, cfg, aligned)
                       .distribution.percentile(0.5);
  const double r = measure_flood(hw::Technique::kLoPRoMi, cfg, random_phase)
                       .distribution.percentile(0.5);
  EXPECT_LT(r, a);  // a blind attacker triggers the defence sooner
}

TEST(Flood, InvalidOptionsThrow) {
  const TechniqueConfig cfg;
  FloodOptions opts;
  opts.trials = 0;
  EXPECT_THROW(measure_flood(hw::Technique::kPara, cfg, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace tvp::exp
