// Cohorts: several defences run over one workload with one demand walk
// (exp::Simulation with several members, mem::MemoryController with
// several engines, dram::DisturbanceModel with several members). Each
// member must equal an independent run: the naive reference of
// tests/naive_system.hpp, and the member's own solo run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "expect_result.hpp"
#include "naive_system.hpp"
#include "tvp/dram/disturbance.hpp"
#include "tvp/exp/registry.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mitigation/cat.hpp"
#include "tvp/mitigation/graphene.hpp"
#include "tvp/mitigation/prac.hpp"
#include "tvp/mitigation/trr.hpp"

namespace tvp {
namespace {

namespace fs = std::filesystem;

mem::BankMitigationFactory none_factory() {
  return [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  };
}

// ------------------------------------------------- naive cohort reference

TEST(Cohort, MembersMatchNaiveSystemsAtEveryBatchSize) {
  // The walk oracle's hammering scenario with dense ACT-time and REF-time
  // extras from three scripts, so several members keep overlays on the
  // same rows (the hammered rows' victims) while the unprotected member
  // follows the shared cells.
  const test::HammerScenario scenario;
  const mem::ControllerConfig& cfg = scenario.cfg;
  const auto& records = scenario.records;
  const dram::RowId rows = cfg.geometry.rows_per_bank;
  const std::uint32_t banks = cfg.geometry.total_banks();
  const std::vector<test::Script> scripts = {
      {0, false}, {0, true}, {1, true}, {2, true}};
  const auto members = static_cast<std::uint32_t>(scripts.size());

  for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    std::vector<std::unique_ptr<mem::MitigationEngine>> engines;
    std::vector<mem::MitigationEngine*> engine_ptrs;
    for (const test::Script& script : scripts) {
      util::Rng engine_rng(5);
      engines.push_back(std::make_unique<mem::MitigationEngine>(
          banks,
          script.act ? test::scripted_factory(rows, script) : none_factory(),
          engine_rng));
      engine_ptrs.push_back(engines.back().get());
    }
    dram::DisturbanceModel disturbance(banks, rows, scenario.params, members);
    util::Rng controller_rng(6);
    mem::MemoryController controller(cfg, engine_ptrs, disturbance,
                                     controller_rng);
    controller.set_aggressor_oracle(test::HammerScenario::aggressor);
    for (std::size_t i = 0; i < records.size(); i += batch)
      controller.on_records(records.data() + i,
                            std::min(batch, records.size() - i));
    controller.advance_to(scenario.end_ps);

    // The scenario leaves several members' systems apart from the
    // unprotected one's on the same rows.
    std::size_t shared_overlays = 0;
    for (dram::BankId b = 0; b < banks; ++b)
      for (dram::RowId r = 0; r < rows; ++r) {
        std::uint32_t apart = 0;
        for (std::uint32_t m = 1; m < members; ++m)
          apart += disturbance.disturbance_q8(b, r, m) !=
                   disturbance.disturbance_q8(b, r, 0);
        shared_overlays += apart >= 2;
      }
    EXPECT_GT(shared_overlays, 20u);
    // ...and their extra ACTs stall demand ACTs the shared timeline does
    // not.
    EXPECT_GT(controller.stats(1).delayed_acts, controller.stats(0).delayed_acts);

    for (std::uint32_t m = 0; m < members; ++m) {
      SCOPED_TRACE("member " + std::to_string(m));
      test::NaiveSystem naive(cfg, disturbance, scripts[m],
                              test::HammerScenario::aggressor);
      for (const auto& r : records) naive.feed(r);
      naive.advance_to(scenario.end_ps);

      const auto& flips = disturbance.flips(m);
      ASSERT_GT(naive.flips().size(), 20u);  // every member's system flips
      ASSERT_EQ(flips.size(), naive.flips().size());
      for (std::size_t i = 0; i < flips.size(); ++i) {
        ASSERT_EQ(flips[i].bank, naive.flips()[i].bank) << "flip " << i;
        ASSERT_EQ(flips[i].row, naive.flips()[i].row) << "flip " << i;
        ASSERT_EQ(flips[i].at_activation, naive.flips()[i].at_activation)
            << "flip " << i;
        ASSERT_EQ(flips[i].interval, naive.flips()[i].interval) << "flip " << i;
      }
      EXPECT_EQ(disturbance.peak_disturbance_q8(m), naive.peak_q8());
      EXPECT_EQ(disturbance.activations(m), naive.activations());
      const mem::ControllerStats stats = controller.stats(m);
      EXPECT_EQ(stats.demand_acts, naive.demand_acts());
      EXPECT_EQ(stats.delayed_acts, naive.delayed_acts());
      EXPECT_EQ(stats.triggers, naive.triggers());
      EXPECT_EQ(stats.extra_acts, naive.extra_acts());
      EXPECT_EQ(stats.fp_extra_acts, naive.fp_extra_acts());
      EXPECT_EQ(stats.extra_acts_by_phase, naive.extra_acts_by_phase());
      EXPECT_EQ(stats.first_extra_act_at, naive.first_extra_act_at());
      if (scripts[m].act) EXPECT_GT(stats.extra_acts, 0u);
      for (dram::BankId b = 0; b < banks; ++b)
        for (dram::RowId r = 0; r < rows; ++r)
          ASSERT_EQ(disturbance.disturbance_q8(b, r, m), naive.count_q8(b, r))
              << "bank " << b << " row " << r;
    }
  }
}

// ------------------------------------------------- every member is its solo

/// Every defence the repository has: the nine techniques, the
/// unprotected baseline, TRR, Graphene, PRAC and CAT, sized for @p cfg.
std::vector<exp::CohortMember> every_defence(const exp::SimConfig& cfg) {
  std::vector<exp::CohortMember> members;
  for (const auto technique : hw::kAllTechniques)
    members.push_back({std::string(hw::to_string(technique)),
                       exp::make_factory(technique, cfg.technique)});
  members.push_back({"none", none_factory()});
  const dram::RowId rows = cfg.geometry.rows_per_bank;
  const std::uint32_t threshold = cfg.disturbance.flip_threshold;
  mitigation::TrrConfig trr;
  trr.rows_per_bank = rows;
  members.push_back({"TRR", mitigation::make_trr_factory(trr)});
  mitigation::GrapheneConfig graphene;
  graphene.entries = 256;
  graphene.row_threshold = threshold / 4;
  graphene.rows_per_bank = rows;
  members.push_back({"Graphene", mitigation::make_graphene_factory(graphene)});
  mitigation::PracConfig prac;
  prac.rows_per_bank = rows;
  prac.refresh_intervals = cfg.timing.refresh_intervals;
  prac.row_threshold = threshold / 8;
  members.push_back({"PRAC", mitigation::make_prac_factory(prac)});
  mitigation::CatConfig cat;
  cat.trigger_threshold = threshold / 4;
  cat.split_quantum = cat.trigger_threshold / 34;
  cat.rows_per_bank = rows;
  members.push_back({"CAT", mitigation::make_cat_factory(cat)});
  return members;
}

/// A small system (16384 rows, a 2 ms window of 256 intervals) with a
/// low threshold, so the defences act and the weak ones let flips by.
exp::SimConfig small_config(std::uint64_t seed) {
  exp::SimConfig cfg;
  cfg.geometry.rows_per_bank = 16384;
  cfg.timing.t_refw_ps = 2'000'000'000;
  cfg.timing.refresh_intervals = 256;
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  cfg.technique.flip_threshold = 4000;
  cfg.disturbance.flip_threshold = 3000;
  cfg.seed = seed;
  return cfg;
}

/// Four banks under a double-sided attack, refreshed in random order,
/// with the logical rows remapped.
exp::SimConfig attacked_config(std::uint64_t seed) {
  exp::SimConfig cfg = small_config(seed);
  cfg.geometry.banks_per_rank = 4;
  cfg.refresh_policy = dram::RefreshPolicy::kRandom;
  cfg.remap_rows = true;
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  attack.interarrival_ps = 180'000;
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();
  return cfg;
}

/// Two banks under two fuzzed patterns, with weak-row variation.
exp::SimConfig fuzz_config(std::uint64_t seed) {
  exp::SimConfig cfg = small_config(seed);
  cfg.geometry.banks_per_rank = 2;
  cfg.disturbance.flip_threshold = 2000;
  cfg.disturbance.variation_pct = 25;
  cfg.technique.flip_threshold = 2600;
  cfg.workload.model = exp::BenignModel::kFuzz;
  cfg.workload.fuzz.seed = seed + 4;
  cfg.workload.fuzz.patterns = 2;
  cfg.workload.fuzz.acts_per_interval = 150.0;
  cfg.finalize();
  return cfg;
}

void expect_members_equal_solo_runs(const exp::SimConfig& cfg) {
  const auto members = every_defence(cfg);
  std::vector<exp::RunResult> solo;
  for (const auto& m : members)
    solo.push_back(exp::run_custom_simulation(m.factory, m.name, cfg));
  std::uint64_t flips = 0;
  for (const auto& r : solo) flips += r.flips;
  EXPECT_GT(flips, 0u);  // some defence lets flips by
  for (const std::size_t bank_jobs : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("bank_jobs " + std::to_string(bank_jobs));
    exp::SimConfig c = cfg;
    c.bank_jobs = bank_jobs;
    exp::Simulation cohort(members, c);
    while (cohort.step() != 0) {
    }
    cohort.advance();
    ASSERT_EQ(cohort.members(), members.size());
    for (std::size_t m = 0; m < members.size(); ++m) {
      SCOPED_TRACE(members[m].name);
      test::expect_same_result(cohort.result(m), solo[m]);
    }
  }
}

TEST(Cohort, EveryMemberEqualsItsSoloRun) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    {
      SCOPED_TRACE("attacked, random refresh order, remapped");
      expect_members_equal_solo_runs(attacked_config(seed));
    }
    const exp::SimConfig fuzz = fuzz_config(seed);
    {
      SCOPED_TRACE("fuzz");
      expect_members_equal_solo_runs(fuzz);
    }
    SCOPED_TRACE("fuzz replayed");
    const std::string path =
        (fs::temp_directory_path() /
         ("tvp_cohort_test_" + std::to_string(::getpid()) + ".tvpc"))
            .string();
    exp::record_corpus(fuzz, path);
    exp::SimConfig replay = fuzz;
    replay.workload.model = exp::BenignModel::kReplay;
    replay.workload.trace_path = path;
    replay.finalize();
    expect_members_equal_solo_runs(replay);
    fs::remove(path);
  }
}

}  // namespace
}  // namespace tvp
