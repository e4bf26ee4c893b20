// Sweep units (exp::run_param_sweep): a value's techniques run as one
// cohort, every cell of a technique.* sweep as one cohort, and a
// windows sweep as one run read at each value. Every cell must equal its
// solo run (run_simulation) at every job count and with any cells
// preloaded, and a run read at its horizons must equal runs that never
// stopped.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "expect_result.hpp"
#include "tvp/exp/config_io.hpp"
#include "tvp/exp/registry.hpp"
#include "tvp/exp/sweep.hpp"

namespace tvp {
namespace {

namespace fs = std::filesystem;

/// Two small banks under a double-sided attack, with a flip threshold
/// low enough that the weaker defences let flips by.
util::KeyValueFile small_base() {
  return util::KeyValueFile::parse(
      "geometry.banks = 2\n"
      "geometry.rows_per_bank = 16384\n"
      "windows = 1\n"
      "workload.benign_rate = 2\n"
      "disturbance.flip_threshold = 3000\n"
      "attack.count = 1\n"
      "attack.0.pattern = double\n"
      "attack.0.bank = 0\n"
      "attack.0.rate = 6\n"
      "seed = 3\n");
}

/// A table technique (TWiCe), a history-table variant, CaPRoMi and PARA.
const std::vector<hw::Technique> kTechniques = {
    hw::Technique::kPara, hw::Technique::kTwice, hw::Technique::kCaPRoMi,
    hw::Technique::kLoLiPRoMi};

std::string temp_corpus(const std::string& leaf) {
  return (fs::temp_directory_path() /
          ("tvp_sweep_test_" + std::to_string(::getpid()) + "_" + leaf + ".tvpc"))
      .string();
}

/// @p base replaying the corpus at @p path, which holds its attack.
util::KeyValueFile replaying(util::KeyValueFile base, const std::string& path) {
  base.set("workload.model", "replay");
  base.set("workload.trace", path);
  base.set("attack.count", "0");
  return base;
}

exp::SimConfig config_of(const util::KeyValueFile& file) {
  exp::SimConfig config;
  exp::apply_config(config, file);
  return config;
}

/// Sweeps @p key over @p values at jobs 1, 3 and 8, each with and
/// without a third of the cells preloaded, and holds every cell, and
/// every cell that reaches on_cell, to its solo run. Preloaded cells
/// never reach on_cell; every other cell reaches it once.
void expect_cells_equal_solo_runs(const util::KeyValueFile& base,
                                  const std::string& key,
                                  const std::vector<std::string>& values) {
  std::vector<exp::RunResult> solo;
  std::uint64_t flips = 0;
  std::uint64_t triggers = 0;
  for (const auto& value : values) {
    util::KeyValueFile file = base;
    file.set(key, value);
    const exp::SimConfig config = config_of(file);
    for (const auto technique : kTechniques) {
      solo.push_back(exp::run_simulation(technique, config));
      flips += solo.back().flips;
      triggers += solo.back().stats.triggers;
    }
  }
  EXPECT_GT(flips, 0u) << "some defence lets flips by";
  EXPECT_GT(triggers, 0u);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const bool preload : {false, true}) {
      SCOPED_TRACE("jobs " + std::to_string(jobs) +
                   (preload ? ", preloaded" : ""));
      std::map<std::size_t, exp::SweepCell> preloaded;
      if (preload)
        for (std::size_t i = 1; i < solo.size(); i += 3)
          preloaded[i] = exp::SweepCell{values[i / kTechniques.size()],
                                        solo[i].technique, solo[i]};
      std::mutex mu;
      std::vector<int> emitted(solo.size(), 0);
      exp::SweepHooks hooks;
      hooks.jobs = jobs;
      hooks.preloaded = &preloaded;
      hooks.on_cell = [&](std::size_t i, const exp::SweepCell& cell) {
        std::lock_guard<std::mutex> lock(mu);
        ++emitted.at(i);
        EXPECT_EQ(cell.value, values[i / kTechniques.size()]);
        test::expect_same_result(cell.result, solo[i]);
      };
      const exp::SweepResult sweep =
          exp::run_param_sweep(base, key, values, kTechniques, hooks);
      ASSERT_EQ(sweep.cells.size(), solo.size());
      for (std::size_t i = 0; i < solo.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_EQ(emitted[i], preloaded.count(i) ? 0 : 1);
        EXPECT_EQ(sweep.cells[i].value, values[i / kTechniques.size()]);
        EXPECT_EQ(sweep.cells[i].technique, solo[i].technique);
        test::expect_same_result(sweep.cells[i].result, solo[i]);
      }
    }
  }
}

TEST(SweepUnits, EveryCellEqualsItsSoloRun) {
  const util::KeyValueFile generated = small_base();
  util::KeyValueFile longest = generated;
  longest.set("windows", "4");
  const std::string path = temp_corpus("units");
  exp::record_corpus(config_of(longest), path);
  const util::KeyValueFile replayed = replaying(generated, path);

  for (const auto& [name, base] :
       {std::pair{"generated", generated}, std::pair{"replayed", replayed}}) {
    SCOPED_TRACE(name);
    {
      SCOPED_TRACE("windows: one run read at each horizon");
      expect_cells_equal_solo_runs(base, "windows", {"1", "2", "4", "2"});
    }
    {
      SCOPED_TRACE("technique.*: one cohort of every cell");
      expect_cells_equal_solo_runs(base, "technique.pbase_exp", {"14", "17"});
    }
    SCOPED_TRACE("seed: a cohort per value");
    expect_cells_equal_solo_runs(base, "seed", {"5", "6"});
  }
  fs::remove(path);
}

/// The records a sweep pulled from its workloads (its runs feed each
/// record they pull once).
std::uint64_t pulled(const exp::SweepResult& sweep) {
  return sweep.stages.scattered_acts + sweep.stages.partitioned_acts;
}

TEST(SweepUnits, EachUnitPullsItsLongestHorizonOnce) {
  // The service benchmark's job: windows 1 and 2 under PARA.
  const util::KeyValueFile base = util::KeyValueFile::parse(
      "geometry.banks = 2\nwindows = 1\nworkload.benign_rate = 5\nseed = 4\n");
  exp::SweepHooks hooks;
  hooks.jobs = 1;
  const exp::SweepResult windows = exp::run_param_sweep(
      base, "windows", {"1", "2"}, {hw::Technique::kPara}, hooks);
  const std::uint64_t one = windows.at(0, 0).records;
  const std::uint64_t two = windows.at(1, 0).records;
  ASSERT_GT(one, 0u);
  EXPECT_EQ(pulled(windows), two) << "records(2), not records(1) + records(2)";

  // A unit per value, whose techniques share one pull.
  const exp::SweepResult seeds = exp::run_param_sweep(
      base, "seed", {"1", "2"}, {hw::Technique::kPara, hw::Technique::kLiPRoMi},
      hooks);
  EXPECT_EQ(pulled(seeds), seeds.at(0, 0).records + seeds.at(1, 0).records);

  // With the longest horizon preloaded, the unit runs to the next one.
  std::map<std::size_t, exp::SweepCell> preloaded;
  preloaded[1] = windows.cells[1];
  hooks.preloaded = &preloaded;
  const exp::SweepResult resumed = exp::run_param_sweep(
      base, "windows", {"1", "2"}, {hw::Technique::kPara}, hooks);
  EXPECT_EQ(pulled(resumed), one);
  EXPECT_EQ(exp::sweep_to_csv(resumed), exp::sweep_to_csv(windows));
}

// ------------------------------------------------------------- horizons

std::vector<exp::CohortMember> horizon_members(const exp::SimConfig& config) {
  std::vector<exp::CohortMember> members;
  for (const auto technique : {hw::Technique::kPara, hw::Technique::kTwice,
                               hw::Technique::kCaPRoMi})
    members.push_back({std::string(hw::to_string(technique)),
                       exp::make_factory(technique, config.technique)});
  return members;
}

/// A run of @p windows windows of @p config that never stops, stepped
/// @p batch records at a time.
std::vector<exp::RunResult> uninterrupted(exp::SimConfig config,
                                          std::uint32_t windows,
                                          std::size_t batch) {
  config.windows = windows;
  exp::Simulation sim(horizon_members(config), config);
  while (sim.step(batch) != 0) {
  }
  sim.advance();
  return sim.results();
}

TEST(Simulation, HorizonReadLeavesTheRunUnchanged) {
  util::KeyValueFile file = small_base();
  file.set("windows", "3");
  const exp::SimConfig generated = config_of(file);
  const std::string path = temp_corpus("horizons");
  const std::size_t block = 50'000;
  exp::record_corpus(generated, path, block);
  exp::SimConfig replayed = generated;
  replayed.workload.model = exp::BenignModel::kReplay;
  replayed.workload.trace_path = path;
  replayed.workload.attacks.clear();
  replayed.finalize();

  // A corpus lends whole blocks, so the batch size matters only to the
  // generated runs.
  const std::vector<std::pair<exp::SimConfig, std::size_t>> runs = {
      {generated, 1}, {generated, 7}, {generated, 4096}, {replayed, 4096}};
  for (const auto& [config, batch] : runs) {
    const bool replay = config.workload.model == exp::BenignModel::kReplay;
    SCOPED_TRACE(std::string(replay ? "replayed" : "generated") + ", batch " +
                 std::to_string(batch));
    exp::Simulation sim(horizon_members(config), config);
    for (std::uint32_t horizon = 1; horizon <= config.windows; ++horizon) {
      SCOPED_TRACE("horizon " + std::to_string(horizon));
      sim.set_horizon(horizon);
      while (sim.step(batch) != 0) {
      }
      sim.advance();
      const std::vector<exp::RunResult> read = sim.results();
      const std::vector<exp::RunResult> want =
          uninterrupted(config, horizon, batch);
      ASSERT_EQ(read.size(), want.size());
      for (std::size_t m = 0; m < read.size(); ++m) {
        SCOPED_TRACE(read[m].technique);
        test::expect_same_result(read[m], want[m]);
      }
      if (replay) {
        // The horizon fell inside a block, whose lanes were cut lane by
        // lane: no record went through the scatter pass.
        EXPECT_NE(read[0].records % block, 0u);
        EXPECT_EQ(sim.controller().stage_profile().scattered_acts, 0u);
        EXPECT_EQ(sim.controller().stage_profile().partitioned_acts,
                  read[0].records);
      }
    }
  }
  fs::remove(path);
}

TEST(Simulation, HorizonOutsideTheRunThrows) {
  exp::SimConfig config = config_of(small_base());
  config.windows = 2;
  exp::Simulation sim(horizon_members(config), config);
  EXPECT_THROW(sim.set_horizon(0), std::invalid_argument);
  EXPECT_THROW(sim.set_horizon(3), std::invalid_argument);
  sim.set_horizon(2);
  sim.advance();
  EXPECT_THROW(sim.set_horizon(1), std::invalid_argument);
}

}  // namespace
}  // namespace tvp
