// Cross-module integration tests: full trace -> controller -> mitigation
// -> disturbance pipelines, refresh-policy robustness, trace replay, and
// the headline orderings the paper's evaluation depends on.
#include <gtest/gtest.h>

#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/verdict.hpp"
#include "tvp/hw/area_model.hpp"
#include "tvp/trace/corpus.hpp"

namespace tvp::exp {
namespace {

SimConfig campaign_config() {
  SimConfig cfg;
  cfg.geometry.banks_per_rank = 4;
  cfg.windows = 1;
  install_standard_campaign(cfg);
  return cfg;
}

TEST(Integration, StandardCampaignLandsNearTableICalibration) {
  const SimConfig cfg = campaign_config();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  // ~40 activations per refresh interval per bank incl. aggressors.
  const double per_interval_per_bank =
      static_cast<double>(r.stats.demand_acts) /
      (8192.0 * cfg.geometry.total_banks());
  EXPECT_GT(per_interval_per_bank, 25.0);
  EXPECT_LT(per_interval_per_bank, 55.0);
  // Nothing flips under PARA at this pressure.
  EXPECT_EQ(r.flips, 0u);
}

TEST(Integration, NoTechniqueLetsTheCampaignFlip) {
  // Section IV: "For these nine mitigation techniques, no active attacks
  // were successful."
  const SimConfig cfg = campaign_config();
  for (const auto t : hw::kAllTechniques)
    EXPECT_EQ(run_simulation(t, cfg).flips, 0u) << hw::to_string(t);
}

TEST(Integration, TiVaPRoMiBeatsProbabilisticBaselinesOnOverhead) {
  const SimConfig cfg = campaign_config();
  const double para = run_simulation(hw::Technique::kPara, cfg).overhead_pct();
  const double prohit = run_simulation(hw::Technique::kProHit, cfg).overhead_pct();
  for (const auto t : hw::kTiVaPRoMiVariants) {
    const double v = run_simulation(t, cfg).overhead_pct();
    EXPECT_LT(v, para) << hw::to_string(t);
    EXPECT_LT(v, prohit) << hw::to_string(t);
  }
}

TEST(Integration, TabledCountersBeatTiVaPRoMiOnOverheadButNotStorage) {
  const SimConfig cfg = campaign_config();
  const RunResult twice = run_simulation(hw::Technique::kTwice, cfg);
  const RunResult loli = run_simulation(hw::Technique::kLoLiPRoMi, cfg);
  EXPECT_LT(twice.overhead_pct(), loli.overhead_pct());
  EXPECT_GT(twice.state_bytes_per_bank, 20 * loli.state_bytes_per_bank);
}

TEST(Integration, FprNeverExceedsOverhead) {
  const SimConfig cfg = campaign_config();
  for (const auto t : hw::kAllTechniques) {
    const RunResult r = run_simulation(t, cfg);
    EXPECT_LE(r.stats.fp_extra_acts, r.stats.extra_acts) << hw::to_string(t);
  }
}

TEST(Integration, CounterBasedTechniquesHaveZeroFpr) {
  // Table III: TWiCe and CRA report 0% FPR — they only ever act on rows
  // that objectively crossed the activation threshold.
  const SimConfig cfg = campaign_config();
  EXPECT_DOUBLE_EQ(run_simulation(hw::Technique::kTwice, cfg).fpr_pct(), 0.0);
  EXPECT_DOUBLE_EQ(run_simulation(hw::Technique::kCra, cfg).fpr_pct(), 0.0);
}

// Per-technique conformance: every registered technique, on the same
// fast campaign, must protect, account costs consistently, report the
// storage the hardware model expects, and be deterministic.
class TechniqueConformance : public ::testing::TestWithParam<hw::Technique> {
 protected:
  static SimConfig fast_campaign() {
    SimConfig cfg;
    cfg.geometry.banks_per_rank = 2;
    cfg.windows = 1;
    cfg.workload.benign_acts_per_interval_per_bank = 10;
    util::Rng rng(31);
    auto attack = trace::make_multi_aggressor_attack(
        0, cfg.geometry.rows_per_bank, 2, rng);
    attack.interarrival_ps = cfg.timing.t_refi_ps() / 20;
    cfg.workload.attacks = {attack};
    cfg.finalize();
    return cfg;
  }
};

TEST_P(TechniqueConformance, ProtectsTheFastCampaign) {
  const auto r = run_simulation(GetParam(), fast_campaign());
  EXPECT_EQ(r.flips, 0u);
  EXPECT_GT(r.stats.demand_acts, 0u);
}

TEST_P(TechniqueConformance, CostAccountingIsConsistent) {
  const auto r = run_simulation(GetParam(), fast_campaign());
  EXPECT_LE(r.stats.fp_extra_acts, r.stats.extra_acts);
  EXPECT_LE(r.stats.extra_acts, r.stats.triggers * 2);
  if (r.stats.triggers > 0) {
    EXPECT_GE(r.stats.extra_acts, r.stats.triggers);
    EXPECT_GT(r.stats.first_extra_act_at, 0u);
  }
}

TEST_P(TechniqueConformance, StorageMatchesHardwareModel) {
  const SimConfig cfg = fast_campaign();
  const auto r = run_simulation(GetParam(), cfg);
  const double model = hw::table_bytes_per_bank(GetParam(), cfg.technique.params);
  EXPECT_NEAR(r.state_bytes_per_bank, model, model * 0.35 + 8);
}

TEST_P(TechniqueConformance, DeterministicAcrossRuns) {
  const SimConfig cfg = fast_campaign();
  const auto a = run_simulation(GetParam(), cfg);
  const auto b = run_simulation(GetParam(), cfg);
  EXPECT_EQ(a.stats.extra_acts, b.stats.extra_acts);
  EXPECT_EQ(a.stats.fp_extra_acts, b.stats.fp_extra_acts);
  EXPECT_EQ(a.stats.triggers, b.stats.triggers);
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, TechniqueConformance, ::testing::ValuesIn(hw::kAllTechniques),
    [](const ::testing::TestParamInfo<hw::Technique>& info) {
      return std::string(hw::to_string(info.param));
    });

class RefreshPolicyRobustness
    : public ::testing::TestWithParam<dram::RefreshPolicy> {};

TEST_P(RefreshPolicyRobustness, TiVaPRoMiUnaffectedByDevicePolicy) {
  // Section IV: four refresh policies, "no significant change in the
  // performance of TiVaPRoMi was observed" — and still no flips.
  SimConfig cfg = campaign_config();
  cfg.refresh_policy = GetParam();
  const RunResult r = run_simulation(hw::Technique::kLoLiPRoMi, cfg);
  EXPECT_EQ(r.flips, 0u);

  SimConfig reference = campaign_config();
  const RunResult base = run_simulation(hw::Technique::kLoLiPRoMi, reference);
  EXPECT_LT(r.overhead_pct(), 3.0 * base.overhead_pct() + 0.01);
  EXPECT_GT(r.overhead_pct(), base.overhead_pct() / 3.0 - 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RefreshPolicyRobustness,
    ::testing::Values(dram::RefreshPolicy::kNeighborSequential,
                      dram::RefreshPolicy::kNeighborRemapped,
                      dram::RefreshPolicy::kRandom,
                      dram::RefreshPolicy::kCounterMask));

TEST(Integration, RowRemappingDoesNotBreakProtection) {
  SimConfig cfg = campaign_config();
  cfg.remap_rows = true;
  cfg.remap_swaps = 64;
  for (const auto t : {hw::Technique::kLoLiPRoMi, hw::Technique::kCaPRoMi}) {
    const RunResult r = run_simulation(t, cfg);
    EXPECT_EQ(r.flips, 0u) << hw::to_string(t);
  }
}

TEST(Integration, TraceRoundTripReplaysIdentically) {
  // Capture the workload, save, reload, re-run: byte-identical results.
  SimConfig cfg = campaign_config();
  Streams streams(cfg.seed);
  auto source = build_workload(cfg, streams.workload);
  const auto records = trace::drain(*source, 100000);
  const std::string path = ::testing::TempDir() + "/integration.tvpc";
  trace::write_corpus(path, records, cfg.geometry.total_banks());
  const auto reloaded = trace::read_corpus(path);
  EXPECT_EQ(records, reloaded);
}

TEST(Integration, StateBytesMatchAreaModelTableBytes) {
  // The simulation's structural state sizes and the hardware model's
  // table-size axis must agree (same structures).
  const SimConfig cfg = campaign_config();
  for (const auto t : hw::kAllTechniques) {
    const RunResult r = run_simulation(t, cfg);
    const double model = hw::table_bytes_per_bank(t, cfg.technique.params);
    EXPECT_NEAR(r.state_bytes_per_bank, model, model * 0.35 + 8)
        << hw::to_string(t);
  }
}

TEST(Integration, StrongerAttacksCostCounterTechniquesMore) {
  // TWiCe's extra activations grow with attack pressure (deterministic
  // response), while staying far below the probabilistic techniques.
  SimConfig weak = campaign_config();
  weak.workload.attacks.resize(1);
  weak.finalize();
  SimConfig strong = campaign_config();
  const auto weak_r = run_simulation(hw::Technique::kTwice, weak);
  const auto strong_r = run_simulation(hw::Technique::kTwice, strong);
  EXPECT_GE(strong_r.stats.extra_acts, weak_r.stats.extra_acts);
}

TEST(Integration, MultiChannelMultiRankTopology) {
  // Two channels x two ranks x two banks: 8 flat banks; mitigation and
  // disturbance stay bank-local across the whole topology.
  SimConfig cfg;
  cfg.geometry.channels = 2;
  cfg.geometry.ranks_per_channel = 2;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  util::Rng rng(23);
  auto attack = trace::make_multi_aggressor_attack(
      /*bank=*/7, cfg.geometry.rows_per_bank, 1, rng);  // last flat bank
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  EXPECT_EQ(cfg.geometry.total_banks(), 8u);
  const RunResult r = run_simulation(hw::Technique::kLoLiPRoMi, cfg);
  EXPECT_EQ(r.flips, 0u);
  EXPECT_GT(r.stats.extra_acts, 0u);
}

TEST(Integration, ParaOverheadMatchesItsProbability) {
  // Closed-form check: PARA's overhead must equal p (one extra ACT per
  // trigger) within sampling noise — the anchor for every Table III
  // comparison.
  SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 2;
  cfg.finalize();
  const RunResult r = run_simulation(hw::Technique::kPara, cfg);
  const double expected_pct = 100.0 * cfg.technique.para_p;
  EXPECT_NEAR(r.overhead_pct(), expected_pct, expected_pct * 0.15);
}

TEST(Integration, TwentyAggressorsStillMitigated) {
  SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 1;
  util::Rng rng(17);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 20, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 40;  // heavy pressure
  cfg.workload.attacks = {attack};
  cfg.finalize();
  for (const auto t : hw::kTiVaPRoMiVariants)
    EXPECT_EQ(run_simulation(t, cfg).flips, 0u) << hw::to_string(t);
}

}  // namespace
}  // namespace tvp::exp
