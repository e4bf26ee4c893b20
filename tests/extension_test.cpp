// Tests for the library's extensions beyond the paper: shaped weighting,
// the Graphene baseline, many-sided / half-double attack patterns, and
// the radius-2 act_n command.
#include <gtest/gtest.h>

#include "tvp/core/tivapromi.hpp"
#include "tvp/core/weighting.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/mitigation/cat.hpp"
#include "tvp/mitigation/graphene.hpp"
#include "tvp/mitigation/prac.hpp"
#include "tvp/mitigation/trr.hpp"
#include "tvp/trace/attack.hpp"
#include "lane.hpp"

namespace tvp {
namespace {

using test::act;
using test::feed;

// ------------------------------------------------------------ weight shapes

TEST(WeightShapes, SqrtWeightExactCeiling) {
  EXPECT_EQ(core::sqrt_weight(0, 8192), 0u);
  EXPECT_EQ(core::sqrt_weight(1, 8192), 91u);    // ceil(sqrt(8192)) = 91
  EXPECT_EQ(core::sqrt_weight(2, 8192), 128u);   // sqrt(16384) = 128 exactly
  EXPECT_EQ(core::sqrt_weight(8192, 8192), 8192u);
}

TEST(WeightShapes, QuadraticWeightExactCeiling) {
  EXPECT_EQ(core::quadratic_weight(0, 8192), 0u);
  EXPECT_EQ(core::quadratic_weight(1, 8192), 1u);   // ceil(1/8192)
  EXPECT_EQ(core::quadratic_weight(91, 8192), 2u);  // ceil(8281/8192)
  EXPECT_EQ(core::quadratic_weight(8192, 8192), 8192u);
}

// Property: shapes agree at the endpoints and order as concave < linear
// < convex is reversed (sqrt >= linear >= quadratic) in between.
class ShapeOrdering : public ::testing::TestWithParam<std::uint32_t> {};
TEST_P(ShapeOrdering, SqrtAboveLinearAboveQuadratic) {
  const std::uint32_t w = GetParam();
  const std::uint32_t ref_int = 8192;
  EXPECT_GE(core::sqrt_weight(w, ref_int), w);
  EXPECT_LE(core::quadratic_weight(w, ref_int), std::max(w, 1u));
}
INSTANTIATE_TEST_SUITE_P(Sweep, ShapeOrdering,
                         ::testing::Values(0, 1, 10, 100, 1000, 4096, 8191,
                                           8192));

TEST(ShapedTiVaPRoMi, WeightsFollowTheShape) {
  core::TiVaPRoMiConfig cfg;
  cfg.refresh_intervals = 64;
  cfg.rows_per_bank = 1024;
  cfg.pbase_exp = 10;
  using core::WeightShape;
  core::ProbabilisticTiVaPRoMi sq(WeightShape::kSqrt, cfg, util::Rng(1));
  core::ProbabilisticTiVaPRoMi quad(WeightShape::kQuadratic, cfg, util::Rng(1));
  core::ProbabilisticTiVaPRoMi lin(WeightShape::kLinear, cfg, util::Rng(1));
  // Row 100 -> slot 6; at interval 10 the linear weight is 4.
  EXPECT_EQ(lin.weight_for(100, 10), 4u);
  EXPECT_EQ(sq.weight_for(100, 10), 16u);    // ceil(sqrt(4*64))
  EXPECT_EQ(quad.weight_for(100, 10), 1u);   // ceil(16/64)
  EXPECT_STREQ(sq.name(), "TiVaPRoMi[sqrt]");
  EXPECT_STREQ(quad.name(), "TiVaPRoMi[quadratic]");
  EXPECT_EQ(sq.state_bits(), lin.state_bits());
}

TEST(ShapedTiVaPRoMi, LinearShapeMatchesLiPRoMi) {
  core::TiVaPRoMiConfig cfg;
  cfg.refresh_intervals = 64;
  cfg.rows_per_bank = 1024;
  cfg.pbase_exp = 10;
  core::ProbabilisticTiVaPRoMi shaped(core::WeightShape::kLinear, cfg,
                                      util::Rng(9));
  core::ProbabilisticTiVaPRoMi li(core::Variant::kLinear, cfg, util::Rng(9));
  mem::ActionBuffer a, b;
  mem::MitigationContext ctx;
  for (int i = 0; i < 20000; ++i) {
    ctx.interval_in_window = static_cast<std::uint32_t>(i % 64);
    act(shaped, i % 1024, ctx, a);
    act(li, i % 1024, ctx, b);
  }
  EXPECT_EQ(a.size(), b.size());  // identical decisions from identical seeds
}

TEST(ShapedTiVaPRoMi, FactoryAndWindowClear) {
  core::TiVaPRoMiConfig cfg;
  cfg.refresh_intervals = 64;
  cfg.rows_per_bank = 1024;
  cfg.pbase_exp = 10;
  const auto factory = core::make_shaped_factory(core::WeightShape::kSqrt, cfg);
  auto instance = factory(0, util::Rng(3));
  mem::ActionBuffer out;
  mem::MitigationContext ctx;
  ctx.interval_in_window = 50;
  for (int i = 0; i < 5000 && out.empty(); ++i)
    act(*instance, 7, ctx, out);
  EXPECT_FALSE(out.empty());  // sqrt escalates fast at this Pbase
  out.clear();
  ctx.interval_in_window = 0;
  ctx.window_start = true;
  instance->on_refresh(ctx, out);
  EXPECT_TRUE(out.empty());
}

// ----------------------------------------------------------------- Graphene

mem::MitigationContext ctx_at(std::uint32_t interval, bool window_start = false) {
  mem::MitigationContext ctx;
  ctx.interval_in_window = interval;
  ctx.window_start = window_start;
  return ctx;
}

TEST(Graphene, DeterministicTriggerAtThreshold) {
  mitigation::GrapheneConfig cfg;
  cfg.entries = 4;
  cfg.row_threshold = 100;
  mitigation::Graphene g(cfg, util::Rng(1));
  mem::ActionBuffer out;
  for (int i = 0; i < 99; ++i) act(g, 7, ctx_at(0), out);
  EXPECT_TRUE(out.empty());
  act(g, 7, ctx_at(0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
  EXPECT_EQ(out[0].row, 7u);
}

TEST(Graphene, MisraGriesSwapKeepsHeavyHitters) {
  mitigation::GrapheneConfig cfg;
  cfg.entries = 2;
  cfg.row_threshold = 1000;
  mitigation::Graphene g(cfg, util::Rng(1));
  mem::ActionBuffer out;
  // A heavy hitter accumulates; a stream of one-off rows must not be
  // able to evict it (their counts only chase the spillover).
  for (int i = 0; i < 500; ++i) act(g, 42, ctx_at(0), out);
  for (dram::RowId r = 1000; r < 1400; ++r) act(g, r, ctx_at(0), out);
  for (int i = 0; i < 500; ++i) act(g, 42, ctx_at(0), out);
  EXPECT_EQ(out.size(), 1u);  // 42 reached 1000 despite the noise
  EXPECT_GT(g.spillover(), 0u);
}

TEST(Graphene, SpilloverBoundsTheMissedCount) {
  // Misra-Gries invariant: an untracked row's true count is at most the
  // spillover value, so sizing entries >= window_acts / threshold means
  // no row can cross the threshold untracked.
  mitigation::GrapheneConfig cfg;
  cfg.entries = 8;
  cfg.row_threshold = 50;
  mitigation::Graphene g(cfg, util::Rng(2));
  mem::ActionBuffer out;
  util::Rng rng(3);
  for (int i = 0; i < 5000; ++i)
    act(g, static_cast<dram::RowId>(rng.below(100)), ctx_at(0), out);
  // 5000 acts / (8+1 slots) bounds spill below 556; loose sanity:
  EXPECT_LT(g.spillover(), 5000u / 8);
}

TEST(Graphene, WindowStartResets) {
  mitigation::GrapheneConfig cfg;
  cfg.entries = 4;
  cfg.row_threshold = 100;
  mitigation::Graphene g(cfg, util::Rng(1));
  mem::ActionBuffer out;
  for (int i = 0; i < 60; ++i) act(g, 7, ctx_at(0), out);
  EXPECT_EQ(g.tracked(), 1u);
  g.on_refresh(ctx_at(0, /*window_start=*/true), out);
  EXPECT_EQ(g.tracked(), 0u);
  EXPECT_EQ(g.spillover(), 0u);
  // Counting restarts: 99 more activations do not trigger.
  for (int i = 0; i < 99; ++i) act(g, 7, ctx_at(1), out);
  EXPECT_TRUE(out.empty());
}

TEST(Graphene, StateBitsNearCaPRoMi) {
  const mitigation::Graphene g(mitigation::GrapheneConfig{}, util::Rng(1));
  const double bytes = static_cast<double>(g.state_bits()) / 8.0;
  EXPECT_GT(bytes, 200.0);
  EXPECT_LT(bytes, 400.0);  // same class as CaPRoMi's 376 B
}

TEST(Graphene, StopsTheStandardAttack) {
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 2;
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  util::Rng rng(3);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  // Wire Graphene manually (it is not one of the paper's nine).
  util::Rng engine_rng(1);
  mitigation::GrapheneConfig graphene_cfg;
  graphene_cfg.rows_per_bank = cfg.geometry.rows_per_bank;
  mem::MitigationEngine engine(cfg.geometry.total_banks(),
                               mitigation::make_graphene_factory(graphene_cfg),
                               engine_rng);
  dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                     cfg.geometry.rows_per_bank);
  util::Rng controller_rng(2);
  mem::MemoryController controller(exp::controller_config(cfg), engine,
                                   disturbance, controller_rng);
  util::Rng workload_rng(4);
  auto workload = exp::build_workload(cfg, workload_rng);
  while (auto record = workload->next()) feed(controller, *record);
  EXPECT_FALSE(disturbance.any_flip());
  EXPECT_GT(controller.stats().extra_acts, 0u);
}

// ---------------------------------------------------------------------- TRR

TEST(Trr, SamplerTracksAndRefreshesHeavyHitter) {
  mitigation::TrrConfig cfg;
  cfg.sampler_entries = 4;
  cfg.victims_per_ref = 1;
  mitigation::Trr trr(cfg, util::Rng(1));
  mem::ActionBuffer out;
  for (int i = 0; i < 100; ++i) act(trr, 500, ctx_at(0), out);
  EXPECT_TRUE(out.empty());  // no refresh opportunity yet
  trr.on_refresh(ctx_at(1), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, 500u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
  // The sample was retired; an idle bank's next REF does nothing.
  out.clear();
  trr.on_refresh(ctx_at(2), out);
  EXPECT_TRUE(out.empty());
}

TEST(Trr, RfmIssuesMidIntervalRefreshes) {
  mitigation::TrrConfig cfg;
  cfg.rfm_enabled = true;
  cfg.raaimt = 32;
  mitigation::Trr trr(cfg, util::Rng(2));
  mem::ActionBuffer out;
  for (int i = 0; i < 100; ++i) act(trr, 500, ctx_at(0), out);
  // 100 ACTs with RAAIMT 32 -> 3 RFM opportunities.
  EXPECT_EQ(trr.rfm_commands(), 3u);
  EXPECT_FALSE(out.empty());
  EXPECT_STREQ(trr.name(), "TRR+RFM");
}

TEST(Trr, FrequencyBiasKeepsHotRowsOverNoise) {
  mitigation::TrrConfig cfg;
  cfg.sampler_entries = 2;
  cfg.victims_per_ref = 1;
  mitigation::Trr trr(cfg, util::Rng(3));
  mem::ActionBuffer out;
  // Heavy hitter + a long stream of one-off rows.
  for (int i = 0; i < 200; ++i) {
    act(trr, 42, ctx_at(0), out);
    act(trr, static_cast<dram::RowId>(5000 + i), ctx_at(0), out);
  }
  trr.on_refresh(ctx_at(1), out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].row, 42u);  // the highest-scoring sample wins
}

TEST(Trr, ConfigValidation) {
  mitigation::TrrConfig cfg;
  cfg.sampler_entries = 0;
  EXPECT_THROW(mitigation::Trr(cfg, util::Rng(1)), std::invalid_argument);
  cfg = mitigation::TrrConfig{};
  cfg.rfm_enabled = true;
  cfg.raaimt = 0;
  EXPECT_THROW(mitigation::Trr(cfg, util::Rng(1)), std::invalid_argument);
}

TEST(Trr, ProtectsViaCustomRunner) {
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 2;
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  util::Rng rng(7);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  mitigation::TrrConfig trr_cfg;
  trr_cfg.rows_per_bank = cfg.geometry.rows_per_bank;
  const auto r = exp::run_custom_simulation(
      mitigation::make_trr_factory(trr_cfg), "TRR", cfg);
  EXPECT_EQ(r.flips, 0u);
  EXPECT_EQ(r.technique, "TRR");
  EXPECT_GT(r.stats.extra_acts, 0u);
}

// ------------------------------------------------------------ new patterns

TEST(AttackPatterns, ManySidedBuildsABand) {
  trace::AttackConfig cfg;
  cfg.pattern = trace::AttackPattern::kManySided;
  cfg.victims = {1000};
  cfg.rows_per_bank = 131072;
  cfg.sides = 3;
  const trace::AttackSource src(cfg);
  EXPECT_EQ(src.aggressors().size(), 6u);  // 997..1003 minus the victim
  for (const auto a : src.aggressors()) {
    EXPECT_NE(a, 1000u);
    EXPECT_GE(a, 997u);
    EXPECT_LE(a, 1003u);
  }
}

TEST(AttackPatterns, ManySidedNeedsSides) {
  trace::AttackConfig cfg;
  cfg.pattern = trace::AttackPattern::kManySided;
  cfg.victims = {1000};
  cfg.rows_per_bank = 131072;
  cfg.sides = 0;
  EXPECT_THROW(trace::AttackSource{cfg}, std::invalid_argument);
}

TEST(AttackPatterns, HalfDoubleSplitsFarAndNear) {
  trace::AttackConfig cfg;
  cfg.pattern = trace::AttackPattern::kHalfDouble;
  cfg.victims = {1000};
  cfg.rows_per_bank = 131072;
  cfg.far_per_near = 4;
  trace::AttackSource src(cfg);
  EXPECT_EQ(src.aggressors(), (std::vector<dram::RowId>{998, 1002}));
  EXPECT_EQ(src.dribble_rows(), (std::vector<dram::RowId>{999, 1001}));
  // Emission ratio: every 5th record is a dribble row.
  int far = 0, near = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto r = src.next();
    ASSERT_TRUE(r.has_value());
    if (r->row == 999u || r->row == 1001u)
      ++near;
    else
      ++far;
  }
  EXPECT_EQ(near, 200);
  EXPECT_EQ(far, 800);
}

TEST(AttackPatterns, VictimNeverEmittedAsAggressor) {
  trace::AttackConfig cfg;
  cfg.pattern = trace::AttackPattern::kManySided;
  cfg.victims = {1000, 1004};  // bands overlap each other's victims
  cfg.rows_per_bank = 131072;
  cfg.sides = 4;
  trace::AttackSource src(cfg);
  for (const auto a : src.aggressors()) {
    EXPECT_NE(a, 1000u);
    EXPECT_NE(a, 1004u);
  }
}

// --------------------------------------------------------------------- PRAC

TEST(Prac, DeterministicAlertAtDeratedThreshold) {
  mitigation::PracConfig cfg;
  cfg.rows_per_bank = 1024;
  cfg.refresh_intervals = 64;
  cfg.row_threshold = 50;
  mitigation::Prac prac(cfg, util::Rng(1));
  mem::ActionBuffer out;
  for (int i = 0; i < 49; ++i) act(prac, 100, ctx_at(0), out);
  EXPECT_TRUE(out.empty());
  act(prac, 100, ctx_at(0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(prac.alerts(), 1u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
}

TEST(Prac, NoControllerStateButInDramStorage) {
  mitigation::Prac prac(mitigation::PracConfig{}, util::Rng(1));
  EXPECT_EQ(prac.state_bits(), 0u);  // nothing in the controller
  // 131072 rows x 15-bit counters inside the array.
  EXPECT_EQ(prac.in_dram_bits(), 131072ull * 15u);
}

TEST(Prac, SlotRefreshResetsCounters) {
  mitigation::PracConfig cfg;
  cfg.rows_per_bank = 1024;
  cfg.refresh_intervals = 64;
  cfg.row_threshold = 50;
  mitigation::Prac prac(cfg, util::Rng(1));
  mem::ActionBuffer out;
  for (int i = 0; i < 30; ++i) act(prac, 100, ctx_at(0), out);
  prac.on_refresh(ctx_at(6), out);  // row 100 is in slot 6
  for (int i = 0; i < 30; ++i) act(prac, 100, ctx_at(7), out);
  EXPECT_TRUE(out.empty());  // counter restarted; 30 < 50
  EXPECT_THROW(mitigation::Prac(mitigation::PracConfig{0, 64, 10}, util::Rng(1)),
               std::invalid_argument);
}

TEST(Prac, SurvivesWeakRowsWhereCountersStruggle) {
  // The A6 scenario at the deterministic margin boundary: 50% weak rows,
  // strong double-sided hammer. PRAC's derated threshold holds.
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 2;
  cfg.disturbance.variation_pct = 50;
  util::Rng rng(47);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 40;
  cfg.workload.attacks = {attack};
  cfg.finalize();
  mitigation::PracConfig prac_cfg;
  prac_cfg.rows_per_bank = cfg.geometry.rows_per_bank;
  const auto r = exp::run_custom_simulation(
      mitigation::make_prac_factory(prac_cfg), "PRAC", cfg);
  EXPECT_EQ(r.flips, 0u);
  EXPECT_GT(r.stats.extra_acts, 0u);
}

// ---------------------------------------------------------------------- CAT

TEST(Cat, SingleAggressorTrackedToLeafAndMitigated) {
  mitigation::CatConfig cfg;
  cfg.rows_per_bank = 1024;  // depth 10
  cfg.trigger_threshold = 500;
  cfg.split_quantum = 25;  // 10 levels * 25 = 250 < 500: safe descent
  cfg.node_budget = 64;
  mitigation::Cat cat(cfg, util::Rng(1));
  mem::ActionBuffer out;
  std::uint32_t acts = 0;
  while (out.empty() && acts < 2000) {
    act(cat, 600, ctx_at(0), out);
    ++acts;
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].row, 600u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
  // Worst case: quantum per level on the way down plus the full trigger.
  EXPECT_LE(acts, 10u * cfg.split_quantum + cfg.trigger_threshold);
  EXPECT_EQ(cat.blind_triggers(), 0u);
}

TEST(Cat, SaturationMakesItBlind) {
  mitigation::CatConfig cfg;
  cfg.rows_per_bank = 1024;
  cfg.trigger_threshold = 500;
  cfg.split_quantum = 25;
  cfg.node_budget = 9;  // tiny budget: 4 splits and it is full
  mitigation::Cat cat(cfg, util::Rng(2));
  mem::ActionBuffer out;
  // Spread filler exhausts the budget...
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i)
    act(cat, static_cast<dram::RowId>(rng.below(1024)), ctx_at(0), out);
  EXPECT_EQ(cat.nodes_used(), cfg.node_budget);
  // ...then a hammer cannot be resolved to a row: no actions, blind.
  out.clear();
  for (int i = 0; i < 3000; ++i) act(cat, 600, ctx_at(0), out);
  EXPECT_TRUE(out.empty());
  EXPECT_GT(cat.blind_triggers(), 0u);
}

TEST(Cat, WindowResetRebuildsTheTree) {
  mitigation::CatConfig cfg;
  cfg.rows_per_bank = 1024;
  cfg.split_quantum = 10;
  mitigation::Cat cat(cfg, util::Rng(4));
  mem::ActionBuffer out;
  for (int i = 0; i < 100; ++i) act(cat, 600, ctx_at(0), out);
  EXPECT_GT(cat.nodes_used(), 1u);
  cat.on_refresh(ctx_at(0, /*window_start=*/true), out);
  EXPECT_EQ(cat.nodes_used(), 1u);
}

TEST(Cat, StorageMatchesSectionII) {
  // "no less than 1 KB per bank" for a mitigation-grade tree.
  mitigation::Cat cat(mitigation::CatConfig{}, util::Rng(1));
  EXPECT_GE(cat.state_bits() / 8, 1024u);
}

TEST(Cat, ConfigValidation) {
  mitigation::CatConfig cfg;
  cfg.node_budget = 1;
  EXPECT_THROW(mitigation::Cat(cfg, util::Rng(1)), std::invalid_argument);
  cfg = mitigation::CatConfig{};
  cfg.rows_per_bank = 1000;  // not a power of two
  EXPECT_THROW(mitigation::Cat(cfg, util::Rng(1)), std::invalid_argument);
}

// -------------------------------------------------------------- act_n radius

TEST(ActNRadius, RadiusTwoRestoresDistanceTwoRows) {
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 2;
  cfg.disturbance.blast_radius = 2;
  cfg.disturbance.distance2_weight_q8 = 32;
  cfg.workload.benign_acts_per_interval_per_bank = 0;
  util::Rng rng(17);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.pattern = trace::AttackPattern::kHalfDouble;
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 150;
  cfg.workload.attacks = {attack};

  // Deterministic counters fail at radius 1 (the dribble rows never
  // reach a threshold) and succeed at radius 2.
  cfg.act_n_radius = 1;
  cfg.finalize();
  const auto r1 = exp::run_simulation(hw::Technique::kCra, cfg);
  cfg.act_n_radius = 2;
  cfg.finalize();
  const auto r2 = exp::run_simulation(hw::Technique::kCra, cfg);
  EXPECT_GT(r1.flips, 0u);
  EXPECT_EQ(r2.flips, 0u);
  EXPECT_GT(r2.stats.extra_acts, r1.stats.extra_acts);
}

TEST(ActNRadius, CostScalesWithRadius) {
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 1;
  util::Rng rng(5);
  auto attack = trace::make_multi_aggressor_attack(
      0, cfg.geometry.rows_per_bank, 1, rng);
  attack.interarrival_ps = cfg.timing.t_refi_ps() / 24;
  cfg.workload.attacks = {attack};
  cfg.act_n_radius = 1;
  cfg.finalize();
  const auto r1 = exp::run_simulation(hw::Technique::kTwice, cfg);
  cfg.act_n_radius = 2;
  cfg.finalize();
  const auto r2 = exp::run_simulation(hw::Technique::kTwice, cfg);
  // Interior rows: 2 activations per act_n at radius 1, 4 at radius 2.
  EXPECT_EQ(r2.stats.extra_acts, 2 * r1.stats.extra_acts);
}

}  // namespace
}  // namespace tvp
