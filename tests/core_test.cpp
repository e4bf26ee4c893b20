// Unit tests for tvp::core — Eq. (1)/(2) weighting, the history table,
// the CaPRoMi counter table, and the four TiVaPRoMi variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "tvp/core/counter_table.hpp"
#include "tvp/core/history_table.hpp"
#include "tvp/core/tivapromi.hpp"
#include "tvp/core/weighting.hpp"
#include "tvp/util/bitutil.hpp"
#include "lane.hpp"

namespace tvp::core {
namespace {

using test::act;

// ---------------------------------------------------------------- weighting

TEST(Weighting, LinearMatchesEq1) {
  // i >= f_r: simple difference.
  EXPECT_EQ(linear_weight(10, 3, 64), 7u);
  EXPECT_EQ(linear_weight(5, 5, 64), 0u);
  // i < f_r: wraps by RefInt.
  EXPECT_EQ(linear_weight(2, 60, 64), 6u);
  EXPECT_EQ(linear_weight(0, 63, 64), 1u);
}

TEST(Weighting, LogMatchesEq2Examples) {
  // The paper's example: all values between 16 and 31 weigh 32.
  for (std::uint32_t w = 16; w <= 31; ++w) EXPECT_EQ(log_weight(w), 32u);
  EXPECT_EQ(log_weight(0), 1u);  // the +1 corner case
  EXPECT_EQ(log_weight(1), 2u);
  EXPECT_EQ(log_weight(2), 4u);
  EXPECT_EQ(log_weight(3), 4u);
  EXPECT_EQ(log_weight(4), 8u);
  EXPECT_EQ(log_weight(8191), 8192u);
}

// Property: w_log is the smallest power of two >= w+1, and is monotone.
class LogWeightProperty : public ::testing::TestWithParam<std::uint32_t> {};
TEST_P(LogWeightProperty, SmallestPow2AboveWPlus1) {
  const std::uint32_t w = GetParam();
  const std::uint32_t wl = log_weight(w);
  EXPECT_TRUE(util::is_pow2(wl));
  EXPECT_GE(wl, w + 1);
  EXPECT_LT(wl / 2, w + 1);
  if (w > 0) EXPECT_GE(wl, log_weight(w - 1));
  EXPECT_GE(wl, w);  // log never weakens the hazard vs linear
}
INSTANTIATE_TEST_SUITE_P(Sweep, LogWeightProperty,
                         ::testing::Values(0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32,
                                           100, 1000, 4095, 4096, 8191));

TEST(Weighting, LogWeightTableMatchesFunction) {
  const auto table = log_weight_table(100);
  ASSERT_EQ(table.size(), 101u);
  for (std::uint32_t w = 0; w <= 100; ++w) EXPECT_EQ(table[w], log_weight(w));
}

// ------------------------------------------------------------- HistoryTable

TEST(HistoryTable, LookupAndInsert) {
  HistoryTable table(4, 17, 13);
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.lookup(5).has_value());
  table.insert(5, 100);
  ASSERT_TRUE(table.lookup(5).has_value());
  EXPECT_EQ(*table.lookup(5), 100u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(HistoryTable, UpdateKeepsSlot) {
  HistoryTable table(4, 17, 13);
  table.insert(5, 100);
  const auto slot = table.index_of(5);
  table.insert(5, 200);
  EXPECT_EQ(table.index_of(5), slot);
  EXPECT_EQ(*table.lookup(5), 200u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(HistoryTable, FifoEvictionWhenFull) {
  HistoryTable table(3, 17, 13);
  table.insert(1, 10);
  table.insert(2, 20);
  table.insert(3, 30);
  table.insert(4, 40);  // evicts row 1 (oldest)
  EXPECT_FALSE(table.lookup(1).has_value());
  EXPECT_TRUE(table.lookup(2).has_value());
  EXPECT_TRUE(table.lookup(4).has_value());
  EXPECT_EQ(table.size(), 3u);
}

TEST(HistoryTable, SlotIndicesStableAcrossEvictions) {
  HistoryTable table(3, 17, 13);
  table.insert(1, 10);
  table.insert(2, 20);
  const auto slot2 = *table.index_of(2);
  table.insert(3, 30);
  table.insert(4, 40);  // overwrites slot of row 1 only
  EXPECT_EQ(*table.index_of(2), slot2);
  EXPECT_EQ(table.row_at(slot2), 2u);
  EXPECT_EQ(table.interval_at(slot2), 20u);
}

TEST(HistoryTable, ClearEmptiesEverything) {
  HistoryTable table(4, 17, 13);
  table.insert(1, 10);
  table.insert(2, 20);
  table.clear();
  EXPECT_TRUE(table.empty());
  EXPECT_FALSE(table.lookup(1).has_value());
  EXPECT_THROW(table.interval_at(0), std::out_of_range);
}

TEST(HistoryTable, StateBitsMatchPaper) {
  // 32 entries x (17-bit row + 13-bit interval) = 960 bits = 120 B.
  const HistoryTable table(32, 17, 13);
  EXPECT_EQ(table.state_bits(), 960u);
}

TEST(HistoryTable, RejectsBadCapacity) {
  EXPECT_THROW(HistoryTable(0, 17, 13), std::invalid_argument);
  EXPECT_THROW(HistoryTable(300, 17, 13), std::invalid_argument);
}

TEST(HistoryTable, RejectsCapacity256) {
  // Slot index 255 would collide with the hardware link's "no link"
  // value (0xFF) in CaPRoMi's counter table. 255 slots is the maximum.
  EXPECT_THROW(HistoryTable(256, 17, 13), std::invalid_argument);
  const HistoryTable max_table(255, 17, 13);
  EXPECT_EQ(max_table.capacity(), 255u);
}

// ------------------------------------------------------------- CounterTable

TEST(CounterTable, InsertAndIncrement) {
  CounterTable table(4, 16, 17);
  util::Rng rng(1);
  const auto i1 = table.on_activate(7, rng);
  ASSERT_TRUE(i1.has_value());
  EXPECT_EQ(table.slots()[*i1].count, 1u);
  const auto i2 = table.on_activate(7, rng);
  EXPECT_EQ(i1, i2);
  EXPECT_EQ(table.slots()[*i1].count, 2u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(CounterTable, LockAtThreshold) {
  CounterTable table(4, 3, 17);
  util::Rng rng(2);
  table.on_activate(7, rng);
  table.on_activate(7, rng);
  EXPECT_FALSE(table.slots()[0].locked);
  table.on_activate(7, rng);
  EXPECT_TRUE(table.slots()[0].locked);
}

TEST(CounterTable, LockedEntriesSurviveReplacement) {
  CounterTable table(2, 2, 17);
  util::Rng rng(3);
  table.on_activate(1, rng);
  table.on_activate(1, rng);  // locked now
  table.on_activate(2, rng);
  table.on_activate(2, rng);  // locked now
  // Table full of locked entries: every replacement attempt must fail.
  int failures = 0;
  for (dram::RowId r = 10; r < 40; ++r)
    failures += !table.on_activate(r, rng).has_value();
  EXPECT_EQ(failures, 30);
  EXPECT_TRUE(table.slots()[0].locked);
  EXPECT_TRUE(table.slots()[1].locked);
}

TEST(CounterTable, RandomReplacementWhenFullAndUnlocked) {
  CounterTable table(2, 100, 17);
  util::Rng rng(4);
  table.on_activate(1, rng);
  table.on_activate(2, rng);
  const auto idx = table.on_activate(3, rng);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(table.slots()[*idx].row, 3u);
  EXPECT_EQ(table.slots()[*idx].count, 1u);
}

TEST(CounterTable, CountSaturates) {
  CounterTable table(2, 200, 17);
  util::Rng rng(5);
  for (int i = 0; i < 300; ++i) table.on_activate(1, rng);
  EXPECT_EQ(table.slots()[0].count, 255u);
}

TEST(CounterTable, Clear) {
  CounterTable table(2, 16, 17);
  util::Rng rng(6);
  table.on_activate(1, rng);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.slots()[0].valid);
}

TEST(CounterTable, StateBitsMatchPaper) {
  // 64 entries x (17 row + 8 count + 1 lock + 5 link + 1 valid) = 2048
  // bits = 256 B; together with the 120 B history table: 376 B ~ the
  // paper's 374 B per 1 GB bank.
  const CounterTable table(64, 16, 17);
  EXPECT_EQ(table.state_bits(), 2048u);
}

TEST(CounterTable, StateBitsFollowLinkWidth) {
  // The link field is log2(history capacity) wide, not a hardcoded 5
  // bits: an 8-entry history table needs 3-bit links, a 128-entry one 7.
  const CounterTable narrow(64, 16, 17, util::bits_for(8));
  EXPECT_EQ(narrow.state_bits(), 64u * (17 + 8 + 1 + 3 + 1));
  const CounterTable wide(64, 16, 17, util::bits_for(128));
  EXPECT_EQ(wide.state_bits(), 64u * (17 + 8 + 1 + 7 + 1));
}

TEST(CaPRoMi, StateBitsFollowHistoryCapacity) {
  // Regression: CaPRoMi's counter links must widen with the configured
  // history capacity so Fig. 4 storage accounting stays honest for
  // non-default history_entries.
  TiVaPRoMiConfig small = TiVaPRoMiConfig{};
  small.history_entries = 8;  // 3-bit links
  CaPRoMi ca_small(small, util::Rng(1));
  TiVaPRoMiConfig large = TiVaPRoMiConfig{};
  large.history_entries = 128;  // 7-bit links
  CaPRoMi ca_large(large, util::Rng(1));
  const std::uint64_t row_bits = 17, interval_bits = 13;
  EXPECT_EQ(ca_small.state_bits(),
            8 * (row_bits + interval_bits) + 64 * (row_bits + 8 + 1 + 3 + 1));
  EXPECT_EQ(ca_large.state_bits(),
            128 * (row_bits + interval_bits) + 64 * (row_bits + 8 + 1 + 7 + 1));
}

// ---------------------------------------------------------------- TiVaPRoMi

TiVaPRoMiConfig small_config() {
  TiVaPRoMiConfig cfg;
  cfg.refresh_intervals = 64;
  cfg.rows_per_bank = 1024;  // RowsPI = 16
  cfg.pbase_exp = 10;        // large Pbase for testable probabilities
  cfg.history_entries = 8;
  cfg.counter_entries = 8;
  return cfg;
}

mem::MitigationContext ctx_at(std::uint32_t interval, bool window_start = false) {
  mem::MitigationContext ctx;
  ctx.interval_in_window = interval;
  ctx.global_interval = interval;
  ctx.window_start = window_start;
  return ctx;
}

TEST(TiVaPRoMiConfig, Validation) {
  TiVaPRoMiConfig cfg;  // paper defaults
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.rows_per_interval(), 16u);
  EXPECT_NEAR(cfg.pbase().value(), std::ldexp(1.0, -23), 1e-12);
  cfg.rows_per_bank = 1000;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = TiVaPRoMiConfig{};
  cfg.pbase_exp = 10;  // RefInt * Pbase = 8 > 1
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = TiVaPRoMiConfig{};
  cfg.history_entries = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(TiVaPRoMiConfig, ConstructorValidatesBeforeMembersConsumeConfig) {
  // Regression: the base constructor used to build the history table
  // from the raw config and only validate() afterwards, so an invalid
  // config (zero rows, zero capacity, >255 entries) reached the table
  // constructors first. The constructor must reject it up front with
  // the config's own diagnostic.
  auto zero_rows = small_config();
  zero_rows.rows_per_bank = 0;
  EXPECT_THROW(
      ProbabilisticTiVaPRoMi(Variant::kLinear, zero_rows, util::Rng(1)),
      std::invalid_argument);

  auto zero_history = small_config();
  zero_history.history_entries = 0;
  EXPECT_THROW(
      ProbabilisticTiVaPRoMi(Variant::kLinear, zero_history, util::Rng(1)),
      std::invalid_argument);
  EXPECT_THROW(CaPRoMi(zero_history, util::Rng(1)), std::invalid_argument);

  auto wide_history = small_config();
  wide_history.history_entries = 256;  // breaks the 8-bit link encoding
  EXPECT_THROW(CaPRoMi(wide_history, util::Rng(1)), std::invalid_argument);
}

TEST(ProbabilisticTiVaPRoMi, WeightUsesRefreshSlotByDefault) {
  ProbabilisticTiVaPRoMi li(Variant::kLinear, small_config(), util::Rng(1));
  // Row 100 -> slot 6; at interval 10 the weight is 4.
  EXPECT_EQ(li.weight_for(100, 10), 4u);
  // Before its slot the weight wraps: interval 2 -> 2 - 6 + 64 = 60.
  EXPECT_EQ(li.weight_for(100, 2), 60u);
}

TEST(ProbabilisticTiVaPRoMi, VariantWeighting) {
  const auto cfg = small_config();
  ProbabilisticTiVaPRoMi li(Variant::kLinear, cfg, util::Rng(1));
  ProbabilisticTiVaPRoMi lo(Variant::kLogarithmic, cfg, util::Rng(1));
  ProbabilisticTiVaPRoMi loli(Variant::kLogLinear, cfg, util::Rng(1));
  EXPECT_EQ(li.weight_for(100, 10), 4u);
  EXPECT_EQ(lo.weight_for(100, 10), 8u);    // 2^ceil(log2(5))
  EXPECT_EQ(loli.weight_for(100, 10), 8u);  // not in table -> log branch
  EXPECT_STREQ(li.name(), "LiPRoMi");
  EXPECT_STREQ(lo.name(), "LoPRoMi");
  EXPECT_STREQ(loli.name(), "LoLiPRoMi");
}

TEST(ProbabilisticTiVaPRoMi, TriggerInsertsIntoHistoryAndEmitsActN) {
  auto cfg = small_config();
  cfg.pbase_exp = 1;  // p = w/2: triggers almost surely for w >= 2
  // RefInt * Pbase check would fail; bypass validation by construction
  // with small RefInt.
  cfg.refresh_intervals = 2;
  cfg.rows_per_bank = 32;
  ProbabilisticTiVaPRoMi li(Variant::kLinear, cfg, util::Rng(3));
  mem::ActionBuffer out;
  // weight at interval 1 for row 0 (slot 0) is 1 -> p = 0.5.
  int triggered = 0;
  for (int i = 0; i < 100 && out.empty(); ++i) act(li, 0, ctx_at(1), out);
  triggered = !out.empty();
  ASSERT_TRUE(triggered);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
  EXPECT_EQ(out[0].row, 0u);
  EXPECT_EQ(out[0].suspect, 0u);
  EXPECT_TRUE(li.history().lookup(0).has_value());
}

TEST(ProbabilisticTiVaPRoMi, HistoryHitSuppressesWeight) {
  auto cfg = small_config();
  ProbabilisticTiVaPRoMi li(Variant::kLinear, cfg, util::Rng(5));
  // Force a history entry via many activations at high weight.
  mem::ActionBuffer out;
  for (int i = 0; i < 100000 && out.empty(); ++i)
    act(li, 100, ctx_at(50), out);
  ASSERT_FALSE(out.empty());
  // Weight is now measured from the stored interval (50), not slot 6.
  EXPECT_EQ(li.weight_for(100, 52), 2u);
  // LoLi uses the *linear* branch on a table hit.
  ProbabilisticTiVaPRoMi loli(Variant::kLogLinear, cfg, util::Rng(5));
  out.clear();
  for (int i = 0; i < 100000 && out.empty(); ++i)
    act(loli, 100, ctx_at(50), out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(loli.weight_for(100, 52), 2u);  // linear, not log(2)=4
}

TEST(ProbabilisticTiVaPRoMi, WindowStartClearsHistory) {
  auto cfg = small_config();
  ProbabilisticTiVaPRoMi li(Variant::kLinear, cfg, util::Rng(7));
  mem::ActionBuffer out;
  for (int i = 0; i < 100000 && out.empty(); ++i)
    act(li, 100, ctx_at(50), out);
  ASSERT_TRUE(li.history().lookup(100).has_value());
  out.clear();
  li.on_refresh(ctx_at(5), out);  // mid-window REF: keeps the table
  EXPECT_TRUE(li.history().lookup(100).has_value());
  li.on_refresh(ctx_at(0, /*window_start=*/true), out);
  EXPECT_FALSE(li.history().lookup(100).has_value());
  EXPECT_TRUE(out.empty());  // probabilistic variants never act at REF
}

TEST(ProbabilisticTiVaPRoMi, ZeroWeightNeverTriggers) {
  auto cfg = small_config();
  ProbabilisticTiVaPRoMi li(Variant::kLinear, cfg, util::Rng(9));
  mem::ActionBuffer out;
  // Row 0 has slot 0; at interval 0 the weight is 0 -> p = 0.
  for (int i = 0; i < 50000; ++i) act(li, 0, ctx_at(0), out);
  EXPECT_TRUE(out.empty());
}

TEST(ProbabilisticTiVaPRoMi, StateBitsAndFactoryNames) {
  const TiVaPRoMiConfig cfg;  // paper defaults
  ProbabilisticTiVaPRoMi li(Variant::kLinear, cfg, util::Rng(1));
  EXPECT_EQ(li.state_bits(), 960u);  // 120 B
  EXPECT_THROW(
      ProbabilisticTiVaPRoMi(Variant::kCounterAssisted, cfg, util::Rng(1)),
      std::invalid_argument);
  const auto factory = make_tivapromi_factory(Variant::kCounterAssisted, cfg);
  const auto instance = factory(0, util::Rng(1));
  EXPECT_STREQ(instance->name(), "CaPRoMi");
}

TEST(CaPRoMi, CountsDuringIntervalDecidesAtRef) {
  auto cfg = small_config();
  CaPRoMi ca(cfg, util::Rng(11));
  mem::ActionBuffer out;
  // Activations never produce immediate actions.
  for (int i = 0; i < 200; ++i) {
    act(ca, 100, ctx_at(40), out);
    ASSERT_TRUE(out.empty());
  }
  EXPECT_EQ(ca.counters().size(), 1u);
  // At REF, cnt (saturated 255) * w_log(34->64) * 2^-10 >= 1: certain.
  ca.on_refresh(ctx_at(40), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, 100u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
  // The counter table restarts every interval.
  EXPECT_EQ(ca.counters().size(), 0u);
  // ...and the triggered row entered the history table.
  EXPECT_TRUE(ca.history().lookup(100).has_value());
}

TEST(CaPRoMi, WindowStartClearsBothTables) {
  auto cfg = small_config();
  CaPRoMi ca(cfg, util::Rng(13));
  mem::ActionBuffer out;
  for (int i = 0; i < 200; ++i) act(ca, 100, ctx_at(40), out);
  ca.on_refresh(ctx_at(40), out);
  out.clear();
  for (int i = 0; i < 10; ++i) act(ca, 7, ctx_at(0), out);
  ca.on_refresh(ctx_at(0, /*window_start=*/true), out);
  EXPECT_TRUE(out.empty());  // window boundary: no decisions
  EXPECT_EQ(ca.counters().size(), 0u);
  EXPECT_FALSE(ca.history().lookup(100).has_value());
}

TEST(CaPRoMi, HistoryLinkReducesWeight) {
  auto cfg = small_config();
  CaPRoMi ca(cfg, util::Rng(17));
  mem::ActionBuffer out;
  // First trigger at interval 40 -> history holds (100, 40).
  for (int i = 0; i < 200; ++i) act(ca, 100, ctx_at(40), out);
  ca.on_refresh(ctx_at(40), out);
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  // Shortly after, a single activation: weight from interval 40, w = 1,
  // w_log = 2, p = 1*2*2^-10 ~ 0.002: must essentially never fire.
  int fired = 0;
  for (int trial = 0; trial < 50; ++trial) {
    act(ca, 100, ctx_at(41), out);
    ca.on_refresh(ctx_at(41), out);
    fired += static_cast<int>(out.size());
    out.clear();
  }
  EXPECT_LT(fired, 5);
  // Without the link, w = 41 - slot(100)=6 -> 35, w_log = 64,
  // p = 64/1024 = 6%/activation-decision: the suppression is real.
}

TEST(CaPRoMi, ReissueCooldownSuppressesButStaysSafe) {
  auto cfg = small_config();
  cfg.capromi_reissue_cooldown = 8;
  CaPRoMi ca(cfg, util::Rng(23));
  mem::ActionBuffer out;
  // First trigger issues (no history yet).
  for (int i = 0; i < 200; ++i) act(ca, 100, ctx_at(40), out);
  ca.on_refresh(ctx_at(40), out);
  ASSERT_EQ(out.size(), 1u);
  out.clear();
  // Hammering on: decisions keep firing (cnt 255, w_log >= 1) but inside
  // the cooldown window they are suppressed without history updates...
  for (std::uint32_t i = 41; i < 48; ++i) {
    for (int a = 0; a < 200; ++a) act(ca, 100, ctx_at(i), out);
    ca.on_refresh(ctx_at(i), out);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_GT(ca.suppressed_reissues(), 0u);
  // ...and once the reference has aged past the cooldown, the issue is
  // guaranteed to come back (p saturates at cnt * w_log * Pbase >= 1).
  for (std::uint32_t i = 48; i < 56 && out.empty(); ++i) {
    for (int a = 0; a < 200; ++a) act(ca, 100, ctx_at(i), out);
    ca.on_refresh(ctx_at(i), out);
  }
  EXPECT_FALSE(out.empty());
}

TEST(CaPRoMi, CooldownZeroMatchesPaperBehaviour) {
  auto cfg = small_config();
  CaPRoMi paper_rules(cfg, util::Rng(29));
  cfg.capromi_reissue_cooldown = 0;
  CaPRoMi explicit_zero(cfg, util::Rng(29));
  mem::ActionBuffer a, b;
  for (std::uint32_t i = 1; i < 40; ++i) {
    for (int k = 0; k < 30; ++k) {
      act(paper_rules, k % 7 * 50, ctx_at(i), a);
      act(explicit_zero, k % 7 * 50, ctx_at(i), b);
    }
    paper_rules.on_refresh(ctx_at(i), a);
    explicit_zero.on_refresh(ctx_at(i), b);
  }
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(paper_rules.suppressed_reissues(), 0u);
}

TEST(CaPRoMi, StateBitsMatchPaper) {
  TiVaPRoMiConfig cfg;  // paper defaults: 32-entry history, 64 counters
  CaPRoMi ca(cfg, util::Rng(1));
  EXPECT_EQ(ca.state_bits(), 960u + 2048u);  // 376 B total
}

TEST(TiVaPRoMi, DeterministicForSameSeed) {
  const auto cfg = small_config();
  for (const auto variant : {Variant::kLinear, Variant::kLogarithmic,
                             Variant::kLogLinear}) {
    ProbabilisticTiVaPRoMi a(variant, cfg, util::Rng(99));
    ProbabilisticTiVaPRoMi b(variant, cfg, util::Rng(99));
    mem::ActionBuffer out_a, out_b;
    for (int i = 0; i < 20000; ++i) {
      act(a, i % 1024, ctx_at(i % 64), out_a);
      act(b, i % 1024, ctx_at(i % 64), out_b);
    }
    EXPECT_EQ(out_a.size(), out_b.size());
  }
}

// Drives @p technique one ACT at a time over several refresh windows and
// predicts every decision from the formula path: Pbase * weight_for
// (Eq. 1 / Eq. 2 computed directly) drawn on a bare Rng twin of the
// technique's stream. The ACT kernel must emit act_n exactly when the
// prediction fires. The row stream mixes a hot set larger than the
// history table (hits and FIFO evictions) with cold rows; REFs include
// window clears.
void expect_kernel_matches_formula(ProbabilisticTiVaPRoMi& technique,
                                   std::uint64_t seed, const std::string& label) {
  const TiVaPRoMiConfig& cfg = technique.config();
  std::vector<dram::RowId> hot;
  for (dram::RowId r = 0; r < 2 * cfg.history_entries; ++r)
    hot.push_back(37 * r + 5);
  util::Rng twin(seed);
  util::Rng stream(2024);
  mem::ActionBuffer out;
  std::uint64_t triggers = 0;
  std::uint64_t hits = 0;
  std::size_t most_triggered_rows = 0;  // per window, distinct
  std::vector<dram::RowId> window_rows;
  for (std::uint32_t step = 0; step < 3 * cfg.refresh_intervals; ++step) {
    const std::uint32_t interval = step % cfg.refresh_intervals;
    out.clear();
    technique.on_refresh(ctx_at(interval, interval == 0), out);
    ASSERT_TRUE(out.empty()) << label;
    if (interval == 0) window_rows.clear();
    for (int k = 0; k < 24; ++k) {
      const dram::RowId row =
          stream.below(4) != 0
              ? hot[stream.below(hot.size())]
              : static_cast<dram::RowId>(stream.below(cfg.rows_per_bank));
      if (technique.history().lookup(row)) ++hits;
      const bool predicted = twin.bernoulli_q32(
          cfg.pbase().scaled(technique.weight_for(row, interval)).raw());
      out.clear();
      act(technique, row, ctx_at(interval), out);
      ASSERT_EQ(out.size(), predicted ? 1u : 0u)
          << label << " interval " << interval << " row " << row;
      if (!predicted) continue;
      ++triggers;
      EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
      EXPECT_EQ(out[0].row, row);
      if (std::find(window_rows.begin(), window_rows.end(), row) ==
          window_rows.end())
        window_rows.push_back(row);
      most_triggered_rows = std::max(most_triggered_rows, window_rows.size());
    }
  }
  EXPECT_GT(triggers, 0u) << label;
  EXPECT_GT(hits, 0u) << label;
  EXPECT_GT(most_triggered_rows, cfg.history_entries) << label << " no eviction";
}

TEST(TiVaPRoMiKernel, MatchesEq1Eq2FormulaForEveryVariantAndShape) {
  // The ACT kernels screen draws against a precomputed ceiling before
  // they shape a weight; weight_for is the formula they must agree with.
  const auto cfg = small_config();
  std::uint64_t seed = 300;
  for (const auto variant : {Variant::kLinear, Variant::kLogarithmic,
                             Variant::kLogLinear}) {
    ProbabilisticTiVaPRoMi technique(variant, cfg, util::Rng(++seed));
    expect_kernel_matches_formula(technique, seed, to_string(variant));
  }
  for (const auto shape : {WeightShape::kLinear, WeightShape::kLogarithmic,
                           WeightShape::kSqrt, WeightShape::kQuadratic}) {
    ProbabilisticTiVaPRoMi technique(shape, cfg, util::Rng(++seed));
    expect_kernel_matches_formula(technique, seed, to_string(shape));
  }
}

// Feeds @p technique whole lanes of 1 to 64 rows, one on_activates call
// each, and predicts every decision with the formula twin of
// expect_kernel_matches_formula: Pbase * shape(Eq. 1) drawn on a bare Rng
// twin, where shape is @p hit for a row in a model of the history table
// and @p miss otherwise. Lanes activate again rows that triggered earlier
// in the same lane and interval (history hits at w = 0) and rows in the
// interval's own refresh slot (misses at w = 0); REFs include window
// clears. After each lane, weight_for must agree with the model.
void expect_lanes_match_formula(ProbabilisticTiVaPRoMi& technique,
                                WeightShape hit, WeightShape miss,
                                std::uint64_t seed, const std::string& label) {
  const TiVaPRoMiConfig& cfg = technique.config();
  const dram::RowId rpi = cfg.rows_per_interval();
  HistoryTable model(cfg.history_entries, 1, 1);
  util::Rng twin(seed);
  util::Rng stream(seed ^ 0x1A4E5);
  std::vector<dram::RowId> lane;
  std::vector<std::size_t> fired;  // lane indices the twin predicts
  mem::ActionBuffer out;
  std::size_t length = 0;
  std::uint64_t triggers = 0, hits_at_zero = 0, misses_at_zero = 0;
  for (std::uint32_t step = 0; step < 3 * cfg.refresh_intervals; ++step) {
    const std::uint32_t interval = step % cfg.refresh_intervals;
    out.clear();
    technique.on_refresh(ctx_at(interval, interval == 0), out);
    ASSERT_TRUE(out.empty()) << label;
    if (interval == 0) model.clear();
    for (int k = 0; k < 4; ++k) {
      length = length % 64 + 1;
      lane.clear();
      fired.clear();
      for (std::size_t i = 0; i < length; ++i) {
        const std::uint64_t pick = stream.below(4);
        dram::RowId row;
        if (pick == 0 && !fired.empty())
          row = lane[fired[stream.below(fired.size())]];
        else if (pick == 1)
          row = interval * rpi + static_cast<dram::RowId>(stream.below(rpi));
        else if (pick == 2 && !lane.empty())
          row = lane[stream.below(lane.size())];
        else
          row = static_cast<dram::RowId>(stream.below(cfg.rows_per_bank));
        const auto stored = model.lookup(row);
        const std::uint32_t w = linear_weight(
            interval, stored ? *stored : row / rpi, cfg.refresh_intervals);
        if (w == 0) ++(stored ? hits_at_zero : misses_at_zero);
        const std::uint32_t weight =
            shaped_weight(stored ? hit : miss, w, cfg.refresh_intervals);
        lane.push_back(row);
        if (twin.bernoulli_q32(cfg.pbase().scaled(weight).raw())) {
          fired.push_back(i);
          model.insert(row, interval);
        }
      }
      out.clear();
      technique.on_activates(lane.data(), lane.size(), ctx_at(interval), out);
      ASSERT_EQ(out.size(), fired.size())
          << label << " interval " << interval << " lane of " << length;
      for (std::size_t j = 0; j < fired.size(); ++j) {
        ASSERT_EQ(out[j].origin, fired[j]) << label << " interval " << interval;
        EXPECT_EQ(out[j].row, lane[fired[j]]) << label;
      }
      triggers += fired.size();
      for (const dram::RowId row : lane) {
        const auto stored = model.lookup(row);
        ASSERT_EQ(technique.weight_for(row, interval),
                  shaped_weight(stored ? hit : miss,
                                linear_weight(interval,
                                              stored ? *stored : row / rpi,
                                              cfg.refresh_intervals),
                                cfg.refresh_intervals))
            << label << " row " << row;
      }
    }
  }
  EXPECT_GT(triggers, 0u) << label;
  EXPECT_GT(hits_at_zero, 0u) << label;
  EXPECT_GT(misses_at_zero, 0u) << label;
}

TEST(TiVaPRoMiKernel, DrawFirstMatchesFormulaOnLanes) {
  // The kernel draws before it searches the history table and skips the
  // search when the draw is at or above every threshold. Its draws and
  // decisions must stay those of Eq. 1 / Eq. 2 on whole lanes, including
  // the decisions that draw nothing: threshold 0 (w = 0 under a shape
  // that maps 0 to 0, on a hit or in the row's own refresh slot) and
  // threshold 2^32, which the second config reaches: it validates with
  // RefInt * Pbase = 1, so the log shapes saturate at w = 1.
  TiVaPRoMiConfig saturating;
  saturating.refresh_intervals = 2;
  saturating.rows_per_bank = 32;
  saturating.pbase_exp = 1;
  saturating.history_entries = 4;
  struct Shapes {
    Variant variant;
    WeightShape hit, miss;
  };
  const Shapes variants[] = {
      {Variant::kLinear, WeightShape::kLinear, WeightShape::kLinear},
      {Variant::kLogarithmic, WeightShape::kLogarithmic,
       WeightShape::kLogarithmic},
      {Variant::kLogLinear, WeightShape::kLinear, WeightShape::kLogarithmic}};
  std::uint64_t seed = 400;
  for (const TiVaPRoMiConfig& cfg : {small_config(), saturating}) {
    const std::string refint = " RefInt " + std::to_string(cfg.refresh_intervals);
    for (const Shapes& v : variants) {
      ProbabilisticTiVaPRoMi technique(v.variant, cfg, util::Rng(++seed));
      expect_lanes_match_formula(technique, v.hit, v.miss, seed,
                                 to_string(v.variant) + refint);
    }
    for (const auto shape : {WeightShape::kLinear, WeightShape::kLogarithmic,
                             WeightShape::kSqrt, WeightShape::kQuadratic}) {
      ProbabilisticTiVaPRoMi technique(shape, cfg, util::Rng(++seed));
      expect_lanes_match_formula(technique, shape, shape, seed,
                                 to_string(shape) + refint);
    }
  }
}

}  // namespace
}  // namespace tvp::core
