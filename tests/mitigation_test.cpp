// Unit tests for tvp::mitigation — the five state-of-the-art baselines
// (PARA, ProHit, MRLoc, TWiCe, CRA), and differential references for
// PARA, MRLoc and TRR's sampler.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tvp/mitigation/cra.hpp"
#include "tvp/mitigation/mrloc.hpp"
#include "tvp/mitigation/para.hpp"
#include "tvp/mitigation/prohit.hpp"
#include "tvp/mitigation/trr.hpp"
#include "tvp/mitigation/twice.hpp"
#include "tvp/util/rng.hpp"
#include "lane.hpp"

namespace tvp::mitigation {
namespace {

using test::act;

mem::MitigationContext ctx_at(std::uint32_t interval, bool window_start = false) {
  mem::MitigationContext ctx;
  ctx.interval_in_window = interval;
  ctx.global_interval = interval;
  ctx.window_start = window_start;
  return ctx;
}

// --------------------------------------------------------------------- PARA

TEST(Para, TriggerRateMatchesP) {
  ParaConfig cfg;
  cfg.p = util::FixedProb::from_double(0.01);
  Para para(cfg, util::Rng(3));
  mem::ActionBuffer out;
  const int n = 100000;
  for (int i = 0; i < n; ++i) act(para, 1000, ctx_at(0), out);
  EXPECT_NEAR(out.size() / static_cast<double>(n), 0.01, 0.002);
}

TEST(Para, RefreshesOneNeighbor) {
  ParaConfig cfg;
  cfg.p = util::FixedProb::from_double(1.0);
  Para para(cfg, util::Rng(5));
  mem::ActionBuffer out;
  int up = 0, down = 0;
  for (int i = 0; i < 1000; ++i) {
    out.clear();
    act(para, 1000, ctx_at(0), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActRow);
    EXPECT_EQ(out[0].suspect, 1000u);
    if (out[0].row == 1001u) ++up;
    else if (out[0].row == 999u) ++down;
    else FAIL() << "refreshed non-neighbour row " << out[0].row;
  }
  EXPECT_GT(up, 300);
  EXPECT_GT(down, 300);
}

TEST(Para, EdgeRowsPickTheOnlyNeighbor) {
  ParaConfig cfg;
  cfg.p = util::FixedProb::from_double(1.0);
  cfg.rows_per_bank = 64;
  Para para(cfg, util::Rng(7));
  mem::ActionBuffer out;
  for (int i = 0; i < 50; ++i) {
    out.clear();
    act(para, 0, ctx_at(0), out);
    EXPECT_EQ(out[0].row, 1u);
    out.clear();
    act(para, 63, ctx_at(0), out);
    EXPECT_EQ(out[0].row, 62u);
  }
}

TEST(Para, StatelessHasTinyFootprint) {
  Para para(ParaConfig{}, util::Rng(1));
  EXPECT_EQ(para.state_bits(), 32u);
  EXPECT_STREQ(para.name(), "PARA");
}

// ------------------------------------------------------------------- ProHit

ProHitConfig prohit_fast() {
  ProHitConfig cfg;
  cfg.insert_prob = util::FixedProb::from_double(1.0);
  cfg.promote_prob = util::FixedProb::from_double(1.0);
  cfg.hot_entries = 2;
  cfg.cold_entries = 2;
  return cfg;
}

TEST(ProHit, VictimClimbsToHotAndGetsRefreshed) {
  ProHit prohit(prohit_fast(), util::Rng(9));
  mem::ActionBuffer out;
  act(prohit, 1000, ctx_at(0), out);  // victims 999/1001 -> cold
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(prohit.cold_size(), 2u);
  act(prohit, 1000, ctx_at(0), out);  // cold hit -> promoted to hot
  EXPECT_EQ(prohit.hot_size(), 2u);
  prohit.on_refresh(ctx_at(1), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActRow);
  EXPECT_TRUE(out[0].row == 999u || out[0].row == 1001u);
  EXPECT_EQ(out[0].suspect, 1000u);
  EXPECT_EQ(prohit.hot_size(), 1u);  // top retired
}

TEST(ProHit, EmptyHotMeansNoRefresh) {
  ProHit prohit(ProHitConfig{}, util::Rng(11));
  mem::ActionBuffer out;
  prohit.on_refresh(ctx_at(1), out);
  EXPECT_TRUE(out.empty());
}

TEST(ProHit, ColdInsertionIsProbabilistic) {
  ProHitConfig cfg;
  cfg.insert_prob = util::FixedProb::pow2(4);  // 1/16
  ProHit prohit(cfg, util::Rng(13));
  mem::ActionBuffer out;
  // Single activation of distinct rows: cold fills slowly.
  int filled_after = 0;
  for (int i = 0; i < 100; ++i) {
    act(prohit, static_cast<dram::RowId>(10 + 10 * i), ctx_at(0), out);
    if (prohit.cold_size() + prohit.hot_size() > 0 && filled_after == 0)
      filled_after = i + 1;
  }
  EXPECT_GT(filled_after, 1);  // did not insert on the very first candidate
}

TEST(ProHit, ColdEvictsFifoWhenFull) {
  ProHitConfig cfg = prohit_fast();
  cfg.promote_prob = util::FixedProb::from_double(0.0);  // stay in cold
  ProHit prohit(cfg, util::Rng(15));
  mem::ActionBuffer out;
  act(prohit, 100, ctx_at(0), out);  // victims 99, 101 fill cold (2)
  act(prohit, 200, ctx_at(0), out);  // victims 199, 201 evict both
  EXPECT_EQ(prohit.cold_size(), 2u);
  EXPECT_EQ(prohit.hot_size(), 0u);
}

TEST(ProHit, StateBits) {
  ProHitConfig cfg;
  ProHit prohit(cfg, util::Rng(1));
  EXPECT_EQ(prohit.state_bits(), (4u + 8u) * 18u);
  EXPECT_THROW(ProHit(ProHitConfig{0, 8}, util::Rng(1)), std::invalid_argument);
}

// -------------------------------------------------------------------- MRLoc

TEST(MrLoc, FirstObservationNeverFires) {
  MrLocConfig cfg;
  cfg.p_max = util::FixedProb::from_double(1.0);
  cfg.p_min = util::FixedProb::from_double(1.0);
  MrLoc mrloc(cfg, util::Rng(17));
  mem::ActionBuffer out;
  act(mrloc, 1000, ctx_at(0), out);
  EXPECT_TRUE(out.empty());  // victims not yet queued
  EXPECT_EQ(mrloc.queue_size(), 2u);
  act(mrloc, 1000, ctx_at(0), out);  // queue hits now
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActRow);
}

TEST(MrLoc, RecencyRaisesProbability) {
  MrLocConfig cfg;
  cfg.queue_entries = 8;
  cfg.p_min = util::FixedProb::from_double(0.0);
  cfg.p_max = util::FixedProb::from_double(1.0);
  MrLoc mrloc(cfg, util::Rng(19));
  mem::ActionBuffer out;
  act(mrloc, 1000, ctx_at(0), out);  // queue [999, 1001]
  EXPECT_TRUE(out.empty());
  // Re-observing the *most recent* victim (1001, back of the queue) uses
  // p_max = 1 and must fire; re-observing the oldest uses p_min = 0.
  act(mrloc, 1002, ctx_at(0), out);  // victims 1001 (recent) + 1003
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].row, 1001u);
  EXPECT_EQ(out[0].suspect, 1002u);
  out.clear();
  // Queue is now [999, 1001, 1003]; the oldest victim 999 has p = 0.
  act(mrloc, 998, ctx_at(0), out);  // victims 997 (new) + 999 (oldest)
  EXPECT_TRUE(out.empty());
}

TEST(MrLoc, QueueEvictsOldest) {
  MrLocConfig cfg;
  cfg.queue_entries = 4;
  cfg.p_min = util::FixedProb::from_double(1.0);
  cfg.p_max = util::FixedProb::from_double(1.0);
  MrLoc mrloc(cfg, util::Rng(21));
  mem::ActionBuffer out;
  act(mrloc, 1000, ctx_at(0), out);           // 999, 1001
  act(mrloc, 2000, ctx_at(0), out);           // 1999, 2001 (full)
  act(mrloc, 3000, ctx_at(0), out);           // evicts 999, 1001
  out.clear();
  act(mrloc, 1000, ctx_at(0), out);           // victims re-inserted
  EXPECT_TRUE(out.empty());                           // ...but were evicted
}

TEST(MrLoc, StateBitsAndValidation) {
  MrLoc mrloc(MrLocConfig{}, util::Rng(1));
  EXPECT_EQ(mrloc.state_bits(), 16u * 18u);
  MrLocConfig bad;
  bad.p_min = util::FixedProb::from_double(0.5);
  bad.p_max = util::FixedProb::from_double(0.1);
  EXPECT_THROW(MrLoc(bad, util::Rng(1)), std::invalid_argument);
}

TEST(MrLoc, SingleEntryQueueUsesRampMidpoint) {
  // Degenerate recency weighting: a single-entry queue's sole victim is
  // simultaneously the oldest and the newest entry, so the linear ramp
  // collapses to its midpoint (p_min + p_max) / 2. (The old behaviour
  // assigned the full p_max, double-counting recency: one hit in a cold
  // queue was treated as the strongest locality signal possible.)
  MrLocConfig cfg;
  cfg.p_min = util::FixedProb::from_double(0.25);
  cfg.p_max = util::FixedProb::from_double(0.75);
  MrLoc mrloc(cfg, util::Rng(23));
  mem::ActionBuffer out;
  act(mrloc, 0, ctx_at(0), out);  // row 0 has one victim: row 1
  ASSERT_EQ(mrloc.queue_size(), 1u);
  const std::uint64_t expected =
      cfg.p_min.raw() + (cfg.p_max.raw() - cfg.p_min.raw()) / 2;
  EXPECT_EQ(mrloc.probability_at(0).raw(), expected);
}

TEST(MrLoc, TwoEntryQueueSpansFullRamp) {
  // With two entries the ramp endpoints apply exactly: depth 0 (oldest)
  // draws at p_min, depth 1 (newest) at p_max.
  MrLocConfig cfg;
  cfg.p_min = util::FixedProb::from_double(0.125);
  cfg.p_max = util::FixedProb::from_double(0.875);
  MrLoc mrloc(cfg, util::Rng(23));
  mem::ActionBuffer out;
  act(mrloc, 1000, ctx_at(0), out);  // queues victims [999, 1001]
  ASSERT_EQ(mrloc.queue_size(), 2u);
  EXPECT_EQ(mrloc.probability_at(0).raw(), cfg.p_min.raw());
  EXPECT_EQ(mrloc.probability_at(1).raw(), cfg.p_max.raw());
  EXPECT_THROW(mrloc.probability_at(2), std::out_of_range);
}

// -------------------------------------------------------------------- TWiCe

TwiceConfig twice_small() {
  TwiceConfig cfg;
  cfg.entries = 16;
  cfg.row_threshold = 100;
  cfg.pruning_slope = 5;
  cfg.refresh_intervals = 64;
  cfg.rows_per_bank = 1024;
  return cfg;
}

TEST(Twice, DeterministicTriggerAtThreshold) {
  Twice twice(twice_small(), util::Rng(23));
  mem::ActionBuffer out;
  for (int i = 0; i < 99; ++i) act(twice, 7, ctx_at(0), out);
  EXPECT_TRUE(out.empty());
  act(twice, 7, ctx_at(0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
  EXPECT_EQ(out[0].row, 7u);
  // The counter restarts: another 100 activations to the next act_n.
  out.clear();
  for (int i = 0; i < 99; ++i) act(twice, 7, ctx_at(0), out);
  EXPECT_TRUE(out.empty());
}

TEST(Twice, PruningDropsSlowRows) {
  Twice twice(twice_small(), util::Rng(25));
  mem::ActionBuffer out;
  // 3 activations in one interval < slope 5: pruned at the boundary.
  for (int i = 0; i < 3; ++i) act(twice, 7, ctx_at(0), out);
  EXPECT_EQ(twice.live_entries(), 1u);
  twice.on_refresh(ctx_at(1), out);
  EXPECT_EQ(twice.live_entries(), 0u);
  // 10 activations per interval >= slope: survives the boundary.
  for (int i = 0; i < 10; ++i) act(twice, 9, ctx_at(1), out);
  twice.on_refresh(ctx_at(2), out);
  EXPECT_EQ(twice.live_entries(), 1u);
}

TEST(Twice, PrunedSlotIsReusable) {
  TwiceConfig cfg = twice_small();
  cfg.entries = 1;
  Twice twice(cfg, util::Rng(27));
  mem::ActionBuffer out;
  act(twice, 7, ctx_at(0), out);
  act(twice, 8, ctx_at(0), out);  // table full
  EXPECT_EQ(twice.overflow_drops(), 1u);
  twice.on_refresh(ctx_at(1), out);      // row 7 pruned (1 < 5)
  act(twice, 8, ctx_at(1), out);  // slot free again
  EXPECT_EQ(twice.live_entries(), 1u);
}

TEST(Twice, WindowStartClearsAll) {
  Twice twice(twice_small(), util::Rng(29));
  mem::ActionBuffer out;
  for (int i = 0; i < 50; ++i) act(twice, 7, ctx_at(0), out);
  twice.on_refresh(ctx_at(0, /*window_start=*/true), out);
  EXPECT_EQ(twice.live_entries(), 0u);
}

TEST(Twice, NeverPrunesASustainedAttacker) {
  // The safety property behind TWiCe's proof: a row hammered at >= slope
  // activations per interval is never pruned, so it always reaches the
  // threshold and gets mitigated.
  Twice twice(twice_small(), util::Rng(31));
  mem::ActionBuffer out;
  for (std::uint32_t interval = 0; interval < 30 && out.empty(); ++interval) {
    for (int i = 0; i < 6; ++i) act(twice, 7, ctx_at(interval), out);
    if (out.empty()) twice.on_refresh(ctx_at(interval + 1), out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].row, 7u);
  EXPECT_EQ(twice.overflow_drops(), 0u);
}

TEST(Twice, StateBitsAndPeak) {
  Twice twice(TwiceConfig{}, util::Rng(1));
  // 560 entries x (17 row + 16 count + 13 life + 1 valid) = 26320 bits.
  EXPECT_EQ(twice.state_bits(), 560u * 47u);
  EXPECT_EQ(twice.peak_live_entries(), 0u);
}

// ---------------------------------------------------------------------- CRA

CraConfig cra_small() {
  CraConfig cfg;
  cfg.rows_per_bank = 1024;
  cfg.refresh_intervals = 64;
  cfg.row_threshold = 50;
  return cfg;
}

TEST(Cra, TriggersExactlyAtThreshold) {
  Cra cra(cra_small(), util::Rng(33));
  mem::ActionBuffer out;
  for (int i = 0; i < 49; ++i) act(cra, 100, ctx_at(0), out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(cra.counter(100), 49u);
  act(cra, 100, ctx_at(0), out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, mem::MitigationAction::Kind::kActNeighbors);
  EXPECT_EQ(cra.counter(100), 0u);
}

TEST(Cra, RefreshClearsSlotCounters) {
  Cra cra(cra_small(), util::Rng(35));
  mem::ActionBuffer out;
  // Row 100 is in slot 100/16 = 6.
  for (int i = 0; i < 30; ++i) act(cra, 100, ctx_at(0), out);
  cra.on_refresh(ctx_at(6), out);  // slot 6 refreshed
  EXPECT_EQ(cra.counter(100), 0u);
  for (int i = 0; i < 30; ++i) act(cra, 100, ctx_at(7), out);
  cra.on_refresh(ctx_at(7), out);  // different slot: counter survives
  EXPECT_EQ(cra.counter(100), 30u);
}

TEST(Cra, IndependentPerRowCounters) {
  Cra cra(cra_small(), util::Rng(37));
  mem::ActionBuffer out;
  for (int i = 0; i < 20; ++i) act(cra, 100, ctx_at(0), out);
  for (int i = 0; i < 10; ++i) act(cra, 200, ctx_at(0), out);
  EXPECT_EQ(cra.counter(100), 20u);
  EXPECT_EQ(cra.counter(200), 10u);
}

TEST(Cra, StateBitsScaleWithRows) {
  Cra cra(CraConfig{}, util::Rng(1));
  // One counter per row: 131072 x 16 bits.
  EXPECT_EQ(cra.state_bits(), 131072ull * 16u);
  EXPECT_THROW(Cra(CraConfig{1000, 64, 10}, util::Rng(1)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------- TRR

/// TRR written naively from its sampler policy: plain {row, score,
/// valid} structs, one ACT at a time, with its own util::Rng twin. Each
/// call returns the rows whose victims are refreshed.
class TrrReference {
 public:
  TrrReference(TrrConfig cfg, util::Rng rng)
      : cfg_(cfg), rng_(rng), sampler_(cfg.sampler_entries) {}

  std::vector<dram::RowId> activate(dram::RowId row) {
    // The first entry that is free or already holds the row takes it.
    Sample* slot = nullptr;
    for (Sample& s : sampler_)
      if (!s.valid || s.row == row) {
        slot = &s;
        break;
      }
    if (slot != nullptr && slot->valid) {
      ++slot->score;
    } else if (slot != nullptr) {
      *slot = Sample{row, 1, true};
    } else {
      // All entries hold other rows: the first lowest-scoring one is
      // replaced with probability 1/(score + 1).
      Sample* lowest = &sampler_.front();
      for (Sample& s : sampler_)
        if (s.score < lowest->score) lowest = &s;
      if (rng_.below(lowest->score + 1) == 0) *lowest = Sample{row, 1, true};
    }
    std::vector<dram::RowId> refreshed;
    if (cfg_.rfm_enabled && ++raa_ >= cfg_.raaimt) {
      raa_ = 0;
      ++rfm_commands_;
      refreshed = opportunity();
    }
    return refreshed;
  }

  std::vector<dram::RowId> refresh() {
    raa_ = 0;
    return opportunity();
  }

  std::uint64_t rfm_commands() const { return rfm_commands_; }

 private:
  struct Sample {
    dram::RowId row = 0;
    std::uint32_t score = 0;
    bool valid = false;
  };

  // The highest-scoring valid samples (the first of equals), retired.
  std::vector<dram::RowId> opportunity() {
    std::vector<dram::RowId> rows;
    for (std::uint32_t k = 0; k < cfg_.victims_per_ref; ++k) {
      Sample* best = nullptr;
      for (Sample& s : sampler_)
        if (s.valid && (best == nullptr || s.score > best->score)) best = &s;
      if (best == nullptr) break;
      rows.push_back(best->row);
      best->valid = false;
    }
    return rows;
  }

  TrrConfig cfg_;
  util::Rng rng_;
  std::vector<Sample> sampler_;
  std::uint32_t raa_ = 0;
  std::uint64_t rfm_commands_ = 0;
};

// Trr against the reference over seeded lanes of 1 to 48 ACTs drawn
// from a small hot set plus one-off rows (so entries tie, fill, match
// and get replaced), with REF retirements between lanes, for several
// sampler sizes and refresh budgets, RFM on and off. Every action's
// row, suspect, kind and origin must match, and so must the RFM count.
TEST(TrrKernel, MatchesNaiveReferenceOnLanes) {
  for (const bool rfm : {false, true})
    for (const std::uint32_t entries : {1u, 2u, 4u, 5u})
      for (const std::uint32_t budget : {1u, 2u}) {
        SCOPED_TRACE("rfm " + std::to_string(rfm) + " entries " +
                     std::to_string(entries) + " budget " +
                     std::to_string(budget));
        TrrConfig cfg;
        cfg.sampler_entries = entries;
        cfg.victims_per_ref = budget;
        cfg.rfm_enabled = rfm;
        cfg.raaimt = 13;
        cfg.rows_per_bank = 1024;
        const std::uint64_t seed = 100 + entries * 10 + budget + (rfm ? 1000 : 0);
        Trr trr(cfg, util::Rng(seed));
        TrrReference reference(cfg, util::Rng(seed));
        util::Rng lanes(seed ^ 0x5eed);
        mem::ActionBuffer out;
        std::vector<dram::RowId> lane;
        for (int round = 0; round < 400; ++round) {
          lane.resize(1 + lanes.below(48));
          for (auto& row : lane)
            row = lanes.below(4) != 0
                      ? static_cast<dram::RowId>(lanes.below(6))
                      : static_cast<dram::RowId>(100 + lanes.below(900));
          out.clear();
          trr.on_activates(lane.data(), lane.size(), ctx_at(0), out);
          std::size_t at = 0;
          for (std::size_t k = 0; k < lane.size(); ++k)
            for (const dram::RowId row : reference.activate(lane[k])) {
              ASSERT_LT(at, out.size()) << "round " << round << " ACT " << k;
              EXPECT_EQ(out[at].row, row) << "round " << round << " ACT " << k;
              EXPECT_EQ(out[at].suspect, row);
              EXPECT_EQ(out[at].kind, mem::MitigationAction::Kind::kActNeighbors);
              EXPECT_EQ(out[at].origin, k);
              ++at;
            }
          ASSERT_EQ(at, out.size()) << "round " << round;
          if (lanes.below(3) == 0) {
            out.clear();
            trr.on_refresh(ctx_at(1), out);
            const std::vector<dram::RowId> expected = reference.refresh();
            ASSERT_EQ(out.size(), expected.size()) << "REF after round " << round;
            for (std::size_t i = 0; i < expected.size(); ++i)
              EXPECT_EQ(out[i].row, expected[i]) << "REF after round " << round;
          }
        }
        EXPECT_EQ(trr.rfm_commands(), reference.rfm_commands());
        if (rfm) {
          EXPECT_GT(trr.rfm_commands(), 0u);
        }
      }
}

// --------------------------------------------------- PARA and MRLoc references

/// PARA written naively from its description (Kim et al.): on every ACT,
/// with probability p, refresh one neighbour, the upper or the lower one
/// at random, and the only one at an array edge. PARA keeps no table,
/// so the reference's only state is its own util::Rng twin. Returns the
/// refreshed row, if any.
class ParaReference {
 public:
  ParaReference(ParaConfig cfg, util::Rng rng) : cfg_(cfg), rng_(rng) {}

  std::optional<dram::RowId> activate(dram::RowId row) {
    if (!rng_.bernoulli_q32(cfg_.p.raw())) return std::nullopt;
    const bool up = (rng_.next() & 1) != 0;
    const bool has_upper = row + 1 < cfg_.rows_per_bank;
    const bool has_lower = row > 0;
    if (up) return has_upper ? row + 1 : row - 1;
    return has_lower ? row - 1 : row + 1;
  }

 private:
  ParaConfig cfg_;
  util::Rng rng_;
};

/// MRLoc written naively from its description (You & Yang): a recency
/// queue of victim rows, kept as a map from row to the stamp of its last
/// insertion, one ACT at a time, with its own util::Rng twin. A victim
/// found queued is refreshed with the probability its recency rank
/// earns on a linear ramp from p_min (oldest) to p_max (newest; a lone
/// entry earns the midpoint) and re-queued as the newest; a missing
/// victim is queued, evicting the oldest of a full queue. Returns the
/// refreshed (victim, aggressor) pairs in issue order.
class MrLocReference {
 public:
  MrLocReference(MrLocConfig cfg, util::Rng rng) : cfg_(cfg), rng_(rng) {}

  std::vector<std::pair<dram::RowId, dram::RowId>> activate(dram::RowId row) {
    std::vector<std::pair<dram::RowId, dram::RowId>> refreshed;
    if (row > 0) victim(row - 1, row, refreshed);
    if (row + 1 < cfg_.rows_per_bank) victim(row + 1, row, refreshed);
    return refreshed;
  }

  std::size_t queued() const { return stamps_.size(); }

 private:
  void victim(dram::RowId v, dram::RowId aggressor,
              std::vector<std::pair<dram::RowId, dram::RowId>>& refreshed) {
    const auto found = stamps_.find(v);
    if (found != stamps_.end()) {
      std::uint64_t rank = 0;  // queued rows inserted before v
      for (const auto& [row, stamp] : stamps_) rank += stamp < found->second;
      const std::uint64_t size = stamps_.size();
      const std::uint64_t span = cfg_.p_max.raw() - cfg_.p_min.raw();
      const std::uint64_t p =
          cfg_.p_min.raw() + (size == 1 ? span / 2 : span * rank / (size - 1));
      if (rng_.bernoulli_q32(p)) refreshed.emplace_back(v, aggressor);
    } else if (stamps_.size() == cfg_.queue_entries) {
      auto oldest = stamps_.begin();
      for (auto it = stamps_.begin(); it != stamps_.end(); ++it)
        if (it->second < oldest->second) oldest = it;
      stamps_.erase(oldest);
    }
    stamps_[v] = ++clock_;
  }

  MrLocConfig cfg_;
  util::Rng rng_;
  std::map<dram::RowId, std::uint64_t> stamps_;
  std::uint64_t clock_ = 0;
};

/// Seeded lanes of 1 to 48 ACTs over @p rows rows: mostly a hot set of
/// six rows at the bottom edge, the rest one-off rows anywhere,
/// including the top edge.
std::vector<dram::RowId> seeded_lane(util::Rng& rng, dram::RowId rows) {
  std::vector<dram::RowId> lane(1 + rng.below(48));
  for (auto& row : lane) {
    const std::uint64_t pick = rng.below(8);
    row = pick < 5   ? static_cast<dram::RowId>(rng.below(6))
          : pick < 6 ? rows - 1
                     : static_cast<dram::RowId>(rng.below(rows));
  }
  return lane;
}

// Para against the reference over seeded lanes, at several
// probabilities (one so high that most ACTs refresh), including both
// array edges: every action's row, suspect, kind and origin must match.
TEST(ParaKernel, MatchesNaiveReferenceOnLanes) {
  for (const double p : {0.001, 0.25, 0.9}) {
    SCOPED_TRACE("p " + std::to_string(p));
    ParaConfig cfg;
    cfg.p = util::FixedProb::from_double(p);
    cfg.rows_per_bank = 1024;
    const auto seed = static_cast<std::uint64_t>(p * 1000) + 7;
    Para para(cfg, util::Rng(seed));
    ParaReference reference(cfg, util::Rng(seed));
    util::Rng lanes(seed ^ 0x5eed);
    mem::ActionBuffer out;
    std::size_t actions = 0;
    for (int round = 0; round < 400; ++round) {
      const std::vector<dram::RowId> lane = seeded_lane(lanes, cfg.rows_per_bank);
      out.clear();
      para.on_activates(lane.data(), lane.size(), ctx_at(0), out);
      std::size_t at = 0;
      for (std::size_t k = 0; k < lane.size(); ++k)
        if (const auto row = reference.activate(lane[k])) {
          ASSERT_LT(at, out.size()) << "round " << round << " ACT " << k;
          EXPECT_EQ(out[at].row, *row) << "round " << round << " ACT " << k;
          EXPECT_EQ(out[at].suspect, lane[k]);
          EXPECT_EQ(out[at].kind, mem::MitigationAction::Kind::kActRow);
          EXPECT_EQ(out[at].origin, k);
          ++at;
        }
      ASSERT_EQ(at, out.size()) << "round " << round;
      actions += at;
    }
    EXPECT_GT(actions, 0u);
  }
}

// MrLoc against the reference over seeded lanes, for queues of one
// entry (the midpoint rule), a few entries (constant eviction) and the
// default 16, from empty through filling to refilling after evictions,
// at ramps high enough that most queue hits refresh: every action's
// row, suspect, kind and origin must match, and so must the queue size.
TEST(MrLocKernel, MatchesNaiveReferenceOnLanes) {
  for (const std::size_t entries : {std::size_t{1}, std::size_t{3}, std::size_t{16}})
    for (const double p_max : {0.0012, 0.6}) {
      SCOPED_TRACE("entries " + std::to_string(entries) + " p_max " +
                   std::to_string(p_max));
      MrLocConfig cfg;
      cfg.queue_entries = entries;
      cfg.p_min = util::FixedProb::from_double(p_max / 6);
      cfg.p_max = util::FixedProb::from_double(p_max);
      cfg.rows_per_bank = 1024;
      const std::uint64_t seed = 300 + entries + static_cast<std::uint64_t>(p_max * 10);
      MrLoc mrloc(cfg, util::Rng(seed));
      MrLocReference reference(cfg, util::Rng(seed));
      util::Rng lanes(seed ^ 0x5eed);
      mem::ActionBuffer out;
      std::size_t actions = 0;
      bool filled = false;
      for (int round = 0; round < 400; ++round) {
        const std::vector<dram::RowId> lane = seeded_lane(lanes, cfg.rows_per_bank);
        out.clear();
        mrloc.on_activates(lane.data(), lane.size(), ctx_at(0), out);
        std::size_t at = 0;
        for (std::size_t k = 0; k < lane.size(); ++k)
          for (const auto& [victim, aggressor] : reference.activate(lane[k])) {
            ASSERT_LT(at, out.size()) << "round " << round << " ACT " << k;
            EXPECT_EQ(out[at].row, victim) << "round " << round << " ACT " << k;
            EXPECT_EQ(out[at].suspect, aggressor);
            EXPECT_EQ(out[at].kind, mem::MitigationAction::Kind::kActRow);
            EXPECT_EQ(out[at].origin, k);
            ++at;
          }
        ASSERT_EQ(at, out.size()) << "round " << round;
        ASSERT_EQ(mrloc.queue_size(), reference.queued()) << "round " << round;
        filled = filled || mrloc.queue_size() == entries;
        actions += at;
      }
      EXPECT_TRUE(filled);
      if (p_max > 0.5) {
        EXPECT_GT(actions, 0u);
      }
    }
}

}  // namespace
}  // namespace tvp::mitigation
