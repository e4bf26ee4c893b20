// Randomized differential tests: the hand-optimised structures must
// agree with straightforward reference models over long random operation
// sequences, and the full pipeline must be byte-stable (determinism).
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "tvp/core/counter_table.hpp"
#include "tvp/core/history_table.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/mitigation/twice.hpp"
#include "tvp/trace/source.hpp"
#include "lane.hpp"

namespace tvp {
namespace {

using test::act;

// ------------------------------------------------- history table vs model

TEST(Fuzz, HistoryTableMatchesFifoReference) {
  constexpr std::size_t kCapacity = 8;
  core::HistoryTable table(kCapacity, 17, 13);

  // Reference: map row -> interval plus FIFO order of *insertions*.
  std::map<dram::RowId, std::uint32_t> ref;
  std::deque<dram::RowId> order;

  util::Rng rng(101);
  for (int op = 0; op < 20000; ++op) {
    const auto row = static_cast<dram::RowId>(rng.below(24));  // collisions!
    const auto choice = rng.below(10);
    if (choice < 6) {
      const auto interval = static_cast<std::uint32_t>(rng.below(512));
      table.insert(row, interval);
      if (ref.count(row)) {
        ref[row] = interval;  // update keeps position
      } else {
        if (ref.size() == kCapacity) {
          ref.erase(order.front());
          order.pop_front();
        }
        ref.emplace(row, interval);
        order.push_back(row);
      }
    } else if (choice < 9) {
      const auto got = table.lookup(row);
      const auto it = ref.find(row);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value()) << "op " << op;
      } else {
        ASSERT_TRUE(got.has_value()) << "op " << op;
        EXPECT_EQ(*got, it->second) << "op " << op;
      }
      EXPECT_EQ(table.size(), ref.size());
    } else {
      table.clear();
      ref.clear();
      order.clear();
    }
  }
}

// ------------------------------------------------ counter table vs model

TEST(Fuzz, CounterTableMatchesReference) {
  constexpr std::size_t kCapacity = 6;
  constexpr std::uint8_t kLock = 5;
  core::CounterTable table(kCapacity, kLock, 17);
  std::map<dram::RowId, std::uint8_t> ref;  // row -> count

  util::Rng rng(202);
  for (int op = 0; op < 20000; ++op) {
    const auto row = static_cast<dram::RowId>(rng.below(16));
    if (rng.below(50) == 0) {
      table.clear();
      ref.clear();
      continue;
    }
    const auto idx = table.on_activate(row, rng);
    if (ref.count(row)) {
      // A tracked row must always be found and incremented.
      ASSERT_TRUE(idx.has_value()) << "op " << op;
      if (ref[row] < 255) ++ref[row];
      EXPECT_EQ(table.slots()[*idx].count, ref[row]) << "op " << op;
      EXPECT_EQ(table.slots()[*idx].locked, ref[row] >= kLock);
    } else if (idx.has_value()) {
      // Inserted fresh (possibly replacing another untracked-from-now row).
      const auto& slot = table.slots()[*idx];
      EXPECT_EQ(slot.row, row);
      EXPECT_EQ(slot.count, 1);
      // Rebuild the reference from the table's own (authoritative)
      // replacement choice: drop whichever row vanished.
      std::map<dram::RowId, std::uint8_t> rebuilt;
      for (const auto& e : table.slots())
        if (e.valid) rebuilt[e.row] = e.count;
      ref = rebuilt;
    }
    // Invariant: locked entries are never evicted.
    for (const auto& [tracked_row, count] : ref) {
      if (count >= kLock) {
        bool still_there = false;
        for (const auto& e : table.slots())
          if (e.valid && e.row == tracked_row) still_there = true;
        EXPECT_TRUE(still_there) << "locked row evicted at op " << op;
      }
    }
  }
}

// ------------------------------------ counter table, differential model

namespace {

/// Independent reimplementation of the CaPRoMi counter-table contract
/// (counter_table.hpp), kept deliberately separate from the production
/// code: first-free-slot insertion, saturating 8-bit counts, the lock
/// bit set on the increment path at the threshold, and exactly one
/// rng.below(capacity) draw per full-table miss (whose victim keeps its
/// slot when locked). Because both sides consume their own copy of the
/// same seeded RNG, any divergence in *when* the table draws randomness
/// shows up as diverging state, not just diverging victims.
class RefCounterTable {
 public:
  struct Slot {
    dram::RowId row = 0;
    std::uint8_t count = 0;
    bool locked = false;
    bool valid = false;
  };

  RefCounterTable(std::size_t capacity, std::uint8_t lock_threshold)
      : slots_(capacity), lock_(lock_threshold) {}

  std::optional<std::size_t> on_activate(dram::RowId row, util::Rng& rng) {
    std::size_t free_slot = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].valid && slots_[i].row == row) {
        if (slots_[i].count < 255) ++slots_[i].count;
        if (slots_[i].count >= lock_) slots_[i].locked = true;
        return i;
      }
      if (!slots_[i].valid && free_slot == slots_.size()) free_slot = i;
    }
    if (free_slot != slots_.size()) {
      slots_[free_slot] = Slot{row, 1, false, true};
      return free_slot;
    }
    const std::size_t victim = rng.below(slots_.size());
    if (slots_[victim].locked) return std::nullopt;
    slots_[victim] = Slot{row, 1, false, true};
    return victim;
  }

  void clear() { slots_.assign(slots_.size(), Slot{}); }

  const std::vector<Slot>& slots() const { return slots_; }

 private:
  std::vector<Slot> slots_;
  std::uint8_t lock_;
};

void expect_same_state(const core::CounterTable& table,
                       const RefCounterTable& model, int op) {
  for (std::size_t i = 0; i < table.capacity(); ++i) {
    const auto& got = table.slots()[i];
    const auto& want = model.slots()[i];
    ASSERT_EQ(got.valid, want.valid) << "slot " << i << " op " << op;
    if (!want.valid) continue;
    ASSERT_EQ(got.row, want.row) << "slot " << i << " op " << op;
    ASSERT_EQ(got.count, want.count) << "slot " << i << " op " << op;
    ASSERT_EQ(got.locked, want.locked) << "slot " << i << " op " << op;
  }
}

}  // namespace

TEST(Fuzz, CounterTableDifferentialAgainstIndependentModel) {
  constexpr std::size_t kCapacity = 6;
  // Thresholds bracketing the interesting regimes: near-instant locking,
  // mid-range, and the paper's default of 64 (rarely reached, so random
  // replacement dominates).
  for (const std::uint8_t lock : {std::uint8_t{2}, std::uint8_t{5},
                                  std::uint8_t{64}}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      core::CounterTable table(kCapacity, lock, 17);
      RefCounterTable model(kCapacity, lock);
      // Two RNGs, one seed: each side draws from its own stream, so the
      // streams stay aligned only if both draw at the same operations.
      util::Rng table_rng(seed);
      util::Rng model_rng(seed);
      util::Rng driver(seed * 977 + static_cast<std::uint64_t>(lock));
      for (int op = 0; op < 4000; ++op) {
        if (driver.below(200) == 0) {
          table.clear();
          model.clear();
          continue;
        }
        // Alternate between a universe smaller than the table (pure
        // hit/increment traffic) and much larger (replacement traffic).
        const auto universe = driver.below(2) == 0 ? 4u : 64u;
        const auto row = static_cast<dram::RowId>(driver.below(universe));
        const auto got = table.on_activate(row, table_rng);
        const auto want = model.on_activate(row, model_rng);
        ASSERT_EQ(got, want) << "lock " << int(lock) << " seed " << seed
                             << " op " << op;
        expect_same_state(table, model, op);
      }
      // The RNG streams must still be aligned — i.e. the table drew
      // exactly as often as the contract says.
      EXPECT_EQ(table_rng.below(1u << 30), model_rng.below(1u << 30))
          << "table consumed a different number of random draws";
    }
  }
}

TEST(Fuzz, CounterTableCountSaturatesLockedAt255) {
  core::CounterTable table(4, 2, 17);
  util::Rng rng(9);
  std::optional<std::size_t> idx;
  for (int i = 0; i < 300; ++i) idx = table.on_activate(42, rng);
  ASSERT_TRUE(idx.has_value());
  const auto& slot = table.slots()[*idx];
  EXPECT_EQ(slot.count, 255) << "count must saturate, not wrap";
  EXPECT_TRUE(slot.locked);
  EXPECT_EQ(slot.row, 42u);
}

TEST(Fuzz, CounterTableFullyLockedRejectsEveryInsert) {
  constexpr std::size_t kCapacity = 3;
  core::CounterTable table(kCapacity, 2, 17);
  util::Rng rng(31);
  for (dram::RowId row = 0; row < kCapacity; ++row) {
    table.on_activate(row, rng);
    table.on_activate(row, rng);  // second hit reaches the threshold
  }
  for (const auto& slot : table.slots()) ASSERT_TRUE(slot.locked);
  // Every further miss must fail replacement and leave the table as is,
  // whichever victim the RNG proposes.
  for (int attempt = 0; attempt < 500; ++attempt) {
    const auto row = static_cast<dram::RowId>(100 + attempt);
    EXPECT_EQ(table.on_activate(row, rng), std::nullopt);
  }
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(table.slots()[i].row, static_cast<dram::RowId>(i));
    EXPECT_EQ(table.slots()[i].count, 2);
  }
  EXPECT_EQ(table.size(), kCapacity);
}

// -------------------------------------------------- TWiCe vs naive counts

TEST(Fuzz, TwicePrunedCountsNeverExceedTrueCounts) {
  mitigation::TwiceConfig cfg;
  cfg.entries = 64;
  cfg.row_threshold = 1000;
  cfg.pruning_slope = 4;
  cfg.refresh_intervals = 64;
  cfg.rows_per_bank = 1024;
  mitigation::Twice twice(cfg, util::Rng(1));

  std::map<dram::RowId, std::uint32_t> true_counts;
  mem::ActionBuffer out;
  util::Rng rng(303);
  mem::MitigationContext ctx;
  for (std::uint32_t interval = 1; interval < 40; ++interval) {
    for (int a = 0; a < 60; ++a) {
      // Zipf-ish: a few hot rows + noise.
      const dram::RowId row = rng.below(4) == 0
                                  ? static_cast<dram::RowId>(rng.below(3))
                                  : static_cast<dram::RowId>(rng.below(900));
      ctx.interval_in_window = interval;
      out.clear();
      act(twice, row, ctx, out);
      ++true_counts[row];
      // If TWiCe fired, the row genuinely crossed the threshold.
      if (!out.empty()) {
        EXPECT_GE(true_counts[row], cfg.row_threshold);
        true_counts[row] = 0;  // counting restarts after mitigation
      }
    }
    ctx.interval_in_window = interval;
    out.clear();
    twice.on_refresh(ctx, out);
    EXPECT_EQ(twice.overflow_drops(), 0u) << "interval " << interval;
  }
}

// --------------------------------------------------- pipeline determinism

TEST(Fuzz, FullPipelineIsBitStableAcrossRuns) {
  exp::SimConfig config;
  config.geometry.banks_per_rank = 2;
  config.windows = 1;
  exp::install_standard_campaign(config);
  for (const auto t : {hw::Technique::kLoLiPRoMi, hw::Technique::kCaPRoMi,
                       hw::Technique::kProHit}) {
    const auto a = exp::run_simulation(t, config);
    const auto b = exp::run_simulation(t, config);
    EXPECT_EQ(a.stats.demand_acts, b.stats.demand_acts);
    EXPECT_EQ(a.stats.extra_acts, b.stats.extra_acts);
    EXPECT_EQ(a.stats.fp_extra_acts, b.stats.fp_extra_acts);
    EXPECT_EQ(a.stats.triggers, b.stats.triggers);
    EXPECT_EQ(a.flips, b.flips);
  }
}

// ------------------------------------------------- random configurations

// Property: any valid randomly-drawn configuration runs to completion
// with sane invariants (fp <= extra, extra consistent with triggers,
// refreshes cover the windows, no crash).
TEST(Fuzz, RandomConfigurationsKeepInvariants) {
  util::Rng rng(707);
  for (int trial = 0; trial < 10; ++trial) {
    exp::SimConfig cfg;
    cfg.geometry.banks_per_rank = 1u << rng.below(3);  // 1..4 banks
    cfg.geometry.rows_per_bank = 131072;
    cfg.windows = 1;
    cfg.seed = 7000 + trial;
    cfg.workload.benign_acts_per_interval_per_bank =
        1.0 + static_cast<double>(rng.below(12));
    cfg.refresh_policy = static_cast<dram::RefreshPolicy>(rng.below(4));
    cfg.remap_rows = rng.bernoulli(0.5);
    cfg.act_n_radius = 1 + static_cast<std::uint32_t>(rng.below(2));
    cfg.disturbance.variation_pct = static_cast<std::uint32_t>(rng.below(30));
    if (rng.bernoulli(0.7)) {
      auto attack = trace::make_multi_aggressor_attack(
          static_cast<dram::BankId>(rng.below(cfg.geometry.total_banks())),
          cfg.geometry.rows_per_bank, 1 + rng.below(6), rng);
      attack.interarrival_ps =
          cfg.timing.t_refi_ps() / (5 + rng.below(30));
      cfg.workload.attacks = {attack};
    }
    cfg.finalize();
    const auto technique =
        hw::kAllTechniques[rng.below(hw::kAllTechniques.size())];
    const auto r = exp::run_simulation(technique, cfg);
    EXPECT_LE(r.stats.fp_extra_acts, r.stats.extra_acts)
        << r.technique << " trial " << trial;
    // Each trigger costs at most 2*radius activations (act_n) and at
    // least one.
    EXPECT_LE(r.stats.extra_acts, r.stats.triggers * 2 * cfg.act_n_radius)
        << "trial " << trial;
    if (r.stats.triggers > 0) EXPECT_GE(r.stats.extra_acts, r.stats.triggers);
    EXPECT_EQ(r.stats.refresh_intervals,
              static_cast<std::uint64_t>(cfg.windows) *
                  cfg.timing.refresh_intervals)
        << "trial " << trial;
    EXPECT_EQ(r.stats.rows_refreshed,
              static_cast<std::uint64_t>(cfg.windows) *
                  cfg.geometry.rows_per_bank * cfg.geometry.total_banks())
        << "trial " << trial;
    EXPECT_EQ(r.flips, r.flip_events.size());
  }
}

// ------------------------------------------------- merge vs offline sort

TEST(Fuzz, MergedSourceEqualsOfflineSort) {
  util::Rng rng(404);
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  std::vector<trace::AccessRecord> all;
  for (int s = 0; s < 5; ++s) {
    std::vector<trace::AccessRecord> records;
    std::uint64_t t = rng.below(100);
    for (int i = 0; i < 200; ++i) {
      trace::AccessRecord r;
      r.time_ps = t;
      r.bank = static_cast<dram::BankId>(s);
      r.row = static_cast<dram::RowId>(i);
      records.push_back(r);
      t += rng.below(50);
    }
    all.insert(all.end(), records.begin(), records.end());
    sources.push_back(std::make_unique<trace::VectorSource>(std::move(records)));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) { return a.time_ps < b.time_ps; });
  trace::MergedSource merged(std::move(sources));
  const auto merged_records = trace::drain(merged);
  ASSERT_EQ(merged_records.size(), all.size());
  // Whole records: bank holds the child's number, so a tie broken
  // toward the wrong child fails here, not only a wrong time.
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(merged_records[i], all[i]) << "index " << i;
}

}  // namespace
}  // namespace tvp
