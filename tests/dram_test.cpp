// Unit tests for tvp::dram — geometry/address mapping, timing, row
// remapping, refresh scheduling, and the disturbance (bit-flip) model.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/dram/geometry.hpp"
#include "tvp/dram/protocol.hpp"
#include "tvp/dram/refresh.hpp"
#include "tvp/dram/remap.hpp"
#include "tvp/dram/timing.hpp"

namespace tvp::dram {
namespace {

Geometry small_geometry() {
  Geometry g;
  g.channels = 1;
  g.ranks_per_channel = 1;
  g.banks_per_rank = 4;
  g.rows_per_bank = 256;
  g.cols_per_row = 16;
  g.bytes_per_col = 64;
  return g;
}

// ----------------------------------------------------------------- geometry

TEST(Geometry, DerivedQuantities) {
  Geometry g;  // paper defaults
  EXPECT_EQ(g.total_banks(), 16u);
  EXPECT_EQ(g.rows_total(), 16ull * 131072);
  EXPECT_EQ(g.bytes_per_row(), 64ull * 1024);
  // 1 GB per bank x 16 banks -> 128 GB? No: 131072 rows * 64 KB = 8 GB/bank.
  EXPECT_EQ(g.capacity_bytes(), g.rows_total() * g.bytes_per_row());
}

TEST(Geometry, ValidateRejectsBadShapes) {
  Geometry g = small_geometry();
  EXPECT_NO_THROW(g.validate());
  g.rows_per_bank = 0;
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g = small_geometry();
  g.rows_per_bank = 255;  // not a power of two
  EXPECT_THROW(g.validate(), std::invalid_argument);
  g = small_geometry();
  g.banks_per_rank = 3;
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

class MapperRoundTrip : public ::testing::TestWithParam<AddressMapPolicy> {};

TEST_P(MapperRoundTrip, DecodeEncodeExhaustive) {
  const AddressMapper mapper(small_geometry(), GetParam());
  const Geometry& g = mapper.geometry();
  // Every coordinate encodes to a unique address that decodes back.
  std::set<std::uint64_t> seen;
  for (std::uint32_t bank = 0; bank < g.banks_per_rank; ++bank) {
    for (RowId row = 0; row < g.rows_per_bank; row += 37) {
      for (std::uint32_t col = 0; col < g.cols_per_row; col += 5) {
        Address a;
        a.bank = bank;
        a.row = row;
        a.col = col;
        const std::uint64_t phys = mapper.encode(a);
        EXPECT_TRUE(seen.insert(phys).second);
        EXPECT_EQ(mapper.decode(phys), a);
      }
    }
  }
}

TEST_P(MapperRoundTrip, FlatBankInRange) {
  const AddressMapper mapper(small_geometry(), GetParam());
  for (std::uint64_t addr = 0; addr < 1 << 20; addr += 4097) {
    const Address a = mapper.decode(addr);
    EXPECT_LT(mapper.flat_bank(a), mapper.geometry().total_banks());
    EXPECT_LT(a.row, mapper.geometry().rows_per_bank);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, MapperRoundTrip,
                         ::testing::Values(AddressMapPolicy::kRowBankCol,
                                           AddressMapPolicy::kBankRowCol,
                                           AddressMapPolicy::kRowColBank));

TEST(AddressMapper, RandomGeometriesRoundTrip) {
  util::Rng rng(61);
  for (int trial = 0; trial < 24; ++trial) {
    Geometry g;
    g.channels = 1u << rng.below(2);
    g.ranks_per_channel = 1u << rng.below(2);
    g.banks_per_rank = 1u << rng.between(1, 4);
    g.rows_per_bank = 1u << rng.between(6, 12);
    g.cols_per_row = 1u << rng.between(3, 7);
    g.bytes_per_col = 1u << rng.between(3, 7);
    for (const auto policy :
         {AddressMapPolicy::kRowBankCol, AddressMapPolicy::kBankRowCol,
          AddressMapPolicy::kRowColBank}) {
      const AddressMapper mapper(g, policy);
      for (int i = 0; i < 200; ++i) {
        Address a;
        a.channel = static_cast<std::uint32_t>(rng.below(g.channels));
        a.rank = static_cast<std::uint32_t>(rng.below(g.ranks_per_channel));
        a.bank = static_cast<std::uint32_t>(rng.below(g.banks_per_rank));
        a.row = static_cast<RowId>(rng.below(g.rows_per_bank));
        a.col = static_cast<std::uint32_t>(rng.below(g.cols_per_row));
        ASSERT_EQ(mapper.decode(mapper.encode(a)), a)
            << "trial " << trial << " policy " << to_string(policy);
      }
    }
  }
}

// ------------------------------------------------------------------- timing

TEST(Timing, PaperDerivedConstants) {
  const Timing t = ddr4_timing();
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.t_refi_ps(), 7'812'500u);         // ~7.8 us (Table I)
  EXPECT_EQ(t.max_acts_per_interval(), 165u);   // TWiCe's DDR4 bound
  EXPECT_EQ(t.act_cycle_budget(), 54u);         // Section IV
  EXPECT_EQ(t.ref_cycle_budget(), 420u);        // Section IV
}

TEST(Timing, Ddr3Budgets) {
  const Timing t = ddr3_timing();
  EXPECT_EQ(t.clock_hz, 320'000'000u);
  EXPECT_EQ(t.act_cycle_budget(), 14u);
  EXPECT_EQ(t.ref_cycle_budget(), 112u);
}

TEST(Timing, Ddr5Budgets) {
  const Timing t = ddr5_timing();
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.t_refi_ps(), 3'906'250u);  // ~3.9 us
  EXPECT_EQ(t.act_cycle_budget(), 115u);
  EXPECT_EQ(t.ref_cycle_budget(), 708u);
  // The faster clock fits every serial TiVaPRoMi variant with margin.
  EXPECT_GT(t.act_cycle_budget(), 54u);
  EXPECT_GT(t.ref_cycle_budget(), 420u);
}

TEST(Timing, ValidateRejectsInconsistent) {
  Timing t;
  t.t_rfc_ps = t.t_refw_ps;  // refresh longer than the interval
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = Timing{};
  t.clock_hz = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

// -------------------------------------------------------------------- remap

TEST(RowRemapper, IdentityByDefault) {
  const RowRemapper remap(256);
  EXPECT_TRUE(remap.is_identity());
  for (RowId r = 0; r < 256; ++r) {
    EXPECT_EQ(remap.to_physical(r), r);
    EXPECT_EQ(remap.to_logical(r), r);
  }
}

TEST(RowRemapper, SwapsAreBijective) {
  util::Rng rng(5);
  const RowRemapper remap(1024, 32, rng);
  EXPECT_GT(remap.swap_count(), 0u);
  std::set<RowId> images;
  for (RowId r = 0; r < 1024; ++r) {
    const RowId phys = remap.to_physical(r);
    EXPECT_TRUE(images.insert(phys).second) << "collision at " << r;
    EXPECT_EQ(remap.to_logical(phys), r);
  }
  EXPECT_EQ(images.size(), 1024u);
}

TEST(RowRemapper, PhysicalNeighborsRespectEdges) {
  const RowRemapper remap(16);
  RowId out[2];
  EXPECT_EQ(remap.physical_neighbors(0, out), 1u);
  EXPECT_EQ(out[0], 1u);
  EXPECT_EQ(remap.physical_neighbors(15, out), 1u);
  EXPECT_EQ(out[0], 14u);
  EXPECT_EQ(remap.physical_neighbors(7, out), 2u);
  EXPECT_EQ(out[0], 6u);
  EXPECT_EQ(out[1], 8u);
}

// ----------------------------------------------------------------- refresh

class SchedulerPolicy : public ::testing::TestWithParam<RefreshPolicy> {};

TEST_P(SchedulerPolicy, EveryRowOncePerWindow) {
  util::Rng rng(7);
  const RefreshScheduler sched(1024, 64, GetParam(), rng);
  EXPECT_EQ(sched.rows_per_interval(), 16u);
  std::vector<int> refreshed(1024, 0);
  std::vector<RowId> rows;  // reused across intervals, as the controller does
  for (std::uint32_t i = 0; i < 64; ++i) {
    sched.rows_in_interval(i, rows);
    EXPECT_EQ(rows.size(), 16u);
    for (const auto r : rows) {
      ASSERT_LT(r, 1024u);
      ++refreshed[r];
    }
  }
  for (RowId r = 0; r < 1024; ++r)
    EXPECT_EQ(refreshed[r], 1) << "row " << r << " policy "
                               << to_string(GetParam());
}

TEST_P(SchedulerPolicy, IntervalOfRowMatchesInverse) {
  util::Rng rng(11);
  const RefreshScheduler sched(1024, 64, GetParam(), rng);
  std::vector<RowId> rows;
  for (std::uint32_t i = 0; i < 64; ++i) {
    sched.rows_in_interval(i, rows);
    for (const auto r : rows) EXPECT_EQ(sched.interval_of_row(r), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, SchedulerPolicy,
                         ::testing::Values(RefreshPolicy::kNeighborSequential,
                                           RefreshPolicy::kNeighborRemapped,
                                           RefreshPolicy::kRandom,
                                           RefreshPolicy::kCounterMask));

TEST(RefreshScheduler, SequentialMatchesAssumedMapping) {
  util::Rng rng(1);
  const RefreshScheduler sched(1024, 64, RefreshPolicy::kNeighborSequential, rng);
  for (RowId r = 0; r < 1024; r += 17)
    EXPECT_EQ(sched.interval_of_row(r), sched.assumed_interval_of_row(r));
}

TEST(RefreshScheduler, RandomPolicyDiffersFromAssumed) {
  util::Rng rng(2);
  const RefreshScheduler sched(4096, 256, RefreshPolicy::kRandom, rng);
  int mismatches = 0;
  for (RowId r = 0; r < 4096; ++r)
    mismatches += sched.interval_of_row(r) != sched.assumed_interval_of_row(r);
  EXPECT_GT(mismatches, 3500);  // nearly everything moved
}

TEST(RefreshScheduler, RejectsBadShape) {
  util::Rng rng(3);
  EXPECT_THROW(RefreshScheduler(1000, 64, RefreshPolicy::kNeighborSequential, rng),
               std::invalid_argument);
  EXPECT_THROW(RefreshScheduler(0, 64, RefreshPolicy::kRandom, rng),
               std::invalid_argument);
  EXPECT_THROW(RefreshScheduler(1024, 48, RefreshPolicy::kCounterMask, rng),
               std::invalid_argument);  // counter-mask needs pow2 intervals
}

// ----------------------------------------------------------------- protocol

TEST(ProtocolChecker, AcceptsLegalSequence) {
  ProtocolChecker checker(2, ProtocolTiming{});
  const ProtocolTiming t;
  std::uint64_t now = 1000;
  EXPECT_FALSE(checker.check({Command::kActivate, 0, 5, now}).has_value());
  EXPECT_FALSE(checker.check({Command::kRead, 0, 5, now + t.t_rcd_ps}).has_value());
  EXPECT_FALSE(
      checker.check({Command::kPrecharge, 0, 5, now + t.t_ras_ps}).has_value());
  EXPECT_FALSE(checker
                   .check({Command::kActivate, 0, 6,
                           now + t.t_ras_ps + t.t_rp_ps})
                   .has_value());
  EXPECT_TRUE(checker.clean());
  EXPECT_EQ(checker.commands_checked(), 4u);
}

TEST(ProtocolChecker, CatchesStateViolations) {
  ProtocolChecker checker(2, ProtocolTiming{});
  checker.check({Command::kActivate, 0, 5, 1000});
  // ACT on an open bank.
  EXPECT_TRUE(checker.check({Command::kActivate, 0, 6, 200'000}).has_value());
  // Column access on a closed bank.
  EXPECT_TRUE(checker.check({Command::kRead, 1, 5, 300'000}).has_value());
  // PRE on a closed bank.
  EXPECT_TRUE(checker.check({Command::kPrecharge, 1, 5, 400'000}).has_value());
  EXPECT_EQ(checker.violations().size(), 3u);
}

TEST(ProtocolChecker, CatchesTimingViolations) {
  const ProtocolTiming t;
  ProtocolChecker checker(2, t);
  checker.check({Command::kActivate, 0, 5, 1000});
  // tRCD: column too early.
  EXPECT_TRUE(checker.check({Command::kRead, 0, 5, 1000 + t.t_rcd_ps - 1})
                  .has_value());
  // tRAS: precharge too early.
  EXPECT_TRUE(checker.check({Command::kPrecharge, 0, 5, 1000 + t.t_ras_ps - 1})
                  .has_value());
  checker.check({Command::kPrecharge, 0, 5, 1000 + t.t_ras_ps});
  // tRP: re-activate too early.
  EXPECT_TRUE(checker
                  .check({Command::kActivate, 0, 5,
                          1000 + t.t_ras_ps + t.t_rp_ps - 1})
                  .has_value());
}

TEST(ProtocolChecker, CatchesFawViolation) {
  const ProtocolTiming t;
  ProtocolChecker checker(8, t);
  for (std::uint32_t b = 0; b < 4; ++b)
    EXPECT_FALSE(
        checker.check({Command::kActivate, b, 1, 1000 + b}).has_value());
  // Fifth ACT inside the window.
  EXPECT_TRUE(
      checker.check({Command::kActivate, 4, 1, 1000 + t.t_faw_ps - 1})
          .has_value());
  // ...and a sixth after the window is fine.
  EXPECT_FALSE(
      checker.check({Command::kActivate, 5, 1, 1001 + t.t_faw_ps}).has_value());
}

TEST(ProtocolChecker, RefreshSemantics) {
  const ProtocolTiming t;
  ProtocolChecker checker(1, t);
  checker.check({Command::kActivate, 0, 5, 1000});
  // REF with an open row is illegal.
  EXPECT_TRUE(checker.check({Command::kRefresh, 0, 0, 500'000}).has_value());
  checker.check({Command::kPrecharge, 0, 5, 600'000});
  EXPECT_FALSE(checker.check({Command::kRefresh, 0, 0, 700'000}).has_value());
  // Any command inside the blackout is illegal.
  EXPECT_TRUE(checker
                  .check({Command::kActivate, 0, 5, 700'000 + t.t_rfc_ps - 1})
                  .has_value());
  EXPECT_FALSE(checker
                   .check({Command::kActivate, 0, 5, 700'000 + t.t_rfc_ps})
                   .has_value());
}

TEST(ProtocolChecker, RejectsDisorderAndBadBank) {
  ProtocolChecker checker(1, ProtocolTiming{});
  checker.check({Command::kActivate, 0, 5, 1000});
  EXPECT_TRUE(checker.check({Command::kRead, 0, 5, 500}).has_value());
  EXPECT_TRUE(checker.check({Command::kActivate, 7, 5, 2000}).has_value());
  EXPECT_THROW(ProtocolChecker(0, ProtocolTiming{}), std::invalid_argument);
}

// -------------------------------------------------------------- disturbance

TEST(Disturbance, NeighborsAccumulateAndFlip) {
  DisturbanceParams params;
  params.flip_threshold = 100;
  DisturbanceModel model(1, 64, params);
  for (int i = 0; i < 99; ++i) model.on_activate(0, 10, 0);
  EXPECT_FALSE(model.any_flip());
  EXPECT_EQ(model.disturbance_q8(0, 9) >> 8, 99u);
  EXPECT_EQ(model.disturbance_q8(0, 11) >> 8, 99u);
  model.on_activate(0, 10, 5);
  ASSERT_EQ(model.flips().size(), 2u);  // both neighbours cross together
  EXPECT_EQ(model.flips()[0].row, 9u);
  EXPECT_EQ(model.flips()[1].row, 11u);
  EXPECT_EQ(model.flips()[0].interval, 5u);
  EXPECT_EQ(model.activations(), 100u);
}

TEST(Disturbance, ActivationRestoresOwnRow) {
  DisturbanceParams params;
  params.flip_threshold = 100;
  DisturbanceModel model(1, 64, params);
  for (int i = 0; i < 50; ++i) model.on_activate(0, 10, 0);
  EXPECT_GT(model.disturbance_q8(0, 11), 0u);
  model.on_activate(0, 11, 0);  // activating the victim restores it
  EXPECT_EQ(model.disturbance_q8(0, 11), 0u);
}

TEST(Disturbance, RefreshRestores) {
  DisturbanceParams params;
  params.flip_threshold = 100;
  DisturbanceModel model(1, 64, params);
  for (int i = 0; i < 60; ++i) model.on_activate(0, 10, 0);
  model.on_refresh_row(0, 9);
  EXPECT_EQ(model.disturbance_q8(0, 9), 0u);
  // ...and a flip can then only occur with a fresh accumulation: row 9
  // restarts while the never-refreshed row 11 crosses the threshold.
  for (int i = 0; i < 60; ++i) model.on_activate(0, 10, 0);
  EXPECT_EQ(model.disturbance_q8(0, 9) >> 8, 60u);
  EXPECT_EQ(model.disturbance_q8(0, 11) >> 8, 120u);  // never refreshed
  ASSERT_EQ(model.flips().size(), 1u);
  EXPECT_EQ(model.flips()[0].row, 11u);
}

TEST(Disturbance, FlipLatchedOncePerChargePeriod) {
  DisturbanceParams params;
  params.flip_threshold = 10;
  DisturbanceModel model(1, 64, params);
  for (int i = 0; i < 30; ++i) model.on_activate(0, 10, 0);
  // Each victim flips once, not thirty times.
  EXPECT_EQ(model.flips().size(), 2u);
  model.on_refresh_row(0, 9);
  for (int i = 0; i < 10; ++i) model.on_activate(0, 10, 0);
  EXPECT_EQ(model.flips().size(), 3u);  // re-armed after restore
}

TEST(Disturbance, EdgeRowsHaveOneNeighbor) {
  DisturbanceParams params;
  params.flip_threshold = 5;
  DisturbanceModel model(1, 8, params);
  for (int i = 0; i < 5; ++i) model.on_activate(0, 0, 0);
  ASSERT_EQ(model.flips().size(), 1u);
  EXPECT_EQ(model.flips()[0].row, 1u);
}

TEST(Disturbance, BlastRadiusTwo) {
  DisturbanceParams params;
  params.flip_threshold = 1000;
  params.blast_radius = 2;
  params.distance2_weight_q8 = 64;  // quarter strength
  DisturbanceModel model(1, 64, params);
  for (int i = 0; i < 16; ++i) model.on_activate(0, 10, 0);
  EXPECT_EQ(model.disturbance_q8(0, 9), 16u * 256);
  EXPECT_EQ(model.disturbance_q8(0, 8), 16u * 64);
  EXPECT_EQ(model.disturbance_q8(0, 12), 16u * 64);
}

TEST(Disturbance, PerBankIsolation) {
  DisturbanceModel model(2, 64, {});
  for (int i = 0; i < 10; ++i) model.on_activate(0, 10, 0);
  EXPECT_EQ(model.disturbance_q8(1, 9), 0u);
  EXPECT_EQ(model.disturbance_q8(0, 9), 10u * 256);
}

TEST(Disturbance, ResetClearsEverything) {
  DisturbanceParams params;
  params.flip_threshold = 5;
  DisturbanceModel model(1, 16, params);
  for (int i = 0; i < 10; ++i) model.on_activate(0, 5, 0);
  EXPECT_TRUE(model.any_flip());
  model.reset();
  EXPECT_FALSE(model.any_flip());
  EXPECT_EQ(model.activations(), 0u);
  EXPECT_EQ(model.peak_disturbance_q8(), 0u);
  EXPECT_EQ(model.disturbance_q8(0, 4), 0u);
}

TEST(Disturbance, ThresholdVariationDrawsPerRow) {
  DisturbanceParams params;
  params.flip_threshold = 1000;
  params.variation_pct = 25;
  DisturbanceModel model(1, 256, params);
  std::uint32_t lo = ~0u, hi = 0;
  for (RowId r = 0; r < 256; ++r) {
    const auto t = model.threshold_of(0, r);
    EXPECT_GE(t, 750u);
    EXPECT_LE(t, 1250u);
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_LT(lo, 850u);  // the draw actually spreads
  EXPECT_GT(hi, 1150u);
  // Deterministic in the seed.
  DisturbanceModel again(1, 256, params);
  for (RowId r = 0; r < 256; r += 17)
    EXPECT_EQ(model.threshold_of(0, r), again.threshold_of(0, r));
}

TEST(Disturbance, WeakRowFlipsEarlier) {
  DisturbanceParams params;
  params.flip_threshold = 1000;
  params.variation_pct = 40;
  DisturbanceModel model(1, 64, params);
  // Hammer row 10 until its weaker neighbour flips; the flip must occur
  // at that row's own (varied) threshold, not the nominal one.
  const std::uint32_t t9 = model.threshold_of(0, 9);
  const std::uint32_t t11 = model.threshold_of(0, 11);
  const std::uint32_t weaker = std::min(t9, t11);
  for (std::uint32_t i = 0; i < weaker - 1; ++i) model.on_activate(0, 10, 0);
  EXPECT_FALSE(model.any_flip());
  model.on_activate(0, 10, 0);
  ASSERT_FALSE(model.flips().empty());
  EXPECT_EQ(model.threshold_of(0, model.flips()[0].row), weaker);
}

TEST(Disturbance, VariationZeroIsUniform) {
  DisturbanceModel model(2, 64, {});
  EXPECT_EQ(model.threshold_of(0, 5), 139'000u);
  EXPECT_EQ(model.threshold_of(1, 63), 139'000u);
  EXPECT_THROW(model.threshold_of(2, 0), std::out_of_range);
}

TEST(Disturbance, InvalidConfigThrows) {
  EXPECT_THROW(DisturbanceModel(0, 16, {}), std::invalid_argument);
  DisturbanceParams params;
  params.blast_radius = 3;
  EXPECT_THROW(DisturbanceModel(1, 16, params), std::invalid_argument);
  params = {};
  params.flip_threshold = 0;
  EXPECT_THROW(DisturbanceModel(1, 16, params), std::invalid_argument);
  params = {};
  params.variation_pct = 100;
  EXPECT_THROW(DisturbanceModel(1, 16, params), std::invalid_argument);
  DisturbanceModel ok(1, 16, {});
  EXPECT_THROW(ok.disturbance_q8(0, 99), std::out_of_range);
}

}  // namespace
}  // namespace tvp::dram
