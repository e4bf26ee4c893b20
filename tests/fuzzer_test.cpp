// Tests for the TRR-evasion pattern fuzzer, the fuzz workload model,
// the distance-2 (half-double) disturbance ground truth, and the fuzz
// evasion campaign.
//
// The differential section reimplements the fuzzer's derivation
// contract (fuzzer.hpp) as an independent scalar reference: slot-scan
// expansion instead of bucket insertion, plain arrays instead of the
// FuzzedPattern structures. Any drift between the two is a contract
// break, not a refactor.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <unordered_set>

#include "tvp/dram/disturbance.hpp"
#include "tvp/exp/config_io.hpp"
#include "tvp/exp/fuzz.hpp"
#include "tvp/exp/registry.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/trace/fuzzer.hpp"
#include "tvp/trace/source.hpp"

namespace tvp {
namespace {

namespace fs = std::filesystem;

// Unique temp path per test; removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("tvp_fuzzer_test_" + name + "_" + std::to_string(::getpid())))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------- differential reference

/// Independent scalar reimplementation of the derivation contract in
/// fuzzer.hpp. Same RNG draws in the same order; the expansion walks
/// slots and tests membership (s % stride == phase) instead of
/// inserting into per-slot buckets.
struct RefPattern {
  std::uint64_t period = 0;
  std::vector<std::uint64_t> victims, appearances, phases, amplitudes;
  std::vector<std::uint64_t> decoys;
  std::vector<dram::RowId> schedule;
};

RefPattern reference_pattern(const trace::FuzzParams& p, std::uint64_t seed) {
  util::Rng rng(seed);
  RefPattern out;
  const std::uint64_t pairs = rng.between(p.pairs_min, p.pairs_max);
  const std::uint64_t period_exp =
      rng.between(p.period_exp_min, p.period_exp_max);
  out.period = 1ull << period_exp;

  const std::uint64_t region = (p.rows_per_bank - 8) / pairs;
  for (std::uint64_t j = 0; j < pairs; ++j)
    out.victims.push_back(4 + j * region + rng.below(region - 8));
  for (std::uint64_t j = 0; j < pairs; ++j) {
    const std::uint64_t freq_exp = rng.below(period_exp + 1);
    out.appearances.push_back(1ull << freq_exp);
    out.phases.push_back(rng.below(out.period / out.appearances[j]));
    out.amplitudes.push_back(rng.between(1, p.amplitude_max));
  }
  const std::uint64_t decoys = rng.between(1, p.decoys_max);
  while (out.decoys.size() < decoys) {
    const std::uint64_t row = rng.below(p.rows_per_bank);
    bool rejected = false;
    for (const auto v : out.victims)
      if ((row >= v ? row - v : v - row) <= 4) rejected = true;
    for (const auto d : out.decoys)
      if (d == row) rejected = true;
    if (!rejected) out.decoys.push_back(row);
  }

  // Slot scan: for each slot, each pair in order contributes iff the
  // slot lies on its phase lattice.
  const auto push = [&](std::vector<dram::RowId>& bucket, std::int64_t row) {
    if (row >= 0 && row < static_cast<std::int64_t>(p.rows_per_bank))
      bucket.push_back(static_cast<dram::RowId>(row));
  };
  std::uint64_t decoy_cursor = 0;
  for (std::uint64_t s = 0; s < out.period; ++s) {
    std::vector<dram::RowId> bucket;
    for (std::uint64_t j = 0; j < pairs; ++j) {
      const std::uint64_t stride = out.period / out.appearances[j];
      if (s % stride != out.phases[j]) continue;
      const std::uint64_t k = s / stride;
      const auto v = static_cast<std::int64_t>(out.victims[j]);
      for (std::uint64_t a = 0; a < out.amplitudes[j]; ++a) {
        if (p.half_double) {
          push(bucket, v - 2);
          push(bucket, v + 2);
        } else {
          push(bucket, v - 1);
          push(bucket, v + 1);
        }
      }
      if (p.half_double) push(bucket, (k % 2 == 0) ? v - 1 : v + 1);
    }
    if (bucket.empty()) {
      bucket.push_back(static_cast<dram::RowId>(out.decoys[decoy_cursor]));
      decoy_cursor = (decoy_cursor + 1) % out.decoys.size();
    }
    out.schedule.insert(out.schedule.end(), bucket.begin(), bucket.end());
  }
  return out;
}

constexpr std::uint64_t kDifferentialSeeds = 64;

TEST(FuzzerDifferential, MatchesScalarReferenceForEverySeed) {
  for (const bool half_double : {false, true}) {
    trace::FuzzParams params;
    params.rows_per_bank = 16384;
    params.half_double = half_double;
    const trace::PatternFuzzer fuzzer(params);
    for (std::uint64_t seed = 1; seed <= kDifferentialSeeds; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (half_double ? " half-double" : ""));
      const auto got = fuzzer.pattern(seed);
      const RefPattern want = reference_pattern(params, seed);
      ASSERT_EQ(got.period_slots, want.period);
      ASSERT_EQ(got.pairs.size(), want.victims.size());
      for (std::size_t j = 0; j < want.victims.size(); ++j) {
        EXPECT_EQ(got.pairs[j].victim, want.victims[j]) << "pair " << j;
        EXPECT_EQ(got.pairs[j].appearances, want.appearances[j]) << "pair " << j;
        EXPECT_EQ(got.pairs[j].phase, want.phases[j]) << "pair " << j;
        EXPECT_EQ(got.pairs[j].amplitude, want.amplitudes[j]) << "pair " << j;
      }
      ASSERT_EQ(got.decoys.size(), want.decoys.size());
      for (std::size_t k = 0; k < want.decoys.size(); ++k)
        EXPECT_EQ(got.decoys[k], want.decoys[k]) << "decoy " << k;
      ASSERT_EQ(got.schedule, want.schedule);
    }
  }
}

TEST(FuzzerBatched, RecordsAreBitIdenticalAcrossBatchSizes) {
  // The emitted record stream — not just the schedule — must be byte-
  // identical whether pulled one record at a time or in any batch size,
  // and must equal the reference schedule replayed cyclically.
  trace::FuzzParams params;
  params.rows_per_bank = 16384;
  const trace::PatternFuzzer fuzzer(params);
  for (std::uint64_t seed = 1; seed <= kDifferentialSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto pattern = fuzzer.pattern(seed);
    const RefPattern want = reference_pattern(params, seed);
    auto config = fuzzer.make_attack(pattern, /*bank=*/1,
                                     /*interarrival_ps=*/50'000,
                                     /*source_id=*/42);
    const std::size_t n_records = 3 * want.schedule.size() + 5;
    config.end_ps = 50'000 * (n_records + 1);

    trace::AttackSource reference(config);
    std::vector<trace::AccessRecord> one;
    while (const auto rec = reference.next()) one.push_back(*rec);
    ASSERT_EQ(one.size(), n_records);
    for (std::size_t i = 0; i < one.size(); ++i) {
      ASSERT_EQ(one[i].row, want.schedule[i % want.schedule.size()]) << i;
      ASSERT_EQ(one[i].bank, 1u) << i;
      ASSERT_EQ(one[i].source, 42u) << i;
      ASSERT_TRUE(one[i].is_attack) << i;
    }

    for (const std::size_t batch : {1ul, 7ul, 256ul, 4096ul}) {
      trace::AttackSource source(config);
      std::vector<trace::AccessRecord> got;
      std::vector<trace::AccessRecord> buffer(batch);
      while (const std::size_t n = source.next_batch(buffer.data(), batch))
        got.insert(got.end(), buffer.begin(), buffer.begin() + n);
      ASSERT_EQ(got.size(), one.size()) << "batch " << batch;
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].row, one[i].row) << "batch " << batch << " rec " << i;
        ASSERT_EQ(got[i].time_ps, one[i].time_ps)
            << "batch " << batch << " rec " << i;
      }
    }
  }
}

TEST(Fuzzer, DeterministicAndSeedSensitive) {
  trace::FuzzParams params;
  const trace::PatternFuzzer fuzzer(params);
  std::unordered_set<std::string> shapes;
  for (std::uint64_t seed = 1; seed <= kDifferentialSeeds; ++seed) {
    const auto a = fuzzer.pattern(seed);
    const auto b = fuzzer.pattern(seed);
    ASSERT_EQ(a.schedule, b.schedule) << "seed " << seed;
    std::string shape;
    for (const auto row : a.schedule) shape += std::to_string(row) + ",";
    shapes.insert(shape);
  }
  // Every seed should draw a distinct schedule in a 2^17-row bank.
  EXPECT_EQ(shapes.size(), kDifferentialSeeds);
}

TEST(Fuzzer, ScheduleInvariants) {
  trace::FuzzParams params;
  params.rows_per_bank = 16384;
  for (const bool half_double : {false, true}) {
    params.half_double = half_double;
    const trace::PatternFuzzer fuzzer(params);
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const auto pattern = fuzzer.pattern(seed);
      std::unordered_set<dram::RowId> victims(pattern.victims.begin(),
                                              pattern.victims.end());
      // At least one activation per slot; no victim ever activated;
      // every activation lands near a victim or on a decoy.
      EXPECT_GE(pattern.schedule.size(), pattern.period_slots);
      std::unordered_set<dram::RowId> allowed(pattern.decoys.begin(),
                                              pattern.decoys.end());
      for (const auto v : pattern.victims) {
        allowed.insert(v - 1);
        allowed.insert(v + 1);
        if (half_double) {
          allowed.insert(v - 2);
          allowed.insert(v + 2);
        }
      }
      for (const auto row : pattern.schedule) {
        ASSERT_LT(row, params.rows_per_bank);
        ASSERT_FALSE(victims.count(row)) << "victim activated";
        ASSERT_TRUE(allowed.count(row)) << "stray row " << row;
      }
    }
  }
}

TEST(Fuzzer, RejectsInconsistentParams) {
  trace::FuzzParams params;
  params.pairs_min = 0;
  EXPECT_THROW(trace::PatternFuzzer{params}, std::invalid_argument);
  params = {};
  params.pairs_min = 5;
  params.pairs_max = 2;
  EXPECT_THROW(trace::PatternFuzzer{params}, std::invalid_argument);
  params = {};
  params.period_exp_max = 17;
  EXPECT_THROW(trace::PatternFuzzer{params}, std::invalid_argument);
  params = {};
  params.amplitude_max = 0;
  EXPECT_THROW(trace::PatternFuzzer{params}, std::invalid_argument);
  params = {};
  params.rows_per_bank = 32;  // too small for 6 separated pairs
  EXPECT_THROW(trace::PatternFuzzer{params}, std::invalid_argument);
}

TEST(Fuzzer, AttackSourceRejectsBadSchedules) {
  trace::AttackConfig cfg;
  cfg.pattern = trace::AttackPattern::kFuzzed;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  EXPECT_THROW(trace::AttackSource{cfg}, std::invalid_argument);  // empty
  cfg.schedule = {99, 2048};
  EXPECT_THROW(trace::AttackSource{cfg}, std::invalid_argument);  // range
  cfg.schedule = {99, 100};
  EXPECT_THROW(trace::AttackSource{cfg}, std::invalid_argument);  // victim
  cfg.schedule = {99, 101};
  const trace::AttackSource ok(cfg);
  EXPECT_EQ(ok.aggressors(), (std::vector<dram::RowId>{99, 101}));
}

// --------------------------------------------- half-double ground truth

TEST(HalfDoubleGroundTruth, HandComputedDistance1And2Flips) {
  dram::DisturbanceParams params;
  params.flip_threshold = 100;
  params.blast_radius = 2;
  params.distance2_weight_q8 = 16;
  dram::DisturbanceModel model(1, 32, params);

  // Hammer row 10. Distance-1 rows 9/11 take 256 q8 per ACT and flip
  // exactly at ACT 100; distance-2 rows 8/12 take 16 q8 per ACT and
  // flip exactly at ACT ceil(100 * 256 / 16) = 1600.
  for (std::uint32_t i = 0; i < 1600; ++i) model.on_activate(0, 10, 0);
  ASSERT_EQ(model.flips().size(), 4u);
  EXPECT_EQ(model.flips()[0].row, 9u);
  EXPECT_EQ(model.flips()[0].at_activation, 100u);
  EXPECT_EQ(model.flips()[1].row, 11u);
  EXPECT_EQ(model.flips()[1].at_activation, 100u);
  EXPECT_EQ(model.flips()[2].row, 8u);
  EXPECT_EQ(model.flips()[2].at_activation, 1600u);
  EXPECT_EQ(model.flips()[3].row, 12u);
  EXPECT_EQ(model.flips()[3].at_activation, 1600u);
  EXPECT_EQ(model.disturbance_q8(0, 9), 1600u * 256u);
  EXPECT_EQ(model.disturbance_q8(0, 8), 1600u * 16u);

  // The same hammering at blast radius 1 must leave rows 8/12 untouched.
  dram::DisturbanceParams d1 = params;
  d1.blast_radius = 1;
  dram::DisturbanceModel base(1, 32, d1);
  for (std::uint32_t i = 0; i < 1600; ++i) base.on_activate(0, 10, 0);
  ASSERT_EQ(base.flips().size(), 2u);
  EXPECT_EQ(base.disturbance_q8(0, 8), 0u);
  EXPECT_EQ(base.disturbance_q8(0, 12), 0u);
}

TEST(HalfDoubleGroundTruth, BankEdgeRowsClampTheBlast) {
  dram::DisturbanceParams params;
  params.flip_threshold = 50;
  params.blast_radius = 2;
  params.distance2_weight_q8 = 64;
  dram::DisturbanceModel model(1, 8, params);

  // Row 0: only rows 1 (d1) and 2 (d2) exist on the high side.
  for (std::uint32_t i = 0; i < 200; ++i) model.on_activate(0, 0, 0);
  EXPECT_EQ(model.disturbance_q8(0, 1), 200u * 256u);
  EXPECT_EQ(model.disturbance_q8(0, 2), 200u * 64u);
  ASSERT_EQ(model.flips().size(), 2u);
  EXPECT_EQ(model.flips()[0].row, 1u);
  EXPECT_EQ(model.flips()[0].at_activation, 50u);  // 50 * 256 >= 50 << 8
  EXPECT_EQ(model.flips()[1].row, 2u);
  EXPECT_EQ(model.flips()[1].at_activation, 200u);  // 200 * 64 = 50 << 8

  // Last row: the mirror image, clamped on the high side.
  dram::DisturbanceModel tail(1, 8, params);
  for (std::uint32_t i = 0; i < 200; ++i) tail.on_activate(0, 7, 0);
  EXPECT_EQ(tail.disturbance_q8(0, 6), 200u * 256u);
  EXPECT_EQ(tail.disturbance_q8(0, 5), 200u * 64u);
  ASSERT_EQ(tail.flips().size(), 2u);

  // Row 1: d1 reaches both sides (0 and 2); d2 only row 3.
  dram::DisturbanceModel inner(1, 8, params);
  inner.on_activate(0, 1, 0);
  EXPECT_EQ(inner.disturbance_q8(0, 0), 256u);
  EXPECT_EQ(inner.disturbance_q8(0, 2), 256u);
  EXPECT_EQ(inner.disturbance_q8(0, 3), 64u);
  EXPECT_EQ(inner.disturbance_q8(0, 4), 0u);
}

/// Tiny attacked system for the full-pipeline tests below (exp_test's
/// batch-equivalence idiom: real tREFI shape, scaled thresholds).
exp::SimConfig tiny_config() {
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.geometry.rows_per_bank = 16384;
  cfg.timing.t_refw_ps = 2'000'000'000;  // 2 ms window
  cfg.timing.refresh_intervals = 256;    // keeps tREFI at ~7.8 us
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  cfg.technique.flip_threshold = 4000;
  cfg.disturbance.flip_threshold = 3000;
  cfg.finalize();
  return cfg;
}

TEST(HalfDoubleGroundTruth, RemapActiveVictimAccountingIsExact) {
  // Unprotected half-double hammering of one victim, with row remapping
  // active. Per 34 emissions the victim takes 32 far ACTs * 32 q8 + 2
  // dribbles * 256 q8 = 1536 q8 (~45 q8/ACT); the far rows' outer d1
  // neighbours (v +/- 3) take ~120 q8/ACT and flip first; the dribbled
  // near rows v +/- 1 are recharged by their own ACTs and never flip.
  // At blast radius 1 the victim's only disturbance is the dribble
  // stream (~15 q8/ACT, under threshold): zero victim flips.
  const auto run = [](std::uint32_t blast_radius, bool remap) {
    exp::SimConfig cfg = tiny_config();
    cfg.workload.benign_acts_per_interval_per_bank = 0.0;
    cfg.disturbance.blast_radius = blast_radius;
    cfg.disturbance.distance2_weight_q8 = 32;
    cfg.remap_rows = remap;
    trace::AttackConfig attack;
    attack.pattern = trace::AttackPattern::kHalfDouble;
    attack.victims = {1000};
    attack.far_per_near = 16;
    attack.rows_per_bank = cfg.geometry.rows_per_bank;
    attack.interarrival_ps = 45'000;  // tRC: ~44 K ACTs in the window
    cfg.workload.attacks.push_back(attack);
    cfg.finalize();
    const auto none = [](dram::BankId, util::Rng) {
      return std::make_unique<mem::NoMitigation>();
    };
    return exp::run_custom_simulation(none, "none", cfg);
  };

  for (const bool remap : {false, true}) {
    SCOPED_TRACE(remap ? "remap" : "identity");
    const auto r2 = run(2, remap);
    EXPECT_EQ(r2.victim_flips, 1u);
    EXPECT_EQ(r2.flips, 3u);  // v - 3, v, v + 3 (physical images)
    const auto r1 = run(1, remap);
    EXPECT_EQ(r1.victim_flips, 0u);
  }
}

TEST(HalfDoubleEquivalence, BlastTwoWeightZeroIsBitIdenticalToBlastOne) {
  // Distance-2 disabled (weight 0) must be indistinguishable from
  // today's radius-1 model — same stats, same flip history — for every
  // technique, sharded or serial.
  exp::SimConfig base = tiny_config();
  trace::AttackConfig attack;
  attack.pattern = trace::AttackPattern::kHalfDouble;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = base.geometry.rows_per_bank;
  attack.interarrival_ps = 180'000;
  base.workload.attacks.push_back(attack);
  base.finalize();

  std::vector<std::pair<std::string, mem::BankMitigationFactory>> variants;
  variants.emplace_back("none", [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  });
  for (const auto t : hw::kAllTechniques)
    variants.emplace_back(std::string(hw::to_string(t)),
                          make_factory(t, base.technique));

  for (const auto& [name, factory] : variants) {
    for (const std::size_t jobs : {1ul, 8ul}) {
      const std::string label = name + " jobs " + std::to_string(jobs);
      exp::SimConfig d1 = base;
      d1.bank_jobs = jobs;
      d1.disturbance.blast_radius = 1;
      exp::SimConfig d2 = d1;
      d2.disturbance.blast_radius = 2;
      d2.disturbance.distance2_weight_q8 = 0;
      const auto a = exp::run_custom_simulation(factory, name, d1);
      const auto b = exp::run_custom_simulation(factory, name, d2);
      EXPECT_EQ(a.stats.demand_acts, b.stats.demand_acts) << label;
      EXPECT_EQ(a.stats.extra_acts, b.stats.extra_acts) << label;
      EXPECT_EQ(a.stats.fp_extra_acts, b.stats.fp_extra_acts) << label;
      EXPECT_EQ(a.stats.triggers, b.stats.triggers) << label;
      EXPECT_EQ(a.flips, b.flips) << label;
      EXPECT_EQ(a.victim_flips, b.victim_flips) << label;
      EXPECT_EQ(a.peak_disturbance, b.peak_disturbance) << label;
      ASSERT_EQ(a.flip_events.size(), b.flip_events.size()) << label;
      for (std::size_t i = 0; i < a.flip_events.size(); ++i) {
        EXPECT_EQ(a.flip_events[i].row, b.flip_events[i].row) << label;
        EXPECT_EQ(a.flip_events[i].at_activation,
                  b.flip_events[i].at_activation)
            << label;
      }
    }
  }
}

// ------------------------------------------------------- fuzz workload

exp::SimConfig fuzz_config() {
  exp::SimConfig cfg = tiny_config();
  cfg.workload.model = exp::BenignModel::kFuzz;
  cfg.workload.fuzz.seed = 7;
  cfg.workload.fuzz.patterns = 2;
  cfg.workload.fuzz.acts_per_interval = 150.0;
  cfg.disturbance.flip_threshold = 2000;
  cfg.technique.flip_threshold = 2600;
  cfg.seed = 3;
  cfg.finalize();
  return cfg;
}

TEST(FuzzWorkload, BuildWorkloadCollectsFuzzOracles) {
  const exp::SimConfig cfg = fuzz_config();
  exp::Streams streams(cfg.seed);
  std::unordered_set<std::uint64_t> aggressors, victims;
  auto source = exp::build_workload(cfg, streams.workload, &aggressors, &victims);
  ASSERT_TRUE(source != nullptr);
  ASSERT_FALSE(aggressors.empty());
  ASSERT_FALSE(victims.empty());
  for (const auto v : victims)
    EXPECT_FALSE(aggressors.count(v)) << "victim key doubles as aggressor";

  // The derived patterns match a PatternFuzzer run with the same spec.
  trace::FuzzParams params = cfg.workload.fuzz.params;
  const trace::PatternFuzzer fuzzer(params);
  for (std::uint32_t i = 0; i < cfg.workload.fuzz.patterns; ++i) {
    const auto pattern = fuzzer.pattern(cfg.workload.fuzz.seed + i);
    const auto bank = i % cfg.geometry.total_banks();
    for (const auto v : pattern.victims)
      EXPECT_TRUE(victims.count((static_cast<std::uint64_t>(bank) << 32) | v))
          << "pattern " << i;
  }
}

TEST(FuzzWorkload, UnprotectedFuzzPatternsFlipVictims) {
  const exp::SimConfig cfg = fuzz_config();
  const auto none = [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  };
  const auto result = exp::run_custom_simulation(none, "none", cfg);
  EXPECT_GT(result.victim_flips, 0u);
}

TEST(FuzzWorkload, GenerateVsReplayIsBitIdenticalForEveryTechnique) {
  const exp::SimConfig cfg = fuzz_config();
  TempFile file("fuzz_replay");
  exp::record_corpus(cfg, file.path());

  exp::SimConfig replay = cfg;
  replay.workload.model = exp::BenignModel::kReplay;
  replay.workload.trace_path = file.path();
  replay.finalize();

  const auto expect_identical = [](const exp::RunResult& gen,
                                   const exp::RunResult& rep) {
    EXPECT_EQ(gen.records, rep.records);
    EXPECT_EQ(gen.stats.demand_acts, rep.stats.demand_acts);
    EXPECT_EQ(gen.stats.extra_acts, rep.stats.extra_acts);
    EXPECT_EQ(gen.stats.fp_extra_acts, rep.stats.fp_extra_acts);
    EXPECT_EQ(gen.stats.triggers, rep.stats.triggers);
    EXPECT_EQ(gen.flips, rep.flips);
    EXPECT_EQ(gen.victim_flips, rep.victim_flips);
    EXPECT_EQ(gen.peak_disturbance, rep.peak_disturbance);
    ASSERT_EQ(gen.flip_events.size(), rep.flip_events.size());
    for (std::size_t i = 0; i < gen.flip_events.size(); ++i) {
      EXPECT_EQ(gen.flip_events[i].bank, rep.flip_events[i].bank) << i;
      EXPECT_EQ(gen.flip_events[i].row, rep.flip_events[i].row) << i;
      EXPECT_EQ(gen.flip_events[i].at_activation,
                rep.flip_events[i].at_activation)
          << i;
    }
  };

  const auto none = [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  };
  expect_identical(exp::run_custom_simulation(none, "none", cfg),
                   exp::run_custom_simulation(none, "none", replay));
  for (const auto technique : hw::kAllTechniques) {
    SCOPED_TRACE(std::string(hw::to_string(technique)));
    expect_identical(exp::run_simulation(technique, cfg),
                     exp::run_simulation(technique, replay));
  }
}

// ------------------------------------------------------- fuzz campaign

exp::FuzzCampaignOptions tiny_campaign() {
  exp::FuzzCampaignOptions options;
  options.base = fuzz_config();
  options.fuzz_seeds = 2;
  options.pbase_exps = {17};
  return options;
}

TEST(FuzzCampaign, ReportIsBitIdenticalAcrossJobsAndReplay) {
  const exp::FuzzCampaignOptions options = tiny_campaign();

  // One cohort per seed; with 3 jobs for the 2 seeds each seed's panel
  // splits into two sub-cohorts, and with 8 into four.
  ASSERT_EQ(setenv("TVP_JOBS", "1", 1), 0);
  const auto serial = exp::run_fuzz_campaign(options);
  const std::string serial_report = exp::fuzz_report_json(options, serial);
  ASSERT_EQ(setenv("TVP_JOBS", "3", 1), 0);
  const auto split = exp::run_fuzz_campaign(options);
  EXPECT_EQ(serial_report, exp::fuzz_report_json(options, split));
  ASSERT_EQ(setenv("TVP_JOBS", "8", 1), 0);
  const auto parallel = exp::run_fuzz_campaign(options);
  EXPECT_EQ(serial_report, exp::fuzz_report_json(options, parallel));

  // Record + replay, at 8 jobs and serially: byte-identical verdicts and
  // report.
  const std::string dir =
      (fs::temp_directory_path() /
       ("tvp_fuzzer_test_campaign_" + std::to_string(::getpid())))
          .string();
  fs::create_directories(dir);
  exp::FuzzCampaignOptions replayed = options;
  replayed.trace_dir = dir;
  const auto rep = exp::run_fuzz_campaign(replayed);
  EXPECT_EQ(serial_report, exp::fuzz_report_json(options, rep));
  ASSERT_EQ(setenv("TVP_JOBS", "1", 1), 0);
  const auto rep_serial = exp::run_fuzz_campaign(replayed);
  EXPECT_EQ(serial_report, exp::fuzz_report_json(options, rep_serial));
  unsetenv("TVP_JOBS");

  // A seed's cohort partitions its records once, whatever the size of
  // its panel: generated, the scatter pass takes each record once;
  // replayed, the corpus lanes feed each record once.
  std::uint64_t records = 0;
  for (std::uint32_t s = 0; s < options.fuzz_seeds; ++s)
    records += trace::read_corpus_info(
                   dir + "/fuzz_" +
                   std::to_string(options.base.workload.fuzz.seed + s) +
                   ".tvpc")
                   .total_records;
  fs::remove_all(dir);
  EXPECT_GT(records, 0u);
  EXPECT_EQ(serial.stages.scattered_acts, records);
  EXPECT_EQ(serial.stages.partitioned_acts, 0u);
  EXPECT_EQ(rep_serial.stages.scattered_acts, 0u);
  EXPECT_EQ(rep_serial.stages.partitioned_acts, records);

  ASSERT_EQ(serial.cells.size(),
            options.fuzz_seeds * serial.defences.size());
  // The unprotected baseline must show potency, and the strongest
  // P_base point must intervene (nonzero overhead) on every seed.
  EXPECT_GT(serial.potent_seeds, 0u);
  for (const auto& cell : serial.cells) {
    if (cell.defence == "none") {
      EXPECT_GT(cell.flips, 0u);
    }
  }
}

TEST(FuzzCampaign, RejectsNonFuzzBase) {
  exp::FuzzCampaignOptions options = tiny_campaign();
  options.base.workload.model = exp::BenignModel::kMixedSynthetic;
  EXPECT_THROW(exp::run_fuzz_campaign(options), std::invalid_argument);
  options = tiny_campaign();
  options.fuzz_seeds = 0;
  EXPECT_THROW(exp::run_fuzz_campaign(options), std::invalid_argument);
  options = tiny_campaign();
  options.pbase_exps.clear();
  EXPECT_THROW(exp::run_fuzz_campaign(options), std::invalid_argument);
}

// ------------------------------------------------------------ config io

TEST(ConfigIo, FuzzWorkloadRoundTripsThroughConfigText) {
  exp::SimConfig cfg = fuzz_config();
  // The file names a timing by its preset; tiny_config's shortened
  // window is none, and to_config_text rejects it.
  cfg.timing = dram::ddr4_timing();
  cfg.workload.fuzz.params.pairs_min = 3;
  cfg.workload.fuzz.params.pairs_max = 5;
  cfg.workload.fuzz.params.period_exp_min = 6;
  cfg.workload.fuzz.params.period_exp_max = 7;
  cfg.workload.fuzz.params.amplitude_max = 2;
  cfg.workload.fuzz.params.decoys_max = 3;
  cfg.workload.fuzz.params.half_double = true;
  cfg.disturbance.blast_radius = 2;
  cfg.disturbance.distance2_weight_q8 = 48;
  cfg.disturbance.variation_pct = 10;
  cfg.remap_rows = true;
  cfg.remap_swaps = 8;
  cfg.finalize();

  exp::SimConfig parsed;
  exp::apply_config(parsed,
                    util::KeyValueFile::parse(exp::to_config_text(cfg)));
  EXPECT_EQ(parsed.workload.model, exp::BenignModel::kFuzz);
  EXPECT_EQ(parsed.workload.fuzz.seed, cfg.workload.fuzz.seed);
  EXPECT_EQ(parsed.workload.fuzz.patterns, cfg.workload.fuzz.patterns);
  EXPECT_DOUBLE_EQ(parsed.workload.fuzz.acts_per_interval,
                   cfg.workload.fuzz.acts_per_interval);
  EXPECT_EQ(parsed.workload.fuzz.params.pairs_min, 3u);
  EXPECT_EQ(parsed.workload.fuzz.params.pairs_max, 5u);
  EXPECT_EQ(parsed.workload.fuzz.params.period_exp_min, 6u);
  EXPECT_EQ(parsed.workload.fuzz.params.period_exp_max, 7u);
  EXPECT_EQ(parsed.workload.fuzz.params.amplitude_max, 2u);
  EXPECT_EQ(parsed.workload.fuzz.params.decoys_max, 3u);
  EXPECT_TRUE(parsed.workload.fuzz.params.half_double);
  EXPECT_EQ(parsed.disturbance.blast_radius, 2u);
  EXPECT_EQ(parsed.disturbance.distance2_weight_q8, 48u);
  EXPECT_EQ(parsed.disturbance.variation_pct, 10u);
  EXPECT_TRUE(parsed.remap_rows);
  EXPECT_EQ(parsed.remap_swaps, 8u);
}

TEST(ConfigIo, FuzzSeedIsSweepable) {
  // fuzz.seed is an ordinary config key, so the generic sweep engine
  // sweeps fuzzer seeds; each cell equals a direct run at that seed.
  // Timing is not addressable by key (only timing.preset), so this test
  // runs at the DDR4 preset with a small bank and a low fuzz rate.
  util::KeyValueFile base;
  base.set("geometry.banks", "2");
  base.set("geometry.rows_per_bank", "16384");
  base.set("windows", "1");
  base.set("seed", "3");
  base.set("workload.benign_rate", "5");
  base.set("workload.model", "fuzz");
  base.set("fuzz.patterns", "2");
  base.set("fuzz.rate", "40");
  base.set("disturbance.flip_threshold", "2000");
  const auto sweep = exp::run_param_sweep(base, "fuzz.seed", {"5", "9"},
                                          {hw::Technique::kLoLiPRoMi});
  ASSERT_EQ(sweep.cells.size(), 2u);

  const std::uint64_t seeds[] = {5, 9};
  for (const std::size_t i : {0ul, 1ul}) {
    exp::SimConfig direct;
    exp::apply_config(direct, base);
    direct.workload.fuzz.seed = seeds[i];
    direct.finalize();
    const auto want = exp::run_simulation(hw::Technique::kLoLiPRoMi, direct);
    EXPECT_EQ(sweep.at(i, 0).records, want.records) << "seed " << seeds[i];
    EXPECT_EQ(sweep.at(i, 0).flips, want.flips) << "seed " << seeds[i];
    EXPECT_EQ(sweep.at(i, 0).stats.demand_acts, want.stats.demand_acts)
        << "seed " << seeds[i];
    EXPECT_EQ(sweep.at(i, 0).peak_disturbance, want.peak_disturbance)
        << "seed " << seeds[i];
  }
  // Different fuzzer seeds draw different patterns.
  EXPECT_NE(sweep.at(0, 0).peak_disturbance, sweep.at(1, 0).peak_disturbance);
}

}  // namespace
}  // namespace tvp
