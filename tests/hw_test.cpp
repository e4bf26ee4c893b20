// Unit tests for tvp::hw — the FSM cycle model (Table II) and the
// analytic area model (Table III), including the calibration contract:
// with the paper's default parameters the models must reproduce the
// published numbers.
#include <gtest/gtest.h>

#include "tvp/hw/area_model.hpp"
#include "tvp/hw/cycle_model.hpp"
#include "tvp/hw/fsm_executor.hpp"
#include "tvp/hw/technique.hpp"

namespace tvp::hw {
namespace {

// ----------------------------------------------------------------- technique

TEST(Technique, NamesAndSets) {
  EXPECT_EQ(to_string(Technique::kPara), "PARA");
  EXPECT_EQ(to_string(Technique::kCaPRoMi), "CaPRoMi");
  EXPECT_EQ(kAllTechniques.size(), 9u);
  EXPECT_EQ(kTiVaPRoMiVariants.size(), 4u);
  EXPECT_TRUE(is_tivapromi(Technique::kLiPRoMi));
  EXPECT_FALSE(is_tivapromi(Technique::kTwice));
}

TEST(Technique, ParseRoundTripsEveryNameAndRejectsOthers) {
  for (const auto t : kAllTechniques)
    EXPECT_EQ(parse_technique(to_string(t)), t) << to_string(t);
  EXPECT_EQ(parse_technique("lolipromi"), std::nullopt);
  EXPECT_EQ(parse_technique("TRR"), std::nullopt);
  EXPECT_EQ(parse_technique(""), std::nullopt);
}

TEST(TechniqueParams, BitWidths) {
  const TechniqueParams p;
  EXPECT_EQ(p.row_bits(), 17u);
  EXPECT_EQ(p.interval_bits(), 13u);
}

// --------------------------------------------------------------- cycle model

TEST(CycleModel, BudgetsMatchSectionIV) {
  const CycleBudget ddr4 = cycle_budget(dram::ddr4_timing());
  EXPECT_EQ(ddr4.act, 54u);
  EXPECT_EQ(ddr4.ref, 420u);
  const CycleBudget ddr3 = cycle_budget(dram::ddr3_timing());
  EXPECT_EQ(ddr3.act, 14u);
  EXPECT_EQ(ddr3.ref, 112u);
}

TEST(CycleModel, TableIIExactReproduction) {
  const TechniqueParams params;  // paper defaults
  const auto ca = fsm_cycles(Technique::kCaPRoMi, params);
  const auto loli = fsm_cycles(Technique::kLoLiPRoMi, params);
  const auto lo = fsm_cycles(Technique::kLoPRoMi, params);
  const auto li = fsm_cycles(Technique::kLiPRoMi, params);
  // Table II, act row: 50 / 36 / 37 / 37.
  EXPECT_EQ(ca.act, 50u);
  EXPECT_EQ(loli.act, 36u);
  EXPECT_EQ(lo.act, 37u);
  EXPECT_EQ(li.act, 37u);
  // Table II, ref row: 258 / 3 / 3 / 3.
  EXPECT_EQ(ca.ref, 258u);
  EXPECT_EQ(loli.ref, 3u);
  EXPECT_EQ(lo.ref, 3u);
  EXPECT_EQ(li.ref, 3u);
}

TEST(CycleModel, AllVariantsFitDdr4Budget) {
  const TechniqueParams params;
  const CycleBudget budget = cycle_budget(dram::ddr4_timing());
  for (const auto t : kTiVaPRoMiVariants)
    EXPECT_TRUE(fits_budget(fsm_cycles(t, params), budget))
        << to_string(t);
}

TEST(CycleModel, OnlyParaAndCraFitDdr3Serially) {
  // Section IV: "Only PARA and CRA could fit in the cycle budget of the
  // low-frequency DDR3 controller due to their simple internal structure."
  const TechniqueParams params;
  const CycleBudget ddr3 = cycle_budget(dram::ddr3_timing());
  for (const auto t : kAllTechniques) {
    const bool fits = fits_budget(fsm_cycles(t, params), ddr3);
    const bool simple = t == Technique::kPara || t == Technique::kCra;
    EXPECT_EQ(fits, simple) << to_string(t);
  }
}

TEST(CycleModel, RequiredParallelism) {
  const TechniqueParams params;
  const CycleBudget ddr4 = cycle_budget(dram::ddr4_timing());
  const CycleBudget ddr3 = cycle_budget(dram::ddr3_timing());
  // DDR4: everything serial except TWiCe's 560-entry pruning walk.
  for (const auto t : kAllTechniques) {
    const std::uint32_t f = required_parallelism(t, params, ddr4);
    EXPECT_EQ(f, t == Technique::kTwice ? 2u : 1u) << to_string(t);
  }
  // DDR3: the table-based techniques need widening.
  EXPECT_EQ(required_parallelism(Technique::kPara, params, ddr3), 1u);
  EXPECT_EQ(required_parallelism(Technique::kCra, params, ddr3), 1u);
  EXPECT_EQ(required_parallelism(Technique::kLiPRoMi, params, ddr3), 4u);
  EXPECT_EQ(required_parallelism(Technique::kLoLiPRoMi, params, ddr3), 4u);
  EXPECT_EQ(required_parallelism(Technique::kCaPRoMi, params, ddr3), 4u);
  EXPECT_EQ(required_parallelism(Technique::kMrLoc, params, ddr3), 4u);
  EXPECT_EQ(required_parallelism(Technique::kProHit, params, ddr3), 4u);
  EXPECT_EQ(required_parallelism(Technique::kTwice, params, ddr3), 8u);
}

TEST(CycleModel, WideningShortensLoops) {
  const TechniqueParams params;
  DatapathWidths wide;
  wide.history_search = 4;
  wide.counter_search = 16;
  wide.counter_walk = 4;
  wide.table_search = 4;
  for (const auto t : kAllTechniques) {
    const auto serial = fsm_cycles(t, params);
    const auto parallel = fsm_cycles(t, params, wide);
    EXPECT_LE(parallel.act, serial.act) << to_string(t);
    EXPECT_LE(parallel.ref, serial.ref) << to_string(t);
  }
}

TEST(CycleModel, ScalesWithTableSizes) {
  TechniqueParams params;
  const auto base = fsm_cycles(Technique::kLiPRoMi, params);
  params.history_entries = 64;
  const auto bigger = fsm_cycles(Technique::kLiPRoMi, params);
  EXPECT_EQ(bigger.act, base.act + 32u);
}

// ------------------------------------------------------------- FSM executor

TEST(FsmExecutor, ExecutionAgreesWithClosedFormEverywhere) {
  // The same Table II numbers must come out of the executed FSM walk and
  // the closed-form cycle model, for every variant, width, and table
  // size we can configure.
  for (const auto t : kTiVaPRoMiVariants) {
    for (const std::uint32_t entries : {8u, 16u, 32u, 64u}) {
      for (const std::uint32_t width : {1u, 2u, 4u}) {
        TechniqueParams params;
        params.history_entries = entries;
        DatapathWidths widths;
        widths.history_search = width;
        widths.counter_search = 4 * width;
        widths.counter_walk = width;
        widths.table_search = width;
        const FsmExecutor executor(t, params, widths);
        const FsmCycles model = fsm_cycles(t, params, widths);
        EXPECT_EQ(trace_cycles(executor.run_act()), model.act)
            << to_string(t) << " entries " << entries << " width " << width;
        EXPECT_EQ(trace_cycles(executor.run_ref(false)), model.ref)
            << to_string(t);
        EXPECT_EQ(trace_cycles(executor.run_ref(true)), model.ref)
            << to_string(t);
      }
    }
  }
}

TEST(FsmExecutor, TracesNameTheFigureStates) {
  const FsmExecutor li(Technique::kLiPRoMi, TechniqueParams{});
  const std::string act = trace_to_string(li.run_act());
  EXPECT_NE(act.find("search in table(32)"), std::string::npos);
  EXPECT_NE(act.find("decide"), std::string::npos);
  const std::string ref = trace_to_string(li.run_ref(true));
  EXPECT_NE(ref.find("reset table"), std::string::npos);

  const FsmExecutor ca(Technique::kCaPRoMi, TechniqueParams{});
  const std::string ca_ref = trace_to_string(ca.run_ref(false));
  EXPECT_NE(ca_ref.find("per-entry weight/scale/decide/commit(256)"),
            std::string::npos);
}

TEST(FsmExecutor, RejectsNonTiVaPRoMi) {
  EXPECT_THROW(FsmExecutor(Technique::kPara, TechniqueParams{}),
               std::invalid_argument);
  EXPECT_THROW(FsmExecutor(Technique::kTwice, TechniqueParams{}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- area model

TEST(AreaModel, ParaIsTheReference349) {
  const auto est = estimate_area(Technique::kPara, Target::kDdr4);
  EXPECT_EQ(est.luts, 349u);  // Table III, exact
  EXPECT_EQ(est.parallelism, 1u);
  EXPECT_TRUE(est.fits_device);
  // PARA is the same on DDR3 (fits serially).
  EXPECT_EQ(estimate_area(Technique::kPara, Target::kDdr3).luts, 349u);
}

// gtest prints a parameter without operator<< as its raw bytes, and test
// discovery names each case after that print-out. The explicit zero field
// fills what would otherwise be uninitialised padding after `technique`, so
// the case names are the same on every run.
struct AreaCase {
  AreaCase(Technique t, std::uint64_t ddr4, std::uint64_t ddr3)
      : technique(t), paper_ddr4(ddr4), paper_ddr3(ddr3) {}

  Technique technique;
  std::uint32_t zero = 0;
  std::uint64_t paper_ddr4;
  std::uint64_t paper_ddr3;
};
static_assert(sizeof(AreaCase) == sizeof(Technique) + sizeof(std::uint32_t) +
                                      2 * sizeof(std::uint64_t),
              "AreaCase must have no padding bytes");

class AreaTableIII : public ::testing::TestWithParam<AreaCase> {};

TEST_P(AreaTableIII, WithinFivePercentOfPaper) {
  const auto& c = GetParam();
  const auto ddr4 = estimate_area(c.technique, Target::kDdr4);
  const auto ddr3 = estimate_area(c.technique, Target::kDdr3);
  EXPECT_NEAR(static_cast<double>(ddr4.luts), static_cast<double>(c.paper_ddr4),
              0.05 * static_cast<double>(c.paper_ddr4))
      << to_string(c.technique) << " DDR4";
  EXPECT_NEAR(static_cast<double>(ddr3.luts), static_cast<double>(c.paper_ddr3),
              0.05 * static_cast<double>(c.paper_ddr3))
      << to_string(c.technique) << " DDR3";
}

INSTANTIATE_TEST_SUITE_P(
    PaperNumbers, AreaTableIII,
    ::testing::Values(AreaCase{Technique::kProHit, 1653, 4274},
                      AreaCase{Technique::kMrLoc, 1865, 4667},
                      AreaCase{Technique::kPara, 349, 349},
                      AreaCase{Technique::kTwice, 258356, 3456558},
                      AreaCase{Technique::kCra, 5694107, 5694107},
                      AreaCase{Technique::kCaPRoMi, 21061, 97863},
                      AreaCase{Technique::kLiPRoMi, 5155, 6586},
                      AreaCase{Technique::kLoPRoMi, 5228, 6603},
                      AreaCase{Technique::kLoLiPRoMi, 5374, 6701}));

TEST(AreaModel, CraAndTwiceExceedTheFpgaOnDdr3) {
  // Section IV: "the implementations of CRA and TWiCe for DDR3 need even
  // more resources than the targeted FPGA offers."
  EXPECT_FALSE(estimate_area(Technique::kCra, Target::kDdr3).fits_device);
  EXPECT_FALSE(estimate_area(Technique::kTwice, Target::kDdr3).fits_device);
  EXPECT_TRUE(estimate_area(Technique::kLoLiPRoMi, Target::kDdr3).fits_device);
  EXPECT_TRUE(estimate_area(Technique::kCaPRoMi, Target::kDdr3).fits_device);
}

TEST(AreaModel, RelativeRatiosMatchAbstract) {
  // "9x - 27x reduced storage requirement than Tabled Counters."
  const double twice_b = table_bytes_per_bank(Technique::kTwice);
  const double loli_b = table_bytes_per_bank(Technique::kLoLiPRoMi);
  const double ca_b = table_bytes_per_bank(Technique::kCaPRoMi);
  EXPECT_GT(twice_b / loli_b, 20.0);
  EXPECT_LT(twice_b / loli_b, 32.0);
  EXPECT_GT(twice_b / ca_b, 7.0);
  EXPECT_LT(twice_b / ca_b, 12.0);
}

TEST(AreaModel, TableBytesMatchPaper) {
  // History table: 120 B; CaPRoMi total: ~374 B (paper) vs 376 B (ours).
  EXPECT_DOUBLE_EQ(table_bytes_per_bank(Technique::kLiPRoMi), 120.0);
  EXPECT_DOUBLE_EQ(table_bytes_per_bank(Technique::kLoPRoMi), 120.0);
  EXPECT_DOUBLE_EQ(table_bytes_per_bank(Technique::kLoLiPRoMi), 120.0);
  EXPECT_NEAR(table_bytes_per_bank(Technique::kCaPRoMi), 374.0, 4.0);
  // CRA: one 16-bit counter per row = 256 KB per bank.
  EXPECT_DOUBLE_EQ(table_bytes_per_bank(Technique::kCra), 262144.0);
  // All nine techniques report nonzero state.
  for (const auto t : kAllTechniques)
    EXPECT_GT(table_bytes_per_bank(t), 0.0) << to_string(t);
}

TEST(AreaModel, AreaGrowsWithTableSize) {
  TechniqueParams params;
  const auto base = estimate_area(Technique::kLiPRoMi, Target::kDdr4, params);
  params.history_entries = 128;
  const auto bigger = estimate_area(Technique::kLiPRoMi, Target::kDdr4, params);
  EXPECT_GT(bigger.luts, base.luts);
}

TEST(AreaModel, BreakdownSumsToEstimate) {
  const TechniqueParams params;
  for (const auto t : kAllTechniques) {
    for (const auto target : {Target::kDdr4, Target::kDdr3}) {
      const auto est = estimate_area(t, target, params);
      std::uint64_t sum = 0;
      for (const auto& part : area_breakdown(t, target, params)) sum += part.luts;
      EXPECT_EQ(sum, est.luts) << to_string(t) << " " << to_string(target);
    }
  }
}

TEST(AreaModel, BreakdownIsTableDominatedForTrackers) {
  const TechniqueParams params;
  for (const auto t : {Technique::kLiPRoMi, Technique::kTwice, Technique::kCra}) {
    const auto parts = area_breakdown(t, Target::kDdr4, params);
    const auto est = estimate_area(t, Target::kDdr4, params);
    // The last component is the table block; it dominates the total.
    EXPECT_GT(parts.back().luts * 2, est.luts) << to_string(t);
  }
}

TEST(AreaModel, TargetHelpers) {
  EXPECT_STREQ(to_string(Target::kDdr4), "DDR4");
  EXPECT_STREQ(to_string(Target::kDdr3), "DDR3");
  EXPECT_STREQ(to_string(Target::kDdr5), "DDR5");
  EXPECT_EQ(target_timing(Target::kDdr4).clock_hz, 1'200'000'000u);
  EXPECT_EQ(target_timing(Target::kDdr3).clock_hz, 320'000'000u);
  EXPECT_EQ(target_timing(Target::kDdr5).clock_hz, 2'400'000'000u);
}

TEST(AreaModel, Ddr5RelaxesEverythingToSerial) {
  const TechniqueParams params;
  const CycleBudget ddr5 = cycle_budget(dram::ddr5_timing());
  for (const auto t : kAllTechniques) {
    // Everything except TWiCe's long pruning walk fits serially; and no
    // technique needs MORE parallelism than on DDR4.
    const auto f5 = required_parallelism(t, params, ddr5);
    const auto f4 =
        required_parallelism(t, params, cycle_budget(dram::ddr4_timing()));
    EXPECT_LE(f5, f4) << to_string(t);
    // Consequently DDR5 area never exceeds DDR4 area.
    EXPECT_LE(estimate_area(t, Target::kDdr5, params).luts,
              estimate_area(t, Target::kDdr4, params).luts)
        << to_string(t);
  }
}

}  // namespace
}  // namespace tvp::hw
