// The TRR-evasion fuzz campaign: sweep PatternFuzzer seeds against a
// panel of defences — the unprotected baseline, an in-DRAM TRR sampler,
// and every TiVaPRoMi variant at several P_base points — and report the
// evasion rate of the fuzzed pattern space per defence.
//
// Everything here is deterministic in (options, base.seed): a seed's
// defences run as one cohort over its stream (exp::Simulation), the cell
// grid lands in pre-sized slots (bit-identical for every TVP_JOBS
// value), the report carries no wall-clock fields, and recording the
// per-seed corpora and replaying them yields byte-identical verdicts
// and reports (the fuzz corpus round-trip test holds this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tvp/exp/runner.hpp"

namespace tvp::exp {

/// Campaign shape. `base` must use workload.model = kFuzz; its
/// fuzz.seed is the first swept seed and base.seed (the simulation
/// seed: benign traffic, engine, controller) stays fixed across cells
/// so the sweep isolates the fuzzer's pattern space.
struct FuzzCampaignOptions {
  SimConfig base;
  std::uint32_t fuzz_seeds = 8;  ///< seeds fuzz.seed .. fuzz.seed + n - 1
  /// P_base points (P = 2^-n) for the TiVaPRoMi variants; the paper's
  /// operating point is 23, smaller exponents intervene more often.
  std::vector<unsigned> pbase_exps = {17, 20, 23};
  bool include_none = true;  ///< unprotected potency baseline
  bool include_trr = true;   ///< in-DRAM sampler baseline
  /// When non-empty: record each seed's workload to
  /// `<trace_dir>/fuzz_<seed>.tvpc` (with its lanes) and run the
  /// seed's cohort as a replay of that corpus instead of regenerating —
  /// verdicts are bit-identical either way.
  std::string trace_dir;
};

/// One (fuzzer seed, defence) cell of the campaign grid.
struct FuzzCellResult {
  std::uint64_t fuzz_seed = 0;
  std::string defence;
  std::uint64_t flips = 0;
  std::uint64_t victim_flips = 0;
  std::uint64_t peak_disturbance = 0;
  double overhead_pct = 0.0;
  double fpr_pct = 0.0;
  /// The attack got at least one declared-victim flip past the defence.
  bool evaded() const noexcept { return victim_flips > 0; }
};

/// Per-defence aggregate over the swept seeds.
struct FuzzDefenceSummary {
  std::string defence;
  std::uint32_t seeds = 0;
  std::uint32_t evaded = 0;         ///< cells with >= 1 victim flip
  std::uint32_t evaded_potent = 0;  ///< ... restricted to potent seeds
  std::uint64_t total_flips = 0;
  std::uint64_t total_victim_flips = 0;
  double mean_overhead_pct = 0.0;
  double mean_fpr_pct = 0.0;
  /// Evasion rate over the potent seeds (those whose pattern flips the
  /// unprotected baseline); over all seeds when no baseline ran.
  double evasion_rate(std::uint32_t potent) const noexcept {
    if (potent > 0) return static_cast<double>(evaded_potent) / potent;
    return seeds == 0 ? 0.0 : static_cast<double>(evaded) / seeds;
  }
};

struct FuzzCampaignResult {
  /// Cell grid in (seed-major, defence-minor) order.
  std::vector<FuzzCellResult> cells;
  std::vector<FuzzDefenceSummary> defences;
  /// Seeds whose pattern flips a victim with no defence installed
  /// (0 when include_none is false — evasion rates then cover all seeds).
  std::uint32_t potent_seeds = 0;
  /// The act counters of the campaign's controllers, summed (no timers):
  /// a seed's cohort partitions each of its records once, into
  /// scattered_acts when generated and partitioned_acts when replayed.
  mem::StageProfile stages;
};

/// Runs the full grid (TVP_JOBS-parallel, bit-identical for any job
/// count). Throws std::invalid_argument on an inconsistent options set
/// (non-fuzz base workload, zero seeds, no defences, no pbase points).
FuzzCampaignResult run_fuzz_campaign(const FuzzCampaignOptions& options);

/// Serialises the campaign to JSON. Deterministic: the text is a pure
/// function of (options, result) — no timestamps, no wall-clock.
std::string fuzz_report_json(const FuzzCampaignOptions& options,
                             const FuzzCampaignResult& result);

}  // namespace tvp::exp
