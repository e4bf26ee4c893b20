// Synthetic benign workload generators.
//
// Stand-in for the paper's gem5 + SPEC CPU2006 mixed load (see
// DESIGN.md, substitution table). Each source models one "application"
// with a distinct row-locality profile; a MergedSource of several of
// them plus an attacker reproduces the mixed-load structure. For the
// cache-filtered variant (closer to gem5), see tvp::cpu::CoreFrontend,
// which feeds instruction-level streams through an L1/L2 model.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/trace/source.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::trace {

/// Row-locality shape of a synthetic application.
enum class AccessProfile {
  kStreaming,     ///< sequential rows (e.g. libquantum/stream-like)
  kStrided,       ///< constant row stride (matrix walks)
  kRandom,        ///< uniform rows (pointer-heavy, mcf-like)
  kHotspot,       ///< most accesses hit a small hot row set
  kPointerChase,  ///< random walk with small jumps and revisits
};

const char* to_string(AccessProfile profile) noexcept;

/// Configuration of one synthetic application stream.
struct SyntheticConfig {
  AccessProfile profile = AccessProfile::kRandom;
  std::uint32_t banks = 16;          ///< flat banks the app touches
  dram::RowId rows_per_bank = 131072;
  double mean_interarrival_ps = 200'000;  ///< Poisson mean between accesses
  double write_fraction = 0.3;
  SourceId source_id = 0;
  std::uint64_t start_ps = 0;

  // Profile-specific knobs.
  std::uint32_t stride = 7;          ///< kStrided row stride
  std::uint32_t hotspot_rows = 64;   ///< kHotspot working-set size
  double hotspot_bias = 0.9;         ///< kHotspot probability of a hot row
  std::uint32_t chase_jump = 512;    ///< kPointerChase max jump distance
};

/// Infinite Poisson-arrival stream with the configured locality profile.
/// Wrap in LimitSource to bound it.
class SyntheticSource final : public TraceSource {
 public:
  SyntheticSource(SyntheticConfig config, util::Rng rng);

  /// Fills all of @p out (the stream is infinite), in one non-virtual
  /// loop.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;

  const SyntheticConfig& config() const noexcept { return cfg_; }

 private:
  AccessRecord generate();
  dram::RowId next_row();

  SyntheticConfig cfg_;
  util::Rng rng_;
  double now_ps_;
  dram::RowId cursor_ = 0;            // streaming / strided / chase state
  std::uint32_t bank_cursor_ = 0;
  std::vector<dram::RowId> hot_rows_;  // kHotspot working set
};

/// A ready-made "mixed load": one stream per profile, rates scaled so the
/// aggregate averages @p target_acts_per_interval_per_bank activations
/// per refresh interval per bank (Table I calibration: ~40 including the
/// attacker's share).
std::vector<SyntheticConfig> mixed_workload(std::uint32_t banks,
                                            dram::RowId rows_per_bank,
                                            std::uint64_t t_refi_ps,
                                            double target_acts_per_interval_per_bank);

}  // namespace tvp::trace
