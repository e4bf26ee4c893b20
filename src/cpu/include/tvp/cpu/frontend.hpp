// Multi-core cache-filtered trace front-end (the gem5 stand-in).
//
// N synthetic cores each sit behind a private L1 and L2 (Table I:
// 64 KB / 256 KB). Only L2 misses and dirty writebacks reach DRAM; they
// are mapped to (bank, row) with an AddressMapper and emitted as a
// time-ordered AccessRecord stream implementing trace::TraceSource — so
// the rest of the pipeline cannot tell it apart from a replayed gem5
// trace.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "tvp/cpu/cache.hpp"
#include "tvp/cpu/core.hpp"
#include "tvp/dram/geometry.hpp"
#include "tvp/trace/source.hpp"

namespace tvp::cpu {

/// Next-line stream prefetcher sitting behind the L2 (a standard piece
/// of the memory hierarchy that *shapes* the DRAM row stream: prefetch
/// fills raise spatial row locality, exactly the reuse structure the
/// TiVaPRoMi history table exploits).
struct PrefetchConfig {
  bool enable = false;
  std::uint32_t degree = 2;  ///< sequential lines fetched per L2 miss
};

/// System-level configuration of the front-end.
struct FrontendConfig {
  std::vector<CoreConfig> cores;  ///< one entry per core
  CacheConfig l1{64 * 1024, 64, 8};
  CacheConfig l2{256 * 1024, 64, 8};
  PrefetchConfig prefetch;
  dram::Geometry geometry;
  dram::AddressMapPolicy map_policy = dram::AddressMapPolicy::kRowColBank;
};

/// Default 4-core mixed-profile configuration matching Table I.
FrontendConfig default_frontend(const dram::Geometry& geometry);

/// Generates the DRAM-side trace of the configured multicore system.
class CoreFrontend final : public trace::TraceSource {
 public:
  CoreFrontend(FrontendConfig config, util::Rng rng);

  /// Fills all of @p out (the cores never stop issuing).
  std::size_t next_batch(trace::AccessRecord* out, std::size_t max) override;

  /// Aggregate L1/L2 hit rates (for calibration reporting).
  double l1_hit_rate() const noexcept;
  double l2_hit_rate() const noexcept;
  /// DRAM fills issued by the prefetcher (0 when disabled).
  std::uint64_t prefetch_fills() const noexcept { return prefetch_fills_; }

 private:
  struct PerCore {
    Core core;
    Cache l1;
    Cache l2;
    MemOp pending;  // next op not yet consumed
  };

  void step_core(std::size_t index);

  FrontendConfig cfg_;
  dram::AddressMapper mapper_;
  std::vector<PerCore> cores_;
  std::deque<trace::AccessRecord> ready_;  // DRAM records awaiting delivery
  std::uint64_t prefetch_fills_ = 0;
};

}  // namespace tvp::cpu
