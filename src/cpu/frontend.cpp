#include "tvp/cpu/frontend.hpp"

#include <stdexcept>

namespace tvp::cpu {

FrontendConfig default_frontend(const dram::Geometry& geometry) {
  FrontendConfig cfg;
  cfg.geometry = geometry;
  const std::uint64_t capacity = geometry.capacity_bytes();
  const std::uint64_t slice = capacity / 4;
  const trace::AccessProfile profiles[4] = {
      trace::AccessProfile::kStreaming, trace::AccessProfile::kRandom,
      trace::AccessProfile::kHotspot, trace::AccessProfile::kPointerChase};
  for (int i = 0; i < 4; ++i) {
    CoreConfig core;
    core.profile = profiles[i];
    core.region_base = slice * static_cast<std::uint64_t>(i);
    core.region_bytes = slice;
    cfg.cores.push_back(core);
  }
  return cfg;
}

CoreFrontend::CoreFrontend(FrontendConfig config, util::Rng rng)
    : cfg_(std::move(config)), mapper_(cfg_.geometry, cfg_.map_policy) {
  if (cfg_.cores.empty())
    throw std::invalid_argument("CoreFrontend: no cores configured");
  cfg_.l1.validate();
  cfg_.l2.validate();
  for (const auto& core_cfg : cfg_.cores) {
    PerCore pc{Core(core_cfg, rng.fork()), Cache(cfg_.l1), Cache(cfg_.l2), {}};
    cores_.push_back(std::move(pc));
    cores_.back().pending = cores_.back().core.next();
  }
}

void CoreFrontend::step_core(std::size_t index) {
  PerCore& pc = cores_[index];
  const MemOp op = pc.pending;
  pc.pending = pc.core.next();

  const CacheResult l1r = pc.l1.access(op.addr, op.write);
  if (l1r.hit) return;

  auto emit = [&](std::uint64_t addr, bool write) {
    const dram::Address coords = mapper_.decode(addr);
    trace::AccessRecord rec;
    rec.time_ps = op.time_ps;
    rec.bank = mapper_.flat_bank(coords);
    rec.row = coords.row;
    rec.write = write;
    rec.is_attack = false;
    rec.source = static_cast<trace::SourceId>(index);
    ready_.push_back(rec);
  };

  // L1 miss: the fill goes to L2; an L1 dirty victim is written to L2.
  if (l1r.writeback_addr) {
    const CacheResult wb = pc.l2.access(*l1r.writeback_addr, /*write=*/true);
    if (!wb.hit) {
      emit(*wb.fill_addr, /*write=*/false);
      if (wb.writeback_addr) emit(*wb.writeback_addr, /*write=*/true);
    }
  }
  const CacheResult l2r = pc.l2.access(*l1r.fill_addr, op.write);
  if (!l2r.hit) {
    emit(*l2r.fill_addr, /*write=*/false);
    if (l2r.writeback_addr) emit(*l2r.writeback_addr, /*write=*/true);

    // Next-line stream prefetcher: on an L2 demand miss, pull the
    // following lines into L2; their own misses also reach DRAM.
    if (cfg_.prefetch.enable) {
      const std::uint64_t line = cfg_.l2.line_bytes;
      for (std::uint32_t d = 1; d <= cfg_.prefetch.degree; ++d) {
        const std::uint64_t pf_addr = *l2r.fill_addr + d * line;
        const CacheResult pf = pc.l2.access(pf_addr, /*write=*/false);
        if (!pf.hit) {
          ++prefetch_fills_;
          emit(*pf.fill_addr, /*write=*/false);
          if (pf.writeback_addr) emit(*pf.writeback_addr, /*write=*/true);
        }
      }
    }
  }
}

std::size_t CoreFrontend::next_batch(trace::AccessRecord* out,
                                     std::size_t max) {
  for (std::size_t n = 0; n < max; ++n) {
    while (ready_.empty()) {
      // Advance the core with the earliest pending op (deterministic merge).
      std::size_t best = 0;
      for (std::size_t i = 1; i < cores_.size(); ++i)
        if (cores_[i].pending.time_ps < cores_[best].pending.time_ps) best = i;
      step_core(best);
    }
    out[n] = ready_.front();
    ready_.pop_front();
  }
  return max;
}

double CoreFrontend::l1_hit_rate() const noexcept {
  std::uint64_t hits = 0, misses = 0;
  for (const auto& pc : cores_) {
    hits += pc.l1.hits();
    misses += pc.l1.misses();
  }
  const auto total = hits + misses;
  return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

double CoreFrontend::l2_hit_rate() const noexcept {
  std::uint64_t hits = 0, misses = 0;
  for (const auto& pc : cores_) {
    hits += pc.l2.hits();
    misses += pc.l2.misses();
  }
  const auto total = hits + misses;
  return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

}  // namespace tvp::cpu
