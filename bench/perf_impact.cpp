// Extension experiment E1 (not a paper table): the *system-level* cost of
// each mitigation technique — memory access latency, row-buffer hit
// rate, and DRAM energy — measured on the command-level scheduler
// (FR-FCFS, open-page, full DDR timing). This quantifies what the paper
// motivates qualitatively: "a high number of extra row activations ...
// degrade the performance".
//
// Each technique runs on the identical workload (same seed); the
// baseline row is the unprotected system.
#include <cstdio>
#include <memory>
#include <string>

#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/mem/energy.hpp"
#include "tvp/mem/scheduler.hpp"
#include "tvp/util/table.hpp"

namespace {

struct Row {
  std::string name;
  tvp::mem::SchedulerStats stats;
  tvp::mem::EnergyBreakdown energy;
};

Row run_one(const char* name, tvp::mem::MitigationEngine* engine,
            const tvp::exp::SimConfig& config,
            tvp::mem::MitigationPlacement placement =
                tvp::mem::MitigationPlacement::kImmediate) {
  using namespace tvp;
  mem::CommandTiming timing;
  timing.base = config.timing;
  mem::CommandScheduler scheduler(config.geometry, timing,
                                  mem::PagePolicy::kOpenPage, engine,
                                  placement);
  exp::Streams streams(config.seed);
  auto source = exp::build_workload(config, streams.workload);
  while (auto rec = source->next()) scheduler.push(*rec);
  scheduler.drain();
  Row row;
  row.name = name;
  row.stats = scheduler.stats();
  row.energy = mem::estimate_energy(scheduler.stats(), config.duration_ps());
  return row;
}

}  // namespace

int main() {
  using namespace tvp;

  exp::SimConfig config;
  exp::apply_scale(config, exp::full_scale_requested());
  config.windows = 1;
  exp::install_standard_campaign(config);

  std::printf("E1 - system-level impact (command scheduler, FR-FCFS, "
              "open-page, %u banks, %u window(s))\n\n",
              config.geometry.total_banks(), config.windows);

  std::vector<Row> rows;
  rows.push_back(run_one("(unprotected)", nullptr, config));
  for (const auto t : hw::kAllTechniques) {
    util::Rng engine_rng(config.seed ^ 0xE1);
    mem::MitigationEngine engine(config.geometry.total_banks(),
                                 exp::make_factory(t, config.technique),
                                 engine_rng);
    rows.push_back(
        run_one(std::string(hw::to_string(t)).c_str(), &engine, config));
  }

  const double base_latency = rows.front().stats.latency_ps.mean();
  const double base_energy = rows.front().energy.total_pj();

  util::TextTable table({"Technique", "mean lat [ns]", "p99 lat [ns]",
                         "lat vs base", "row-hit %", "mitig. ACTs",
                         "energy [uJ]", "energy overhead"});
  table.set_title("latency / energy impact per technique");
  for (const auto& r : rows) {
    table.add_row(
        {r.name, util::strfmt("%.1f", r.stats.latency_ps.mean() / 1e3),
         util::strfmt("%.1f", r.stats.latency_tail.percentile(0.99) / 1e3),
         util::strfmt("%+.3f%%",
                      100.0 * (r.stats.latency_ps.mean() - base_latency) /
                          base_latency),
         util::strfmt("%.1f", 100.0 * r.stats.row_hit_rate()),
         std::to_string(r.stats.mitigation_acts),
         util::strfmt("%.1f", r.energy.total_pj() / 1e6),
         util::strfmt("%+.4f%%",
                      100.0 * (r.energy.total_pj() - base_energy) / base_energy)});
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nexpected shape: probabilistic techniques (PARA/ProHit/MRLoc) pay the\n"
      "largest latency/energy premium; TiVaPRoMi sits several times lower;\n"
      "tabled counters are near-free at runtime (their cost is area).\n");

  // E7 sub-experiment: mitigation placement under BURSTY traffic.
  // Section I/II argue for controller-side mitigation partly on timing-
  // predictability grounds: a controller that owns the extra activations
  // can slip them into idle gaps between demand bursts; DIMM-autonomous
  // logic injects them mid-burst. Placement only matters while a queue
  // is standing, so this sub-experiment uses a bursty pattern: 48
  // back-to-back requests per bank, then a long idle gap, with a dense
  // probabilistic mitigation (PARA at p = 0.02) supplying the traffic.
  util::TextTable placement({"placement", "mean lat [ns]", "p99 lat [ns]",
                             "mitigation ACTs"});
  placement.set_title("\nE7 - mitigation placement under bursty demand "
                      "(PARA p=0.02 for dense mitigation traffic)");
  for (const auto mode : {mem::MitigationPlacement::kImmediate,
                          mem::MitigationPlacement::kIdleDeferred}) {
    exp::TechniqueConfig dense = config.technique;
    dense.para_p = 0.02;
    util::Rng engine_rng(config.seed ^ 0xE7);
    mem::MitigationEngine engine(
        config.geometry.total_banks(),
        exp::make_factory(hw::Technique::kPara, dense), engine_rng);
    mem::CommandTiming timing;
    timing.base = config.timing;
    mem::CommandScheduler scheduler(config.geometry, timing,
                                    mem::PagePolicy::kClosedPage, &engine, mode);
    // Bursts: 48 back-to-back cold accesses on bank 0, then a gap long
    // enough to drain demand + any deferred mitigation.
    util::Rng traffic(11);
    std::uint64_t t = 1000;
    for (int burst = 0; burst < 400; ++burst) {
      for (int i = 0; i < 48; ++i) {
        tvp::trace::AccessRecord r;
        r.time_ps = t + static_cast<std::uint64_t>(i) * 500;  // ~2 GB/s burst
        r.bank = 0;
        r.row = static_cast<tvp::dram::RowId>(traffic.below(4096));
        scheduler.push(r);
      }
      t += 6'000'000;  // ~6 us between bursts (idle gap)
    }
    scheduler.drain();
    placement.add_row(
        {mem::to_string(mode),
         util::strfmt("%.1f", scheduler.stats().latency_ps.mean() / 1e3),
         util::strfmt("%.1f",
                      scheduler.stats().latency_tail.percentile(0.99) / 1e3),
         std::to_string(scheduler.stats().mitigation_acts)});
  }
  std::fputs(placement.render().c_str(), stdout);
  std::printf(
      "\nE7 reading: identical mitigation work, but a controller that owns\n"
      "the extra activations can slip them into verified idle gaps and\n"
      "reclaim most of their latency cost - the scheduling freedom the\n"
      "paper's Section I credits controller-integrated mitigation with\n"
      "(DIMM-autonomous logic cannot see the queue). Caveat measured here\n"
      "too: under very dense mitigation the bounded backlog forces batched\n"
      "flushes whose bubbles hurt the tail - deferral is a mean-latency\n"
      "optimisation, not a free lunch.\n");
  return 0;
}
