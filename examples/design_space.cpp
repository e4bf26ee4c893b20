// Design-space exploration: how TiVaPRoMi's two sizing knobs — the
// history-table capacity and the base probability exponent — trade
// storage, hardware area, activation overhead and worst-case security.
//
//   ./build/examples/design_space [variant]
//
// [variant] is LiPRoMi, LoPRoMi, LoLiPRoMi (the default) or CaPRoMi; any
// other name exits 2.
//
// This is the workflow a memory-controller architect would follow to
// re-derive the paper's chosen configuration (32 entries, Pbase = 2^-23).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/verdict.hpp"
#include "tvp/hw/area_model.hpp"
#include "tvp/util/parallel.hpp"
#include "tvp/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tvp;

  hw::Technique variant = hw::Technique::kLoLiPRoMi;
  if (argc > 1) {
    const auto parsed = hw::parse_technique(argv[1]);
    if (!parsed || !hw::is_tivapromi(*parsed)) {
      std::fprintf(stderr, "design_space: '%s' is not a TiVaPRoMi variant\n",
                   argv[1]);
      return 2;
    }
    variant = *parsed;
  }

  exp::SimConfig base;
  base.windows = 1;
  exp::install_standard_campaign(base);

  std::printf("design space of %s (%zu jobs)\n\n",
              std::string(hw::to_string(variant)).c_str(), util::job_count());
  const auto t0 = std::chrono::steady_clock::now();

  // Both sweeps run as one parallel grid of independent simulations,
  // collected into pre-sized slots so the tables print in sweep order.
  const std::vector<std::uint32_t> entry_sweep = {4, 8, 16, 32, 64, 128};
  const std::vector<unsigned> pbase_sweep = {20, 21, 22, 23, 24, 25};
  std::vector<exp::RunResult> entry_runs(entry_sweep.size());
  std::vector<exp::RunResult> pbase_runs(pbase_sweep.size());
  util::parallel_for_indexed(
      entry_sweep.size() + pbase_sweep.size(), [&](std::size_t i) {
        exp::SimConfig cfg = base;
        if (i < entry_sweep.size()) {
          cfg.technique.params.history_entries = entry_sweep[i];
          cfg.finalize();
          entry_runs[i] = exp::run_simulation(variant, cfg);
        } else {
          cfg.technique.pbase_exp = pbase_sweep[i - entry_sweep.size()];
          cfg.finalize();
          pbase_runs[i - entry_sweep.size()] = exp::run_simulation(variant, cfg);
        }
      });

  // Sweep 1: history-table capacity.
  util::TextTable sweep1({"history entries", "table B/bank", "LUTs (DDR4)",
                          "overhead %", "FPR %", "flips"});
  sweep1.set_title("history-table capacity sweep (Pbase = 2^-23)");
  for (std::size_t i = 0; i < entry_sweep.size(); ++i) {
    exp::SimConfig cfg = base;
    cfg.technique.params.history_entries = entry_sweep[i];
    cfg.finalize();
    const auto& r = entry_runs[i];
    const auto area = hw::estimate_area(variant, hw::Target::kDdr4,
                                        cfg.technique.params);
    sweep1.add_row({std::to_string(entry_sweep[i]),
                    util::strfmt("%.0f", r.state_bytes_per_bank),
                    std::to_string(area.luts),
                    util::strfmt("%.4f", r.overhead_pct()),
                    util::strfmt("%.4f", r.fpr_pct()),
                    std::to_string(r.flips)});
  }
  std::fputs(sweep1.render().c_str(), stdout);

  // Sweep 2: base probability exponent (security vs overhead).
  util::TextTable sweep2({"Pbase", "RefInt*Pbase", "overhead %",
                          "worst-case p_miss", "verdict"});
  sweep2.set_title("\nbase-probability sweep (32-entry history table)");
  for (std::size_t i = 0; i < pbase_sweep.size(); ++i) {
    const unsigned exponent = pbase_sweep[i];
    exp::SimConfig cfg = base;
    cfg.technique.pbase_exp = exponent;
    cfg.finalize();
    const auto& r = pbase_runs[i];
    const auto verdict = exp::security_verdict(variant, cfg.technique, r.flips > 0);
    const double refint_pbase =
        cfg.timing.refresh_intervals * std::ldexp(1.0, -static_cast<int>(exponent));
    sweep2.add_row({util::strfmt("2^-%u", exponent),
                    util::strfmt("%.2e", refint_pbase),
                    util::strfmt("%.4f", r.overhead_pct()),
                    util::strfmt("%.3g", verdict.p_miss),
                    verdict.vulnerable ? "vulnerable" : "resilient"});
  }
  std::fputs(sweep2.render().c_str(), stdout);
  std::printf("\n%zu runs in %.2f s with %zu jobs (TVP_JOBS)\n",
              entry_sweep.size() + pbase_sweep.size(),
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count(),
              util::job_count());
  return 0;
}
