// Attack lab: explore how each mitigation technique responds to
// different Row-Hammer attack patterns.
//
//   ./build/examples/attack_lab [technique] [pattern] [victims]
//
//   technique: PARA | ProHit | MRLoc | TWiCe | CRA |
//              LiPRoMi | LoPRoMi | LoLiPRoMi | CaPRoMi   (default LoLiPRoMi)
//   pattern:   single | double | multi | flood            (default double)
//   victims:   1..20                                      (default 1)
//
// Prints the attack outcome (flips, peak disturbance), the mitigation's
// activity, and the flood-response analysis for the chosen technique.
#include <cstdio>
#include <cstring>
#include <string>

#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/verdict.hpp"
#include "tvp/util/table.hpp"

namespace {

tvp::trace::AttackPattern parse_pattern(const char* name) {
  using tvp::trace::AttackPattern;
  if (std::strcmp(name, "single") == 0) return AttackPattern::kSingleSided;
  if (std::strcmp(name, "multi") == 0) return AttackPattern::kMultiAggressor;
  if (std::strcmp(name, "flood") == 0) return AttackPattern::kFlood;
  return AttackPattern::kDoubleSided;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvp;

  const char* technique_name = argc > 1 ? argv[1] : "LoLiPRoMi";
  const auto parsed = hw::parse_technique(technique_name);
  if (!parsed) {
    std::fprintf(stderr, "unknown technique '%s'\n", technique_name);
    return 2;
  }
  const hw::Technique technique = *parsed;
  const trace::AttackPattern pattern = parse_pattern(argc > 2 ? argv[2] : "double");
  const std::size_t victims =
      argc > 3 ? std::min(20l, std::max(1l, std::strtol(argv[3], nullptr, 10)))
               : 1;

  exp::SimConfig config;
  config.windows = 2;
  config.seed = 11;

  util::Rng rng(config.seed);
  auto attack = trace::make_multi_aggressor_attack(
      0, config.geometry.rows_per_bank, victims, rng);
  attack.pattern = pattern;
  if (pattern == trace::AttackPattern::kFlood)
    attack.victims.resize(1);  // flood hammers a single row
  attack.interarrival_ps = config.timing.t_refi_ps() / 24;
  config.workload.attacks = {attack};
  config.finalize();

  std::printf("attack lab: %s vs %s attack, %zu victim(s) on bank 0\n\n",
              std::string(hw::to_string(technique)).c_str(),
              trace::to_string(pattern), attack.victims.size());

  const exp::RunResult r = exp::run_simulation(technique, config);
  util::TextTable table({"metric", "value"});
  table.add_row({"demand activations", std::to_string(r.stats.demand_acts)});
  table.add_row({"mitigation extra activations", std::to_string(r.stats.extra_acts)});
  table.add_row({"activation overhead %", util::strfmt("%.4f", r.overhead_pct())});
  table.add_row({"false-positive rate %", util::strfmt("%.4f", r.fpr_pct())});
  table.add_row({"bit flips (any row)", std::to_string(r.flips)});
  table.add_row({"bit flips (victim rows)", std::to_string(r.victim_flips)});
  table.add_row({"peak disturbance / threshold",
                 util::strfmt("%llu / %u",
                              static_cast<unsigned long long>(r.peak_disturbance),
                              config.disturbance.flip_threshold)});
  std::fputs(table.render().c_str(), stdout);

  // Worst-case flood response of this technique (Section III-A analysis).
  exp::FloodOptions opts;
  opts.trials = 32;
  const auto flood = exp::measure_flood(technique, config.technique, opts);
  std::printf(
      "\nphase-aligned flood: median first response %.0f ACTs "
      "(p90 %.0f, no-response %u/%u, safety line %u)\n",
      flood.distribution.percentile(0.5), flood.distribution.percentile(0.9),
      flood.no_response, flood.trials, config.technique.flip_threshold / 2);

  const auto verdict =
      exp::security_verdict(technique, config.technique, r.victim_flips > 0);
  std::printf("verdict: %s (%s; p_miss=%.3g, escalation=%.3g)\n",
              verdict.vulnerable ? "VULNERABLE" : "resilient", verdict.reason,
              verdict.p_miss, verdict.escalation);
  return 0;
}
