// tvp_sim — the general-purpose simulation driver.
//
//   ./build/examples/tvp_sim [flags]
//
//   --technique=<name>     PARA|ProHit|MRLoc|TWiCe|CRA|LiPRoMi|LoPRoMi|
//                          LoLiPRoMi|CaPRoMi (default LoLiPRoMi)
//   --trace=<file.tvpc>    replay a corpus (`tvp_trace record|import`) over
//                          the windows that cover its last record, on the
//                          corpus's bank count unless --banks or --config
//                          sets one (which must then match it)
//   --banks=<n>            banks to simulate (default 4)
//   --windows=<n>          refresh windows (default 2)
//   --benign=<rate>        benign ACTs/interval/bank (default 20)
//   --workload=<model>     mixed|cache|uniform|replay|fuzz (default mixed;
//                          replay needs a config with workload.trace)
//   --victims=<n>          double-sided attack victims on bank 0 (default 1;
//                          0 disables the attack)
//   --attack-rate=<acts>   attacker ACTs/interval (default 24)
//   --policy=<p>           refresh order: seq|remap|random|mask (default seq)
//   --seed=<n>             RNG seed (default 1)
//   --seeds=<n>            seed-sweep width for mu/sigma (default 1)
//   --json=<file>          write results as JSON
//   --config=<file>        load a configs/*.cfg experiment description
//                          (other flags are applied on top of it)
//
// Counts are totals over the seeds, peak disturbance their maximum. A
// corpus without an oracle (an imported trace) prints its FPR and victim
// flips as "n/a (no oracle)".
//
// Exit status: 0 when no bit flips occurred, 1 otherwise or when the
// trace cannot be read or is empty, 2 on a bad flag, an unknown name, an
// invalid configuration, a bank count that disagrees with the trace's or
// a trace whose bank count is not a power of two.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/verdict.hpp"
#include "tvp/util/bitutil.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/json.hpp"
#include "tvp/util/table.hpp"

namespace {

using namespace tvp;

/// The experiment the flags describe: the --config file (if any) with
/// the other flags applied on top, finalized. Throws on an unknown name
/// or an invalid configuration.
exp::SimConfig configure(const util::Flags& flags) {
  exp::SimConfig config;
  if (flags.has("config")) config = exp::load_sim_config(flags.get("config", ""));
  config.geometry.banks_per_rank = flags.get_integer<std::uint32_t>(
      "banks", config.geometry.banks_per_rank, 1);
  config.windows = flags.get_integer<std::uint32_t>("windows", config.windows, 1);
  config.seed = flags.get_integer<std::uint64_t>("seed", config.seed);
  config.workload.benign_acts_per_interval_per_bank = flags.get_double(
      "benign", config.workload.benign_acts_per_interval_per_bank);

  if (flags.has("workload"))
    config.workload.model = exp::parse_model(flags.get("workload", ""));
  if (flags.has("trace")) {
    config.workload.model = exp::BenignModel::kReplay;
    config.workload.trace_path = flags.get("trace", "");
  }
  if (flags.has("policy"))
    config.refresh_policy = exp::parse_policy(flags.get("policy", ""));

  // The flag-driven attack applies when no config supplied one, or when
  // --victims is given explicitly (overriding the config's attacks). A
  // replay workload gets no implicit attack: the corpus already carries
  // the recorded attack records, and silently stacking a live attacker
  // on top would break replay == generation. An explicit --victims=N
  // still overlays one on purpose.
  const bool implicit_attack = config.workload.attacks.empty() &&
                               config.workload.model != exp::BenignModel::kReplay;
  const auto victims =
      flags.get_integer<std::size_t>("victims", implicit_attack ? 1 : 0);
  if (victims > 0 && flags.has("victims")) config.workload.attacks.clear();
  if (victims > 0 && config.workload.attacks.empty()) {
    util::Rng rng(config.seed);
    auto attack = trace::make_multi_aggressor_attack(
        0, config.geometry.rows_per_bank, victims, rng);
    attack.interarrival_ps = static_cast<std::uint64_t>(
        config.timing.t_refi_ps() / flags.get_double("attack-rate", 24.0));
    config.workload.attacks = {attack};
  }
  config.finalize();
  return config;
}

int run(const util::Flags& flags) {
  if (flags.get_bool("help")) {
    std::printf("see the header of examples/tvp_sim.cpp for the flag list\n");
    return 0;
  }

  const std::string tech_name = flags.get("technique", "LoLiPRoMi");
  const auto technique = hw::parse_technique(tech_name);
  if (!technique) {
    std::fprintf(stderr, "unknown technique '%s'\n", tech_name.c_str());
    return 2;
  }

  exp::SimConfig config;
  std::uint32_t seeds = 0;
  try {
    config = configure(flags);
    seeds = flags.get_integer<std::uint32_t>("seeds", 1, 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_sim: %s\n", e.what());
    return 2;
  }

  exp::SeedSweepResult sweep;
  try {
    if (config.workload.model == exp::BenignModel::kReplay) {
      const std::string& path = config.workload.trace_path;
      const trace::CorpusInfo info = trace::read_corpus_info(path);
      if (flags.has("trace") && info.total_records == 0)
        throw std::runtime_error("trace " + path + " holds no records");
      if (!flags.has("banks") && !flags.has("config")) {
        if (!util::is_pow2(info.banks)) {
          std::fprintf(stderr,
                       "tvp_sim: trace %s holds %u banks, which is not a power "
                       "of two: the simulated geometry cannot take it\n",
                       path.c_str(), info.banks);
          return 2;
        }
        config.geometry.banks_per_rank = info.banks;
        config.finalize();
      } else if (config.geometry.total_banks() != info.banks) {
        std::fprintf(stderr,
                     "tvp_sim: trace %s holds %u banks, but --banks or "
                     "--config sets %u\n",
                     path.c_str(), info.banks, config.geometry.total_banks());
        return 2;
      }
      if (flags.has("trace") && !flags.has("windows"))  // tREFW >= 32 ms: fits
        config.windows = static_cast<std::uint32_t>(
            info.blocks.back().max_time_ps / config.timing.t_refw_ps + 1);
    }
    sweep = exp::run_seed_sweep(*technique, config, seeds);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_sim: %s\n", e.what());
    return 1;
  }
  const auto verdict =
      exp::security_verdict(*technique, config.technique, sweep.total_flips > 0);
  const auto with_oracle = [&sweep](const std::string& value) {
    return sweep.oracle ? value : std::string("n/a (no oracle)");
  };

  util::TextTable table({"metric", "value"});
  table.set_title(util::strfmt("tvp_sim: %s, %u banks, %u windows, %u seed(s)",
                               sweep.technique.c_str(),
                               config.geometry.total_banks(), config.windows,
                               seeds));
  table.add_row({"demand activations", std::to_string(sweep.total_demand_acts)});
  table.add_row({"mitigation extra activations",
                 std::to_string(sweep.total_extra_acts)});
  table.add_row({"activation overhead", exp::format_mu_sigma(sweep.overhead_pct)});
  table.add_row({"false-positive rate",
                 with_oracle(exp::format_mu_sigma(sweep.fpr_pct))});
  table.add_row({"bit flips", std::to_string(sweep.total_flips)});
  table.add_row({"victim bit flips",
                 with_oracle(std::to_string(sweep.total_victim_flips))});
  table.add_row({"peak disturbance",
                 util::strfmt("%llu / %u",
                              static_cast<unsigned long long>(sweep.peak_disturbance),
                              config.disturbance.flip_threshold)});
  table.add_row({"mitigation state / bank [B]",
                 util::strfmt("%.0f", sweep.state_bytes_per_bank)});
  table.add_row({"security verdict",
                 verdict.vulnerable ? "vulnerable" : "resilient"});
  table.add_row({"verdict reason", verdict.reason});
  table.add_row({"sweep wall-clock / jobs",
                 util::strfmt("%.2f s / %zu (TVP_JOBS)", sweep.wall_seconds,
                              sweep.jobs)});
  std::fputs(table.render().c_str(), stdout);

  if (flags.has("json")) {
    util::JsonWriter json;
    json.begin_object();
    json.key("technique").value(sweep.technique);
    json.key("banks").value(std::uint64_t{config.geometry.total_banks()});
    json.key("windows").value(std::uint64_t{config.windows});
    json.key("seeds").value(std::uint64_t{seeds});
    json.key("workload").value(exp::to_string(config.workload.model));
    json.key("refresh_policy").value(dram::to_string(config.refresh_policy));
    json.key("overhead_pct_mean").value(sweep.overhead_pct.mean());
    json.key("overhead_pct_stddev").value(sweep.overhead_pct.stddev());
    json.key("oracle").value(sweep.oracle);
    json.key("fpr_pct_mean").value(sweep.fpr_pct.mean());
    json.key("flips").value(sweep.total_flips);
    json.key("state_bytes_per_bank").value(sweep.state_bytes_per_bank);
    json.key("vulnerable").value(verdict.vulnerable);
    json.key("p_miss").value(verdict.p_miss);
    json.end_object();
    const std::string path = flags.get("json", "tvp_sim.json");
    std::ofstream os(path);
    os << json.str() << '\n';
    std::printf("results written to %s\n", path.c_str());
  }
  return sweep.total_flips == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags(argc, argv,
                           {"technique", "trace", "banks", "windows", "benign",
                            "workload", "victims", "attack-rate", "policy",
                            "seed", "seeds", "json", "config", "help"}));
  } catch (const std::exception& e) {  // an unknown or malformed flag
    std::fprintf(stderr, "tvp_sim: %s\n", e.what());
    return 2;
  }
}
