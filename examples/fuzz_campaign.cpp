// fuzz_campaign — sweep TRR-evading fuzzer seeds against the defence
// panel (unprotected, TRR, every TiVaPRoMi variant at several P_base
// points) and print the evasion-rate report.
//
//   ./build/examples/fuzz_campaign [--config=configs/fuzz_campaign.cfg]
//       [--seeds=8] [--pbase=17,20,23] [--json=report.json]
//       [--trace-dir=dir]
//
// The config must set workload.model = fuzz (fuzz.* keys: see
// configs/README.md). A seed's defences run as one cohort over its
// stream. With --trace-dir the campaign records one .tvpc corpus per
// seed and replays it for the cohort — the report is byte-identical to
// the generated run. --seeds takes a count in [1, 2^32 - 1] and --pbase
// exponents in [1, 32]; any other value exits 2.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/fuzz.hpp"
#include "tvp/util/cli.hpp"

namespace {

/// The --pbase list: comma-separated exponents in [1, 32]; nothing when
/// an entry is not one.
std::optional<std::vector<unsigned>> parse_pbase(const std::string& text) {
  std::vector<unsigned> out;
  std::size_t pos = 0;
  for (;;) {
    const auto comma = text.find(',', pos);
    const auto exp = tvp::util::parse_decimal<unsigned>(
        std::string_view(text).substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos),
        1, 32);
    if (!exp) return std::nullopt;
    out.push_back(*exp);
    if (comma == std::string::npos) return out;
    pos = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvp;
  try {
    util::Flags flags(argc, argv,
                      {"config", "seeds", "pbase", "json", "trace-dir", "help"});
    if (flags.get_bool("help")) {
      std::printf(
          "usage: fuzz_campaign [--config=file] [--seeds=n] "
          "[--pbase=e1,e2,...]\n       [--json=file] [--trace-dir=dir]\n");
      return 0;
    }

    // Usage errors exit 2 and name the flag and its value.
    exp::FuzzCampaignOptions options;
    options.fuzz_seeds =
        flags.get_integer<std::uint32_t>("seeds", options.fuzz_seeds, 1);
    if (flags.has("pbase")) {
      const auto pbase = parse_pbase(flags.get("pbase", ""));
      if (!pbase) {
        std::fprintf(stderr,
                     "fuzz_campaign: --pbase must list exponents in [1, 32], "
                     "got '%s'\n",
                     flags.get("pbase", "").c_str());
        return 2;
      }
      options.pbase_exps = *pbase;
    }
    if (flags.has("config")) {
      options.base = exp::load_sim_config(flags.get("config", ""));
    } else {
      options.base.workload.model = exp::BenignModel::kFuzz;
      options.base.workload.fuzz.patterns = 2;
      options.base.finalize();
    }
    options.trace_dir = flags.get("trace-dir", "");

    const auto result = exp::run_fuzz_campaign(options);

    std::printf("fuzz-evasion campaign: %u seeds, %u potent\n",
                options.fuzz_seeds, result.potent_seeds);
    std::printf("%-18s %8s %8s %14s %12s\n", "defence", "seeds", "evaded",
                "evasion_rate", "victim_flips");
    for (const auto& summary : result.defences)
      std::printf("%-18s %8u %8u %14.3f %12llu\n", summary.defence.c_str(),
                  summary.seeds, summary.evaded,
                  summary.evasion_rate(result.potent_seeds),
                  static_cast<unsigned long long>(summary.total_victim_flips));

    if (flags.has("json")) {
      std::ofstream out(flags.get("json", ""));
      out << exp::fuzz_report_json(options, result) << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", flags.get("json", "").c_str());
        return 1;
      }
    }

    // A campaign where no seed even dents the unprotected baseline has
    // no signal — fail loudly so CI smoke catches a dead generator.
    if (options.include_none && result.potent_seeds == 0) {
      std::fprintf(stderr, "no potent seeds: fuzzer produced no flips\n");
      return 1;
    }
    return 0;
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "fuzz_campaign: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_campaign: %s\n", e.what());
    return 1;
  }
}
