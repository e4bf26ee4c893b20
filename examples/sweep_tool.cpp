// sweep_tool — run any config-key sweep over any set of techniques.
//
//   ./build/examples/sweep_tool --param=technique.history_entries \
//       --values=4,8,16,32,64 [--config=base.cfg] \
//       [--techniques=LiPRoMi,LoLiPRoMi] [--csv=out.csv]
//
// The param must be a key from configs/README.md; values are applied on
// top of the base config (default: the standard campaign). This is the
// open-ended counterpart to the fixed ablation benches.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tvp/exp/report.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/util/cli.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    out.push_back(text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvp;
  try {
    util::Flags flags(argc, argv,
                      {"param", "values", "config", "techniques", "csv", "help"});
    if (flags.get_bool("help") || !flags.has("param") || !flags.has("values")) {
      std::printf("usage: sweep_tool --param=<config-key> --values=v1,v2,...\n"
                  "       [--config=file] [--techniques=a,b,...] [--csv=file]\n"
                  "keys: see configs/README.md\n");
      return flags.get_bool("help") ? 0 : 2;
    }

    // Base configuration: a file, or the standard campaign serialised.
    util::KeyValueFile base;
    if (flags.has("config")) {
      base = util::KeyValueFile::load(flags.get("config", ""));
    } else {
      exp::SimConfig campaign;
      exp::install_standard_campaign(campaign);
      base = util::KeyValueFile::parse(exp::to_config_text(campaign));
    }

    std::vector<hw::Technique> techniques;
    if (flags.has("techniques")) {
      for (const auto& name : split_csv(flags.get("techniques", ""))) {
        const auto technique = hw::parse_technique(name);
        if (!technique) {
          std::fprintf(stderr, "unknown technique '%s'\n", name.c_str());
          return 2;
        }
        techniques.push_back(*technique);
      }
    } else {
      techniques = {hw::Technique::kPara, hw::Technique::kLiPRoMi,
                    hw::Technique::kLoLiPRoMi, hw::Technique::kCaPRoMi,
                    hw::Technique::kTwice};
    }

    const auto sweep = exp::run_param_sweep(
        base, flags.get("param", ""), split_csv(flags.get("values", "")),
        techniques);
    std::fputs(exp::sweep_overhead_table(sweep).render().c_str(), stdout);
    std::printf("%zu cells in %.2f s with %zu jobs (TVP_JOBS)\n",
                sweep.cells.size(), sweep.wall_seconds, sweep.jobs);

    if (flags.has("csv")) {
      const std::string path = flags.get("csv", "sweep.csv");
      std::ofstream os(path);
      os << exp::sweep_to_csv(sweep);
      std::printf("CSV written to %s\n", path.c_str());
    }
    return 0;
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "sweep_tool: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_tool: %s\n", e.what());
    return 1;
  }
}
