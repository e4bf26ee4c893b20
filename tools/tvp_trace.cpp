// tvp_trace — record, inspect and verify trace corpora.
//
//   tvp_trace record  --out=FILE.tvpc [--config=FILE] [--seed=N]
//                     [--block-records=N]
//       Generates the workload the config describes (benign + attacks)
//       and records it — records plus aggressor oracle — as a corpus.
//       Without --config, the standard paper campaign.
//   tvp_trace inspect --in=FILE.tvpc
//       Prints the footer: identity, totals, per-block index.
//   tvp_trace verify  --in=FILE.tvpc
//       Full integrity pass: every block CRC-checked and replayed.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/util/cli.hpp"

namespace {

using namespace tvp;

int usage(bool ok) {
  std::printf(
      "usage: tvp_trace COMMAND [options]\n"
      "commands:\n"
      "  record   --out=FILE.tvpc [--config=FILE] [--seed=N]\n"
      "           [--block-records=N]   generate + record a workload corpus\n"
      "  inspect  --in=FILE.tvpc       print footer index and identity\n"
      "  verify   --in=FILE.tvpc       CRC-check every block\n");
  return ok ? 0 : 2;
}

const char* codec_name(trace::CorpusCodec codec) {
  return codec == trace::CorpusCodec::kZstd ? "zstd" : "raw";
}

void print_info(const trace::CorpusInfo& info, bool blocks) {
  std::printf("identity   %08x\n", info.footer_crc);
  std::printf("records    %llu\n",
              static_cast<unsigned long long>(info.total_records));
  std::printf("blocks     %zu\n", info.blocks.size());
  std::printf("aggressors %zu\n", info.aggressors.size());
  std::printf("victims    %zu\n", info.victims.size());
  if (!info.blocks.empty())
    std::printf("time range %llu .. %llu ps\n",
                static_cast<unsigned long long>(info.blocks.front().min_time_ps),
                static_cast<unsigned long long>(info.blocks.back().max_time_ps));
  if (!blocks) return;
  std::printf("%5s %12s %12s %8s %5s %10s\n", "block", "offset", "first_rec",
              "records", "codec", "crc");
  for (std::size_t b = 0; b < info.blocks.size(); ++b) {
    const auto& blk = info.blocks[b];
    std::printf("%5zu %12llu %12llu %8u %5s %10x\n", b,
                static_cast<unsigned long long>(blk.offset),
                static_cast<unsigned long long>(blk.first_record), blk.records,
                codec_name(blk.codec), blk.crc);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv,
                      {"in", "out", "config", "seed", "block-records", "help"});
    if (flags.get_bool("help") || flags.positional().empty())
      return usage(flags.get_bool("help"));
    const std::string command = flags.positional()[0];

    if (command == "record") {
      if (!flags.has("out")) return usage(false);
      exp::SimConfig config;
      if (flags.has("config")) {
        config = exp::load_sim_config(flags.get("config", ""));
      } else {
        exp::install_standard_campaign(config);
      }
      if (flags.has("seed")) {
        config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
        config.finalize();
      }
      trace::CorpusWriter::Options options;
      if (flags.has("block-records"))
        options.records_per_block =
            static_cast<std::size_t>(flags.get_int("block-records", 1 << 16));
      const std::string out = flags.get("out", "");
      const std::uint32_t identity = exp::record_corpus(config, out, options);
      const trace::CorpusInfo info = trace::read_corpus_info(out);
      std::printf("recorded %llu records to %s (identity %08x)\n",
                  static_cast<unsigned long long>(info.total_records),
                  out.c_str(), identity);
      return 0;
    }
    if (command == "inspect") {
      if (!flags.has("in")) return usage(false);
      print_info(trace::read_corpus_info(flags.get("in", "")), true);
      return 0;
    }
    if (command == "verify") {
      if (!flags.has("in")) return usage(false);
      const std::string in = flags.get("in", "");
      const trace::CorpusInfo info = trace::verify_corpus(in);
      std::printf("%s: ok\n", in.c_str());
      print_info(info, false);
      return 0;
    }
    std::fprintf(stderr, "tvp_trace: unknown command '%s'\n", command.c_str());
    return usage(false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_trace: %s\n", e.what());
    return 1;
  }
}
