// tvp_trace — record, import, inspect, verify and characterise trace
// corpora, the one form in which a trace enters a run (`tvp_sim --trace`
// or a config's workload.trace). The commands are listed in usage().
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/trace/io.hpp"
#include "tvp/trace/stats.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/table.hpp"

namespace {

using namespace tvp;

int usage(bool ok) {
  std::printf(
      "usage: tvp_trace COMMAND [options]\n"
      "commands:\n"
      "  record   --out=F.tvpc [--config=F] [--seed=N] [--block-records=N]\n"
      "           record the config's workload (default: the paper campaign)\n"
      "  import   --dramsim=IN --out=F.tvpc [--config=F] [--block-records=N]\n"
      "           map an address trace (\"ADDR R|W [cycle]\") onto the config's\n"
      "           geometry and clock (default: DDR4, 4 banks); no oracle\n"
      "  inspect  --in=F.tvpc   print the identity, banks, oracle and block index\n"
      "  verify   --in=F.tvpc   CRC-check and prove every block\n"
      "  stats    --in=F.tvpc [--config=F]   Table I statistics, histogram\n");
  return ok ? 0 : 2;
}

void print_info(const trace::CorpusInfo& info, bool blocks) {
  std::printf("identity   %08x\n", info.footer_crc);
  std::printf("records    %llu\n",
              static_cast<unsigned long long>(info.total_records));
  std::printf("blocks     %zu\n", info.blocks.size());
  std::printf("banks      %u\n", info.banks);
  std::printf("oracle     %s\n", info.oracle ? "yes" : "no");
  std::printf("aggressors %zu\n", info.aggressors.size());
  std::printf("victims    %zu\n", info.victims.size());
  if (!info.blocks.empty())
    std::printf("time range %llu .. %llu ps\n",
                static_cast<unsigned long long>(info.blocks.front().min_time_ps),
                static_cast<unsigned long long>(info.blocks.back().max_time_ps));
  if (!blocks) return;
  std::printf("%5s %12s %12s %8s %10s\n", "block", "offset", "first_rec",
              "records", "crc");
  for (std::size_t b = 0; b < info.blocks.size(); ++b) {
    const auto& blk = info.blocks[b];
    std::printf("%5zu %12llu %12llu %8u %10x\n", b,
                static_cast<unsigned long long>(blk.offset),
                static_cast<unsigned long long>(blk.first_record), blk.records,
                blk.crc);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::Flags flags(argc, argv,
                      {"in", "out", "config", "seed", "block-records",
                       "dramsim", "help"});
    if (flags.get_bool("help") || flags.positional().empty())
      return usage(flags.get_bool("help"));
    const std::string command = flags.positional()[0];
    // import and stats default to the plain system: DDR4, 4 banks.
    const exp::SimConfig system = flags.has("config")
        ? exp::load_sim_config(flags.get("config", "")) : exp::SimConfig{};
    // A block's record count is a u32.
    const std::size_t block_records = flags.get_integer<std::uint32_t>(
        "block-records", trace::CorpusWriter::kDefaultBlockRecords, 1);

    if (command == "record") {
      if (!flags.has("out")) return usage(false);
      exp::SimConfig config = system;
      if (!flags.has("config")) exp::install_standard_campaign(config);
      if (flags.has("seed")) {
        config.seed = flags.get_integer<std::uint64_t>("seed", 1);
        config.finalize();
      }
      const std::string out = flags.get("out", "");
      const std::uint32_t identity = exp::record_corpus(config, out, block_records);
      const trace::CorpusInfo info = trace::read_corpus_info(out);
      std::printf("recorded %llu records to %s (identity %08x)\n",
                  static_cast<unsigned long long>(info.total_records),
                  out.c_str(), identity);
      return 0;
    }
    if (command == "import") {
      if (!flags.has("dramsim") || !flags.has("out")) return usage(false);
      const std::string in = flags.get("dramsim", "");
      std::ifstream is(in);
      if (!is) throw std::runtime_error("cannot open " + in);
      trace::AddressTraceSource source(
          is, dram::AddressMapper(system.geometry, dram::AddressMapPolicy::kRowColBank),
          system.timing.t_ck_ps());
      // Streamed a batch at a time, so memory holds one block, not the
      // trace. No oracle, so the header says so.
      const std::string out = flags.get("out", "");
      trace::CorpusWriter writer(out, system.geometry.total_banks(),
                                 block_records);
      try {
        std::vector<trace::AccessRecord> batch(exp::Simulation::kBatchRecords);
        while (const std::size_t n = source.next_batch(batch.data(), batch.size()))
          writer.append(batch.data(), n);
        const std::uint32_t identity = writer.close();
        std::printf("imported %llu records to %s (identity %08x)\n",
                    static_cast<unsigned long long>(writer.records_written()),
                    out.c_str(), identity);
      } catch (...) {
        // A trace rejected part-way leaves no half-written corpus behind.
        std::error_code ignored;
        std::filesystem::remove(out, ignored);
        throw;
      }
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
    if (command == "stats") {
      if (!flags.has("in")) return usage(false);
      trace::TraceStats stats(system.timing.t_refi_ps(),
                              system.geometry.total_banks());
      // next_batch rebuilds the records from the lanes, 4,096 at a time.
      trace::MmapSource source(flags.get("in", ""));
      std::vector<trace::AccessRecord> batch(exp::Simulation::kBatchRecords);
      while (const std::size_t n = source.next_batch(batch.data(), batch.size()))
        for (std::size_t i = 0; i < n; ++i) stats.add(batch[i]);
      const auto per_interval = stats.acts_per_interval_per_bank();
      util::TextTable table({"metric", "value"});
      table.set_title("workload characteristics (Table I calibration)");
      table.add_row({"records", std::to_string(stats.records())});
      table.add_row({"attack records", std::to_string(stats.attack_records())});
      table.add_row({"attack share %", util::strfmt("%.2f", 100 * stats.attack_fraction())});
      table.add_row({"write share %", util::strfmt("%.2f",
                     100.0 * stats.writes() / std::max<std::uint64_t>(1, stats.records()))});
      table.add_row({"unique (bank,row) pairs", std::to_string(stats.unique_rows())});
      table.add_row({"hottest row ACT count", std::to_string(stats.hottest_row_count())});
      table.add_row({"mean ACTs/interval/bank", util::strfmt("%.1f", per_interval.mean())});
      table.add_row({"max ACTs/interval/bank", util::strfmt("%.0f", per_interval.max())});
      std::fputs(table.render().c_str(), stdout);
      // Between Table I's average of 40 and its maximum of 165: the range
      // that sizes CaPRoMi's 64-entry counter table.
      std::printf("\nactivations per (interval, active bank):\n%s",
                  stats.acts_per_interval_histogram(0, 170, 17).render(40).c_str());
      return 0;
    }
    std::fprintf(stderr, "tvp_trace: unknown command '%s'\n", command.c_str());
    return usage(false);
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "tvp_trace: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tvp_trace: %s\n", e.what());
    return 1;
  }
}
