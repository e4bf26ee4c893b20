// Replay a recorded memory trace against a chosen mitigation technique.
//
//   ./build/examples/replay_trace <trace-file> [technique] [--dramsim]
//
// A corpus (.tvpc, as written by trace_tools or `tvp_trace record`) is
// streamed as the replay workload, oracles included, over the refresh
// windows that cover its last record: the run tvp_sim makes with
// `workload.model = replay`. With --dramsim the file is a
// DRAMSim2/ramulator-style address trace ("0xADDR R|W [cycle]") mapped
// onto the DDR4 geometry; it carries no oracle, so no FPR.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "tvp/exp/registry.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/trace/io.hpp"
#include "tvp/trace/stats.hpp"
#include "tvp/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tvp;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <trace-file> [technique] [--dramsim]\n"
                 "  technique: PARA|ProHit|MRLoc|TWiCe|CRA|LiPRoMi|LoPRoMi|"
                 "LoLiPRoMi|CaPRoMi (default LoLiPRoMi)\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  hw::Technique technique = hw::Technique::kLoLiPRoMi;
  bool dramsim = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dramsim") == 0) {
      dramsim = true;
      continue;
    }
    const auto parsed = hw::parse_technique(argv[i]);
    if (!parsed) {
      std::fprintf(stderr, "unknown technique '%s'\n", argv[i]);
      return 2;
    }
    technique = *parsed;
  }

  exp::SimConfig config;  // DDR4 defaults, 4 banks
  trace::TraceStats stats(config.timing.t_refi_ps(),
                          config.geometry.total_banks());
  std::uint64_t records = 0;
  std::uint64_t last_time_ps = 0;
  exp::RunResult result;
  try {
    std::vector<trace::AccessRecord> imported;
    if (dramsim) {
      std::ifstream is(path);
      if (!is) throw std::runtime_error("cannot open " + path);
      const dram::AddressMapper mapper(config.geometry,
                                       dram::AddressMapPolicy::kRowColBank);
      imported =
          trace::import_address_trace(is, mapper, config.timing.t_ck_ps());
      records = imported.size();
      if (records != 0) last_time_ps = imported.back().time_ps;
    } else {
      const trace::CorpusInfo info = trace::read_corpus_info(path);
      records = info.total_records;
      if (records != 0) last_time_ps = info.blocks.back().max_time_ps;
      config.workload.model = exp::BenignModel::kReplay;
      config.workload.trace_path = path;
    }
    if (records == 0) {
      std::fprintf(stderr, "trace is empty\n");
      return 1;
    }
    // The refresh windows that cover the last record.
    config.windows =
        static_cast<std::uint32_t>(last_time_ps / config.timing.t_refw_ps) + 1;
    config.finalize();
    exp::Simulation sim(exp::make_factory(technique, config.technique),
                        config);
    if (dramsim) {
      sim.feed(imported.data(), imported.size());
      for (const auto& r : imported) stats.add(r);
    } else {
      for (auto batch = sim.step(); !batch.empty(); batch = sim.step())
        for (const auto& r : batch) stats.add(r);
    }
    sim.advance();
    result = sim.result(std::string(hw::to_string(technique)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to replay trace: %s\n", e.what());
    return 1;
  }

  std::printf("trace: %llu records over %.2f ms (%zu unique rows, %.1f "
              "acts/interval/bank avg)\n",
              static_cast<unsigned long long>(records),
              static_cast<double>(last_time_ps + 1) / 1e9, stats.unique_rows(),
              stats.acts_per_interval_per_bank().mean());

  const auto with_oracle = [&](const std::string& value) {
    return dramsim ? std::string("n/a (no oracle)") : value;
  };
  util::TextTable table({"metric", "value"});
  table.set_title(util::strfmt("\nreplay under %s", result.technique.c_str()));
  table.add_row({"demand activations", std::to_string(result.stats.demand_acts)});
  table.add_row({"mitigation extra activations",
                 std::to_string(result.stats.extra_acts)});
  table.add_row({"activation overhead %",
                 util::strfmt("%.5f", result.overhead_pct())});
  table.add_row({"false-positive rate %",
                 with_oracle(util::strfmt("%.5f", result.fpr_pct()))});
  table.add_row({"bit flips", std::to_string(result.flips)});
  table.add_row({"victim bit flips",
                 with_oracle(std::to_string(result.victim_flips))});
  table.add_row({"peak disturbance",
                 util::strfmt("%llu / %u",
                              static_cast<unsigned long long>(
                                  result.peak_disturbance),
                              config.disturbance.flip_threshold)});
  table.add_row({"mitigation state / bank [B]",
                 util::strfmt("%.0f", result.state_bytes_per_bank)});
  std::fputs(table.render().c_str(), stdout);
  return result.flips == 0 ? 0 : 1;
}
