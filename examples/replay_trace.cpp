// Replay an external memory trace against a chosen mitigation technique.
//
//   ./build/examples/replay_trace <trace-file> [technique] [--dramsim]
//
// Accepts this library's corpus format (.tvpc, as written by
// trace_tools or `tvp_trace record`) or — with --dramsim —
// DRAMSim2/ramulator-style address traces ("0xADDR R|W [cycle]"), which
// are mapped onto the DDR4 geometry. Useful for evaluating a mitigation
// against traffic recorded from a real system or another simulator.
#include <algorithm>
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
  std::vector<trace::AccessRecord> records;
  try {
    if (dramsim) {
      std::ifstream is(path);
      if (!is) throw std::runtime_error("cannot open " + path);
      const dram::AddressMapper mapper(config.geometry,
                                       dram::AddressMapPolicy::kRowColBank);
      records = trace::import_address_trace(is, mapper,
                                            config.timing.t_ck_ps());
    } else {
      records = trace::read_corpus(path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load trace: %s\n", e.what());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr, "trace is empty\n");
    return 1;
  }

  // Characterise the input.
  trace::TraceStats stats(config.timing.t_refi_ps(),
                          config.geometry.total_banks());
  dram::BankId max_bank = 0;
  for (const auto& r : records) {
    stats.add(r);
    max_bank = std::max(max_bank, r.bank);
  }
  if (max_bank >= config.geometry.total_banks()) {
    std::fprintf(stderr, "trace touches bank %u; raise geometry banks\n",
                 max_bank);
    return 1;
  }
  const std::uint64_t span_ps = records.back().time_ps + 1;
  std::printf("trace: %zu records over %.2f ms (%zu unique rows, %.1f "
              "acts/interval/bank avg)\n",
              records.size(), static_cast<double>(span_ps) / 1e9,
              stats.unique_rows(),
              stats.acts_per_interval_per_bank().mean());

  // Wire the pipeline manually around the replayed records.
  util::Rng rng(1);
  util::Rng engine_rng = rng.fork();
  util::Rng controller_rng = rng.fork();
  config.finalize();
  mem::MitigationEngine engine(config.geometry.total_banks(),
                               exp::make_factory(technique, config.technique),
                               engine_rng);
  dram::DisturbanceModel disturbance(config.geometry.total_banks(),
                                     config.geometry.rows_per_bank,
                                     config.disturbance);
  mem::MemoryController controller(exp::controller_config(config), engine,
                                   disturbance, controller_rng);
  controller.on_records(records.data(), records.size());
  controller.advance_to(span_ps);

  util::TextTable table({"metric", "value"});
  table.set_title(util::strfmt("\nreplay under %s",
                               std::string(hw::to_string(technique)).c_str()));
  table.add_row({"demand activations",
                 std::to_string(controller.stats().demand_acts)});
  table.add_row({"mitigation extra activations",
                 std::to_string(controller.stats().extra_acts)});
  table.add_row({"activation overhead %",
                 util::strfmt("%.5f", controller.stats().overhead_pct())});
  table.add_row({"bit flips", std::to_string(disturbance.flips().size())});
  table.add_row({"peak disturbance",
                 util::strfmt("%llu / %u",
                              static_cast<unsigned long long>(
                                  disturbance.peak_disturbance_q8() >> 8),
                              config.disturbance.flip_threshold)});
  table.add_row({"mitigation state / bank [B]",
                 util::strfmt("%.0f", engine.state_bytes_per_bank())});
  std::fputs(table.render().c_str(), stdout);
  return disturbance.any_flip() ? 1 : 0;
}
