// Trace tools: record, verify and characterise a workload trace
// without running any mitigation — the calibration workflow behind
// Table I's "average 40 activations per refresh interval".
//
//   ./build/examples/trace_tools [output.tvpc]
//
// Records the standard campaign with exp::record_corpus (so the corpus
// replays as the generated run), CRC-checks it, and streams it back for
// the workload statistics plus the acts-per-interval histogram that
// motivates CaPRoMi's 64-entry counter table (between the average of
// 40 and the maximum of 165).
#include <cstdio>
#include <string>

#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/trace/stats.hpp"
#include "tvp/util/table.hpp"

int main(int argc, char** argv) {
  using namespace tvp;
  const std::string path = argc > 1 ? argv[1] : "mixed_workload.tvpc";

  exp::SimConfig config;
  config.windows = 1;
  exp::install_standard_campaign(config);

  const std::uint32_t identity = exp::record_corpus(config, path);
  const trace::CorpusInfo info = trace::verify_corpus(path);
  std::printf("recorded %llu records over %u refresh window(s) to %s "
              "(identity %08x, every block CRC-checked)\n",
              static_cast<unsigned long long>(info.total_records),
              config.windows, path.c_str(), identity);

  trace::TraceStats stats(config.timing.t_refi_ps(),
                          config.geometry.total_banks());
  trace::MmapSource source(path);
  const trace::AccessRecord* span = nullptr;
  while (const std::size_t n = source.next_span(&span))
    for (std::size_t i = 0; i < n; ++i) stats.add(span[i]);

  const auto per_interval = stats.acts_per_interval_per_bank();
  util::TextTable table({"metric", "value"});
  table.set_title("\nworkload characteristics (Table I calibration)");
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

  std::printf("\nactivations per (interval, active bank):\n%s",
              stats.acts_per_interval_histogram(0, 170, 17).render(40).c_str());
  return 0;
}
