// replay_bench — corpus record/replay throughput vs workload generation.
//
// The whole point of recording a corpus is that replaying it is much
// cheaper than regenerating the workload: generation walks the RNG,
// the per-attack phase machines and the k-way benign/attack merge for
// every record, while replay hands out an mmap'd block's proven lanes
// as they lie. This bench puts a number on that claim and gates on it.
//
// Phases, all over the identical record stream:
//   generate       build_workload + drain (what every non-replay run pays)
//   merge          the generated stream split back into one VectorSource
//                  per AccessRecord::source and merged again: the k-way
//                  merge alone, over pre-generated children
//   record         CorpusWriter append + durable close
//   replay_cold    first MmapSource, first pass through span_lanes —
//                  every block CRC-checked and proven on first touch
//   replay_shared  a second, fresh MmapSource — what every sweep cell
//                  after the first pays: the process-wide mapping cache
//                  hands it the already-verified mapping
//   replay_warm    rewind + another pass on one source (no proof; the
//                  per-block page release is its only work)
//
// An untimed pass also checks that every record next_batch rebuilds from
// the lanes equals the generated one, so the speedups are only reported
// for an identical stream; likewise the merged stream must equal the
// generated one (exit 1 otherwise). Gates (exit 1) on replay_shared — the
// steady-state per-cell replay cost — being at least --min-speedup
// (default 5x) faster than generation; writes BENCH_replay.json either
// way so CI can chart the trajectory.
//
// Usage:
//   replay_bench [--acts=N] [--seed=S] [--out=FILE] [--corpus=FILE]
//                [--min-speedup=X] [--smoke]
//     --acts         records to generate and replay (default 2000000)
//     --corpus       corpus path (default: a temp file, removed on exit)
//     --min-speedup  required shared-replay-vs-generation ratio (default 5)
//     --smoke        CI-sized run (50000 ACTs) — same shape, seconds
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/trace/source.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/json.hpp"
#include "tvp/util/timer.hpp"

namespace {

using namespace tvp;

struct Phase {
  std::string name;
  util::Throughput rate;
};

void print_phase(const Phase& phase) {
  std::printf("  %-12s %10.3f Mrec/s  %8.1f ns/rec  (%.3f s)\n",
              phase.name.c_str(), phase.rate.per_second() / 1e6,
              phase.rate.ns_per_item(), phase.rate.seconds);
}

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags(argc, argv,
                    {"acts", "seed", "out", "corpus", "min-speedup", "smoke",
                     "help"});
  if (flags.get_bool("help")) {
    std::printf(
        "usage: replay_bench [--acts=N] [--seed=S] [--out=FILE] "
        "[--corpus=FILE] [--min-speedup=X] [--smoke]\n");
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");
  // Smoke still uses 500k records: the phases run in well under a
  // second, and anything smaller is dominated by page-fault and timer
  // noise rather than the record/replay paths under test.
  const std::uint64_t acts =
      flags.get_integer<std::uint64_t>("acts", smoke ? 500'000 : 2'000'000, 1);
  const std::uint64_t seed = flags.get_integer<std::uint64_t>("seed", 1);
  const double min_speedup =
      static_cast<double>(flags.get_integer<std::uint32_t>("min-speedup", 5));
  const std::string out_path = flags.get("out", "BENCH_replay.json");
  const bool keep_corpus = flags.has("corpus");
  const std::string corpus_path =
      keep_corpus ? flags.get("corpus", "")
                  : (std::filesystem::temp_directory_path() /
                     ("replay_bench_" + std::to_string(::getpid()) + ".tvpc"))
                        .string();

  // The standard paper campaign (benign mix + ramped attacks), scaled
  // to supply `acts` records — the same sizing rule as perf_hotpath.
  exp::SimConfig config;
  config.seed = seed;
  exp::install_standard_campaign(config);
  const double acts_per_window =
      (config.workload.benign_acts_per_interval_per_bank + 20.0) *
      static_cast<double>(config.timing.refresh_intervals) *
      static_cast<double>(config.geometry.total_banks());
  config.windows = static_cast<std::uint32_t>(static_cast<double>(acts) /
                                              acts_per_window) +
                   1;
  config.finalize();

  std::printf("replay_bench: ~%llu records, %u banks, seed %llu%s\n\n",
              static_cast<unsigned long long>(acts),
              config.geometry.total_banks(),
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  // --- generate: what every non-replay run pays per simulation.
  exp::Streams streams(config.seed);
  util::Timer generate_timer;
  auto workload = exp::build_workload(config, streams.workload);
  const std::vector<trace::AccessRecord> records =
      trace::drain(*workload, static_cast<std::size_t>(acts));
  const Phase generate{"generate",
                       util::throughput(records.size(), generate_timer)};
  if (records.empty()) {
    std::fprintf(stderr, "replay_bench: workload produced no records\n");
    return 1;
  }
  print_phase(generate);

  // --- merge: one child per source id, pulled in the runs' batch size.
  // In the standard campaign every generator has its own id and
  // ascending id is registration order, so re-merging the split must
  // give back the generated stream.
  std::vector<std::vector<trace::AccessRecord>> by_source(256);  // 8-bit ids
  for (const trace::AccessRecord& r : records) by_source[r.source].push_back(r);
  std::vector<std::unique_ptr<trace::TraceSource>> children;
  for (auto& child : by_source)
    if (!child.empty())
      children.push_back(std::make_unique<trace::VectorSource>(std::move(child)));
  std::vector<trace::AccessRecord> merged(records.size());
  util::Timer merge_timer;
  trace::MergedSource merge_source(std::move(children));
  std::size_t merged_count = 0;
  while (const std::size_t n = merge_source.next_batch(
             merged.data() + merged_count,
             std::min(exp::Simulation::kBatchRecords,
                      merged.size() - merged_count)))
    merged_count += n;
  const Phase merge{"merge", util::throughput(merged_count, merge_timer)};
  print_phase(merge);
  if (merged_count != records.size() || merged != records) {
    std::fprintf(stderr,
                 "replay_bench: merged stream diverged from generation\n");
    return 1;
  }

  // --- record: append + durable close.
  util::Timer record_timer;
  std::uint32_t identity = 0;
  {
    trace::CorpusWriter writer(corpus_path, config.geometry.total_banks());
    writer.append(records.data(), records.size());
    identity = writer.close();
  }
  const Phase record{"record", util::throughput(records.size(), record_timer)};
  print_phase(record);
  const std::uint64_t corpus_bytes = std::filesystem::file_size(corpus_path);

  // --- replay, cold then warm, on one source so the warm pass gets the
  // trust-after-verify fast path. A pass hands out every block's lanes,
  // as a replay run steps them.
  const auto replay = [](trace::MmapSource& source) {
    const trace::AccessRecord* span = nullptr;
    const trace::BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    std::uint64_t replayed = 0;
    while (const std::size_t n = source.span_lanes(&span, &lanes, &lane_banks))
      replayed += n;
    return replayed;
  };
  trace::MmapSource source(corpus_path);
  util::Timer cold_timer;
  const std::uint64_t replayed = replay(source);
  const Phase cold{"replay_cold", util::throughput(replayed, cold_timer)};
  print_phase(cold);
  if (replayed != records.size()) {
    std::fprintf(stderr, "replay_bench: replay lost records (%llu of %zu)\n",
                 static_cast<unsigned long long>(replayed), records.size());
    return 1;
  }

  // Untimed identity pass: every record rebuilt from the lanes must
  // equal the generated one field by field.
  source.rewind();
  std::vector<trace::AccessRecord> batch(exp::Simulation::kBatchRecords);
  std::uint64_t checked = 0;
  while (const std::size_t n = source.next_batch(batch.data(), batch.size())) {
    for (std::size_t i = 0; i < n; ++i, ++checked)
      if (checked >= records.size() || !(batch[i] == records[checked])) {
        std::fprintf(stderr,
                     "replay_bench: record %llu diverged from generation\n",
                     static_cast<unsigned long long>(checked));
        return 1;
      }
  }
  if (checked != records.size()) {
    std::fprintf(stderr, "replay_bench: next_batch lost records\n");
    return 1;
  }

  // A fresh source over the same file: open + parse + stream, exactly
  // what every sweep cell after the first pays. The shared mapping
  // cache means no second proof; the pass reads no lane, so it takes no
  // page fault, and pays one page release a block.
  util::Timer shared_timer;
  trace::MmapSource second(corpus_path);
  const std::uint64_t shared_replayed = replay(second);
  const Phase shared{"replay_shared",
                     util::throughput(shared_replayed, shared_timer)};
  print_phase(shared);
  if (shared_replayed != records.size()) {
    std::fprintf(stderr, "replay_bench: shared replay lost records\n");
    return 1;
  }

  source.rewind();
  util::Timer warm_timer;
  const std::uint64_t warm_replayed = replay(source);
  const Phase warm{"replay_warm", util::throughput(warm_replayed, warm_timer)};
  print_phase(warm);
  if (warm_replayed != records.size()) {
    std::fprintf(stderr, "replay_bench: warm replay lost records\n");
    return 1;
  }

  const double cold_speedup = cold.rate.per_second() / generate.rate.per_second();
  const double shared_speedup =
      shared.rate.per_second() / generate.rate.per_second();
  const double warm_speedup = warm.rate.per_second() / generate.rate.per_second();
  const bool passed = shared_speedup >= min_speedup;
  std::printf(
      "\ncorpus %s: %llu bytes, identity %08x\n"
      "speedup vs generation: cold %.1fx, shared %.1fx, warm %.1fx "
      "(gate on shared: >= %.1fx)\n",
      corpus_path.c_str(), static_cast<unsigned long long>(corpus_bytes),
      identity, cold_speedup, shared_speedup, warm_speedup, min_speedup);

  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("replay_bench");
  json.key("config").begin_object();
  json.key("acts").value(static_cast<std::uint64_t>(records.size()));
  json.key("banks").value(
      static_cast<std::uint64_t>(config.geometry.total_banks()));
  json.key("windows").value(static_cast<std::uint64_t>(config.windows));
  json.key("seed").value(seed);
  json.key("smoke").value(smoke);
  json.key("corpus_bytes").value(corpus_bytes);
  json.key("identity").value(static_cast<std::uint64_t>(identity));
#ifdef NDEBUG
  json.key("assertions").value(false);
#else
  json.key("assertions").value(true);
#endif
  json.end_object();
  json.key("results").begin_array();
  for (const Phase* phase : {&generate, &merge, &record, &cold, &shared, &warm}) {
    json.begin_object();
    json.key("phase").value(phase->name);
    json.key("records").value(phase->rate.items);
    json.key("seconds").value(phase->rate.seconds);
    json.key("records_per_sec").value(phase->rate.per_second());
    json.key("ns_per_record").value(phase->rate.ns_per_item());
    json.end_object();
  }
  json.end_array();
  json.key("speedup").begin_object();
  json.key("cold_vs_generation").value(cold_speedup);
  json.key("shared_vs_generation").value(shared_speedup);
  json.key("warm_vs_generation").value(warm_speedup);
  json.key("min_required").value(min_speedup);
  json.key("passed").value(passed);
  json.end_object();
  json.end_object();

  std::ofstream out(out_path);
  out << json.str() << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "replay_bench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  if (!keep_corpus) std::filesystem::remove(corpus_path);
  if (!passed) {
    std::fprintf(stderr,
                 "replay_bench: FAIL — shared replay is only %.1fx generation "
                 "(need >= %.1fx)\n",
                 shared_speedup, min_speedup);
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "replay_bench: %s\n", e.what());
  return 2;
}
