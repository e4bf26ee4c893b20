// perf_hotpath — the simulator's ACT-throughput baseline.
//
// Drives every mitigation variant (the unprotected baseline, the
// paper's nine techniques and the Graphene extension) over ONE fixed,
// pre-generated synthetic trace and measures the controller -> engine
// -> technique hot path in isolation: the trace is materialized before
// the clock starts, so workload generation cost is excluded and every
// variant consumes the identical record stream.
//
// Reports ACTs/second and ns/ACT per variant and writes
// BENCH_hotpath.json so future PRs have a throughput trajectory to
// regress against (see README, "Performance baseline").
//
// Each variant is measured twice: serial (bank_jobs = 1, the regression
// baseline — "results" in the JSON) and sharded (per-bank parallel
// execution on the worker pool — "parallel" in the JSON). Both passes
// produce bit-identical simulation results; the sharded pass is the
// aggregate-throughput story.
//
// Usage:
//   perf_hotpath [--acts=N] [--seed=S] [--batch=N] [--bank-jobs=N]
//                [--out=FILE] [--smoke] [--profile]
//     --acts       records to drive through each variant (default 2000000)
//     --batch      records per on_records call (default 4096, the runner's)
//     --bank-jobs  workers for the sharded pass (default 0 = TVP_JOBS /
//                  hardware concurrency, capped at the bank count)
//     --smoke      CI-sized run (50000 ACTs) — same shape, seconds not minutes
//     --out        JSON output path (default BENCH_hotpath.json)
//     --profile    per-stage breakdown (partition / mitigation /
//                  disturbance ns per ACT, mitigation split into the
//                  technique kernel and the walk) and a partitioned-corpus
//                  replay pass proving the lane path skips the scatter
//                  stage. Adds a "profile" section to the JSON; the
//                  stage timers add a little overhead, so the headline
//                  numbers come from runs without it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "tvp/trace/corpus.hpp"

#include "tvp/exp/registry.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mitigation/graphene.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/json.hpp"
#include "tvp/util/parallel.hpp"
#include "tvp/util/timer.hpp"

namespace {

using namespace tvp;

struct Result {
  std::string technique;
  util::Throughput feed;          // records driven / wall seconds
  std::uint64_t extra_acts = 0;
  std::uint64_t triggers = 0;
  double state_bytes_per_bank = 0.0;
  mem::StageProfile stages;       // zeros unless profiling
};

/// The mitigation stage minus its technique kernel: the controller's
/// walk over the lane and the kernel's actions.
std::uint64_t walk_ns(const mem::StageProfile& stages) {
  return stages.mitigation_ns - stages.kernel_ns;
}

/// One timed run on a fresh rig: @p trace in @p batch-record chunks, or
/// @p replay_corpus's spans and lanes as a replay run steps them.
Result run_variant(const std::string& name,
                   const mem::BankMitigationFactory& factory,
                   const exp::SimConfig& config,
                   const std::vector<trace::AccessRecord>& trace,
                   std::size_t batch, std::size_t bank_jobs,
                   bool profile = false,
                   const std::string& replay_corpus = {}) {
  exp::SimConfig run_config = config;
  if (!replay_corpus.empty()) {
    run_config.workload.model = exp::BenignModel::kReplay;
    run_config.workload.trace_path = replay_corpus;
    run_config.workload.attacks.clear();  // the corpus holds them
  }
  mem::ControllerConfig controller_cfg = exp::controller_config(config);
  controller_cfg.bank_jobs = bank_jobs;
  controller_cfg.profile = profile;
  exp::Simulation sim(factory, run_config, controller_cfg);

  util::Timer timer;
  if (!replay_corpus.empty()) {
    while (sim.step() != 0) {
    }
  } else {
    for (std::size_t i = 0; i < trace.size(); i += batch)
      sim.feed(trace.data() + i, std::min(batch, trace.size() - i));
  }
  Result r;
  r.technique = name;
  r.feed = util::throughput(trace.size(), timer);
  r.extra_acts = sim.controller().stats().extra_acts;
  r.triggers = sim.controller().stats().triggers;
  r.state_bytes_per_bank = sim.engine().state_bytes_per_bank();
  r.stages = sim.controller().stage_profile();
  return r;
}

}  // namespace

int main(int argc, char** argv) try {
  util::Flags flags(argc, argv,
                    {"acts", "seed", "batch", "bank-jobs", "out", "smoke",
                     "profile", "help"});
  if (flags.get_bool("help")) {
    std::printf(
        "usage: perf_hotpath [--acts=N] [--seed=S] [--batch=N] "
        "[--bank-jobs=N] [--out=FILE] [--smoke] [--profile]\n");
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");
  const bool profile = flags.get_bool("profile");
  const std::uint64_t acts =
      flags.get_integer<std::uint64_t>("acts", smoke ? 50'000 : 2'000'000, 1);
  const std::uint64_t seed = flags.get_integer<std::uint64_t>("seed", 1);
  // Default batch matches the production runner's feed loop, so the
  // measured number is the number the experiments actually see.
  const std::size_t batch = flags.get_integer<std::size_t>("batch", 4096, 1);
  const std::size_t bank_jobs_flag =
      flags.get_integer<std::size_t>("bank-jobs", 0);
  const std::string out_path = flags.get("out", "BENCH_hotpath.json");

  // Fixed workload: the standard campaign (benign mix + ramped attacks)
  // with enough refresh windows to supply `acts` records, materialized
  // once so that generation cost never pollutes the measurement.
  exp::SimConfig config;
  config.seed = seed;
  exp::install_standard_campaign(config);
  const double acts_per_window =
      (config.workload.benign_acts_per_interval_per_bank + 20.0) *
      static_cast<double>(config.timing.refresh_intervals) *
      static_cast<double>(config.geometry.total_banks());
  config.windows =
      static_cast<std::uint32_t>(static_cast<double>(acts) / acts_per_window) + 1;
  config.finalize();

  exp::Streams streams(config.seed);
  auto source = exp::build_workload(config, streams.workload);
  std::vector<trace::AccessRecord> trace =
      trace::drain(*source, static_cast<std::size_t>(acts));
  if (trace.empty()) {
    std::fprintf(stderr, "perf_hotpath: workload produced no records\n");
    return 1;
  }

  // Workers the sharded pass actually gets (the controller applies the
  // same resolution + bank cap internally).
  const std::size_t banks = config.geometry.total_banks();
  const std::size_t bank_jobs = std::min(
      bank_jobs_flag == 0 ? util::job_count() : bank_jobs_flag, banks);

  std::printf("perf_hotpath: %zu records, %u banks, batch %zu, seed %llu%s\n\n",
              trace.size(), config.geometry.total_banks(), batch,
              static_cast<unsigned long long>(seed), smoke ? " (smoke)" : "");

  // The unprotected baseline, the paper's nine, and Graphene.
  std::vector<std::pair<std::string, mem::BankMitigationFactory>> variants;
  variants.emplace_back("none", [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  });
  for (const auto technique : hw::kAllTechniques)
    variants.emplace_back(std::string(hw::to_string(technique)),
                          exp::make_factory(technique, config.technique));
  mitigation::GrapheneConfig graphene_cfg;
  graphene_cfg.rows_per_bank = config.geometry.rows_per_bank;
  graphene_cfg.row_threshold = config.technique.counter_threshold();
  variants.emplace_back("Graphene",
                        mitigation::make_graphene_factory(graphene_cfg));

  std::printf("serial (bank_jobs=1):\n");
  std::vector<Result> results;
  for (const auto& [name, factory] : variants) {
    results.push_back(run_variant(name, factory, config, trace, batch, 1));
    const Result& r = results.back();
    std::printf("  %-12s %10.3f MACTs/s  %8.1f ns/ACT  (%llu extra acts)\n",
                r.technique.c_str(), r.feed.per_second() / 1e6,
                r.feed.ns_per_item(),
                static_cast<unsigned long long>(r.extra_acts));
  }

  // Second pass: per-bank sharded execution. Simulation results are
  // bit-identical to the serial pass (asserted here on the aggregate
  // counters; the full equivalence contract lives in the test suite).
  std::printf("\nsharded (bank_jobs=%zu):\n", bank_jobs);
  std::vector<Result> parallel_results;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    parallel_results.push_back(run_variant(variants[v].first,
                                           variants[v].second, config, trace,
                                           batch, bank_jobs));
    const Result& r = parallel_results.back();
    if (r.extra_acts != results[v].extra_acts ||
        r.triggers != results[v].triggers) {
      std::fprintf(stderr,
                   "perf_hotpath: sharded run of %s diverged from serial "
                   "(extra %llu vs %llu, triggers %llu vs %llu)\n",
                   r.technique.c_str(),
                   static_cast<unsigned long long>(r.extra_acts),
                   static_cast<unsigned long long>(results[v].extra_acts),
                   static_cast<unsigned long long>(r.triggers),
                   static_cast<unsigned long long>(results[v].triggers));
      return 1;
    }
    std::printf("  %-12s %10.3f MACTs/s  %8.1f ns/ACT  (%.2fx serial)\n",
                r.technique.c_str(), r.feed.per_second() / 1e6,
                r.feed.ns_per_item(),
                r.feed.per_second() / results[v].feed.per_second());
  }

  // Fuzzed-pattern pass: the same variants over a trace of non-uniform
  // fuzzer patterns (one per bank) instead of the standard campaign.
  // Fuzzed schedules hit different rows per slot, so counter-table and
  // sampler behaviour — and therefore throughput — can differ from the
  // ramped double-sided mix; published as "fuzz:*" for the trajectory,
  // not gated (check_perf_regression.py reads only "results").
  exp::SimConfig fuzz_config = config;
  fuzz_config.workload.attacks.clear();
  fuzz_config.workload.model = exp::BenignModel::kFuzz;
  fuzz_config.workload.fuzz.patterns = config.geometry.total_banks();
  fuzz_config.finalize();
  exp::Streams fuzz_streams(fuzz_config.seed);
  const std::vector<trace::AccessRecord> fuzz_trace = trace::drain(
      *exp::build_workload(fuzz_config, fuzz_streams.workload),
      static_cast<std::size_t>(acts));
  if (fuzz_trace.empty()) {
    std::fprintf(stderr, "perf_hotpath: fuzz workload produced no records\n");
    return 1;
  }
  std::printf("\nfuzzed patterns (serial, %zu records):\n", fuzz_trace.size());
  std::vector<Result> fuzz_results;
  for (const auto& [name, factory] : variants) {
    fuzz_results.push_back(run_variant("fuzz:" + name, factory, fuzz_config,
                                       fuzz_trace, batch, 1));
    const Result& r = fuzz_results.back();
    std::printf("  %-17s %10.3f MACTs/s  %8.1f ns/ACT\n", r.technique.c_str(),
                r.feed.per_second() / 1e6, r.feed.ns_per_item());
  }

  // Profile pass: re-run each variant serial with the stage timers on,
  // then replay the same records out of a corpus (with its lanes) to prove
  // the lane path never scatters. Separate pass so the headline
  // serial/sharded numbers above stay timer-free.
  std::vector<Result> profiled;
  std::vector<Result> replayed;
  if (profile) {
    const std::string corpus_path = out_path + ".profile.tvpc";
    trace::write_corpus(corpus_path, trace, config.geometry.total_banks());

    std::printf("\nprofile (serial, stage ns/ACT):\n");
    for (const auto& [name, factory] : variants) {
      profiled.push_back(
          run_variant(name, factory, config, trace, batch, 1, true));
      const Result& r = profiled.back();
      const double per = static_cast<double>(trace.size());
      std::printf(
          "  %-12s partition %6.1f  mitigation %6.1f (kernel %6.1f  walk "
          "%6.1f)  disturbance %6.1f\n",
          r.technique.c_str(), static_cast<double>(r.stages.partition_ns) / per,
          static_cast<double>(r.stages.mitigation_ns) / per,
          static_cast<double>(r.stages.kernel_ns) / per,
          static_cast<double>(walk_ns(r.stages)) / per,
          static_cast<double>(r.stages.disturbance_ns) / per);
    }

    std::printf("\npartitioned replay (serial):\n");
    for (std::size_t v = 0; v < variants.size(); ++v) {
      replayed.push_back(run_variant(variants[v].first, variants[v].second,
                                     config, trace, batch, 1, true,
                                     corpus_path));
      const Result& r = replayed.back();
      if (r.extra_acts != results[v].extra_acts ||
          r.triggers != results[v].triggers) {
        std::fprintf(stderr,
                     "perf_hotpath: partitioned replay of %s diverged\n",
                     r.technique.c_str());
        return 1;
      }
      if (r.stages.scattered_acts != 0 ||
          r.stages.partitioned_acts != trace.size()) {
        std::fprintf(stderr,
                     "perf_hotpath: replay of %s fell back to the scatter "
                     "path (%llu scattered, %llu via lanes)\n",
                     r.technique.c_str(),
                     static_cast<unsigned long long>(r.stages.scattered_acts),
                     static_cast<unsigned long long>(r.stages.partitioned_acts));
        return 1;
      }
      std::printf("  %-12s %10.3f MACTs/s  %8.1f ns/ACT  (0 scattered)\n",
                  r.technique.c_str(), r.feed.per_second() / 1e6,
                  r.feed.ns_per_item());
    }
    std::remove(corpus_path.c_str());
  }

  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("perf_hotpath");
  json.key("config").begin_object();
  json.key("acts").value(static_cast<std::uint64_t>(trace.size()));
  json.key("banks").value(static_cast<std::uint64_t>(config.geometry.total_banks()));
  json.key("rows_per_bank").value(static_cast<std::uint64_t>(config.geometry.rows_per_bank));
  json.key("seed").value(seed);
  json.key("windows").value(static_cast<std::uint64_t>(config.windows));
  json.key("batch").value(static_cast<std::uint64_t>(batch));
  json.key("bank_jobs").value(static_cast<std::uint64_t>(bank_jobs));
  json.key("smoke").value(smoke);
#ifdef NDEBUG
  json.key("assertions").value(false);
#else
  json.key("assertions").value(true);
#endif
  json.end_object();
  const auto emit_results = [&](const std::vector<Result>& rs) {
    json.begin_array();
    for (const Result& r : rs) {
      json.begin_object();
      json.key("technique").value(r.technique);
      json.key("acts").value(r.feed.items);
      json.key("seconds").value(r.feed.seconds);
      json.key("acts_per_sec").value(r.feed.per_second());
      json.key("ns_per_act").value(r.feed.ns_per_item());
      json.key("extra_acts").value(r.extra_acts);
      json.key("triggers").value(r.triggers);
      json.key("state_bytes_per_bank").value(r.state_bytes_per_bank);
      json.end_object();
    }
    json.end_array();
  };
  json.key("results");
  emit_results(results);
  json.key("parallel");
  emit_results(parallel_results);
  json.key("fuzz");
  emit_results(fuzz_results);
  if (profile) {
    json.key("profile").begin_object();
    const double per = static_cast<double>(trace.size());
    const auto emit_stages = [&](const std::vector<Result>& rs) {
      json.begin_array();
      for (const Result& r : rs) {
        json.begin_object();
        json.key("technique").value(r.technique);
        json.key("acts_per_sec").value(r.feed.per_second());
        json.key("partition_ns_per_act")
            .value(static_cast<double>(r.stages.partition_ns) / per);
        json.key("mitigation_ns_per_act")
            .value(static_cast<double>(r.stages.mitigation_ns) / per);
        json.key("kernel_ns_per_act")
            .value(static_cast<double>(r.stages.kernel_ns) / per);
        json.key("walk_ns_per_act")
            .value(static_cast<double>(walk_ns(r.stages)) / per);
        json.key("disturbance_ns_per_act")
            .value(static_cast<double>(r.stages.disturbance_ns) / per);
        json.key("scattered_acts").value(r.stages.scattered_acts);
        json.key("partitioned_acts").value(r.stages.partitioned_acts);
        json.end_object();
      }
      json.end_array();
    };
    json.key("stages");
    emit_stages(profiled);
    json.key("partitioned_replay");
    emit_stages(replayed);
    json.end_object();
  }
  json.end_object();

  std::ofstream out(out_path);
  out << json.str() << '\n';
  out.flush();
  if (!out) {
    std::fprintf(stderr, "perf_hotpath: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_hotpath: %s\n", e.what());
  return 2;
}
