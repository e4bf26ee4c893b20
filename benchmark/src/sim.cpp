// The simulation workloads: table3, fuzz_gen and fuzz_replay.
//
// The end-to-end run times the library's own entry points
// (exp::run_seed_sweep, exp::run_fuzz_campaign) one pass at a time; a
// pass is the whole experiment at one seed. The traced run mirrors
// exp::run_custom_simulation step by step from outside, timing every
// call into a layer, and asserts that each mirrored cell equals the
// library's. Everything here runs on one thread (TVP_JOBS=1).
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "bench.hpp"
#include "tvp/exp/config_io.hpp"
#include "tvp/exp/fuzz.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/mitigation/trr.hpp"
#include "tvp/util/json.hpp"
#include "tvp/util/table.hpp"

namespace bench {
namespace {

using namespace tvp;

/// exp::run_custom_simulation's feed batch.
constexpr std::size_t kBatchRecords = 4096;

constexpr std::uint64_t key_of(dram::BankId bank, dram::RowId row) noexcept {
  return (static_cast<std::uint64_t>(bank) << 32) | row;
}

/// What the library reports about one cell, compared exactly against
/// the mirror. A field the workload's library output lacks stays zero
/// on both sides.
struct CellKey {
  std::string name;
  std::uint64_t flips = 0;
  std::uint64_t victim_flips = 0;
  std::uint64_t peak = 0;
  double overhead_pct = 0.0;
  double fpr_pct = 0.0;
  double bytes = 0.0;

  bool operator==(const CellKey&) const = default;
  std::string str() const {
    return util::strfmt("%s flips=%llu victim_flips=%llu peak=%llu overhead=%a fpr=%a bytes=%a",
                        name.c_str(), static_cast<unsigned long long>(flips),
                        static_cast<unsigned long long>(victim_flips),
                        static_cast<unsigned long long>(peak), overhead_pct,
                        fpr_pct, bytes);
  }
};

struct PassOutput {
  std::string report;  ///< digested text: table3 rows or the fuzz report
  std::vector<CellKey> cells;
};

/// One cell of a pass, configured the way the library configures it.
struct Cell {
  std::string name;    ///< the library's display name
  std::string family;  ///< technique without the P_base suffix
  exp::SimConfig config;
  mem::BankMitigationFactory factory;
};

struct SimWorkload {
  bool fuzz = false;
  bool replay = false;
  exp::SimConfig table3;
  std::vector<hw::Technique> techniques;
  exp::FuzzCampaignOptions campaign;
  std::string corpus_path;  ///< where run_fuzz_campaign records the seed

  std::size_t cells_per_pass() const {
    return fuzz ? 2 + hw::kTiVaPRoMiVariants.size() * campaign.pbase_exps.size()
                : techniques.size();
  }
  std::string golden_key(bool smoke) const {
    return std::string(smoke ? "smoke." : "") + (fuzz ? "fuzz" : "table3");
  }
  CellKey key(const exp::RunResult& r) const {
    if (fuzz)
      return {r.technique, r.flips, r.victim_flips, r.peak_disturbance,
              r.overhead_pct(), r.fpr_pct(), 0.0};
    return {r.technique, r.flips, r.victim_flips, 0, r.overhead_pct(),
            r.fpr_pct(), r.state_bytes_per_bank};
  }
};

/// The set-up a user pays before the experiment starts: build the
/// configuration from the checked-in inputs and validate it.
SimWorkload setup(const Options& opts) {
  SimWorkload w;
  w.fuzz = opts.workload != "table3";
  w.replay = opts.workload == "fuzz_replay";
  if (!w.fuzz) {
    exp::apply_scale(w.table3, false);
    exp::install_standard_campaign(w.table3);
    w.table3.seed = opts.seed;
    w.table3.finalize();
    if (opts.smoke)
      w.techniques = {hw::Technique::kPara, hw::Technique::kLiPRoMi,
                      hw::Technique::kCaPRoMi};
    else
      w.techniques.assign(hw::kAllTechniques.begin(), hw::kAllTechniques.end());
    return w;
  }
  exp::FuzzCampaignOptions& c = w.campaign;
  c.base = exp::load_sim_config(opts.inputs_dir + "/workloads/fuzz_campaign.cfg");
  c.base.seed = opts.seed;
  c.base.workload.fuzz.seed = opts.seed;
  c.base.finalize();
  c.fuzz_seeds = 1;
  c.pbase_exps = opts.smoke ? std::vector<unsigned>{23} : std::vector<unsigned>{17, 20, 23};
  w.corpus_path = opts.workdir + "/fuzz_" + std::to_string(opts.seed) + ".tvpc";
  if (w.replay) c.trace_dir = opts.workdir;
  return w;
}

/// One end-to-end pass through the library's public entry point.
PassOutput library_pass(const SimWorkload& w) {
  PassOutput out;
  if (w.fuzz) {
    const exp::FuzzCampaignResult result = exp::run_fuzz_campaign(w.campaign);
    out.report = exp::fuzz_report_json(w.campaign, result);
    for (const auto& c : result.cells)
      out.cells.push_back({c.defence, c.flips, c.victim_flips, c.peak_disturbance,
                           c.overhead_pct, c.fpr_pct, 0.0});
    return out;
  }
  util::JsonWriter json;
  json.begin_array();
  for (const auto technique : w.techniques) {
    const exp::SeedSweepResult sweep = exp::run_seed_sweep(technique, w.table3, 1);
    out.cells.push_back({sweep.technique, sweep.total_flips, sweep.total_victim_flips,
                         0, sweep.overhead_pct.mean(), sweep.fpr_pct.mean(),
                         sweep.state_bytes_per_bank});
    json.begin_object();
    json.key("technique").value(sweep.technique);
    json.key("overhead_pct_mean").value_exact(sweep.overhead_pct.mean());
    json.key("overhead_pct_stddev").value_exact(sweep.overhead_pct.stddev());
    json.key("fpr_pct_mean").value_exact(sweep.fpr_pct.mean());
    json.key("flips").value(sweep.total_flips);
    json.key("victim_flips").value(sweep.total_victim_flips);
    json.key("table_bytes_per_bank").value_exact(sweep.state_bytes_per_bank);
    json.end_object();
  }
  json.end_array();
  out.report = json.str();
  return out;
}

/// The cells of one pass, in the library's order (run_seed_sweep per
/// technique; run_fuzz_campaign's none, TRR, variant x P_base panel).
std::vector<Cell> pass_cells(const SimWorkload& w) {
  std::vector<Cell> cells;
  if (!w.fuzz) {
    for (const auto technique : w.techniques) {
      Cell cell;
      cell.name = cell.family = std::string(hw::to_string(technique));
      cell.config = w.table3;
      cell.config.finalize();
      cell.factory = exp::make_factory(technique, cell.config.technique);
      cells.push_back(std::move(cell));
    }
    return cells;
  }
  exp::SimConfig base = w.campaign.base;
  if (w.replay) {
    base.workload.model = exp::BenignModel::kReplay;
    base.workload.trace_path = w.corpus_path;
    base.workload.attacks.clear();
  }
  cells.push_back({"none", "none", base, [](dram::BankId, util::Rng) {
                     return std::make_unique<mem::NoMitigation>();
                   }});
  mitigation::TrrConfig trr;
  trr.rows_per_bank = base.geometry.rows_per_bank;
  cells.push_back({"TRR", "TRR", base, mitigation::make_trr_factory(trr)});
  for (const auto technique : hw::kTiVaPRoMiVariants)
    for (const auto pbase : w.campaign.pbase_exps) {
      Cell cell;
      cell.family = std::string(hw::to_string(technique));
      cell.name = util::strfmt("%s@2^-%u", cell.family.c_str(), pbase);
      cell.config = base;
      cell.config.technique.pbase_exp = pbase;
      cell.config.finalize();
      cell.factory = exp::make_factory(technique, cell.config.technique);
      cells.push_back(std::move(cell));
    }
  return cells;
}

/// Deterministic counts of one mirrored pass.
struct PassCounts {
  std::uint64_t records = 0;
  std::uint64_t extra_acts = 0;
  std::uint64_t fp_extra_acts = 0;
  std::uint64_t triggers = 0;
  std::uint64_t flips = 0;
  std::uint64_t victim_flips = 0;
  std::uint64_t scattered_acts = 0;
  std::uint64_t partitioned_acts = 0;
};

/// Per-layer totals of the mirrored passes.
struct Layers {
  std::vector<double> setup_ms, open_ms, advance_ms, reduce_ms, record_s, pass_s;
  std::uint64_t gen_ns = 0;
  std::uint64_t on_records_ns = 0;
  std::uint64_t records = 0;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_family;  // ns, records
  mem::StageProfile stages;
  std::int64_t leaf_ns = 0;  ///< summed leaf spans (coverage numerator)
  std::int64_t pass_ns = 0;  ///< summed pass walls
  PassCounts pass;           ///< counts of the latest pass
};

/// One cell, run exactly as exp::run_custom_simulation runs it, with
/// each call into a layer timed from outside.
exp::RunResult mirror_cell(const Cell& cell, bool replay, SpanLog& log,
                           int parent, std::int64_t id, Layers& t) {
  const std::int64_t t0 = now_ns();
  const int span = log.open("exp.cell", parent, id, t0);
  exp::SimConfig cfg = cell.config;
  cfg.finalize();

  util::Rng rng(cfg.seed);
  util::Rng workload_rng = rng.fork();
  util::Rng engine_rng = rng.fork();
  util::Rng controller_rng = rng.fork();
  mem::MitigationEngine engine(cfg.geometry.total_banks(), cell.factory, engine_rng);
  dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                     cfg.geometry.rows_per_bank, cfg.disturbance);
  mem::ControllerConfig controller_cfg;
  controller_cfg.geometry = cfg.geometry;
  controller_cfg.timing = cfg.timing;
  controller_cfg.refresh_policy = cfg.refresh_policy;
  controller_cfg.remap_rows = cfg.remap_rows;
  controller_cfg.remap_swaps = cfg.remap_swaps;
  controller_cfg.act_n_radius = cfg.act_n_radius;
  controller_cfg.bank_jobs = cfg.bank_jobs;
  controller_cfg.profile = true;
  mem::MemoryController controller(controller_cfg, engine, disturbance, controller_rng);
  const std::int64_t t1 = now_ns();

  std::unordered_set<std::uint64_t> aggressors;
  std::unordered_set<std::uint64_t> victims;
  auto workload = exp::build_workload(cfg, workload_rng, &aggressors, &victims);
  controller.set_aggressor_oracle([&aggressors](dram::BankId bank, dram::RowId row) {
    return aggressors.count(key_of(bank, row)) != 0;
  });
  const std::int64_t t2 = now_ns();
  log.leaf("exp.setup", span, id, t0, t1);
  log.leaf("trace.build", span, id, t1, t2);

  exp::RunResult result;
  std::int64_t gen_ns = 0;
  std::int64_t feed_ns = 0;
  if (workload->supports_spans()) {
    const trace::AccessRecord* data = nullptr;
    const trace::BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    for (;;) {
      const std::int64_t a = now_ns();
      const std::size_t n = workload->span_lanes(&data, &lanes, &lane_banks);
      const std::int64_t b = now_ns();
      gen_ns += b - a;
      log.leaf("trace.gen", span, id, a, b);
      if (n == 0) break;
      if (lanes != nullptr)
        controller.on_records_partitioned(data, n, lanes, lane_banks);
      else
        controller.on_records(data, n);
      const std::int64_t c = now_ns();
      feed_ns += c - b;
      log.leaf("mem.on_records", span, id, b, c);
      result.records += n;
    }
  } else {
    std::vector<trace::AccessRecord> batch(kBatchRecords);
    for (;;) {
      const std::int64_t a = now_ns();
      const std::size_t n = workload->next_batch(batch.data(), batch.size());
      const std::int64_t b = now_ns();
      gen_ns += b - a;
      log.leaf("trace.gen", span, id, a, b);
      if (n == 0) break;
      controller.on_records(batch.data(), n);
      const std::int64_t c = now_ns();
      feed_ns += c - b;
      log.leaf("mem.on_records", span, id, b, c);
      result.records += n;
    }
  }
  const std::int64_t d0 = now_ns();
  controller.advance_to(cfg.duration_ps());
  const std::int64_t d1 = now_ns();
  log.leaf("mem.advance", span, id, d0, d1);

  result.technique = cell.name;
  result.stats = controller.stats();
  result.flips = disturbance.flips().size();
  result.flip_events = disturbance.flips();
  result.peak_disturbance = disturbance.peak_disturbance_q8() >> 8;
  result.state_bytes_per_bank = engine.state_bytes_per_bank();
  std::unordered_set<std::uint64_t> victim_keys;
  for (const auto key : victims)
    victim_keys.insert(key_of(static_cast<dram::BankId>(key >> 32),
                              controller.remapper().to_physical(
                                  static_cast<dram::RowId>(key))));
  for (const auto& flip : disturbance.flips())
    if (victim_keys.count(key_of(flip.bank, flip.row))) ++result.victim_flips;
  const std::int64_t d2 = now_ns();
  log.leaf("exp.reduce", span, id, d1, d2);
  log.close(span, d2);

  t.setup_ms.push_back(static_cast<double>(t2 - t0) / 1e6);
  if (replay) t.open_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  t.advance_ms.push_back(static_cast<double>(d1 - d0) / 1e6);
  t.reduce_ms.push_back(static_cast<double>(d2 - d1) / 1e6);
  t.gen_ns += static_cast<std::uint64_t>(gen_ns);
  t.on_records_ns += static_cast<std::uint64_t>(feed_ns);
  t.records += result.records;
  auto& family = t.by_family[cell.family];
  family.first += static_cast<std::uint64_t>(feed_ns);
  family.second += result.records;
  const mem::StageProfile& stages = controller.stage_profile();
  t.stages.partition_ns += stages.partition_ns;
  t.stages.mitigation_ns += stages.mitigation_ns;
  t.stages.disturbance_ns += stages.disturbance_ns;
  t.leaf_ns += (t2 - t0) + gen_ns + feed_ns + (d2 - d0);

  PassCounts& p = t.pass;
  p.records += result.records;
  p.extra_acts += result.stats.extra_acts;
  p.fp_extra_acts += result.stats.fp_extra_acts;
  p.triggers += result.stats.triggers;
  p.flips += result.flips;
  p.victim_flips += result.victim_flips;
  p.scattered_acts += stages.scattered_acts;
  p.partitioned_acts += stages.partitioned_acts;
  return result;
}

/// One mirrored pass; for fuzz_replay it records the corpus first, as
/// run_fuzz_campaign does.
std::vector<exp::RunResult> mirror_pass(const SimWorkload& w, SpanLog& log,
                                        std::int64_t& next_cell, Layers& t) {
  const std::int64_t start = now_ns();
  const int span = log.open("bench.pass", -1, -1, start);
  t.pass = {};
  if (w.replay) {
    const std::int64_t a = now_ns();
    exp::record_corpus(w.campaign.base, w.corpus_path);
    const std::int64_t b = now_ns();
    log.leaf("trace.corpus_record", span, -1, a, b);
    t.record_s.push_back(static_cast<double>(b - a) / 1e9);
    t.leaf_ns += b - a;
  }
  std::vector<exp::RunResult> results;
  for (const Cell& cell : pass_cells(w))
    results.push_back(mirror_cell(cell, w.replay, log, span, next_cell++, t));
  const std::int64_t end = now_ns();
  log.close(span, end);
  t.pass_s.push_back(static_cast<double>(end - start) / 1e9);
  t.pass_ns += end - start;
  return results;
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

/// True while another pass fits the budget, @p spent seconds of which
/// are gone (always at least one pass; exactly one in smoke runs).
bool another_pass(const std::vector<double>& pass_s, double spent, double budget,
                  bool smoke) {
  if (pass_s.empty()) return true;
  return !smoke && spent + median(pass_s) <= budget;
}

/// Reference-kernel runs at each pass boundary (their median counts).
constexpr int kReferenceRuns = 5;

void set_layer_metrics(const SimWorkload& w, const Layers& t, double library_pass_s,
                       Outcome& out) {
  const auto per_rec = [&](std::uint64_t ns) {
    return t.records ? static_cast<double>(ns) / static_cast<double>(t.records) : 0.0;
  };
  out.set("exp.setup_ms", median(t.setup_ms), "ms");
  out.set("exp.reduce_ms", median(t.reduce_ms), "ms");
  out.set("trace.gen_ns_per_rec", per_rec(t.gen_ns), "ns");
  out.set("trace.records", static_cast<double>(t.pass.records), "count");
  if (w.replay) {
    out.set("trace.corpus_record_s", median(t.record_s), "s");
    out.set("trace.corpus_mb",
            static_cast<double>(std::filesystem::file_size(w.corpus_path)) / (1 << 20),
            "MB");
    out.set("trace.corpus_open_ms", median(t.open_ms), "ms");
  }
  out.set("mem.on_records_ns_per_rec", per_rec(t.on_records_ns), "ns");
  for (const auto& [family, totals] : t.by_family)
    out.set("mem.on_records_ns_per_rec." + family,
            static_cast<double>(totals.first) / static_cast<double>(totals.second), "ns");
  out.set("mem.partition_ns_per_act", per_rec(t.stages.partition_ns), "ns");
  out.set("mem.mitigation_ns_per_act", per_rec(t.stages.mitigation_ns), "ns");
  out.set("mem.disturbance_ns_per_act", per_rec(t.stages.disturbance_ns), "ns");
  out.set("mem.scattered_acts", static_cast<double>(t.pass.scattered_acts), "count");
  out.set("mem.partitioned_acts", static_cast<double>(t.pass.partitioned_acts), "count");
  out.set("mem.advance_ms", median(t.advance_ms), "ms");
  out.set("mitigation.extra_acts", static_cast<double>(t.pass.extra_acts), "count");
  out.set("mitigation.triggers", static_cast<double>(t.pass.triggers), "count");
  out.set("mitigation.fp_share",
          t.pass.extra_acts ? static_cast<double>(t.pass.fp_extra_acts) /
                                  static_cast<double>(t.pass.extra_acts)
                            : 0.0,
          "ratio");
  out.set("dram.flips", static_cast<double>(t.pass.flips), "count");
  out.set("dram.victim_flips", static_cast<double>(t.pass.victim_flips), "count");

  const double coverage =
      100.0 * static_cast<double>(t.leaf_ns) / static_cast<double>(t.pass_ns);
  out.set("bench.coverage_pct", coverage, "%");
  out.set("bench.tracing_overhead_pct", 100.0 * (median(t.pass_s) / library_pass_s - 1.0),
          "%");
  if (coverage < 90.0) out.coverage_too_low = true;
}

/// Starts this binary in --setup-only mode and waits for it to exit:
/// the process start, dynamic linking, static initialisation and
/// workload set-up a user's experiment process pays before its first
/// cell. Returns seconds.
double spawn_setup(const Options& opts) {
  std::vector<std::string> args = {"/proc/self/exe", "--setup-only",
                                   "--workload=" + opts.workload,
                                   "--seed=" + std::to_string(opts.seed),
                                   "--inputs=" + opts.inputs_dir,
                                   "--workdir=" + opts.workdir};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const std::int64_t start = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    const int null = ::open("/dev/null", O_WRONLY);
    if (null >= 0) ::dup2(null, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    throw std::runtime_error("the --setup-only process failed");
  return static_cast<double>(now_ns() - start) / 1e9;
}

}  // namespace

void run_sim_setup(const Options& opts) { setup(opts); }

Outcome run_sim_workload(const Options& opts, SpanLog& log) {
  Outcome out;

  // Set-up is measured in fresh processes, several times, and the
  // median reported; in-process it would take microseconds and read
  // mostly cache and code placement.
  std::vector<double> setup_s;
  for (int i = 0; i < (opts.smoke ? 2 : 21); ++i) setup_s.push_back(spawn_setup(opts));
  out.set("setup_s", median(setup_s), "s");
  const SimWorkload w = setup(opts);
  const std::size_t cells = w.cells_per_pass();
  // A traced run splits its budget: library passes (the reference and
  // the untraced baseline of the tracing overhead), then mirrored ones.
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;

  try {
    // Each pass is timed against the host reference measured on both
    // sides of it (after it only, for the first); the reference table
    // is allocated after the first pass, once its RSS is read.
    std::vector<double> pass_s, ref_s, pass_ref;
    std::unique_ptr<HostReference> reference;
    double before = 0.0;
    PassOutput first;
    double rss = 0.0;
    const std::int64_t start = now_ns();
    while (another_pass(pass_s, static_cast<double>(now_ns() - start) / 1e9, budget,
                        opts.smoke)) {
      out.attempted += cells;
      const std::int64_t a = now_ns();
      PassOutput pass = library_pass(w);
      pass_s.push_back(static_cast<double>(now_ns() - a) / 1e9);
      if (pass_s.size() == 1) {
        first = std::move(pass);
        // What a user running the experiment once sees; later passes
        // only repeat it, and the allocator's high-water mark can creep
        // up with their number.
        rss = peak_rss_mb();
        reference = std::make_unique<HostReference>();
      } else if (pass.report != first.report) {
        out.fail(cells, util::strfmt("pass %zu output differs from pass 1", pass_s.size()));
      }
      const double after = reference->time(kReferenceRuns);
      ref_s.push_back(after);
      pass_ref.push_back(pass_s.back() / (before > 0.0 ? (before + after) / 2 : after));
      before = after;
    }
    reference.reset();
    check_golden(opts, w.golden_key(opts.smoke), first.report, cells, out);

    // The mirror: every traced pass, or once in an untraced table3 run
    // (run_seed_sweep exposes no per-cell records, and this is the
    // per-cell check of that run).
    Layers layers;
    std::int64_t next_cell = 0;
    if (opts.trace || !w.fuzz) {
      SpanLog off(false);
      do {
        if (opts.trace) out.attempted += cells;
        const auto results = mirror_pass(w, opts.trace ? log : off, next_cell, layers);
        for (std::size_t i = 0; i < cells; ++i) {
          const CellKey got = w.key(results.at(i));
          if (i >= first.cells.size() || !(got == first.cells[i]))
            out.fail(1, "mirrored cell differs from the library: " + got.str() +
                            " vs " + (i < first.cells.size() ? first.cells[i].str() : "none"));
        }
      } while (opts.trace &&
               another_pass(layers.pass_s, sum(layers.pass_s), budget, opts.smoke));
    }

    // fuzz_gen and fuzz_replay cross-check each other: the report must
    // be byte-identical whether the cells were generated or replayed.
    std::uint64_t records_per_pass = layers.pass.records;
    if (w.fuzz) {
      exp::FuzzCampaignOptions other = w.campaign;
      other.trace_dir = w.replay ? "" : opts.workdir;
      const std::string report =
          exp::fuzz_report_json(other, exp::run_fuzz_campaign(other));
      if (report != first.report)
        out.fail(cells, "generated and replayed fuzz reports differ");
      // Every cell consumes the seed's whole recorded stream.
      records_per_pass = trace::read_corpus_info(w.corpus_path).total_records * cells;
    }

    const double wall = median(pass_s);
    const double wall_ref = median(pass_ref);
    out.set("wall_ref", wall_ref, "ref");
    out.set("sim_acts_per_ref", static_cast<double>(records_per_pass) / wall_ref, "1/ref");
    out.set("wall_s", wall, "s");
    out.set("ref_s", median(ref_s), "s");
    out.set("ops_per_s", static_cast<double>(cells) / wall, "1/s");
    out.set("sim_acts_per_s", static_cast<double>(records_per_pass) / wall, "1/s");
    out.set("peak_rss_mb", rss, "MB");
    out.set("passes", static_cast<double>(pass_s.size()), "count");
    if (opts.trace) set_layer_metrics(w, layers, wall, out);
  } catch (const std::exception& e) {
    out.fail(cells, std::string("exception: ") + e.what());
  }
  std::error_code ignored;
  std::filesystem::remove(w.corpus_path, ignored);
  return out;
}

}  // namespace bench
