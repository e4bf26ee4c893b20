#include "tvp/exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "tvp/cpu/frontend.hpp"
#include "tvp/trace/synthetic.hpp"
#include "tvp/util/parallel.hpp"

namespace tvp::exp {

namespace {
constexpr std::uint64_t key_of(dram::BankId bank, dram::RowId row) noexcept {
  return (static_cast<std::uint64_t>(bank) << 32) | row;
}
}  // namespace

const char* to_string(BenignModel model) noexcept {
  switch (model) {
    case BenignModel::kMixedSynthetic: return "mixed-synthetic";
    case BenignModel::kCacheFrontend: return "cache-frontend";
    case BenignModel::kUniformRandom: return "uniform-random";
    case BenignModel::kReplay: return "replay";
    case BenignModel::kFuzz: return "fuzz";
  }
  return "?";
}

SimConfig::SimConfig() {
  // Scaled default: 4 banks keeps a full 9-technique, multi-seed sweep
  // interactive on one core while preserving the per-window attack
  // dynamics exactly (DESIGN.md, "Scaling").
  geometry.banks_per_rank = 4;
  finalize();
}

void SimConfig::finalize() {
  geometry.validate();
  timing.validate();
  technique.params.rows_per_bank = geometry.rows_per_bank;
  technique.params.refresh_intervals = timing.refresh_intervals;
  if (windows == 0) throw std::invalid_argument("SimConfig: zero windows");
  if (workload.model == BenignModel::kReplay && workload.trace_path.empty())
    throw std::invalid_argument(
        "SimConfig: replay workload needs workload.trace");
  if (workload.model == BenignModel::kFuzz) {
    if (workload.fuzz.patterns == 0)
      throw std::invalid_argument("SimConfig: fuzz workload needs patterns >= 1");
    if (workload.fuzz.acts_per_interval <= 0.0)
      throw std::invalid_argument(
          "SimConfig: fuzz workload needs acts_per_interval > 0");
    workload.fuzz.params.rows_per_bank = geometry.rows_per_bank;
    workload.fuzz.params.validate();
  }
  for (const auto& attack : workload.attacks) {
    if (attack.bank >= geometry.total_banks())
      throw std::invalid_argument("SimConfig: attack bank out of range");
    if (attack.rows_per_bank != geometry.rows_per_bank)
      throw std::invalid_argument(
          "SimConfig: attack rows_per_bank mismatch with geometry");
  }
}

std::unique_ptr<trace::TraceSource> build_workload(
    const SimConfig& config, util::Rng& rng,
    std::unordered_set<std::uint64_t>* aggressors,
    std::unordered_set<std::uint64_t>* victims, bool* oracle) {
  std::vector<std::unique_ptr<trace::TraceSource>> sources;
  if (oracle != nullptr) *oracle = true;

  if (config.workload.model == BenignModel::kReplay) {
    // The corpus already contains the full recorded stream (benign and
    // attack records alike) plus the ground-truth aggressor oracle; the
    // workload RNG is untouched.
    auto corpus =
        std::make_unique<trace::MmapSource>(config.workload.trace_path);
    if (aggressors != nullptr)
      aggressors->insert(corpus->info().aggressors.begin(),
                         corpus->info().aggressors.end());
    if (victims != nullptr)
      victims->insert(corpus->info().victims.begin(),
                      corpus->info().victims.end());
    if (oracle != nullptr) *oracle = corpus->info().oracle;
    sources.push_back(std::move(corpus));
  } else if (config.workload.benign_acts_per_interval_per_bank > 0.0) {
    if (config.workload.model == BenignModel::kUniformRandom) {
      trace::SyntheticConfig c;
      c.profile = trace::AccessProfile::kRandom;
      c.banks = config.geometry.total_banks();
      c.rows_per_bank = config.geometry.rows_per_bank;
      c.mean_interarrival_ps =
          static_cast<double>(config.timing.t_refi_ps()) /
          (config.workload.benign_acts_per_interval_per_bank *
           config.geometry.total_banks());
      sources.push_back(std::make_unique<trace::SyntheticSource>(c, rng.fork()));
    } else if (config.workload.model == BenignModel::kCacheFrontend) {
      auto frontend_cfg = cpu::default_frontend(config.geometry);
      // Calibrate the op rate so the post-cache activation stream lands
      // near the target (the cache hierarchy absorbs ~90+ % of ops; the
      // factor is re-measured by the calibration test).
      const double target_acts_per_ps =
          config.workload.benign_acts_per_interval_per_bank *
          config.geometry.total_banks() /
          static_cast<double>(config.timing.t_refi_ps());
      // DRAM records (fills + writebacks) per core memory op, measured
      // for the default 4-profile mix behind 64K/256K caches (the
      // cpu_test calibration test tracks this constant).
      const double dram_traffic_per_op = 0.74;
      for (auto& core : frontend_cfg.cores)
        core.mean_gap_ps = dram_traffic_per_op /
                           (target_acts_per_ps / frontend_cfg.cores.size());
      sources.push_back(
          std::make_unique<cpu::CoreFrontend>(frontend_cfg, rng.fork()));
    } else {
      const auto configs = trace::mixed_workload(
          config.geometry.total_banks(), config.geometry.rows_per_bank,
          config.timing.t_refi_ps(),
          config.workload.benign_acts_per_interval_per_bank);
      for (const auto& c : configs)
        sources.push_back(std::make_unique<trace::SyntheticSource>(c, rng.fork()));
    }
  }

  const auto register_attack = [&](std::unique_ptr<trace::AttackSource> attack) {
    if (aggressors != nullptr) {
      for (const auto row : attack->aggressors())
        aggressors->insert(key_of(attack->config().bank, row));
      for (const auto row : attack->dribble_rows())
        aggressors->insert(key_of(attack->config().bank, row));
    }
    if (victims != nullptr)
      for (const auto v : attack->config().victims)
        victims->insert(key_of(attack->config().bank, v));
    sources.push_back(std::move(attack));
  };

  for (const auto& attack_cfg : config.workload.attacks)
    register_attack(std::make_unique<trace::AttackSource>(attack_cfg));

  if (config.workload.model == BenignModel::kFuzz) {
    // Fuzzed attacks derive from their own seeds (workload RNG untouched,
    // so record/replay and the benign stream are unaffected); pattern i
    // uses fuzzer seed fuzz.seed + i and targets bank i mod banks.
    const auto& spec = config.workload.fuzz;
    trace::PatternFuzzer fuzzer(spec.params);
    const auto interarrival = static_cast<std::uint64_t>(
        static_cast<double>(config.timing.t_refi_ps()) / spec.acts_per_interval);
    for (std::uint32_t i = 0; i < spec.patterns; ++i) {
      const auto pattern = fuzzer.pattern(spec.seed + i);
      const auto bank =
          static_cast<dram::BankId>(i % config.geometry.total_banks());
      const auto source_id = static_cast<trace::SourceId>(230 + i % 25);
      register_attack(std::make_unique<trace::AttackSource>(
          fuzzer.make_attack(pattern, bank, interarrival, source_id)));
    }
  }

  // A single source needs no merge — and skipping it preserves the
  // source's zero-copy span support (the k-way merge can't hand out
  // borrowed spans). A 1-way merge is a passthrough, so the record
  // sequence is unchanged either way.
  std::unique_ptr<trace::TraceSource> stream;
  if (sources.size() == 1)
    stream = std::move(sources.front());
  else
    stream = std::make_unique<trace::MergedSource>(std::move(sources));
  return std::make_unique<trace::LimitSource>(std::move(stream), ~0ull,
                                              config.duration_ps());
}

RunResult run_simulation(hw::Technique technique, const SimConfig& config) {
  SimConfig cfg = config;
  cfg.finalize();  // sync technique params with geometry before the factory
  return run_custom_simulation(make_factory(technique, cfg.technique),
                               std::string(hw::to_string(technique)), cfg);
}

mem::ControllerConfig controller_config(const SimConfig& config) {
  mem::ControllerConfig controller_cfg;
  controller_cfg.geometry = config.geometry;
  controller_cfg.timing = config.timing;
  controller_cfg.refresh_policy = config.refresh_policy;
  controller_cfg.remap_rows = config.remap_rows;
  controller_cfg.remap_swaps = config.remap_swaps;
  controller_cfg.act_n_radius = config.act_n_radius;
  controller_cfg.bank_jobs = config.bank_jobs;
  return controller_cfg;
}

Streams::Streams(std::uint64_t seed) {
  util::Rng root(seed);
  workload = root.fork();
  engine = root.fork();
  controller = root.fork();
}

namespace {
SimConfig finalized(const SimConfig& config) {
  SimConfig c = config;
  c.finalize();
  return c;
}

std::vector<std::string> member_names(const std::vector<CohortMember>& members) {
  if (members.empty())
    throw std::invalid_argument("Simulation: a cohort needs a member");
  std::vector<std::string> names;
  for (const CohortMember& m : members) names.push_back(m.name);
  return names;
}

/// Each member's engine draws on its own copy of the engine stream, as
/// the member's solo run would.
std::vector<std::unique_ptr<mem::MitigationEngine>> member_engines(
    const std::vector<CohortMember>& members, const SimConfig& config,
    const util::Rng& engine_stream) {
  std::vector<std::unique_ptr<mem::MitigationEngine>> engines;
  for (const CohortMember& m : members) {
    util::Rng rng = engine_stream;
    engines.push_back(std::make_unique<mem::MitigationEngine>(
        config.geometry.total_banks(), m.factory, rng));
  }
  return engines;
}

std::vector<mem::MitigationEngine*> engine_ptrs(
    const std::vector<std::unique_ptr<mem::MitigationEngine>>& engines) {
  std::vector<mem::MitigationEngine*> ptrs;
  for (const auto& e : engines) ptrs.push_back(e.get());
  return ptrs;
}
}  // namespace

Simulation::Simulation(std::vector<CohortMember> members, const SimConfig& config)
    : Simulation(std::move(members), config, controller_config(config)) {}

Simulation::Simulation(std::vector<CohortMember> members, const SimConfig& config,
                       const mem::ControllerConfig& controller_cfg)
    : start_(std::chrono::steady_clock::now()),
      config_(finalized(config)),
      streams_(config_.seed),
      names_(member_names(members)),
      engines_(member_engines(members, config_, streams_.engine)),
      disturbance_(config_.geometry.total_banks(),
                   config_.geometry.rows_per_bank, config_.disturbance,
                   static_cast<std::uint32_t>(engines_.size())),
      controller_(controller_cfg, engine_ptrs(engines_), disturbance_,
                  streams_.controller),
      horizon_ps_(config_.duration_ps()) {}

Simulation::Simulation(const mem::BankMitigationFactory& factory,
                       const SimConfig& config)
    : Simulation({CohortMember{"", factory}}, config) {}

Simulation::Simulation(const mem::BankMitigationFactory& factory,
                       const SimConfig& config,
                       const mem::ControllerConfig& controller_cfg)
    : Simulation({CohortMember{"", factory}}, config, controller_cfg) {}

trace::TraceSource& Simulation::workload() {
  if (!workload_) {
    workload_ = build_workload(config_, streams_.workload, &aggressors_,
                               &victims_, &oracle_);
    controller_.set_aggressor_oracle(
        [this](dram::BankId bank, dram::RowId row) {
          return aggressors_.count(key_of(bank, row)) != 0;
        });
  }
  return *workload_;
}

std::size_t Simulation::step(std::size_t max) {
  if (pending_count_ == 0) pull(max);
  const std::size_t n = feed_pending();
  records_ += n;
  return n;
}

void Simulation::pull(std::size_t max) {
  trace::TraceSource& source = workload();
  pending_lanes_.clear();
  if (source.supports_spans()) {
    // Zero-copy; a corpus block's lanes spare the scatter pass.
    const trace::BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    pending_count_ = source.span_lanes(&pending_, &lanes, &lane_banks);
    if (lanes != nullptr) pending_lanes_.assign(lanes, lanes + lane_banks);
    return;
  }
  batch_.resize(max);
  pending_count_ = source.next_batch(batch_.data(), max);
  pending_ = batch_.data();
}

std::size_t Simulation::feed_pending() {
  if (pending_lanes_.empty()) {
    const std::size_t n = static_cast<std::size_t>(
        std::partition_point(pending_, pending_ + pending_count_,
                             [this](const trace::AccessRecord& r) {
                               return r.time_ps < horizon_ps_;
                             }) -
        pending_);
    controller_.on_records(pending_, n);
    pending_ += n;
    pending_count_ -= n;
    return n;
  }
  // A corpus block: feed its lanes cut at the horizon.
  std::vector<trace::BankLaneView> cut = pending_lanes_;
  const std::size_t n = trace::cut_lanes_before(cut.data(), cut.size(), horizon_ps_);
  if (n == 0) return 0;
  controller_.on_records_partitioned(nullptr, n, cut.data(), cut.size());
  pending_count_ -= n;
  if (pending_count_ == 0) return n;
  // The rest of the span: each lane past its cut, its serials counted
  // from 0 again.
  std::vector<std::uint32_t> serials;
  serials.reserve(pending_count_);
  for (std::size_t b = 0; b < pending_lanes_.size(); ++b) {
    const trace::BankLaneView& lane = pending_lanes_[b];
    for (std::size_t j = cut[b].count; j < lane.count; ++j)
      serials.push_back(lane.serials[j] - static_cast<std::uint32_t>(n));
  }
  std::size_t offset = 0;
  for (std::size_t b = 0; b < pending_lanes_.size(); ++b) {
    trace::BankLaneView& lane = pending_lanes_[b];
    const std::size_t fed = cut[b].count;
    lane.count -= fed;
    if (lane.count == 0) {
      lane = trace::BankLaneView{};
      continue;
    }
    lane.rows += fed;
    lane.times += fed;
    lane.flags += fed;
    lane.sources += fed;
    lane.serials = serials.data() + offset;
    offset += lane.count;
  }
  pending_serials_.swap(serials);
  return n;
}

void Simulation::feed(const trace::AccessRecord* records, std::size_t count) {
  controller_.on_records(records, count);
  records_ += count;
}

void Simulation::advance() {
  controller_.advance_to(horizon_ps_);
  advanced_ps_ = horizon_ps_;
}

void Simulation::set_horizon(std::uint32_t windows) {
  const std::uint64_t horizon_ps =
      static_cast<std::uint64_t>(windows) * config_.timing.t_refw_ps;
  if (windows == 0 || windows > config_.windows || horizon_ps < advanced_ps_)
    throw std::invalid_argument(
        "Simulation: a horizon must lie within the run and not before its "
        "last advance");
  horizon_ps_ = horizon_ps;
}

std::vector<RunResult> Simulation::results() const {
  // Victim flips: flips on the physical images of the declared victims,
  // which build_workload collects logical from every source (explicit
  // attacks, fuzz-derived patterns, the replay corpus footer).
  std::unordered_set<std::uint64_t> victim_keys;
  for (const auto key : victims_)
    victim_keys.insert(
        key_of(static_cast<dram::BankId>(key >> 32),
               controller_.remapper().to_physical(static_cast<dram::RowId>(key))));
  const std::vector<std::uint64_t> peaks = disturbance_.peaks_q8();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();

  std::vector<RunResult> results(names_.size());
  for (std::size_t member = 0; member < results.size(); ++member) {
    const auto m = static_cast<std::uint32_t>(member);
    RunResult& result = results[member];
    result.technique = names_[member];
    result.stats = controller_.stats(member);
    result.flip_events = disturbance_.flips(m);
    result.flips = result.flip_events.size();
    result.peak_disturbance = peaks[member] >> 8;
    result.state_bytes_per_bank = engines_[member]->state_bytes_per_bank();
    result.records = records_;
    result.oracle = oracle_;
    for (const auto& flip : result.flip_events)
      if (victim_keys.count(key_of(flip.bank, flip.row))) ++result.victim_flips;
    result.wall_seconds = wall;
  }
  return results;
}

RunResult run_custom_simulation(const mem::BankMitigationFactory& factory,
                                const std::string& display_name,
                                const SimConfig& config) {
  Simulation sim({CohortMember{display_name, factory}}, config);
  while (sim.step() != 0) {
  }
  sim.advance();
  return sim.result();
}

SeedSweepResult run_seed_sweep(hw::Technique technique, SimConfig config,
                               std::uint32_t seeds) {
  if (seeds == 0) throw std::invalid_argument("run_seed_sweep: zero seeds");
  const auto t0 = std::chrono::steady_clock::now();
  SeedSweepResult sweep;
  sweep.technique = std::string(hw::to_string(technique));
  sweep.jobs = util::job_count();

  // Parallel-safety invariant: nothing below run_simulation shares
  // mutable state between runs — every run builds its own Simulation
  // (streams, workload, controller, engine and disturbance model) from
  // its private SimConfig copy. Keep it that way: any global/static mutable state
  // introduced under run_simulation breaks this grid.
  //
  // Sweep seeds derive from the caller's configured base seed (they used
  // to be hardcoded to 1000 + s, silently discarding config.seed).
  const std::uint64_t base_seed = config.seed;
  std::vector<RunResult> runs(seeds);
  util::parallel_for_indexed(seeds, sweep.jobs, [&](std::size_t s) {
    SimConfig cfg = config;
    cfg.seed = base_seed + s;
    runs[s] = run_simulation(technique, cfg);
  });

  // Reduce in seed order via parallel Welford merges. The reduction is
  // the same sequence of float operations for every job count, so the
  // aggregate is bit-identical whether the grid ran on 1 or N threads.
  for (const RunResult& run : runs) {
    util::RunningStat overhead;
    overhead.add(run.overhead_pct());
    sweep.overhead_pct.merge(overhead);
    util::RunningStat fpr;
    fpr.add(run.fpr_pct());
    sweep.fpr_pct.merge(fpr);
    sweep.total_flips += run.flips;
    sweep.total_victim_flips += run.victim_flips;
    sweep.total_demand_acts += run.stats.demand_acts;
    sweep.total_extra_acts += run.stats.extra_acts;
    sweep.peak_disturbance = std::max(sweep.peak_disturbance, run.peak_disturbance);
    sweep.state_bytes_per_bank = run.state_bytes_per_bank;
    sweep.oracle = sweep.oracle && run.oracle;
  }
  sweep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return sweep;
}

std::uint32_t record_corpus(const SimConfig& config, const std::string& path,
                            std::size_t records_per_block) {
  SimConfig cfg = config;
  cfg.finalize();
  if (cfg.workload.model == BenignModel::kReplay)
    throw std::invalid_argument(
        "record_corpus: the workload is already a replay");
  // The workload stream drawn here is exactly the one a generated run
  // would consume.
  Streams streams(cfg.seed);
  std::unordered_set<std::uint64_t> aggressors;
  std::unordered_set<std::uint64_t> victims;
  auto workload = build_workload(cfg, streams.workload, &aggressors, &victims);

  trace::CorpusWriter writer(path, cfg.geometry.total_banks(),
                             records_per_block);
  std::vector<trace::AccessRecord> batch(Simulation::kBatchRecords);
  while (const std::size_t n = workload->next_batch(batch.data(), batch.size()))
    writer.append(batch.data(), n);
  writer.set_aggressors({aggressors.begin(), aggressors.end()});
  writer.set_victims({victims.begin(), victims.end()});
  return writer.close();
}

bool full_scale_requested() noexcept {
  const char* scale = std::getenv("TVP_SCALE");
  return scale != nullptr && std::string_view(scale) == "full";
}

void apply_scale(SimConfig& config, bool full) {
  if (full) {
    config.geometry.banks_per_rank = 16;
    config.windows = 6;
  } else {
    config.geometry.banks_per_rank = 4;
    config.windows = 2;
  }
  config.finalize();
}

}  // namespace tvp::exp
