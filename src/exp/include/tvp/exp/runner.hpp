// The experiment runner: assembles workload -> controller -> mitigation
// -> disturbance for one technique, runs it, and collects the metrics
// every table/figure of the paper is built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/dram/geometry.hpp"
#include "tvp/dram/refresh.hpp"
#include "tvp/dram/timing.hpp"
#include "tvp/exp/registry.hpp"
#include "tvp/hw/technique.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/trace/attack.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/trace/fuzzer.hpp"
#include "tvp/trace/source.hpp"
#include "tvp/util/stats.hpp"

namespace tvp::exp {

/// How the benign traffic is produced.
enum class BenignModel {
  kMixedSynthetic,  ///< calibrated row-level profile mix (default)
  kCacheFrontend,   ///< multi-core cores behind L1/L2 (gem5 stand-in)
  kUniformRandom,   ///< zero-reuse uniform rows (worst case for history
                    ///< tables; the A4 sensitivity ablation)
  kReplay,          ///< replay a recorded .tvpc corpus (workload.trace)
  kFuzz,            ///< mixed-synthetic benign plus PatternFuzzer attacks
                    ///< derived from workload.fuzz (seed-deterministic)
};

const char* to_string(BenignModel model) noexcept;

/// Fuzzed-attack layer (model == kFuzz): on top of the mixed-synthetic
/// benign traffic, `patterns` PatternFuzzer patterns are derived from
/// seeds `seed, seed + 1, ...` and assigned to banks round-robin. The
/// derivation is independent of the workload RNG, so a fuzz workload
/// records/replays through the corpus machinery unchanged.
struct FuzzSpec {
  std::uint64_t seed = 1;           ///< first fuzzer seed (sweepable)
  std::uint32_t patterns = 1;       ///< patterns (banks round-robin)
  /// Attacker ACTs per refresh interval per pattern (sets interarrival).
  double acts_per_interval = 80.0;
  trace::FuzzParams params;         ///< parameter-space bounds
};

/// What traffic to generate.
struct WorkloadSpec {
  /// Average benign activations per refresh interval per bank. The
  /// standard campaign adds ~20 attacker ACTs/interval/bank on top,
  /// landing at Table I's average of ~40 including the aggressors.
  double benign_acts_per_interval_per_bank = 20.0;
  BenignModel model = BenignModel::kMixedSynthetic;
  /// Corpus file replayed when model == kReplay (records AND the
  /// aggressor oracle come from the file; benign_acts is ignored).
  /// Extra attacks may still be layered on top.
  std::string trace_path;
  /// Attacker threads (empty = benign-only run).
  std::vector<trace::AttackConfig> attacks;
  /// Fuzzed attacks layered on when model == kFuzz (ignored otherwise).
  FuzzSpec fuzz;
};

/// Full configuration of one simulation run.
struct SimConfig {
  dram::Geometry geometry;  ///< default below shrinks to 4 banks
  dram::Timing timing = dram::ddr4_timing();
  dram::RefreshPolicy refresh_policy = dram::RefreshPolicy::kNeighborSequential;
  bool remap_rows = false;
  std::size_t remap_swaps = 16;
  std::uint32_t act_n_radius = 1;  ///< see mem::ControllerConfig
  dram::DisturbanceParams disturbance;
  /// Per-bank sharding of the controller hot path (see
  /// mem::ControllerConfig::bank_jobs): 1 = serial (default; seed sweeps
  /// already parallelize across runs), 0 = auto (TVP_JOBS), N = N
  /// workers. Results are bit-identical for every setting.
  std::size_t bank_jobs = 1;
  std::uint32_t windows = 2;  ///< refresh windows to simulate
  std::uint64_t seed = 1;
  WorkloadSpec workload;
  TechniqueConfig technique;

  SimConfig();

  /// Simulated duration in picoseconds.
  std::uint64_t duration_ps() const noexcept {
    return static_cast<std::uint64_t>(windows) * timing.t_refw_ps;
  }
  /// Propagates geometry/timing into the technique parameters and checks
  /// consistency; call after editing fields.
  void finalize();
};

/// Everything measured in one run.
struct RunResult {
  std::string technique;
  mem::ControllerStats stats;
  std::uint64_t flips = 0;         ///< bit flips anywhere
  std::uint64_t victim_flips = 0;  ///< flips on the attack's victim rows
  std::vector<dram::FlipEvent> flip_events;  ///< every flip (bank, row, when)
  std::uint64_t peak_disturbance = 0;  ///< closest approach to the threshold
  double state_bytes_per_bank = 0.0;
  std::uint64_t records = 0;       ///< trace records consumed
  double wall_seconds = 0.0;
  /// False when the workload carried no oracle (a corpus whose header
  /// says so): FPR and victim flips are then unknown, not zero.
  bool oracle = true;

  double overhead_pct() const noexcept { return stats.overhead_pct(); }
  double fpr_pct() const noexcept { return stats.fpr_pct(); }
};

/// The controller configuration @p config describes (geometry, timing,
/// refresh policy, remapping, act_n radius, bank_jobs; profiling off).
/// Callers that vary bank_jobs or profile set them on the result.
mem::ControllerConfig controller_config(const SimConfig& config);

/// A run's RNG streams: the one definition of its fork order. Each is
/// forked from util::Rng(seed) in declaration order.
struct Streams {
  explicit Streams(std::uint64_t seed);

  util::Rng workload;    ///< the benign generators (build_workload)
  util::Rng engine;      ///< the mitigation engine, forked once per bank
  util::Rng controller;  ///< refresh order and row remapping
};

/// One member of a cohort: the defence its memory system runs, and the
/// name its RunResult carries.
struct CohortMember {
  std::string name;
  mem::BankMitigationFactory factory;
};

/// The rig of one run, and the one place a run is wired: it owns the
/// run's Streams, the engines, disturbance model, controller, workload
/// and the workload's aggressor and victim oracles. A run is construct,
/// workload(), step() until it feeds nothing, advance(), results(); each
/// is its own call so that a caller can time it, or feed() records of
/// its own instead of the workload.
///
/// A Simulation is a *cohort*: its members (defences) run over one
/// SimConfig and share the workload, the oracles, the partition pass,
/// the refresh schedule and the demand walk over one disturbance model,
/// while each has its own mitigation engine, bank timing and extra
/// ACTs. Every member's result equals its solo run's. A one-factory
/// Simulation is the cohort of one.
///
/// A run can also be read at *horizons*: set_horizon(T), step() until
/// it feeds nothing, advance(), read the results, then move the horizon
/// on and continue. A run read at T equals one that was never stopped,
/// so every member's result there equals its solo run of T windows.
/// The solo run is the run with one horizon, config.windows.
class Simulation {
 public:
  /// Records per batch when the workload lends no spans: enough to keep
  /// refresh segments long for the per-bank kernels.
  static constexpr std::size_t kBatchRecords = 4096;

  /// Wires @p members (at least one) into the system @p config
  /// describes (finalized here), under controller_config(config) or
  /// @p controller_cfg.
  Simulation(std::vector<CohortMember> members, const SimConfig& config);
  Simulation(std::vector<CohortMember> members, const SimConfig& config,
             const mem::ControllerConfig& controller_cfg);
  /// The cohort of one, whose member is named "".
  Simulation(const mem::BankMitigationFactory& factory, const SimConfig& config);
  Simulation(const mem::BankMitigationFactory& factory, const SimConfig& config,
             const mem::ControllerConfig& controller_cfg);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  std::size_t members() const noexcept { return names_.size(); }

  /// The config's workload, built on the workload stream at the first
  /// call, which also installs its aggressor oracle.
  trace::TraceSource& workload();

  /// Feeds the workload's next batch before the horizon (a borrowed span,
  /// a corpus block's bank lanes, or up to @p max copied records) to
  /// every member and returns its record count; 0 once the workload is
  /// exhausted or has reached the horizon. A batch that crosses the
  /// horizon is cut there, a corpus block lane by lane, and its rest is
  /// fed once the horizon has moved past it.
  std::size_t step(std::size_t max = kBatchRecords);

  /// Feeds @p count records of the caller's (the horizon does not cut
  /// them).
  void feed(const trace::AccessRecord* records, std::size_t count);

  /// Completes refresh processing to the horizon.
  void advance();

  /// Moves the horizon, where step() stops and advance() completes the
  /// refresh processing, to @p windows refresh windows. The horizon
  /// starts at config.windows; it may not exceed it, nor lie before the
  /// last advance() (throws std::invalid_argument).
  void set_horizon(std::uint32_t windows);

  /// Every member's result, in member order, under the member's name,
  /// from one scan of the disturbance model.
  std::vector<RunResult> results() const;
  /// Member @p member's result.
  RunResult result(std::size_t member = 0) const { return results().at(member); }

  const mem::MitigationEngine& engine(std::size_t member = 0) const {
    return *engines_.at(member);
  }
  const dram::DisturbanceModel& disturbance() const noexcept { return disturbance_; }
  const mem::MemoryController& controller() const noexcept { return controller_; }

 private:
  /// Pulls the workload's next batch into the pending records.
  void pull(std::size_t max);
  /// Feeds the pending records before the horizon; returns their count.
  std::size_t feed_pending();

  std::chrono::steady_clock::time_point start_;
  SimConfig config_;
  Streams streams_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<mem::MitigationEngine>> engines_;
  dram::DisturbanceModel disturbance_;
  mem::MemoryController controller_;
  std::unique_ptr<trace::TraceSource> workload_;
  std::unordered_set<std::uint64_t> aggressors_;
  std::unordered_set<std::uint64_t> victims_;
  bool oracle_ = true;
  std::vector<trace::AccessRecord> batch_;
  std::uint64_t records_ = 0;
  std::uint64_t horizon_ps_;
  std::uint64_t advanced_ps_ = 0;
  // The pulled records not yet fed: a record span, or (when
  // pending_lanes_ is not empty) a corpus block's lanes, whose serials
  // count from 0; after a cut at the horizon they point into
  // pending_serials_.
  const trace::AccessRecord* pending_ = nullptr;
  std::size_t pending_count_ = 0;
  std::vector<trace::BankLaneView> pending_lanes_;
  std::vector<std::uint32_t> pending_serials_;
};

/// Runs @p technique on the configured system. Deterministic in
/// (config, config.seed).
RunResult run_simulation(hw::Technique technique, const SimConfig& config);

/// Same pipeline, but with an arbitrary mitigation factory — the hook
/// for techniques outside the paper's nine (Graphene, TRR, shaped
/// TiVaPRoMi variants, user-supplied defences).
RunResult run_custom_simulation(const mem::BankMitigationFactory& factory,
                                const std::string& display_name,
                                const SimConfig& config);

/// Multi-seed aggregation (Table III's mu +/- sigma columns).
struct SeedSweepResult {
  std::string technique;
  util::RunningStat overhead_pct;
  util::RunningStat fpr_pct;
  std::uint64_t total_flips = 0;
  std::uint64_t total_victim_flips = 0;
  std::uint64_t total_demand_acts = 0;
  std::uint64_t total_extra_acts = 0;
  std::uint64_t peak_disturbance = 0;  ///< max over the seeds
  double state_bytes_per_bank = 0.0;
  double wall_seconds = 0.0;  ///< wall-clock of the whole sweep
  std::size_t jobs = 1;       ///< worker threads used (TVP_JOBS)
  bool oracle = true;         ///< every run had an oracle (RunResult::oracle)
};

/// Runs @p seeds independent simulations at seeds config.seed,
/// config.seed + 1, ... and aggregates them. The grid is executed with
/// util::job_count() worker threads (TVP_JOBS env var; 1 = sequential);
/// results land in per-seed slots and are reduced in seed order, so the
/// aggregate is bit-identical for every job count.
SeedSweepResult run_seed_sweep(hw::Technique technique, SimConfig config,
                               std::uint32_t seeds);

/// Builds the trace for @p config (exposed for tests and trace export).
/// @p aggressors, if non-null, receives the ground-truth aggressor keys
/// (bank << 32 | row) of all configured attacks — including, for replay
/// workloads, the oracle stored in the corpus footer. @p victims, if
/// non-null, receives the declared victim keys (logical, same scheme)
/// from the same sources: explicit attacks, fuzz-derived patterns and
/// the replay corpus footer. @p oracle, if non-null, receives false when
/// the workload is a corpus whose header says it carries no oracle.
std::unique_ptr<trace::TraceSource> build_workload(
    const SimConfig& config, util::Rng& rng,
    std::unordered_set<std::uint64_t>* aggressors = nullptr,
    std::unordered_set<std::uint64_t>* victims = nullptr,
    bool* oracle = nullptr);

/// Generates the workload @p config describes and records it — records,
/// one lane per configured bank, and the aggressor and victim oracles —
/// to @p path as a corpus. The generation draws on the run's
/// Streams::workload, so replaying the corpus reproduces the generated
/// run bit-identically. Returns the corpus identity (footer CRC).
std::uint32_t record_corpus(
    const SimConfig& config, const std::string& path,
    std::size_t records_per_block = trace::CorpusWriter::kDefaultBlockRecords);

/// Reads TVP_SCALE from the environment: "full" selects the paper-scale
/// configuration (16 banks, more windows); anything else the scaled one.
bool full_scale_requested() noexcept;

/// Scales a SimConfig to paper scale (16 banks, 6 windows) when
/// @p full is true; used by the benches.
void apply_scale(SimConfig& config, bool full);

}  // namespace tvp::exp
