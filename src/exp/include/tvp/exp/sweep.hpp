// Generic parameter sweeps over configuration keys.
//
// Everything a SimConfig can express is addressable by a config key
// (config_io.hpp), so a sweep is just (base config, key, values,
// techniques) — run the whole matrix and format it. The ablation
// benches cover the paper's specific sweeps; this engine is for users
// exploring their own questions (see examples/sweep_tool.cpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/util/table.hpp"

namespace tvp::exp {

/// One (value, technique) cell of the sweep matrix.
struct SweepCell {
  std::string value;
  std::string technique;
  RunResult result;
};

struct SweepResult {
  std::string param_key;
  std::vector<std::string> values;
  std::vector<std::string> techniques;
  std::vector<SweepCell> cells;  ///< row-major: values x techniques
  double wall_seconds = 0.0;     ///< wall-clock of the whole matrix
  std::size_t jobs = 1;          ///< worker threads used (TVP_JOBS)
  /// The act counters of the sweep's runs, summed (no timers): a run
  /// partitions each record it feeds once, so they count the records
  /// the sweep pulled from its workloads.
  mem::StageProfile stages;

  const RunResult& at(std::size_t value_index, std::size_t technique_index) const {
    return cells.at(value_index * techniques.size() + technique_index).result;
  }
};

/// Cell-granular execution hooks, the checkpoint/resume seam the
/// campaign service (svc) builds on. Each cell is deterministic in
/// (config, seed) and equals its solo run (run_simulation), however the
/// sweep computed it, so a matrix assembled from preloaded
/// (journal-replayed) cells plus freshly computed ones is bit-identical
/// to an uninterrupted run.
///
/// The sweep computes cells in *units*, one exp::Simulation run each: a
/// value's techniques run as one cohort, every cell of a `technique.*`
/// sweep as one cohort, and a `windows` sweep as one run of its
/// techniques read at each value (a horizon), in ascending order. A
/// unit emits its cells at its horizons: a `windows` unit a value's
/// cells at a time, any other unit all of its cells at once.
struct SweepHooks {
  /// Cells already computed, keyed by row-major index; copied into the
  /// result instead of re-running. A unit runs only the members that
  /// still miss a cell, and only to the longest horizon that still misses
  /// one. Entries whose (value, technique) disagree with the requested
  /// grid throw std::invalid_argument — a stale journal must not silently
  /// corrupt a matrix.
  const std::map<std::size_t, SweepCell>* preloaded = nullptr;
  /// Called for each freshly computed cell (not for preloaded cells) the
  /// moment its horizon is read. Invoked from worker threads — the
  /// callback must be thread-safe; cells may complete in any order.
  std::function<void(std::size_t index, const SweepCell& cell)> on_cell;
  /// When it reads true, workers start no new unit and a running unit
  /// stops at its next horizon; the cells of a horizon already read still
  /// reach on_cell. Skipped cells are left with an empty technique string
  /// in the returned matrix.
  const std::atomic<bool>* stop = nullptr;
  /// Worker threads for the units; 0 selects util::job_count(). When there
  /// are more jobs than units, each unit splits into contiguous parts of
  /// its members so that the extra workers have work.
  std::size_t jobs = 0;
};

/// Runs the matrix: for each value, @p base with `param_key = value`
/// applied, for each technique. @p param_key must be a recognised config
/// key (config_io); values are config-file value strings. Throws on
/// unknown keys/values; deterministic in the base config's seed. The
/// units run on util::job_count() worker threads (TVP_JOBS env var) into
/// pre-sized cells, so the matrix is bit-identical for every job count.
SweepResult run_param_sweep(const util::KeyValueFile& base,
                            const std::string& param_key,
                            const std::vector<std::string>& values,
                            const std::vector<hw::Technique>& techniques);

/// Same, with checkpoint/resume hooks (see SweepHooks).
SweepResult run_param_sweep(const util::KeyValueFile& base,
                            const std::string& param_key,
                            const std::vector<std::string>& values,
                            const std::vector<hw::Technique>& techniques,
                            const SweepHooks& hooks);

/// Formats the overhead matrix (values down, techniques across).
util::TextTable sweep_overhead_table(const SweepResult& sweep);

/// CSV export: param,value,technique,overhead_pct,fpr_pct,flips,bytes;
/// fpr_pct reads "n/a" for a cell whose workload had no oracle.
std::string sweep_to_csv(const SweepResult& sweep);

}  // namespace tvp::exp
