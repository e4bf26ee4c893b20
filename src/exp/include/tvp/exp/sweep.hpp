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

  const RunResult& at(std::size_t value_index, std::size_t technique_index) const {
    return cells.at(value_index * techniques.size() + technique_index).result;
  }
};

/// Cell-granular execution hooks, the checkpoint/resume seam the
/// campaign service (svc) builds on. Each cell is deterministic in
/// (config, seed) and independent of every other cell, so a matrix
/// assembled from preloaded (journal-replayed) cells plus freshly
/// computed ones is bit-identical to an uninterrupted run.
struct SweepHooks {
  /// Cells already computed, keyed by row-major index; copied into the
  /// result instead of re-running. Entries whose (value, technique)
  /// disagree with the requested grid throw std::invalid_argument — a
  /// stale journal must not silently corrupt a matrix.
  const std::map<std::size_t, SweepCell>* preloaded = nullptr;
  /// Called as each freshly computed cell completes (not for preloaded
  /// cells). Invoked from worker threads — the callback must be
  /// thread-safe; cells may complete in any order.
  std::function<void(std::size_t index, const SweepCell& cell)> on_cell;
  /// When it reads true, workers stop claiming new cells; in-flight
  /// cells still finish (and reach on_cell). Skipped cells are left
  /// with an empty technique string in the returned matrix.
  const std::atomic<bool>* stop = nullptr;
  /// Worker threads for the grid; 0 selects util::job_count().
  std::size_t jobs = 0;
};

/// Runs the matrix: for each value, @p base with `param_key = value`
/// applied, for each technique. @p param_key must be a recognised config
/// key (config_io); values are config-file value strings. Throws on
/// unknown keys/values; deterministic in the base config's seed. The
/// grid runs on util::job_count() worker threads (TVP_JOBS env var) into
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
