#include "tvp/exp/sweep.hpp"

#include <chrono>
#include <stdexcept>

#include "tvp/util/parallel.hpp"

namespace tvp::exp {

SweepResult run_param_sweep(const util::KeyValueFile& base,
                            const std::string& param_key,
                            const std::vector<std::string>& values,
                            const std::vector<hw::Technique>& techniques) {
  return run_param_sweep(base, param_key, values, techniques, SweepHooks{});
}

SweepResult run_param_sweep(const util::KeyValueFile& base,
                            const std::string& param_key,
                            const std::vector<std::string>& values,
                            const std::vector<hw::Technique>& techniques,
                            const SweepHooks& hooks) {
  if (values.empty() || techniques.empty())
    throw std::invalid_argument("run_param_sweep: empty values or techniques");
  const auto t0 = std::chrono::steady_clock::now();
  SweepResult sweep;
  sweep.param_key = param_key;
  sweep.values = values;
  sweep.jobs = hooks.jobs ? hooks.jobs : util::job_count();
  for (const auto t : techniques)
    sweep.techniques.emplace_back(hw::to_string(t));

  // Parse and validate every value up front, so config errors surface
  // before any simulation work starts (same behaviour as the old
  // sequential loop, which threw before running the first cell).
  std::vector<SimConfig> configs;
  configs.reserve(values.size());
  for (const auto& value : values) {
    util::KeyValueFile file = base;
    file.set(param_key, value);
    SimConfig config;
    apply_config(config, file);  // throws on unknown key
    configs.push_back(std::move(config));
  }

  // Seed the matrix with checkpointed cells; a cell whose identity does
  // not match the grid means the journal belongs to a different sweep.
  sweep.cells.resize(values.size() * techniques.size());
  std::vector<char> done(sweep.cells.size(), 0);
  if (hooks.preloaded) {
    for (const auto& [i, cell] : *hooks.preloaded) {
      if (i >= sweep.cells.size())
        throw std::invalid_argument("run_param_sweep: preloaded index out of range");
      const std::size_t v = i / techniques.size();
      const std::size_t t = i % techniques.size();
      if (cell.value != values[v] ||
          cell.technique != hw::to_string(techniques[t]))
        throw std::invalid_argument(
            "run_param_sweep: preloaded cell does not match the grid");
      sweep.cells[i] = cell;
      done[i] = 1;
    }
  }

  // Run the remaining (value x technique) grid in parallel into
  // pre-sized, row-major slots; each cell's run is independent (private
  // SimConfig, private Rng), so the matrix is bit-identical for every
  // job count — and for every preloaded/recomputed split.
  util::parallel_for_indexed(
      sweep.cells.size(), sweep.jobs, [&](std::size_t i) {
        if (done[i]) return;
        if (hooks.stop && hooks.stop->load(std::memory_order_relaxed)) return;
        const std::size_t v = i / techniques.size();
        const std::size_t t = i % techniques.size();
        SweepCell& cell = sweep.cells[i];
        cell.value = values[v];
        cell.technique = std::string(hw::to_string(techniques[t]));
        cell.result = run_simulation(techniques[t], configs[v]);
        if (hooks.on_cell) hooks.on_cell(i, cell);
      });
  sweep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return sweep;
}

util::TextTable sweep_overhead_table(const SweepResult& sweep) {
  std::vector<std::string> header = {sweep.param_key};
  for (const auto& t : sweep.techniques) header.push_back(t);
  util::TextTable table(header);
  table.set_title("activation overhead [%] (" + sweep.param_key + " sweep)");
  for (std::size_t v = 0; v < sweep.values.size(); ++v) {
    std::vector<std::string> row = {sweep.values[v]};
    for (std::size_t t = 0; t < sweep.techniques.size(); ++t)
      row.push_back(util::strfmt("%.5f", sweep.at(v, t).overhead_pct()));
    table.add_row(row);
  }
  return table;
}

std::string sweep_to_csv(const SweepResult& sweep) {
  std::string out =
      "param,value,technique,overhead_pct,fpr_pct,flips,table_bytes_per_bank\n";
  for (const auto& cell : sweep.cells) {
    // Without an oracle every extra ACT would count as a false positive.
    const std::string fpr = cell.result.oracle
                                ? util::strfmt("%.6f", cell.result.fpr_pct())
                                : std::string("n/a");
    out += util::strfmt("%s,%s,%s,%.6f,%s,%llu,%.1f\n",
                        sweep.param_key.c_str(), cell.value.c_str(),
                        cell.technique.c_str(), cell.result.overhead_pct(),
                        fpr.c_str(),
                        static_cast<unsigned long long>(cell.result.flips),
                        cell.result.state_bytes_per_bank);
  }
  return out;
}

}  // namespace tvp::exp
