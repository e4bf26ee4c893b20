#include "tvp/exp/sweep.hpp"

#include <algorithm>
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

namespace {

/// The cells (row-major indices) a member of a unit still has to
/// compute: one technique's at every value of a windows unit, else one.
using Member = std::vector<std::size_t>;

/// A contiguous part of a unit's members: one Simulation run.
struct Part {
  const Member* first = nullptr;
  const Member* last = nullptr;
};

}  // namespace

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
  const std::size_t n_tech = techniques.size();
  sweep.cells.resize(values.size() * n_tech);
  std::vector<char> done(sweep.cells.size(), 0);
  if (hooks.preloaded) {
    for (const auto& [i, cell] : *hooks.preloaded) {
      if (i >= sweep.cells.size())
        throw std::invalid_argument("run_param_sweep: preloaded index out of range");
      const std::size_t v = i / n_tech;
      const std::size_t t = i % n_tech;
      if (cell.value != values[v] ||
          cell.technique != hw::to_string(techniques[t]))
        throw std::invalid_argument(
            "run_param_sweep: preloaded cell does not match the grid");
      sweep.cells[i] = cell;
      done[i] = 1;
    }
  }

  // The units, from the swept key. Cells that differ only in the defence
  // share a workload, so a value's techniques run as one cohort, and so
  // does every cell of a technique.* sweep (each member under its own
  // value's TechniqueConfig). A run of T windows is the first T windows
  // of a longer one, so a windows sweep is one run of its techniques
  // read at each value. A member keeps only the cells still missing.
  const bool horizons = param_key == "windows";
  const bool one_unit = horizons || param_key.rfind("technique.", 0) == 0;
  std::vector<std::map<std::size_t, Member>> keyed(one_unit ? 1 : values.size());
  for (std::size_t i = 0; i < done.size(); ++i)
    if (!done[i]) keyed[one_unit ? 0 : i / n_tech][horizons ? i % n_tech : i].push_back(i);
  std::vector<std::vector<Member>> units;
  for (auto& members : keyed) {
    if (members.empty()) continue;
    units.emplace_back();
    for (auto& [key, cells] : members) units.back().push_back(std::move(cells));
  }

  // Units are the items of the worker pool; a unit splits into
  // contiguous parts of its members only when there are more jobs than
  // units, so that the extra workers have work. Every cell equals its
  // solo run and lands in its pre-sized slot, so the matrix is
  // bit-identical for every job count and every preloaded split.
  const std::size_t per_unit =
      sweep.jobs > units.size() && !units.empty()
          ? (sweep.jobs + units.size() - 1) / units.size()
          : 1;
  std::vector<Part> parts;
  for (const auto& members : units) {
    const std::size_t n = members.size();
    const std::size_t k = std::min(n, per_unit);
    for (std::size_t p = 0; p < k; ++p)
      parts.push_back({members.data() + p * n / k, members.data() + (p + 1) * n / k});
  }
  const auto stopped = [&] {
    return hooks.stop && hooks.stop->load(std::memory_order_relaxed);
  };
  std::vector<mem::StageProfile> stages(parts.size());
  util::parallel_for_indexed(parts.size(), sweep.jobs, [&](std::size_t i) {
    const Part& part = parts[i];
    if (stopped()) return;
    std::vector<std::uint32_t> reads;  // the horizons, ascending
    std::vector<CohortMember> members;
    for (const Member* m = part.first; m != part.last; ++m) {
      for (const std::size_t c : *m) reads.push_back(configs[c / n_tech].windows);
      const std::size_t t = m->front() % n_tech;
      members.push_back({sweep.techniques[t],
                         make_factory(techniques[t],
                                      configs[m->front() / n_tech].technique)});
    }
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    SimConfig config = configs[part.first->front() / n_tech];
    config.windows = reads.back();
    Simulation sim(std::move(members), config);
    for (const std::uint32_t horizon : reads) {
      if (stopped()) break;
      sim.set_horizon(horizon);
      while (sim.step() != 0) {
      }
      sim.advance();
      const std::vector<RunResult> results = sim.results();
      for (const Member* m = part.first; m != part.last; ++m)
        for (const std::size_t c : *m) {
          if (configs[c / n_tech].windows != horizon) continue;
          SweepCell& cell = sweep.cells[c];
          cell.value = values[c / n_tech];
          cell.technique = sweep.techniques[c % n_tech];
          cell.result = results[static_cast<std::size_t>(m - part.first)];
          if (hooks.on_cell) hooks.on_cell(c, cell);
        }
    }
    stages[i] = sim.controller().stage_profile();
  });
  for (const mem::StageProfile& p : stages) {
    sweep.stages.scattered_acts += p.scattered_acts;
    sweep.stages.partitioned_acts += p.partitioned_acts;
  }
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
