#include "tvp/svc/result_io.hpp"

#include <stdexcept>
#include <utility>

namespace tvp::svc {

namespace {

void write_running_stat(util::JsonWriter& json, const util::RunningStat& stat) {
  const auto raw = stat.raw();
  json.begin_object();
  json.key("n").value(static_cast<std::uint64_t>(raw.n));
  json.key("mean").value_exact(raw.mean);
  json.key("m2").value_exact(raw.m2);
  json.key("min").value_exact(raw.min);
  json.key("max").value_exact(raw.max);
  json.key("sum").value_exact(raw.sum);
  json.end_object();
}

util::RunningStat read_running_stat(const util::JsonValue& value) {
  util::RunningStat::Raw raw;
  raw.n = value.at("n").as_uint();
  raw.mean = value.at("mean").as_double();
  raw.m2 = value.at("m2").as_double();
  raw.min = value.at("min").as_double();
  raw.max = value.at("max").as_double();
  raw.sum = value.at("sum").as_double();
  return util::RunningStat::from_raw(raw);
}

/// The ControllerStats counters, in their JSON key order.
constexpr std::pair<const char*, std::uint64_t mem::ControllerStats::*>
    kCounters[] = {
        {"demand_acts", &mem::ControllerStats::demand_acts},
        {"extra_acts", &mem::ControllerStats::extra_acts},
        {"fp_extra_acts", &mem::ControllerStats::fp_extra_acts},
        {"triggers", &mem::ControllerStats::triggers},
        {"refresh_intervals", &mem::ControllerStats::refresh_intervals},
        {"rows_refreshed", &mem::ControllerStats::rows_refreshed},
        {"reads", &mem::ControllerStats::reads},
        {"writes", &mem::ControllerStats::writes},
        {"delayed_acts", &mem::ControllerStats::delayed_acts},
        {"first_extra_act_at", &mem::ControllerStats::first_extra_act_at},
};

}  // namespace

void write_run_result(util::JsonWriter& json, const exp::RunResult& result) {
  const mem::ControllerStats& s = result.stats;
  json.begin_object();
  json.key("technique").value(result.technique);
  for (const auto& [name, counter] : kCounters) json.key(name).value(s.*counter);
  json.key("acts_per_interval");
  write_running_stat(json, s.acts_per_interval);
  json.key("extra_acts_by_phase").begin_array();
  for (const auto v : s.extra_acts_by_phase) json.value(v);
  json.end_array();
  json.key("flips").value(result.flips);
  json.key("victim_flips").value(result.victim_flips);
  // Flip events as compact [bank, row, at_activation, interval] rows.
  json.key("flip_events").begin_array();
  for (const auto& e : result.flip_events) {
    json.begin_array();
    json.value(e.bank).value(e.row).value(e.at_activation).value(e.interval);
    json.end_array();
  }
  json.end_array();
  json.key("peak_disturbance").value(result.peak_disturbance);
  json.key("state_bytes_per_bank").value_exact(result.state_bytes_per_bank);
  json.key("records").value(result.records);
  json.key("wall_seconds").value_exact(result.wall_seconds);
  json.key("oracle").value(result.oracle);
  json.end_object();
}

exp::RunResult read_run_result(const util::JsonValue& value) {
  exp::RunResult result;
  mem::ControllerStats& s = result.stats;
  result.technique = value.at("technique").as_string();
  for (const auto& [name, counter] : kCounters) s.*counter = value.at(name).as_uint();
  s.acts_per_interval = read_running_stat(value.at("acts_per_interval"));
  const auto& phases = value.at("extra_acts_by_phase").items();
  if (phases.size() != s.extra_acts_by_phase.size())
    throw std::runtime_error("RunResult: phase histogram size mismatch");
  for (std::size_t i = 0; i < phases.size(); ++i)
    s.extra_acts_by_phase[i] = phases[i].as_uint();
  result.flips = value.at("flips").as_uint();
  result.victim_flips = value.at("victim_flips").as_uint();
  for (const auto& row : value.at("flip_events").items()) {
    const auto& cols = row.items();
    if (cols.size() != 4)
      throw std::runtime_error("RunResult: malformed flip event");
    dram::FlipEvent e;
    e.bank = static_cast<dram::BankId>(cols[0].as_uint());
    e.row = static_cast<dram::RowId>(cols[1].as_uint());
    e.at_activation = cols[2].as_uint();
    e.interval = static_cast<std::uint32_t>(cols[3].as_uint());
    result.flip_events.push_back(e);
  }
  result.peak_disturbance = value.at("peak_disturbance").as_uint();
  result.state_bytes_per_bank = value.at("state_bytes_per_bank").as_double();
  result.records = value.at("records").as_uint();
  result.wall_seconds = value.at("wall_seconds").as_double();
  // Journals written before the field existed hold oracle runs only.
  if (const util::JsonValue* oracle = value.find("oracle"))
    result.oracle = oracle->as_bool();
  return result;
}

void write_sweep_cell(util::JsonWriter& json, std::size_t index,
                      const exp::SweepCell& cell) {
  json.begin_object();
  json.key("i").value(static_cast<std::uint64_t>(index));
  json.key("value").value(cell.value);
  json.key("technique").value(cell.technique);
  json.key("result");
  write_run_result(json, cell.result);
  json.end_object();
}

exp::SweepCell read_sweep_cell(const util::JsonValue& value,
                               std::size_t& index) {
  index = value.at("i").as_uint();
  exp::SweepCell cell;
  cell.value = value.at("value").as_string();
  cell.technique = value.at("technique").as_string();
  cell.result = read_run_result(value.at("result"));
  return cell;
}

std::string sweep_result_json(const exp::SweepResult& sweep) {
  util::JsonWriter json;
  json.begin_object();
  json.key("param").value(sweep.param_key);
  json.key("values").begin_array();
  for (const auto& v : sweep.values) json.value(v);
  json.end_array();
  json.key("techniques").begin_array();
  for (const auto& t : sweep.techniques) json.value(t);
  json.end_array();
  json.key("jobs").value(static_cast<std::uint64_t>(sweep.jobs));
  json.key("wall_seconds").value(sweep.wall_seconds);
  json.key("cells").begin_array();
  for (std::size_t i = 0; i < sweep.cells.size(); ++i)
    write_sweep_cell(json, i, sweep.cells[i]);
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace tvp::svc
