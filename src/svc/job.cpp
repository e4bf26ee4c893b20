#include "tvp/svc/job.hpp"

#include <stdexcept>

#include "tvp/util/config.hpp"

namespace tvp::svc {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

std::vector<std::string> string_array(const util::JsonValue& value,
                                      const std::string& key) {
  std::vector<std::string> out;
  for (const auto& item : value.at(key).items()) out.push_back(item.as_string());
  return out;
}

}  // namespace

std::vector<hw::Technique> JobSpec::parsed_techniques() const {
  std::vector<hw::Technique> out;
  out.reserve(techniques.size());
  for (const auto& name : techniques) {
    const auto technique = hw::parse_technique(name);
    if (!technique)
      throw std::invalid_argument("JobSpec: unknown technique '" + name + "'");
    out.push_back(*technique);
  }
  return out;
}

void JobSpec::validate() const {
  if (name.empty()) throw std::invalid_argument("JobSpec: empty name");
  for (const char c : name)
    if (!name_char_ok(c))
      throw std::invalid_argument("JobSpec: name '" + name +
                                  "' has characters outside [A-Za-z0-9_.-]");
  if (param_key.empty()) throw std::invalid_argument("JobSpec: empty param key");
  if (values.empty()) throw std::invalid_argument("JobSpec: no values");
  if (techniques.empty()) throw std::invalid_argument("JobSpec: no techniques");
  parsed_techniques();
  try {
    util::KeyValueFile::parse(config_text);  // throws with a line number
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("JobSpec: bad config: ") + e.what());
  }
}

void JobSpec::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.key("name").value(name);
  json.key("config").value(config_text);
  json.key("param").value(param_key);
  json.key("values").begin_array();
  for (const auto& v : values) json.value(v);
  json.end_array();
  json.key("techniques").begin_array();
  for (const auto& t : techniques) json.value(t);
  json.end_array();
  // Only emitted for trace jobs: journals written before the corpus
  // pipeline existed stay byte-identical, so their identity check on
  // resume still passes.
  if (!trace.empty()) {
    json.key("trace").value(trace);
    json.key("trace_hash").value(trace_hash);
  }
  json.end_object();
}

std::string JobSpec::canonical_json() const {
  util::JsonWriter json;
  write_json(json);
  return json.str();
}

JobSpec JobSpec::from_json(const util::JsonValue& value) {
  JobSpec spec;
  spec.name = value.at("name").as_string();
  spec.config_text = value.at("config").as_string();
  spec.param_key = value.at("param").as_string();
  spec.values = string_array(value, "values");
  spec.techniques = string_array(value, "techniques");
  spec.trace = value.get("trace", "");
  spec.trace_hash = value.get("trace_hash", "");
  return spec;
}

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "?";
}

JobState parse_job_state(const std::string& name) {
  for (const auto s : {JobState::kQueued, JobState::kRunning, JobState::kDone,
                       JobState::kFailed, JobState::kCancelled})
    if (name == to_string(s)) return s;
  throw std::runtime_error("JobState: unknown state '" + name + "'");
}

void JobStatus::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.key("id").value(id);
  json.key("name").value(name);
  json.key("state").value(to_string(state));
  json.key("total_cells").value(static_cast<std::uint64_t>(total_cells));
  json.key("completed_cells").value(static_cast<std::uint64_t>(completed_cells));
  json.key("resumed_cells").value(static_cast<std::uint64_t>(resumed_cells));
  json.key("error").value(error);
  json.end_object();
}

JobStatus JobStatus::from_json(const util::JsonValue& value) {
  JobStatus status;
  status.id = value.at("id").as_uint();
  status.name = value.at("name").as_string();
  status.state = parse_job_state(value.at("state").as_string());
  status.total_cells = value.at("total_cells").as_uint();
  status.completed_cells = value.at("completed_cells").as_uint();
  status.resumed_cells = value.at("resumed_cells").as_uint();
  status.error = value.get("error", "");
  return status;
}

}  // namespace tvp::svc
