#include "tvp/util/config.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tvp::util {

namespace {
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}
}  // namespace

KeyValueFile KeyValueFile::parse(const std::string& text) {
  KeyValueFile out;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos)
      throw std::runtime_error("config: missing '=' at line " +
                               std::to_string(lineno));
    const std::string key = trim(trimmed.substr(0, eq));
    if (key.empty())
      throw std::runtime_error("config: empty key at line " +
                               std::to_string(lineno));
    out.values_[key] = trim(trimmed.substr(eq + 1));
  }
  return out;
}

KeyValueFile KeyValueFile::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("config: cannot open " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return parse(buffer.str());
}

std::string KeyValueFile::get(const std::string& key,
                              const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double KeyValueFile::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw std::runtime_error("config: key '" + key + "' expects a number");
  }
}

bool KeyValueFile::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::runtime_error("config: key '" + key +
                           "' must be one of true, false, 1, 0, yes, no, got '" +
                           value + "'");
}

std::vector<std::string> KeyValueFile::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::string KeyValueFile::to_text() const {
  std::string out;
  for (const auto& [key, value] : values_) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

}  // namespace tvp::util
