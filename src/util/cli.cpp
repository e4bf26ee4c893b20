#include "tvp/util/cli.hpp"

#include <stdexcept>

namespace tvp::util {

Flags::Flags(int argc, const char* const argv[], std::set<std::string> known) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.erase(eq);
    } else {
      value = "true";  // bare boolean flag (values use --key=value)
    }
    if (known.count(name) == 0)
      throw FlagError("unknown flag: --" + name);
    values_[name] = value;
  }
}

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::string Flags::out_of_range(const std::string& name, const std::string& value,
                                bool is_signed, const std::string& min,
                                const std::string& max) {
  return "--" + name + (is_signed ? " must be an integer in [" : " must be a count in [") +
         min + ", " + max + "], got '" + value + "'";
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (const std::exception&) {
    throw FlagError("flag --" + name + " expects a number, got '" +
                    it->second + "'");
  }
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace tvp::util
