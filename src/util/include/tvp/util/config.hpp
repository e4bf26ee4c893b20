// Flat key/value configuration files.
//
// Format: one `key = value` per line, `#` comments, blank lines ignored.
// Keys are dotted paths (`geometry.banks`); values are free text until
// end of line (trimmed). Duplicate keys: last one wins. This is the
// storage layer for exp::config_io, which maps keys onto SimConfig.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "tvp/util/decimal.hpp"

namespace tvp::util {

class KeyValueFile {
 public:
  KeyValueFile() = default;

  /// Parses text; throws std::runtime_error with a line number on
  /// malformed lines (no '=').
  static KeyValueFile parse(const std::string& text);
  /// Reads and parses a file; throws std::runtime_error on I/O failure.
  static KeyValueFile load(const std::string& path);

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::size_t size() const noexcept { return values_.size(); }

  std::string get(const std::string& key, const std::string& fallback) const;
  /// An integer key read into @p Int: parse_decimal within [@p min,
  /// @p max], by default the whole range of @p Int. Throws
  /// std::runtime_error naming the key, the range and the value
  /// otherwise.
  template <typename Int>
  Int get_integer(const std::string& key, Int fallback,
                  Int min = std::numeric_limits<Int>::min(),
                  Int max = std::numeric_limits<Int>::max()) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    if (const auto value = parse_decimal<Int>(it->second, min, max)) return *value;
    throw std::runtime_error("config: key '" + key + "' must be an integer in [" +
                             std::to_string(min) + ", " + std::to_string(max) +
                             "], got '" + it->second + "'");
  }
  /// get_integer of a 64-bit signed integer.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    return get_integer<std::int64_t>(key, fallback);
  }
  double get_double(const std::string& key, double fallback) const;
  /// true, 1 or yes; false, 0 or no. Throws std::runtime_error naming
  /// the key and the value on anything else.
  bool get_bool(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  /// All keys, sorted (for unknown-key validation and serialisation).
  std::vector<std::string> keys() const;

  /// Serialises back to the file format (sorted keys).
  std::string to_text() const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace tvp::util
