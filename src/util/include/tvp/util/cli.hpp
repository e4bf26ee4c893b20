// Tiny command-line flag parser for the example tools.
//
// Accepts `--key=value` and boolean `--flag`; positional arguments are
// collected in order. Typed getters with defaults; unknown flags are an
// error so typos do not silently change an experiment, and so is an
// integer flag that is not a plain decimal number of its type.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace tvp::util {

/// A usage error: an unknown flag, or a value its getter cannot read.
/// The tools exit 2 on it.
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// @p text as a decimal integer of type @p Int in [@p min, @p max]: the
/// whole text, digits with a leading '-' only for a signed @p Int. No
/// '+', no base prefix, no blanks and no trailing text; a leading zero
/// is a decimal digit. Nothing when the text is anything else.
template <typename Int>
std::optional<Int> parse_decimal(std::string_view text,
                                 Int min = std::numeric_limits<Int>::min(),
                                 Int max = std::numeric_limits<Int>::max()) {
  Int value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max)
    return std::nullopt;
  return value;
}

class Flags {
 public:
  /// Parses argv; @p known lists every accepted flag name (without the
  /// leading dashes). Throws FlagError on unknown flags.
  Flags(int argc, const char* const argv[], std::set<std::string> known);

  bool has(const std::string& name) const { return values_.count(name) != 0; }

  std::string get(const std::string& name, const std::string& fallback) const;
  /// An integer flag read into @p Int: parse_decimal within [@p min,
  /// @p max], by default the whole range of @p Int. Throws FlagError
  /// naming the flag, the range and the value otherwise.
  template <typename Int>
  Int get_integer(const std::string& name, Int fallback,
                  Int min = std::numeric_limits<Int>::min(),
                  Int max = std::numeric_limits<Int>::max()) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    if (const auto value = parse_decimal<Int>(it->second, min, max)) return *value;
    throw FlagError(out_of_range(name, it->second, std::is_signed_v<Int>,
                                 std::to_string(min), std::to_string(max)));
  }
  /// get_integer of a 64-bit signed integer.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const {
    return get_integer<std::int64_t>(name, fallback);
  }
  double get_double(const std::string& name, double fallback) const;
  /// Boolean flags: present without value (or =true/=1) -> true.
  bool get_bool(const std::string& name, bool fallback = false) const;

  const std::vector<std::string>& positional() const noexcept { return positional_; }

 private:
  /// "--name must be a count|an integer in [min, max], got 'value'".
  static std::string out_of_range(const std::string& name,
                                  const std::string& value, bool is_signed,
                                  const std::string& min,
                                  const std::string& max);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace tvp::util
