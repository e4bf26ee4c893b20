// Strict decimal integers, the one way the tools' flags and the config
// files read an integer.
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace tvp::util {

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

}  // namespace tvp::util
