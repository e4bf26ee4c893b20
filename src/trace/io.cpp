#include "tvp/trace/io.hpp"

#include <algorithm>
#include <charconv>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace tvp::trace {

namespace {

// All of @p text as an unsigned integer in @p base (0: a C literal, 0x
// hex or 0 octal): no sign, no stray character, nothing past 64 bits.
std::optional<std::uint64_t> parse_u64(std::string_view text, int base) {
  if (base == 0 && text.size() > 1 && text[0] == '0') {
    const bool hex = text[1] == 'x' || text[1] == 'X';
    return parse_u64(text.substr(hex ? 2 : 1), hex ? 16 : 8);
  }
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, value, base == 0 ? 10 : base);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

// The line number leads, so a NUL echoed in @p what cannot hide it.
[[noreturn]] void bad_line(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("address trace line " + std::to_string(lineno) +
                           ": " + what);
}

}  // namespace

AddressTraceSource::AddressTraceSource(std::istream& is,
                                       dram::AddressMapper mapper,
                                       double t_ck_ps)
    : is_(is), mapper_(std::move(mapper)), t_ck_ps_(t_ck_ps) {
  if (!(t_ck_ps > 0.0))
    throw std::runtime_error("AddressTraceSource: non-positive clock");
}

std::size_t AddressTraceSource::next_batch(AccessRecord* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max && std::getline(is_, line_)) {
    const std::size_t lineno = ++lineno_;
    const auto comment = line_.find_first_of("#;");
    if (comment != std::string::npos) line_.erase(comment);
    std::istringstream ls(line_);
    std::string addr_text, op, cycle_text, extra;
    if (!(ls >> addr_text)) continue;  // blank line
    if (!(ls >> op)) bad_line(lineno, "missing op");
    const auto addr = parse_u64(addr_text, 0);
    if (!addr) bad_line(lineno, "bad address '" + addr_text + "'");
    bool write = false;
    if (op == "W" || op == "WRITE" || op == "write" || op == "P_MEM_WR")
      write = true;
    else if (op != "R" && op != "READ" && op != "read" && op != "P_MEM_RD" &&
             op != "P_FETCH")
      bad_line(lineno, "bad op '" + op + "'");

    AccessRecord rec;
    if (ls >> cycle_text) {
      const auto cycle = parse_u64(cycle_text, 10);
      if (!cycle) bad_line(lineno, "bad cycle '" + cycle_text + "'");
      // Below 2^64 ps, or the conversion is undefined.
      const double time = static_cast<double>(*cycle) * t_ck_ps_;
      if (!(time < 18446744073709551616.0))
        bad_line(lineno, "cycle " + cycle_text + " is past the picosecond range");
      rec.time_ps = static_cast<std::uint64_t>(time);
      if (ls >> extra) bad_line(lineno, "unexpected '" + extra + "' after the cycle");
    } else {
      fallback_time_ += static_cast<std::uint64_t>(t_ck_ps_);
      rec.time_ps = fallback_time_;
    }
    // Tolerate mildly unsorted inputs by clamping monotone.
    rec.time_ps = std::max(rec.time_ps, last_time_);
    last_time_ = rec.time_ps;

    const dram::Address coords = mapper_.decode(*addr);
    rec.bank = mapper_.flat_bank(coords);
    rec.row = coords.row;
    rec.write = write;
    rec.is_attack = false;
    rec.source = 0;
    out[n++] = rec;
  }
  return n;
}

}  // namespace tvp::trace
