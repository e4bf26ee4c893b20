#include "tvp/trace/io.hpp"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tvp::trace {

std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper,
                                               double t_ck_ps) {
  if (t_ck_ps <= 0.0)
    throw std::runtime_error("import_address_trace: non-positive clock");
  std::vector<AccessRecord> out;
  std::string line;
  std::size_t lineno = 0;
  std::uint64_t fallback_time = 0;
  std::uint64_t last_time = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    std::istringstream ls(line);
    std::string addr_text, op;
    if (!(ls >> addr_text)) continue;  // blank line
    if (!(ls >> op))
      throw std::runtime_error("address trace: missing op at line " +
                               std::to_string(lineno));
    std::uint64_t addr = 0;
    try {
      addr = std::stoull(addr_text, nullptr, 0);  // handles 0x prefix
    } catch (const std::exception&) {
      throw std::runtime_error("address trace: bad address at line " +
                               std::to_string(lineno));
    }
    bool write = false;
    if (op == "W" || op == "WRITE" || op == "write" || op == "P_MEM_WR")
      write = true;
    else if (op != "R" && op != "READ" && op != "read" && op != "P_MEM_RD" &&
             op != "P_FETCH")
      throw std::runtime_error("address trace: bad op '" + op + "' at line " +
                               std::to_string(lineno));

    std::uint64_t cycle = 0;
    AccessRecord rec;
    if (ls >> cycle) {
      rec.time_ps = static_cast<std::uint64_t>(static_cast<double>(cycle) * t_ck_ps);
    } else {
      fallback_time += static_cast<std::uint64_t>(t_ck_ps);
      rec.time_ps = fallback_time;
    }
    // Tolerate mildly unsorted inputs by clamping monotone.
    rec.time_ps = std::max(rec.time_ps, last_time);
    last_time = rec.time_ps;

    const dram::Address coords = mapper.decode(addr);
    rec.bank = mapper.flat_bank(coords);
    rec.row = coords.row;
    rec.write = write;
    rec.is_attack = false;
    rec.source = 0;
    out.push_back(rec);
  }
  return out;
}

std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper,
                                               const dram::Timing& timing) {
  return import_address_trace(is, mapper, timing.t_ck_ps());
}

std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper) {
  return import_address_trace(is, mapper, dram::ddr4_timing());
}

}  // namespace tvp::trace
