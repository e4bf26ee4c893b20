// External trace import.
//
// DRAMSim2/ramulator-style address traces, parsed and mapped onto
// (bank, row) records. A run never reads such a text trace directly:
// `tvp_trace import` writes the records as a corpus (trace/corpus.hpp),
// marked as carrying no oracle, and every run replays it from there.
#pragma once

#include <iosfwd>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/trace/record.hpp"

namespace tvp::trace {

/// Imports a DRAMSim2/ramulator-style *address* trace: one access per
/// line, `ADDRESS  R|W|READ|WRITE  [cycle]`, '#'/';' comments. The
/// address is 0x-prefixed hex, 0-prefixed octal or decimal; the cycle is
/// decimal. The byte addresses are mapped to (bank, row) with @p mapper;
/// the optional cycle column is converted to picoseconds with @p t_ck_ps
/// (accesses without a cycle are spaced @p t_ck_ps apart) and clamped to
/// be non-decreasing. Records are tagged benign. Throws
/// std::runtime_error naming the line on a malformed token, a cycle
/// whose time does not fit 64 bits, or any token after the cycle.
std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper,
                                               double t_ck_ps);

}  // namespace tvp::trace
