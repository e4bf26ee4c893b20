// External trace import.
//
// The one way a trace recorded elsewhere enters: DRAMSim2/ramulator-
// style address traces, mapped onto (bank, row) records. This library's
// own recordings use the corpus format (".tvpc", trace/corpus.hpp).
#pragma once

#include <iosfwd>
#include <vector>

#include "tvp/dram/geometry.hpp"
#include "tvp/dram/timing.hpp"
#include "tvp/trace/record.hpp"

namespace tvp::trace {

/// Imports a DRAMSim2/ramulator-style *address* trace: one access per
/// line, `0xADDRESS  R|W|READ|WRITE  [cycle]`, '#'/';' comments. The
/// byte addresses are mapped to (bank, row) with @p mapper; the optional
/// cycle column is converted to picoseconds with @p t_ck_ps (accesses
/// without a cycle are spaced @p t_ck_ps apart). Records are tagged
/// benign; throws std::runtime_error with a line number on bad input.
std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper,
                                               double t_ck_ps);

/// Same, with the clock period taken from @p timing (timing.t_ck_ps()).
std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper,
                                               const dram::Timing& timing);

/// Default clock: the DDR4 preset's period (dram::ddr4_timing()), the
/// same timing every SimConfig starts from — not a hardcoded constant.
std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper);

}  // namespace tvp::trace
