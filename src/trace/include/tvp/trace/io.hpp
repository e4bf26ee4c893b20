// External trace import.
//
// DRAMSim2/ramulator-style address traces, parsed and mapped onto
// (bank, row) records. A run never reads such a text trace directly:
// `tvp_trace import` streams the records into a corpus
// (trace/corpus.hpp), marked as carrying no oracle, and every run
// replays it from there.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "tvp/dram/geometry.hpp"
#include "tvp/trace/source.hpp"

namespace tvp::trace {

/// Streams a DRAMSim2/ramulator-style *address* trace as records, one
/// line at a time, so a trace of any length is imported in constant
/// memory: one access per line, `ADDRESS  R|W|READ|WRITE  [cycle]`,
/// '#'/';' comments. The address is 0x-prefixed hex, 0-prefixed octal or
/// decimal; the cycle is decimal. The byte addresses are mapped to
/// (bank, row) with the mapper; the optional cycle column is converted
/// to picoseconds with the clock period (accesses without a cycle are
/// spaced one period apart) and clamped to be non-decreasing. Records
/// are tagged benign.
class AddressTraceSource final : public TraceSource {
 public:
  /// Reads @p is, which must outlive the source. Throws
  /// std::runtime_error on a non-positive @p t_ck_ps.
  AddressTraceSource(std::istream& is, dram::AddressMapper mapper,
                     double t_ck_ps);

  /// Parses lines until @p max records are out or the stream ends.
  /// Throws std::runtime_error naming the line on a malformed token, a
  /// cycle whose time does not fit 64 bits, or any token after the cycle.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;

 private:
  std::istream& is_;
  dram::AddressMapper mapper_;
  double t_ck_ps_;
  std::string line_;
  std::size_t lineno_ = 0;
  std::uint64_t fallback_time_ = 0;
  std::uint64_t last_time_ = 0;
};

}  // namespace tvp::trace
