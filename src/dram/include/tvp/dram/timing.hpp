// DRAM timing parameters and refresh arithmetic.
//
// Values mirror Table I of the paper: a DDR4 device with a 64 ms refresh
// window split into 8192 refresh intervals of ~7.8 us, tRC (activate to
// activate, same bank) of 45 ns and tRFC (refresh time) of 350 ns.
#pragma once

#include <cstdint>

namespace tvp::dram {

/// All times in picoseconds; the mitigation logic runs at clock_hz.
struct Timing {
  std::uint64_t clock_hz = 1'200'000'000;     // mitigation / IO clock
  std::uint64_t t_rc_ps = 45'000;             // ACT-to-ACT, same bank
  std::uint64_t t_rfc_ps = 350'000;           // refresh command duration
  std::uint64_t t_refw_ps = 64'000'000'000;   // refresh window (64 ms)
  std::uint32_t refresh_intervals = 8192;     // RefInt per window

  /// Duration of one refresh interval (tREFI) in picoseconds.
  constexpr std::uint64_t t_refi_ps() const noexcept {
    return t_refw_ps / refresh_intervals;
  }

  /// Picoseconds of one mitigation clock cycle.
  constexpr double t_ck_ps() const noexcept {
    return 1e12 / static_cast<double>(clock_hz);
  }

  /// Maximum row activations that fit into one refresh interval of one
  /// bank (the paper quotes 165 for DDR4, following TWiCe [13]).
  constexpr std::uint32_t max_acts_per_interval() const noexcept {
    return static_cast<std::uint32_t>((t_refi_ps() - t_rfc_ps) / t_rc_ps);
  }

  /// Cycle budget for the mitigation FSM loop after an ACT (must finish
  /// before the next ACT can arrive): floor(tRC / tCK). 54 for DDR4.
  constexpr std::uint32_t act_cycle_budget() const noexcept {
    return static_cast<std::uint32_t>(
        static_cast<double>(t_rc_ps) / t_ck_ps());
  }

  /// Cycle budget for the FSM loop after a REF: floor(tRFC / tCK).
  /// 420 for DDR4.
  constexpr std::uint32_t ref_cycle_budget() const noexcept {
    return static_cast<std::uint32_t>(
        static_cast<double>(t_rfc_ps) / t_ck_ps());
  }

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;

  bool operator==(const Timing&) const = default;
};

/// DDR4 timing per Table I (1.2 GHz, 64 ms / 8192 intervals).
Timing ddr4_timing() noexcept;

/// DDR3 timing for the FPGA memory-controller port discussed in
/// Section IV (320 MHz controller clock; same refresh structure).
Timing ddr3_timing() noexcept;

/// DDR5-class timing (extension; post-dates the paper): 2.4 GHz
/// mitigation clock, a 32 ms refresh window with ~3.9 us intervals, and
/// a shorter per-command refresh. The faster clock more than doubles the
/// FSM cycle budgets, which is why serial TiVaPRoMi datapaths fit DDR5
/// comfortably (see the table2_fsm_cycles bench).
Timing ddr5_timing() noexcept;

}  // namespace tvp::dram
