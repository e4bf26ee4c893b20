// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the simulator (probabilistic mitigation
// decisions, workload generation, replacement policies) flows through
// tvp::util::Rng so that every experiment is reproducible from
// (configuration, seed). The generator is xoshiro256** seeded via
// SplitMix64 — fast, high quality, and trivially forkable so each
// subsystem gets an independent stream.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace tvp::util {

/// SplitMix64 step; used to expand a single 64-bit seed into a full
/// generator state (as recommended by the xoshiro authors).
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator.
///
/// Satisfies the essentials of std::uniform_random_bit_generator so it
/// can also be plugged into <random> distributions if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed. Two generators with the
  /// same seed produce identical streams.
  explicit Rng(std::uint64_t seed = 0x7ADE2021ull) noexcept { reseed(seed); }

  /// Re-initialises the state from @p seed.
  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Derives an independent generator; the child stream does not overlap
  /// with this one for any practical sequence length.
  [[nodiscard]] Rng fork() noexcept { return Rng{next() ^ 0xA5A5A5A5DEADBEEFull}; }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 64 random bits.
  result_type operator()() noexcept { return next(); }

  /// Next 64 random bits.
  result_type next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). @p bound must be nonzero.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept {
#ifdef __SIZEOF_INT128__
    // Lemire's nearly-divisionless unbiased method.
    using u128 = unsigned __int128;
    std::uint64_t x = next();
    u128 m = static_cast<u128>(x) * static_cast<u128>(bound);
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) [[unlikely]] {
      const std::uint64_t t = -bound % bound;
      while (l < t) {
        x = next();
        m = static_cast<u128>(x) * static_cast<u128>(bound);
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
#else
    // Portable fallback: rejection sampling on the top bits.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t limit = kMax - kMax % bound;
    std::uint64_t x;
    do {
      x = next();
    } while (x >= limit);
    return x % bound;
#endif
  }

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 high bits -> double mantissa.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability @p p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Hardware-style Bernoulli trial: succeeds iff a fresh 32-bit random
  /// value is strictly below @p threshold_q32, where threshold_q32 is a
  /// probability in Q0.32 fixed point. This mirrors the paper's
  /// comparison of p_r against a pseudo-random number in the FSM.
  bool bernoulli_q32(std::uint64_t threshold_q32) noexcept {
    if (threshold_q32 == 0) return false;
    if (threshold_q32 >= (1ull << 32)) return true;
    return (next() >> 32) < threshold_q32;
  }

  /// Geometric-like helper: exponentially distributed inter-arrival with
  /// mean @p mean (> 0), returned as a double.
  double exponential(double mean) noexcept {
    // Inverse-CDF; uniform() never returns 1.0 so the log argument is > 0.
    return -mean * std::log(1.0 - uniform());
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace tvp::util
