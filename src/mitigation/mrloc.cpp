#include "tvp/mitigation/mrloc.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#include "tvp/util/bitutil.hpp"
#include "tvp/util/scan.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace tvp::mitigation {

#if defined(__SSE2__)
namespace {

// A lane once the queue holds all of its 16 default entries: the queue
// lives in four SSE2 registers (register i holds entries 4i to 4i + 3,
// oldest first) for the whole lane, and @p queue and @p state are stored
// back once. A victim's lookup is four compares. A hit draws first, as
// in observe_victim, and then every entry from the victim's depth on
// takes the next entry's value and entry 15 takes the victim; a miss does
// the same from depth 0, which evicts the oldest. So the actions, the
// queue and the generator end as the queue in memory leaves them
// (MrLocKernel.MatchesNaiveReferenceOnLanes).
void full_queue_lane(dram::RowId* queue, const std::uint64_t* lut, util::Rng& state,
                     dram::RowId rows_per_bank, const dram::RowId* rows,
                     std::size_t n, mem::ActionBuffer& out) {
  __m128i* const stored = reinterpret_cast<__m128i*>(queue);
  __m128i q0 = _mm_loadu_si128(stored);
  __m128i q1 = _mm_loadu_si128(stored + 1);
  __m128i q2 = _mm_loadu_si128(stored + 2);
  __m128i q3 = _mm_loadu_si128(stored + 3);
  const __m128i depth0 = _mm_setr_epi32(0, 1, 2, 3);
  const __m128i depth1 = _mm_setr_epi32(4, 5, 6, 7);
  const __m128i depth2 = _mm_setr_epi32(8, 9, 10, 11);
  const __m128i depth3 = _mm_setr_epi32(12, 13, 14, 15);
  util::Rng rng = state;
  const auto observe = [&](dram::RowId victim, dram::RowId aggressor) {
    const __m128i key = _mm_set1_epi32(static_cast<int>(victim));
    const auto match = [&](__m128i q) {
      return static_cast<unsigned>(
          _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(q, key))));
    };
    const unsigned found = match(q0) | match(q1) << 4 | match(q2) << 8 | match(q3) << 12;
    int depth = 0;
    if (found != 0) {
      depth = __builtin_ctz(found);
      if (rng.bernoulli_q32(lut[depth])) {
        mem::MitigationAction action;
        action.kind = mem::MitigationAction::Kind::kActRow;
        action.row = victim;
        action.suspect = aggressor;
        out.push_back(action);
      }
    }
    // The queue moved on by one entry, the victim entering as entry 15...
    const __m128i next0 = _mm_or_si128(_mm_srli_si128(q0, 4), _mm_slli_si128(q1, 12));
    const __m128i next1 = _mm_or_si128(_mm_srli_si128(q1, 4), _mm_slli_si128(q2, 12));
    const __m128i next2 = _mm_or_si128(_mm_srli_si128(q2, 4), _mm_slli_si128(q3, 12));
    const __m128i next3 =
        _mm_or_si128(_mm_srli_si128(q3, 4),
                     _mm_slli_si128(_mm_cvtsi32_si128(static_cast<int>(victim)), 12));
    // ...taken by the entries from the victim's depth on.
    const __m128i below = _mm_set1_epi32(depth - 1);
    const auto blend = [&](__m128i q, __m128i next, __m128i depths) {
      const __m128i moved = _mm_cmpgt_epi32(depths, below);
      return _mm_or_si128(_mm_and_si128(moved, next), _mm_andnot_si128(moved, q));
    };
    q0 = blend(q0, next0, depth0);
    q1 = blend(q1, next1, depth1);
    q2 = blend(q2, next2, depth2);
    q3 = blend(q3, next3, depth3);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.size();
    const dram::RowId row = rows[i];
    if (row > 0) observe(row - 1, row);
    if (row + 1 < rows_per_bank) observe(row + 1, row);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
  _mm_storeu_si128(stored, q0);
  _mm_storeu_si128(stored + 1, q1);
  _mm_storeu_si128(stored + 2, q2);
  _mm_storeu_si128(stored + 3, q3);
  state = rng;
}

}  // namespace
#endif

MrLoc::MrLoc(MrLocConfig config, util::Rng rng) : cfg_(config), rng_(rng) {
  if (cfg_.queue_entries == 0)
    throw std::invalid_argument("MrLoc: zero queue capacity");
  if (cfg_.rows_per_bank == 0)
    throw std::invalid_argument("MrLoc: zero rows_per_bank");
  if (cfg_.p_max < cfg_.p_min)
    throw std::invalid_argument("MrLoc: p_max below p_min");
  queue_.reserve(cfg_.queue_entries);
  full_lut_.resize(cfg_.queue_entries);
  for (std::size_t d = 0; d < cfg_.queue_entries; ++d)
    full_lut_[d] = raw_probability(d, cfg_.queue_entries);
}

std::uint64_t MrLoc::raw_probability(std::size_t depth,
                                     std::size_t size) const {
  // Recency-weighted: depth 0 = oldest gets p_min, depth size-1 = newest
  // gets p_max, ramping linearly. A single-entry queue is both oldest
  // and newest at once — the ramp degenerates to its midpoint
  // (p_min + p_max) / 2, the limit of the ramp's mean. (Assigning the
  // sole entry the full p_max — the old behaviour — double-counted its
  // recency: one hit in a cold queue was treated as the strongest
  // locality signal the technique can express.)
  const std::uint64_t span = cfg_.p_max.raw() - cfg_.p_min.raw();
  return cfg_.p_min.raw() +
         (size > 1 ? span * depth / (size - 1) : span / 2);
}

util::FixedProb MrLoc::probability_at(std::size_t depth) const {
  if (depth >= queue_.size())
    throw std::out_of_range("MrLoc::probability_at");
  return util::FixedProb::from_raw(
      static_cast<std::uint32_t>(raw_probability(depth, queue_.size())));
}

void MrLoc::observe_victim(dram::RowId victim, dram::RowId aggressor,
                           mem::ActionBuffer& out) {
  const std::size_t n = queue_.size();
  dram::RowId* const q = queue_.data();
  const std::size_t depth = util::find_u32(q, n, victim);
  if (depth != n) {
    const std::uint64_t raw = n == cfg_.queue_entries
                                  ? full_lut_[depth]
                                  : raw_probability(depth, n);
    if (rng_.bernoulli_q32(raw)) {
      mem::MitigationAction action;
      action.kind = mem::MitigationAction::Kind::kActRow;
      action.row = victim;
      action.suspect = aggressor;
      out.push_back(action);
    }
    // Re-insert at the most recent position.
    std::memmove(q + depth, q + depth + 1,
                 (n - 1 - depth) * sizeof(dram::RowId));
    q[n - 1] = victim;
  } else if (n == cfg_.queue_entries) {
    // Full and missing: evict the oldest.
    std::memmove(q, q + 1, (n - 1) * sizeof(dram::RowId));
    q[n - 1] = victim;
  } else {
    queue_.push_back(victim);
  }
}

void MrLoc::on_activates(const dram::RowId* rows, std::size_t n,
                         const mem::MitigationContext&,
                         mem::ActionBuffer& out) {
#if defined(__SSE2__)
  if (cfg_.queue_entries == 16 && queue_.size() == 16) {
    full_queue_lane(queue_.data(), full_lut_.data(), rng_, cfg_.rows_per_bank,
                    rows, n, out);
    return;
  }
#endif
  // Other queue sizes, a queue still filling and targets without SSE2:
  // the queue in memory, one victim at a time.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t before = out.size();
    const dram::RowId row = rows[i];
    if (row > 0) observe_victim(row - 1, row, out);
    if (row + 1 < cfg_.rows_per_bank) observe_victim(row + 1, row, out);
    out.stamp_origin(before, static_cast<std::uint32_t>(i));
  }
}

std::uint64_t MrLoc::state_bits() const noexcept {
  return cfg_.queue_entries * (util::bits_for(cfg_.rows_per_bank) + 1);
}

mem::BankMitigationFactory make_mrloc_factory(MrLocConfig config) {
  return [config](dram::BankId, util::Rng rng) -> std::unique_ptr<mem::IBankMitigation> {
    return std::make_unique<MrLoc>(config, rng);
  };
}

}  // namespace tvp::mitigation
