#include "tvp/trace/synthetic.hpp"

#include <cmath>
#include <stdexcept>

namespace tvp::trace {

const char* to_string(AccessProfile profile) noexcept {
  switch (profile) {
    case AccessProfile::kStreaming: return "streaming";
    case AccessProfile::kStrided: return "strided";
    case AccessProfile::kRandom: return "random";
    case AccessProfile::kHotspot: return "hotspot";
    case AccessProfile::kPointerChase: return "pointer-chase";
  }
  return "?";
}

SyntheticSource::SyntheticSource(SyntheticConfig config, util::Rng rng)
    : cfg_(config), rng_(rng), now_ps_(static_cast<double>(config.start_ps)) {
  if (cfg_.banks == 0 || cfg_.rows_per_bank == 0)
    throw std::invalid_argument("SyntheticSource: zero banks or rows");
  if (cfg_.mean_interarrival_ps <= 0.0)
    throw std::invalid_argument("SyntheticSource: non-positive interarrival");
  if (cfg_.profile == AccessProfile::kHotspot) {
    hot_rows_.reserve(cfg_.hotspot_rows);
    for (std::uint32_t i = 0; i < cfg_.hotspot_rows; ++i)
      hot_rows_.push_back(static_cast<dram::RowId>(rng_.below(cfg_.rows_per_bank)));
  }
  cursor_ = static_cast<dram::RowId>(rng_.below(cfg_.rows_per_bank));
}

dram::RowId SyntheticSource::next_row() {
  const dram::RowId rows = cfg_.rows_per_bank;
  switch (cfg_.profile) {
    case AccessProfile::kStreaming:
      if (++cursor_ == rows) cursor_ = 0;
      return cursor_;
    case AccessProfile::kStrided:
      cursor_ = (cursor_ + cfg_.stride) % rows;
      return cursor_;
    case AccessProfile::kRandom:
      return static_cast<dram::RowId>(rng_.below(rows));
    case AccessProfile::kHotspot:
      if (!hot_rows_.empty() && rng_.bernoulli(cfg_.hotspot_bias))
        return hot_rows_[rng_.below(hot_rows_.size())];
      return static_cast<dram::RowId>(rng_.below(rows));
    case AccessProfile::kPointerChase: {
      // Random walk: jump up to +/- chase_jump rows, occasionally revisit.
      const auto jump = static_cast<std::int64_t>(
                            rng_.below(2ull * cfg_.chase_jump + 1)) -
                        static_cast<std::int64_t>(cfg_.chase_jump);
      auto pos = static_cast<std::int64_t>(cursor_) + jump;
      const auto n = static_cast<std::int64_t>(rows);
      pos = ((pos % n) + n) % n;
      cursor_ = static_cast<dram::RowId>(pos);
      return cursor_;
    }
  }
  return 0;
}

AccessRecord SyntheticSource::generate() {
  now_ps_ += rng_.exponential(cfg_.mean_interarrival_ps);
  AccessRecord rec;
  rec.time_ps = static_cast<std::uint64_t>(now_ps_);
  rec.row = next_row();
  // Round-robin with a random skip keeps banks evenly loaded without a
  // lockstep pattern. The sum stays below banks + 3, so subtracting
  // banks while it is out of range equals the modulo. The first wrap is
  // a mask, not a branch: the skip is random, so a branch would
  // mispredict often. Only banks < 3 can need the loop.
  const std::uint32_t banks = cfg_.banks;
  bank_cursor_ += 1 + static_cast<std::uint32_t>(rng_.below(3));
  bank_cursor_ -= banks & (0u - static_cast<std::uint32_t>(bank_cursor_ >= banks));
  while (bank_cursor_ >= banks) bank_cursor_ -= banks;
  rec.bank = bank_cursor_;
  rec.write = rng_.bernoulli(cfg_.write_fraction);
  rec.is_attack = false;
  rec.source = cfg_.source_id;
  return rec;
}

std::size_t SyntheticSource::next_batch(AccessRecord* out, std::size_t max) {
  for (std::size_t i = 0; i < max; ++i) out[i] = generate();
  return max;
}

std::vector<SyntheticConfig> mixed_workload(std::uint32_t banks,
                                            dram::RowId rows_per_bank,
                                            std::uint64_t t_refi_ps,
                                            double target_acts_per_interval_per_bank) {
  if (target_acts_per_interval_per_bank <= 0.0)
    throw std::invalid_argument("mixed_workload: non-positive target rate");
  // Four application streams (one per core of Table I). Shares model a
  // memory-intensive SPEC mix, which is strongly row-reuse dominated:
  // most DRAM activations revisit a small working set of rows (the
  // property the 32-entry history table exploits; see the A1 ablation).
  struct Slice {
    AccessProfile profile;
    double share;
  };
  const Slice slices[] = {
      {AccessProfile::kHotspot, 0.96},
      {AccessProfile::kPointerChase, 0.02},
      {AccessProfile::kStreaming, 0.015},
      {AccessProfile::kRandom, 0.005},
  };
  const double total_rate_per_ps =
      target_acts_per_interval_per_bank * static_cast<double>(banks) /
      static_cast<double>(t_refi_ps);

  std::vector<SyntheticConfig> configs;
  SourceId id = 0;
  for (const auto& s : slices) {
    SyntheticConfig c;
    c.profile = s.profile;
    c.banks = banks;
    c.rows_per_bank = rows_per_bank;
    c.mean_interarrival_ps = 1.0 / (total_rate_per_ps * s.share);
    c.source_id = id++;
    // Row-reuse calibration: the hot working set must fit the history
    // table (paper: 32 entries was "the best optimization" for the
    // simulated traces), and the pointer-chaser drifts slowly.
    c.hotspot_rows = 8;
    c.hotspot_bias = 0.98;
    c.chase_jump = 4;
    configs.push_back(c);
  }
  return configs;
}

}  // namespace tvp::trace
