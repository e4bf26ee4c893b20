#include "tvp/trace/attack.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace tvp::trace {

const char* to_string(AttackPattern pattern) noexcept {
  switch (pattern) {
    case AttackPattern::kSingleSided: return "single-sided";
    case AttackPattern::kDoubleSided: return "double-sided";
    case AttackPattern::kMultiAggressor: return "multi-aggressor";
    case AttackPattern::kFlood: return "flood";
    case AttackPattern::kManySided: return "many-sided";
    case AttackPattern::kHalfDouble: return "half-double";
    case AttackPattern::kFuzzed: return "fuzzed";
  }
  return "?";
}

AttackSource::AttackSource(AttackConfig config)
    : cfg_(std::move(config)), now_ps_(cfg_.start_ps) {
  if (cfg_.victims.empty())
    throw std::invalid_argument("AttackSource: no victims configured");
  if (cfg_.interarrival_ps == 0)
    throw std::invalid_argument("AttackSource: zero interarrival");

  if (cfg_.pattern == AttackPattern::kManySided && cfg_.sides == 0)
    throw std::invalid_argument("AttackSource: many-sided needs sides >= 1");
  if (cfg_.pattern == AttackPattern::kHalfDouble && cfg_.far_per_near == 0)
    throw std::invalid_argument("AttackSource: half-double needs far_per_near >= 1");
  if (cfg_.pattern == AttackPattern::kFuzzed) {
    // Explicit schedule: the emission order is the schedule itself; the
    // aggressor list (for ground-truth oracles) is its distinct rows.
    if (cfg_.schedule.empty())
      throw std::invalid_argument("AttackSource: fuzzed needs a schedule");
    std::unordered_set<dram::RowId> victims(cfg_.victims.begin(),
                                            cfg_.victims.end());
    std::unordered_set<dram::RowId> seen;
    for (const auto row : cfg_.schedule) {
      if (row >= cfg_.rows_per_bank)
        throw std::invalid_argument("AttackSource: schedule row out of range");
      if (victims.count(row))
        throw std::invalid_argument(
            "AttackSource: schedule must not activate a victim");
      if (seen.insert(row).second) aggressors_.push_back(row);
    }
    for (const auto v : cfg_.victims)
      if (v >= cfg_.rows_per_bank)
        throw std::invalid_argument("AttackSource: victim out of range");
    return;
  }

  auto add = [&](std::vector<dram::RowId>& list, std::int64_t row) {
    if (row >= 0 && row < static_cast<std::int64_t>(cfg_.rows_per_bank))
      list.push_back(static_cast<dram::RowId>(row));
  };
  for (const auto v : cfg_.victims) {
    if (v >= cfg_.rows_per_bank)
      throw std::invalid_argument("AttackSource: victim out of range");
    const auto sv = static_cast<std::int64_t>(v);
    switch (cfg_.pattern) {
      case AttackPattern::kSingleSided:
        add(aggressors_, sv + 1);
        break;
      case AttackPattern::kDoubleSided:
      case AttackPattern::kMultiAggressor:
        add(aggressors_, sv - 1);
        add(aggressors_, sv + 1);
        break;
      case AttackPattern::kFlood:
        add(aggressors_, sv);  // the flooded row itself
        break;
      case AttackPattern::kManySided:
        for (std::uint32_t d = 1; d <= cfg_.sides; ++d) {
          add(aggressors_, sv - static_cast<std::int64_t>(d));
          add(aggressors_, sv + static_cast<std::int64_t>(d));
        }
        break;
      case AttackPattern::kHalfDouble:
        // Hammered far rows rotate in the main list; the near rows get
        // only occasional dribble activations.
        add(aggressors_, sv - 2);
        add(aggressors_, sv + 2);
        add(dribble_, sv - 1);
        add(dribble_, sv + 1);
        break;
      case AttackPattern::kFuzzed:
        break;  // handled above (explicit schedule, early return)
    }
  }
  // Deduplicate while keeping activation order stable; victims must
  // never be emitted as aggressors of themselves in banded patterns.
  auto dedup = [&](std::vector<dram::RowId>& list) {
    std::unordered_set<dram::RowId> seen(cfg_.victims.begin(), cfg_.victims.end());
    if (cfg_.pattern == AttackPattern::kFlood) seen.clear();
    std::vector<dram::RowId> unique;
    for (const auto a : list)
      if (seen.insert(a).second) unique.push_back(a);
    list = std::move(unique);
  };
  dedup(aggressors_);
  dedup(dribble_);
  if (aggressors_.empty())
    throw std::invalid_argument("AttackSource: no valid aggressors derived");
}

// Fuzzed patterns replay their explicit base period cyclically (their
// dribble list is empty); half-double interleaves one near-row dribble
// after every far_per_near hammering activations. The clock and the
// cursors live in locals for the whole batch, because a store into out[]
// may alias the members and would force them through memory per record.
std::size_t AttackSource::next_batch(AccessRecord* out, std::size_t max) {
  const std::vector<dram::RowId>& hammered =
      cfg_.pattern == AttackPattern::kFuzzed ? cfg_.schedule : aggressors_;
  const dram::RowId* const rows = hammered.data();
  const std::size_t row_count = hammered.size();
  const dram::RowId* const dribble = dribble_.data();
  const std::size_t dribble_count = dribble_.size();
  const std::uint64_t dribble_every = std::uint64_t{cfg_.far_per_near} + 1;
  const std::uint64_t step = cfg_.interarrival_ps;
  const std::uint64_t end = cfg_.end_ps;
  const dram::BankId bank = cfg_.bank;
  const SourceId source = cfg_.source_id;

  std::uint64_t now = now_ps_;
  std::size_t cursor = cursor_;
  std::size_t dribble_cursor = dribble_cursor_;
  std::uint64_t since_dribble = since_dribble_;
  std::size_t n = 0;
  for (; n < max; ++n) {
    now += step;
    if (now >= end) break;
    dram::RowId row;
    if (dribble_count != 0 && ++since_dribble == dribble_every) {
      since_dribble = 0;
      row = dribble[dribble_cursor];
      if (++dribble_cursor == dribble_count) dribble_cursor = 0;
    } else {
      row = rows[cursor];
      if (++cursor == row_count) cursor = 0;
    }
    out[n] = AccessRecord{now, bank, row, false, true, source};
  }
  now_ps_ = now;
  cursor_ = cursor;
  dribble_cursor_ = dribble_cursor;
  since_dribble_ = since_dribble;
  return n;
}

AttackConfig make_multi_aggressor_attack(dram::BankId bank, dram::RowId rows_per_bank,
                                         std::size_t n_victims, util::Rng& rng) {
  if (n_victims == 0)
    throw std::invalid_argument("make_multi_aggressor_attack: zero victims");
  if (rows_per_bank < 16 * n_victims)
    throw std::invalid_argument("make_multi_aggressor_attack: bank too small");

  AttackConfig cfg;
  cfg.pattern = n_victims == 1 ? AttackPattern::kDoubleSided
                               : AttackPattern::kMultiAggressor;
  cfg.bank = bank;
  cfg.rows_per_bank = rows_per_bank;

  // Partition the bank into n_victims regions and pick one victim per
  // region, away from the array edges; guarantees >= 8 rows separation.
  const dram::RowId region = rows_per_bank / static_cast<dram::RowId>(n_victims);
  for (std::size_t i = 0; i < n_victims; ++i) {
    const auto base = static_cast<dram::RowId>(i) * region;
    const dram::RowId lo = base + 4;
    const dram::RowId hi = base + region - 4;
    cfg.victims.push_back(lo + static_cast<dram::RowId>(rng.below(hi - lo)));
  }
  std::sort(cfg.victims.begin(), cfg.victims.end());
  return cfg;
}

}  // namespace tvp::trace
