#include "tvp/exp/verdict.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tvp/core/weighting.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::exp {

FloodMeasurement measure_flood(hw::Technique technique,
                               const TechniqueConfig& config,
                               const FloodOptions& options) {
  if (options.trials == 0 || options.acts_per_interval == 0)
    throw std::invalid_argument("measure_flood: zero trials or rate");
  const auto factory = make_factory(technique, config);
  const std::uint32_t ref_int = config.params.refresh_intervals;
  const dram::RowId rpi = config.params.rows_per_bank / ref_int;

  FloodMeasurement m;
  m.technique = std::string(hw::to_string(technique));
  m.trials = options.trials;
  std::uint32_t late = 0;

  util::Rng seed_rng(options.seed);
  for (std::uint32_t trial = 0; trial < options.trials; ++trial) {
    util::Rng rng = seed_rng.fork();
    auto bank = factory(0, rng.fork());

    // Phase-aligned: hammer a row of slot 1, starting right after it was
    // refreshed (weight 0 — the attacker knows the weights mapping).
    // Random phase: a blind attacker starts anywhere in the window.
    const dram::RowId row = rpi;  // slot f_r = 1
    std::uint32_t interval =
        options.phase_aligned
            ? 1u
            : static_cast<std::uint32_t>(rng.below(ref_int));

    mem::ActionBuffer actions;
    std::uint64_t acts = 0;
    std::uint64_t first_response = 0;

    while (acts < options.act_budget && first_response == 0) {
      mem::MitigationContext ctx;
      ctx.interval_in_window = interval;
      ctx.global_interval = interval;
      ctx.window_start = interval == 0;

      actions.clear();
      bank->on_refresh(ctx, actions);
      if (!actions.empty() && acts > 0) {
        first_response = acts;
        break;
      }
      for (std::uint32_t k = 0; k < options.acts_per_interval; ++k) {
        actions.clear();
        bank->on_activates(&row, 1, ctx, actions);
        ++acts;
        if (!actions.empty()) {
          first_response = acts;
          break;
        }
      }
      interval = (interval + 1) % ref_int;
    }

    if (first_response == 0) {
      ++m.no_response;
      ++late;
    } else {
      m.first_response_acts.add(static_cast<double>(first_response));
      m.distribution.add(static_cast<double>(first_response));
      if (first_response > config.flip_threshold / 2) ++late;
    }
  }
  m.late_fraction = static_cast<double>(late) / options.trials;
  return m;
}

namespace {

/// Forward Markov model of ProHit's insert -> promote -> refresh
/// pipeline for a single victim under a sustained flood (no competing
/// traffic). States: untracked, cold, hot positions (0 = top).
std::vector<double> prohit_schedule(const TechniqueConfig& config,
                                    std::uint64_t acts,
                                    std::uint32_t acts_per_interval) {
  const double q_insert = std::ldexp(1.0, -static_cast<int>(config.prohit_insert_exp));
  const double q_promote =
      std::ldexp(1.0, -static_cast<int>(config.prohit_promote_exp));
  const std::size_t hot = config.params.prohit_hot;

  // State vector kept *conditional on not yet saved* (sums to 1), which
  // stays numerically stable over arbitrarily long schedules.
  double untracked = 1.0, cold = 0.0;
  std::vector<double> hot_pos(hot, 0.0);  // hot_pos[0] = top

  std::vector<double> schedule(acts, 0.0);
  for (std::uint64_t n = 0; n < acts; ++n) {
    // Per-act transitions (victim observed on every aggressor ACT).
    for (std::size_t j = 0; j + 1 < hot; ++j) {
      const double up = hot_pos[j + 1] * q_promote;
      hot_pos[j] += up;
      hot_pos[j + 1] -= up;
    }
    const double to_hot = cold * q_promote;
    cold -= to_hot;
    hot_pos[hot - 1] += to_hot;
    const double to_cold = untracked * q_insert;
    untracked -= to_cold;
    cold += to_cold;

    // Interval boundary: the hot-table top is refreshed (saved).
    if ((n + 1) % acts_per_interval == 0) {
      const double hazard = hot_pos[0];
      schedule[n] = hazard;
      if (hazard < 1.0) {
        hot_pos[0] = 0.0;
        const double renorm = 1.0 / (1.0 - hazard);
        untracked *= renorm;
        cold *= renorm;
        for (auto& h : hot_pos) h *= renorm;
      }
    }
  }
  return schedule;
}

}  // namespace

std::vector<double> victim_save_schedule(hw::Technique technique,
                                         const TechniqueConfig& config,
                                         std::uint64_t acts,
                                         std::uint32_t acts_per_interval) {
  std::vector<double> schedule(acts, 0.0);
  const double pbase = std::ldexp(1.0, -static_cast<int>(config.pbase_exp));
  const std::uint32_t ref_int = config.params.refresh_intervals;

  switch (technique) {
    case hw::Technique::kPara:
      // Victim-specific: trigger w.p. p, right side w.p. 1/2.
      std::fill(schedule.begin(), schedule.end(), config.para_p / 2.0);
      break;
    case hw::Technique::kMrLoc:
      // Sustained attack keeps the victim at maximum queue recency.
      std::fill(schedule.begin(), schedule.end(), config.mrloc_p_max);
      break;
    case hw::Technique::kProHit:
      return prohit_schedule(config, acts, acts_per_interval);
    case hw::Technique::kTwice:
    case hw::Technique::kCra: {
      // Deterministic: neighbours refreshed exactly at the counter
      // threshold (TWiCe never prunes a 165-per-interval hammer).
      const std::uint64_t at = config.counter_threshold();
      for (std::uint64_t n = at; n < acts; n += at) schedule[n - 1] = 1.0;
      break;
    }
    case hw::Technique::kLiPRoMi:
    case hw::Technique::kLoPRoMi:
    case hw::Technique::kLoLiPRoMi:
      for (std::uint64_t n = 0; n < acts; ++n) {
        const auto k = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(n / acts_per_interval, ref_int - 1));
        const std::uint32_t w = technique == hw::Technique::kLiPRoMi
                                    ? k
                                    : core::log_weight(k);
        schedule[n] = std::min(1.0, w * pbase);
      }
      break;
    case hw::Technique::kCaPRoMi:
      // Decisions only at interval boundaries: p = cnt * w_log * Pbase.
      for (std::uint64_t n = acts_per_interval; n <= acts;
           n += acts_per_interval) {
        const auto k = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(n / acts_per_interval, ref_int - 1));
        schedule[n - 1] =
            std::min(1.0, double(acts_per_interval) * core::log_weight(k) * pbase);
      }
      break;
  }
  return schedule;
}

SecurityVerdict security_verdict(hw::Technique technique,
                                 const TechniqueConfig& config,
                                 bool flips_observed) {
  SecurityVerdict v;
  v.technique = std::string(hw::to_string(technique));
  v.flips_observed = flips_observed;

  const std::uint64_t horizon = config.flip_threshold;
  const auto schedule = victim_save_schedule(technique, config, horizon);

  double log_miss = 0.0;
  for (const double h : schedule)
    log_miss += h >= 1.0 ? -1e9 : std::log1p(-h);
  v.p_miss = std::exp(log_miss);

  // Hazard escalation: average save probability late in the attack
  // versus at its very start (before any tracking state warms up). A
  // static-probability technique stays flat; everything that accumulates
  // evidence about the aggressor escalates.
  const std::uint64_t early_end = std::min<std::uint64_t>(330, horizon / 8);
  const std::uint64_t late_begin = horizon / 2;
  double early = 0.0, late_sum = 0.0;
  for (std::uint64_t n = 0; n < early_end; ++n) early += schedule[n];
  for (std::uint64_t n = late_begin; n < horizon; ++n) late_sum += schedule[n];
  const double early_avg = early / static_cast<double>(early_end);
  const double late_avg =
      late_sum / static_cast<double>(horizon - late_begin);
  v.escalation = early_avg > 0.0 ? late_avg / early_avg
                                 : (late_avg > 0.0 ? 1e9 : 1.0);

  if (flips_observed) {
    v.vulnerable = true;
    v.reason = "bit flips observed in attack campaigns";
  } else if (v.escalation < kEscalationThreshold) {
    v.vulnerable = true;
    v.reason = "static probability: response never escalates under attack";
  } else if (v.p_miss > kMissProbThreshold) {
    v.vulnerable = true;
    v.reason = "non-negligible worst-case miss probability (slow ramp)";
  } else {
    v.vulnerable = false;
    v.reason = "escalating response, negligible miss probability";
  }
  return v;
}

}  // namespace tvp::exp
