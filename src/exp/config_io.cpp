#include "tvp/exp/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <set>
#include <stdexcept>

namespace tvp::exp {

namespace {

const std::set<std::string>& known_keys() {
  static const std::set<std::string> keys = {
      "geometry.banks", "geometry.rows_per_bank", "timing.preset", "windows",
      "seed", "refresh.policy", "remap.rows", "remap.swaps", "act_n.radius",
      "disturbance.flip_threshold", "disturbance.blast_radius",
      "disturbance.distance2_weight_q8", "disturbance.variation_pct",
      "workload.benign_rate",
      "workload.model", "workload.trace",
      "fuzz.seed", "fuzz.patterns", "fuzz.rate", "fuzz.pairs_min",
      "fuzz.pairs_max", "fuzz.period_exp_min", "fuzz.period_exp_max",
      "fuzz.amplitude_max", "fuzz.decoys_max", "fuzz.half_double",
      "technique.pbase_exp", "technique.history_entries",
      "technique.counter_entries", "technique.para_p", "technique.mrloc_p_min",
      "technique.mrloc_p_max", "technique.twice_entries",
      "technique.capromi_cooldown", "attack.count",
  };
  return keys;
}

bool is_attack_key(const std::string& key) {
  return key.rfind("attack.", 0) == 0 && key != "attack.count";
}

struct TimingPreset {
  const char* name;
  dram::Timing (*timing)() noexcept;
};
constexpr TimingPreset kTimingPresets[] = {
    {"ddr4", dram::ddr4_timing},
    {"ddr3", dram::ddr3_timing},
    {"ddr5", dram::ddr5_timing},
};

/// The shortest text that std::stod reads back as exactly @p value.
std::string exact(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

// apply_config truncates t_refi / rate and start_frac * t_refw to
// integers. These pick the value it reads back as exactly @p target:
// the plain ratio when it survives the rounding, else the ratio for
// target + 0.5, which the rounding cannot push out of [target, target+1).
double rate_for(std::uint64_t target, double t_refi) {
  const double plain = t_refi / static_cast<double>(target);
  if (static_cast<std::uint64_t>(t_refi / plain) == target) return plain;
  return t_refi / (static_cast<double>(target) + 0.5);
}

double start_frac_for(std::uint64_t target, double t_refw) {
  const double plain = static_cast<double>(target) / t_refw;
  if (static_cast<std::uint64_t>(plain * t_refw) == target) return plain;
  return (static_cast<double>(target) + 0.5) / t_refw;
}

trace::AttackPattern parse_pattern(const std::string& name) {
  if (name == "single") return trace::AttackPattern::kSingleSided;
  if (name == "double") return trace::AttackPattern::kDoubleSided;
  if (name == "multi") return trace::AttackPattern::kMultiAggressor;
  if (name == "flood") return trace::AttackPattern::kFlood;
  if (name == "many-sided") return trace::AttackPattern::kManySided;
  if (name == "half-double") return trace::AttackPattern::kHalfDouble;
  throw std::invalid_argument("config: unknown attack pattern '" + name + "'");
}

const char* pattern_name(trace::AttackPattern pattern) {
  switch (pattern) {
    case trace::AttackPattern::kSingleSided: return "single";
    case trace::AttackPattern::kDoubleSided: return "double";
    case trace::AttackPattern::kMultiAggressor: return "multi";
    case trace::AttackPattern::kFlood: return "flood";
    case trace::AttackPattern::kManySided: return "many-sided";
    case trace::AttackPattern::kHalfDouble: return "half-double";
    // kFuzzed never round-trips through attack.<i>.* (its schedule is
    // derived, not serialised) — fuzz workloads use the fuzz.* keys.
    case trace::AttackPattern::kFuzzed: return "fuzzed";
  }
  return "double";
}

}  // namespace

dram::RefreshPolicy parse_policy(const std::string& name) {
  if (name == "seq" || name == "neighbor") return dram::RefreshPolicy::kNeighborSequential;
  if (name == "remap") return dram::RefreshPolicy::kNeighborRemapped;
  if (name == "random") return dram::RefreshPolicy::kRandom;
  if (name == "mask") return dram::RefreshPolicy::kCounterMask;
  throw std::invalid_argument("config: unknown refresh.policy '" + name + "'");
}

BenignModel parse_model(const std::string& name) {
  if (name == "mixed") return BenignModel::kMixedSynthetic;
  if (name == "cache") return BenignModel::kCacheFrontend;
  if (name == "uniform") return BenignModel::kUniformRandom;
  if (name == "replay") return BenignModel::kReplay;
  if (name == "fuzz") return BenignModel::kFuzz;
  throw std::invalid_argument("config: unknown workload.model '" + name + "'");
}

void apply_config(SimConfig& config, const util::KeyValueFile& file) {
  for (const auto& key : file.keys()) {
    if (known_keys().count(key) == 0 && !is_attack_key(key))
      throw std::invalid_argument("config: unknown key '" + key + "'");
  }

  config.geometry.banks_per_rank = static_cast<std::uint32_t>(
      file.get_int("geometry.banks", config.geometry.banks_per_rank));
  config.geometry.rows_per_bank = static_cast<std::uint32_t>(
      file.get_int("geometry.rows_per_bank", config.geometry.rows_per_bank));

  const std::string preset = file.get("timing.preset", "ddr4");
  const auto known = std::find_if(
      std::begin(kTimingPresets), std::end(kTimingPresets),
      [&](const TimingPreset& p) { return preset == p.name; });
  if (known == std::end(kTimingPresets))
    throw std::invalid_argument("config: unknown timing.preset '" + preset + "'");
  config.timing = known->timing();

  config.windows =
      static_cast<std::uint32_t>(file.get_int("windows", config.windows));
  config.seed = static_cast<std::uint64_t>(file.get_int("seed",
                                                        static_cast<std::int64_t>(config.seed)));
  if (file.has("refresh.policy"))
    config.refresh_policy = parse_policy(file.get("refresh.policy", ""));
  config.remap_rows = file.get_bool("remap.rows", config.remap_rows);
  config.remap_swaps = static_cast<std::size_t>(
      file.get_int("remap.swaps", static_cast<std::int64_t>(config.remap_swaps)));
  config.act_n_radius = static_cast<std::uint32_t>(
      file.get_int("act_n.radius", config.act_n_radius));

  config.disturbance.flip_threshold = static_cast<std::uint32_t>(
      file.get_int("disturbance.flip_threshold", config.disturbance.flip_threshold));
  config.technique.flip_threshold = config.disturbance.flip_threshold;
  config.disturbance.blast_radius = static_cast<std::uint32_t>(
      file.get_int("disturbance.blast_radius", config.disturbance.blast_radius));
  config.disturbance.distance2_weight_q8 = static_cast<std::uint32_t>(
      file.get_int("disturbance.distance2_weight_q8",
                   config.disturbance.distance2_weight_q8));
  config.disturbance.variation_pct = static_cast<std::uint32_t>(
      file.get_int("disturbance.variation_pct",
                   config.disturbance.variation_pct));

  config.workload.benign_acts_per_interval_per_bank = file.get_double(
      "workload.benign_rate", config.workload.benign_acts_per_interval_per_bank);
  if (file.has("workload.model"))
    config.workload.model = parse_model(file.get("workload.model", ""));
  config.workload.trace_path =
      file.get("workload.trace", config.workload.trace_path);

  // Fuzzed-attack layer (workload.model = fuzz). fuzz.seed is an
  // ordinary config key, so run_param_sweep over "fuzz.seed" sweeps
  // fuzzer seeds like any other parameter.
  auto& fuzz = config.workload.fuzz;
  fuzz.seed = static_cast<std::uint64_t>(
      file.get_int("fuzz.seed", static_cast<std::int64_t>(fuzz.seed)));
  fuzz.patterns =
      static_cast<std::uint32_t>(file.get_int("fuzz.patterns", fuzz.patterns));
  fuzz.acts_per_interval = file.get_double("fuzz.rate", fuzz.acts_per_interval);
  fuzz.params.pairs_min = static_cast<std::uint32_t>(
      file.get_int("fuzz.pairs_min", fuzz.params.pairs_min));
  fuzz.params.pairs_max = static_cast<std::uint32_t>(
      file.get_int("fuzz.pairs_max", fuzz.params.pairs_max));
  fuzz.params.period_exp_min = static_cast<std::uint32_t>(
      file.get_int("fuzz.period_exp_min", fuzz.params.period_exp_min));
  fuzz.params.period_exp_max = static_cast<std::uint32_t>(
      file.get_int("fuzz.period_exp_max", fuzz.params.period_exp_max));
  fuzz.params.amplitude_max = static_cast<std::uint32_t>(
      file.get_int("fuzz.amplitude_max", fuzz.params.amplitude_max));
  fuzz.params.decoys_max = static_cast<std::uint32_t>(
      file.get_int("fuzz.decoys_max", fuzz.params.decoys_max));
  fuzz.params.half_double =
      file.get_bool("fuzz.half_double", fuzz.params.half_double);

  config.technique.pbase_exp = static_cast<unsigned>(
      file.get_int("technique.pbase_exp", config.technique.pbase_exp));
  config.technique.params.history_entries = static_cast<std::uint32_t>(
      file.get_int("technique.history_entries",
                   config.technique.params.history_entries));
  config.technique.params.counter_entries = static_cast<std::uint32_t>(
      file.get_int("technique.counter_entries",
                   config.technique.params.counter_entries));
  config.technique.params.twice_entries = static_cast<std::uint32_t>(
      file.get_int("technique.twice_entries",
                   config.technique.params.twice_entries));
  config.technique.para_p =
      file.get_double("technique.para_p", config.technique.para_p);
  config.technique.mrloc_p_min =
      file.get_double("technique.mrloc_p_min", config.technique.mrloc_p_min);
  config.technique.mrloc_p_max =
      file.get_double("technique.mrloc_p_max", config.technique.mrloc_p_max);
  config.technique.capromi_cooldown = static_cast<std::uint32_t>(
      file.get_int("technique.capromi_cooldown",
                   config.technique.capromi_cooldown));

  // Attacks: attack.count = N, then attack.<i>.{pattern,bank,victims,
  // rate,start_frac,sides,far_per_near}. `victims` is either an explicit
  // comma-separated row list or a count prefixed with '~' (random,
  // well-separated, derived from the seed).
  config.workload.attacks.clear();
  const auto count = file.get_int("attack.count", 0);
  util::Rng rng(config.seed ^ 0xC0F16ull);
  for (std::int64_t i = 0; i < count; ++i) {
    const std::string prefix = "attack." + std::to_string(i) + ".";
    trace::AttackConfig attack;
    attack.rows_per_bank = config.geometry.rows_per_bank;
    attack.bank = static_cast<dram::BankId>(file.get_int(prefix + "bank", 0));
    attack.pattern = parse_pattern(file.get(prefix + "pattern", "double"));
    attack.sides =
        static_cast<std::uint32_t>(file.get_int(prefix + "sides", attack.sides));
    attack.far_per_near = static_cast<std::uint32_t>(
        file.get_int(prefix + "far_per_near", attack.far_per_near));

    const std::string victims = file.get(prefix + "victims", "~1");
    if (!victims.empty() && victims[0] == '~') {
      const auto n = std::stoul(victims.substr(1));
      auto generated = trace::make_multi_aggressor_attack(
          attack.bank, config.geometry.rows_per_bank, n, rng);
      attack.victims = generated.victims;
    } else {
      std::size_t pos = 0;
      while (pos < victims.size()) {
        const auto comma = victims.find(',', pos);
        const std::string token = victims.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        attack.victims.push_back(static_cast<dram::RowId>(std::stoul(token)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    const double rate = file.get_double(prefix + "rate", 24.0);
    if (rate <= 0) throw std::invalid_argument("config: attack rate must be > 0");
    attack.interarrival_ps =
        static_cast<std::uint64_t>(config.timing.t_refi_ps() / rate);
    const double start_frac = file.get_double(prefix + "start_frac", 0.0);
    attack.start_ps = static_cast<std::uint64_t>(
        start_frac * static_cast<double>(config.timing.t_refw_ps));
    attack.source_id = static_cast<trace::SourceId>(200 + i);
    config.workload.attacks.push_back(std::move(attack));
  }

  config.finalize();
}

SimConfig load_sim_config(const std::string& path) {
  SimConfig config;
  apply_config(config, util::KeyValueFile::load(path));
  return config;
}

std::string to_config_text(const SimConfig& config) {
  const auto preset = std::find_if(
      std::begin(kTimingPresets), std::end(kTimingPresets),
      [&](const TimingPreset& p) { return config.timing == p.timing(); });
  if (preset == std::end(kTimingPresets))
    throw std::invalid_argument(
        "to_config_text: the timing matches no timing.preset");
  util::KeyValueFile file;
  file.set("geometry.banks", std::to_string(config.geometry.banks_per_rank));
  file.set("geometry.rows_per_bank",
           std::to_string(config.geometry.rows_per_bank));
  file.set("timing.preset", preset->name);
  file.set("windows", std::to_string(config.windows));
  file.set("seed", std::to_string(config.seed));
  file.set("refresh.policy", [&] {
    switch (config.refresh_policy) {
      case dram::RefreshPolicy::kNeighborSequential: return "seq";
      case dram::RefreshPolicy::kNeighborRemapped: return "remap";
      case dram::RefreshPolicy::kRandom: return "random";
      case dram::RefreshPolicy::kCounterMask: return "mask";
    }
    return "seq";
  }());
  file.set("remap.rows", config.remap_rows ? "true" : "false");
  file.set("remap.swaps", std::to_string(config.remap_swaps));
  file.set("act_n.radius", std::to_string(config.act_n_radius));
  file.set("disturbance.flip_threshold",
           std::to_string(config.disturbance.flip_threshold));
  file.set("disturbance.blast_radius",
           std::to_string(config.disturbance.blast_radius));
  file.set("disturbance.distance2_weight_q8",
           std::to_string(config.disturbance.distance2_weight_q8));
  file.set("disturbance.variation_pct",
           std::to_string(config.disturbance.variation_pct));
  file.set("workload.benign_rate",
           exact(config.workload.benign_acts_per_interval_per_bank));
  file.set("workload.model", [&] {
    switch (config.workload.model) {
      case BenignModel::kMixedSynthetic: return "mixed";
      case BenignModel::kCacheFrontend: return "cache";
      case BenignModel::kUniformRandom: return "uniform";
      case BenignModel::kReplay: return "replay";
      case BenignModel::kFuzz: return "fuzz";
    }
    return "mixed";
  }());
  if (!config.workload.trace_path.empty())
    file.set("workload.trace", config.workload.trace_path);
  if (config.workload.model == BenignModel::kFuzz) {
    const auto& fuzz = config.workload.fuzz;
    file.set("fuzz.seed", std::to_string(fuzz.seed));
    file.set("fuzz.patterns", std::to_string(fuzz.patterns));
    file.set("fuzz.rate", exact(fuzz.acts_per_interval));
    file.set("fuzz.pairs_min", std::to_string(fuzz.params.pairs_min));
    file.set("fuzz.pairs_max", std::to_string(fuzz.params.pairs_max));
    file.set("fuzz.period_exp_min", std::to_string(fuzz.params.period_exp_min));
    file.set("fuzz.period_exp_max", std::to_string(fuzz.params.period_exp_max));
    file.set("fuzz.amplitude_max", std::to_string(fuzz.params.amplitude_max));
    file.set("fuzz.decoys_max", std::to_string(fuzz.params.decoys_max));
    file.set("fuzz.half_double", fuzz.params.half_double ? "true" : "false");
  }
  file.set("technique.pbase_exp", std::to_string(config.technique.pbase_exp));
  file.set("technique.history_entries",
           std::to_string(config.technique.params.history_entries));
  file.set("technique.counter_entries",
           std::to_string(config.technique.params.counter_entries));
  file.set("technique.twice_entries",
           std::to_string(config.technique.params.twice_entries));
  file.set("technique.para_p", exact(config.technique.para_p));
  file.set("technique.mrloc_p_min", exact(config.technique.mrloc_p_min));
  file.set("technique.mrloc_p_max", exact(config.technique.mrloc_p_max));
  file.set("technique.capromi_cooldown",
           std::to_string(config.technique.capromi_cooldown));
  file.set("attack.count", std::to_string(config.workload.attacks.size()));
  for (std::size_t i = 0; i < config.workload.attacks.size(); ++i) {
    const auto& attack = config.workload.attacks[i];
    const std::string prefix = "attack." + std::to_string(i) + ".";
    file.set(prefix + "pattern", pattern_name(attack.pattern));
    file.set(prefix + "bank", std::to_string(attack.bank));
    std::string victims;
    for (const auto v : attack.victims) {
      if (!victims.empty()) victims += ',';
      victims += std::to_string(v);
    }
    file.set(prefix + "victims", victims);
    file.set(prefix + "rate",
             exact(rate_for(attack.interarrival_ps,
                            static_cast<double>(config.timing.t_refi_ps()))));
    file.set(prefix + "start_frac",
             exact(start_frac_for(attack.start_ps,
                                  static_cast<double>(config.timing.t_refw_ps))));
    file.set(prefix + "sides", std::to_string(attack.sides));
    file.set(prefix + "far_per_near", std::to_string(attack.far_per_near));
  }
  return file.to_text();
}

}  // namespace tvp::exp
