#include "tvp/exp/config_io.hpp"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <variant>

namespace tvp::exp {

namespace {

/// A config name and the value it denotes.
template <typename T>
struct Named {
  const char* name;
  T value;
};

/// The config names of one value type, read in both directions: `what`
/// (the key they are the values of) names them in errors, and the first
/// name of a value is the one to_config_text writes.
template <typename T, std::size_t N>
struct Names {
  const char* what;
  Named<T> names[N];
};

constexpr Names<dram::Timing (*)() noexcept, 3> kTimings{
    "timing.preset",
    {{"ddr4", dram::ddr4_timing},
     {"ddr3", dram::ddr3_timing},
     {"ddr5", dram::ddr5_timing}}};

constexpr Names<dram::RefreshPolicy, 5> kPolicies{
    "refresh.policy",
    {{"seq", dram::RefreshPolicy::kNeighborSequential},
     {"neighbor", dram::RefreshPolicy::kNeighborSequential},
     {"remap", dram::RefreshPolicy::kNeighborRemapped},
     {"random", dram::RefreshPolicy::kRandom},
     {"mask", dram::RefreshPolicy::kCounterMask}}};

constexpr Names<BenignModel, 5> kModels{
    "workload.model",
    {{"mixed", BenignModel::kMixedSynthetic},
     {"cache", BenignModel::kCacheFrontend},
     {"uniform", BenignModel::kUniformRandom},
     {"replay", BenignModel::kReplay},
     {"fuzz", BenignModel::kFuzz}}};

// kFuzzed has no name: its schedule is derived, not serialised, and
// fuzz workloads use the fuzz.* keys.
constexpr Names<trace::AttackPattern, 6> kPatterns{
    "attack pattern",
    {{"single", trace::AttackPattern::kSingleSided},
     {"double", trace::AttackPattern::kDoubleSided},
     {"multi", trace::AttackPattern::kMultiAggressor},
     {"flood", trace::AttackPattern::kFlood},
     {"many-sided", trace::AttackPattern::kManySided},
     {"half-double", trace::AttackPattern::kHalfDouble}}};

template <typename T, std::size_t N>
T parse_name(const Names<T, N>& table, const std::string& name) {
  for (const auto& entry : table.names)
    if (name == entry.name) return entry.value;
  throw std::invalid_argument(std::string("config: unknown ") + table.what +
                              " '" + name + "'");
}

template <typename T, std::size_t N>
const char* name_of(const Names<T, N>& table, T value) {
  for (const auto& entry : table.names)
    if (entry.value == value) return entry.name;
  throw std::invalid_argument(std::string("to_config_text: the ") +
                              table.what + " has no config name");
}

/// The source id of attack 0; attack i is kFirstAttackSource + i, so a
/// SourceId numbers at most kMaxAttacks of them.
constexpr std::size_t kFirstAttackSource = 200;
constexpr std::size_t kMaxAttacks =
    std::numeric_limits<trace::SourceId>::max() - kFirstAttackSource + 1;

/// The SimConfig field a scalar key addresses.
using Field = std::variant<std::uint32_t*, std::uint64_t*, bool*, double*,
                           std::string*, dram::RefreshPolicy*, BenignModel*>;

/// When to_config_text writes a key.
enum Written { kAlways, kWithTrace, kWithFuzz };

struct ScalarKey {
  const char* name;
  Field (*field)(SimConfig&);
  Written when = kAlways;
};

// Every key but timing.preset and attack.*, in the order apply_config
// reads them: the key, the SimConfig member it addresses and, unless
// always, when to_config_text writes it.
#define TVP_KEY(key, member, ...) \
  {key, [](SimConfig& c) -> Field { return &c.member; }, __VA_ARGS__}
constexpr ScalarKey kScalarKeys[] = {
    TVP_KEY("geometry.banks", geometry.banks_per_rank),
    TVP_KEY("geometry.rows_per_bank", geometry.rows_per_bank),
    TVP_KEY("windows", windows),
    TVP_KEY("seed", seed),
    TVP_KEY(kPolicies.what, refresh_policy),
    TVP_KEY("remap.rows", remap_rows),
    TVP_KEY("remap.swaps", remap_swaps),
    TVP_KEY("act_n.radius", act_n_radius),
    TVP_KEY("disturbance.flip_threshold", disturbance.flip_threshold),
    TVP_KEY("disturbance.blast_radius", disturbance.blast_radius),
    TVP_KEY("disturbance.distance2_weight_q8", disturbance.distance2_weight_q8),
    TVP_KEY("disturbance.variation_pct", disturbance.variation_pct),
    TVP_KEY("workload.benign_rate", workload.benign_acts_per_interval_per_bank),
    TVP_KEY(kModels.what, workload.model),
    TVP_KEY("workload.trace", workload.trace_path, kWithTrace),
    // An ordinary key, so run_param_sweep sweeps fuzzer seeds like any
    // other parameter.
    TVP_KEY("fuzz.seed", workload.fuzz.seed, kWithFuzz),
    TVP_KEY("fuzz.patterns", workload.fuzz.patterns, kWithFuzz),
    TVP_KEY("fuzz.rate", workload.fuzz.acts_per_interval, kWithFuzz),
    TVP_KEY("fuzz.pairs_min", workload.fuzz.params.pairs_min, kWithFuzz),
    TVP_KEY("fuzz.pairs_max", workload.fuzz.params.pairs_max, kWithFuzz),
    TVP_KEY("fuzz.period_exp_min", workload.fuzz.params.period_exp_min, kWithFuzz),
    TVP_KEY("fuzz.period_exp_max", workload.fuzz.params.period_exp_max, kWithFuzz),
    TVP_KEY("fuzz.amplitude_max", workload.fuzz.params.amplitude_max, kWithFuzz),
    TVP_KEY("fuzz.decoys_max", workload.fuzz.params.decoys_max, kWithFuzz),
    TVP_KEY("fuzz.half_double", workload.fuzz.params.half_double, kWithFuzz),
    TVP_KEY("technique.pbase_exp", technique.pbase_exp),
    TVP_KEY("technique.history_entries", technique.params.history_entries),
    TVP_KEY("technique.counter_entries", technique.params.counter_entries),
    TVP_KEY("technique.twice_entries", technique.params.twice_entries),
    TVP_KEY("technique.para_p", technique.para_p),
    TVP_KEY("technique.mrloc_p_min", technique.mrloc_p_min),
    TVP_KEY("technique.mrloc_p_max", technique.mrloc_p_max),
    TVP_KEY("technique.capromi_cooldown", technique.capromi_cooldown),
};
#undef TVP_KEY

// Reading a key into its field, per field type.
void read(const util::KeyValueFile& file, const char* key, bool* field) {
  *field = file.get_bool(key, false);
}
void read(const util::KeyValueFile& file, const char* key, double* field) {
  *field = file.get_double(key, 0.0);
}
void read(const util::KeyValueFile& file, const char* key, std::string* field) {
  *field = file.get(key, "");
}
void read(const util::KeyValueFile& file, const char* key, dram::RefreshPolicy* field) {
  *field = parse_name(kPolicies, file.get(key, ""));
}
void read(const util::KeyValueFile& file, const char* key, BenignModel* field) {
  *field = parse_name(kModels, file.get(key, ""));
}
template <typename Int>
void read(const util::KeyValueFile& file, const char* key, Int* field) {
  *field = file.get_integer<Int>(key, *field);
}

/// The shortest text that std::stod reads back as exactly @p value.
std::string exact(double value) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, res.ptr);
}

// A field's text, per field type.
std::string text(bool value) { return value ? "true" : "false"; }
std::string text(double value) { return exact(value); }
std::string text(const std::string& value) { return value; }
std::string text(dram::RefreshPolicy value) { return name_of(kPolicies, value); }
std::string text(BenignModel value) { return name_of(kModels, value); }
template <typename Int>
std::string text(Int value) { return std::to_string(value); }

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

}  // namespace

dram::RefreshPolicy parse_policy(const std::string& name) {
  return parse_name(kPolicies, name);
}

BenignModel parse_model(const std::string& name) { return parse_name(kModels, name); }

void apply_config(SimConfig& config, const util::KeyValueFile& file) {
  for (const auto& key : file.keys())
    if (key != kTimings.what && key.rfind("attack.", 0) != 0 &&
        std::none_of(std::begin(kScalarKeys), std::end(kScalarKeys),
                     [&](const ScalarKey& k) { return key == k.name; }))
      throw std::invalid_argument("config: unknown key '" + key + "'");

  // An absent preset means the first, whatever the config held.
  config.timing =
      parse_name(kTimings, file.get(kTimings.what, kTimings.names[0].name))();
  for (const ScalarKey& key : kScalarKeys)
    if (file.has(key.name))
      std::visit([&](auto* field) { read(file, key.name, field); },
                 key.field(config));
  config.technique.flip_threshold = config.disturbance.flip_threshold;

  // Attacks: attack.count = N, then attack.<i>.{pattern,bank,victims,
  // rate,start_frac,sides,far_per_near}. `victims` is either an explicit
  // comma-separated row list or a count prefixed with '~' (random,
  // well-separated, derived from the seed).
  config.workload.attacks.clear();
  const auto count = file.get_integer<std::size_t>("attack.count", 0, 0, kMaxAttacks);
  util::Rng rng(config.seed ^ 0xC0F16ull);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string prefix = "attack." + std::to_string(i) + ".";
    trace::AttackConfig attack;
    attack.rows_per_bank = config.geometry.rows_per_bank;
    attack.bank = file.get_integer<dram::BankId>(prefix + "bank", 0);
    if (file.has(prefix + "pattern"))
      attack.pattern = parse_name(kPatterns, file.get(prefix + "pattern", ""));
    attack.sides = file.get_integer<std::uint32_t>(prefix + "sides", attack.sides);
    attack.far_per_near =
        file.get_integer<std::uint32_t>(prefix + "far_per_near", attack.far_per_near);

    const std::string key = prefix + "victims";
    const std::string victims = file.get(key, "~1");
    if (!victims.empty() && victims[0] == '~') {
      // Each random victim takes a region of at least 16 rows.
      const std::size_t most = config.geometry.rows_per_bank / 16;
      const auto n = util::parse_decimal<std::size_t>(victims.substr(1), 1, most);
      if (!n)
        throw std::runtime_error("config: key '" + key + "' must be ~N with N in [1, " +
                                 std::to_string(most) + "], got '" + victims + "'");
      attack.victims = trace::make_multi_aggressor_attack(
          attack.bank, config.geometry.rows_per_bank, *n, rng).victims;
    } else {
      for (std::size_t pos = 0;;) {
        const auto comma = victims.find(',', pos);
        const auto row = util::parse_decimal<dram::RowId>(
            std::string_view(victims).substr(pos, comma - pos));
        if (!row)
          throw std::runtime_error(
              "config: key '" + key + "' must be ~N or a list of rows in [0, " +
              std::to_string(std::numeric_limits<dram::RowId>::max()) + "], got '" +
              victims + "'");
        attack.victims.push_back(*row);
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
    attack.source_id = static_cast<trace::SourceId>(kFirstAttackSource + i);
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
      std::begin(kTimings.names), std::end(kTimings.names),
      [&](const auto& p) { return config.timing == p.value(); });
  if (preset == std::end(kTimings.names))
    throw std::invalid_argument(
        std::string("to_config_text: the timing matches no ") + kTimings.what);
  util::KeyValueFile file;
  file.set(kTimings.what, preset->name);
  SimConfig fields = config;  // the key table addresses a mutable config
  for (const ScalarKey& key : kScalarKeys) {
    if ((key.when == kWithTrace && config.workload.trace_path.empty()) ||
        (key.when == kWithFuzz && config.workload.model != BenignModel::kFuzz))
      continue;
    std::visit([&](auto* field) { file.set(key.name, text(*field)); },
               key.field(fields));
  }
  file.set("attack.count", std::to_string(config.workload.attacks.size()));
  for (std::size_t i = 0; i < config.workload.attacks.size(); ++i) {
    const auto& attack = config.workload.attacks[i];
    const std::string prefix = "attack." + std::to_string(i) + ".";
    file.set(prefix + "pattern", name_of(kPatterns, attack.pattern));
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
