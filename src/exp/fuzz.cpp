#include "tvp/exp/fuzz.hpp"

#include <stdexcept>
#include <unordered_map>

#include "tvp/exp/config_io.hpp"
#include "tvp/mitigation/trr.hpp"
#include "tvp/util/json.hpp"
#include "tvp/util/parallel.hpp"
#include "tvp/util/table.hpp"

namespace tvp::exp {

namespace {

enum class DefenceKind { kNone, kTrr, kTechnique };

struct Defence {
  std::string name;
  DefenceKind kind = DefenceKind::kNone;
  hw::Technique technique = hw::Technique::kLiPRoMi;
  unsigned pbase_exp = 0;
};

std::vector<Defence> defence_panel(const FuzzCampaignOptions& options) {
  std::vector<Defence> panel;
  if (options.include_none)
    panel.push_back({"none", DefenceKind::kNone, {}, 0});
  if (options.include_trr)
    panel.push_back({"TRR", DefenceKind::kTrr, {}, 0});
  for (const auto technique : hw::kTiVaPRoMiVariants)
    for (const auto exp : options.pbase_exps)
      panel.push_back({util::strfmt("%s@2^-%u",
                                    std::string(hw::to_string(technique)).c_str(),
                                    exp),
                       DefenceKind::kTechnique, technique, exp});
  return panel;
}

/// The config of seed @p fuzz_seed's cohort: generated, or replayed from
/// @p replay_path when it is set.
SimConfig seed_config(const FuzzCampaignOptions& options, std::uint64_t fuzz_seed,
                      const std::string& replay_path) {
  SimConfig cfg = options.base;
  cfg.workload.fuzz.seed = fuzz_seed;
  if (!replay_path.empty()) {
    // The corpus carries the whole recorded stream plus the oracles;
    // replaying it reproduces the generated cohort bit-identically
    // (same cfg.seed, so the engine/controller forks are unchanged).
    cfg.workload.model = BenignModel::kReplay;
    cfg.workload.trace_path = replay_path;
    cfg.workload.attacks.clear();
  }
  cfg.finalize();
  return cfg;
}

/// @p defence as a member of a cohort over @p cfg: the factory its solo
/// run (run_custom_simulation, or run_simulation at its P_base) wires.
CohortMember member_of(const Defence& defence, const SimConfig& cfg) {
  switch (defence.kind) {
    case DefenceKind::kNone:
      return {defence.name, [](dram::BankId, util::Rng) {
                return std::make_unique<mem::NoMitigation>();
              }};
    case DefenceKind::kTrr: {
      mitigation::TrrConfig trr;
      trr.rows_per_bank = cfg.geometry.rows_per_bank;
      return {defence.name, mitigation::make_trr_factory(trr)};
    }
    case DefenceKind::kTechnique: {
      SimConfig at_pbase = cfg;
      at_pbase.technique.pbase_exp = defence.pbase_exp;
      at_pbase.finalize();
      return {defence.name, make_factory(defence.technique, at_pbase.technique)};
    }
  }
  throw std::logic_error("member_of: unreachable");
}

}  // namespace

FuzzCampaignResult run_fuzz_campaign(const FuzzCampaignOptions& options) {
  if (options.base.workload.model != BenignModel::kFuzz)
    throw std::invalid_argument("fuzz campaign: base workload.model must be fuzz");
  if (options.fuzz_seeds == 0)
    throw std::invalid_argument("fuzz campaign: zero fuzz seeds");
  if (options.pbase_exps.empty())
    throw std::invalid_argument("fuzz campaign: no pbase points");
  const auto panel = defence_panel(options);
  if (panel.empty()) throw std::invalid_argument("fuzz campaign: no defences");

  const std::uint64_t base_seed = options.base.workload.fuzz.seed;

  // Record/replay mode: one corpus per swept seed, then every defence
  // cell replays it. Recording is part of the deterministic contract —
  // the corpus bytes are a pure function of (config, seed).
  std::vector<std::string> replay_paths(options.fuzz_seeds);
  if (!options.trace_dir.empty()) {
    for (std::uint32_t s = 0; s < options.fuzz_seeds; ++s) {
      SimConfig cfg = options.base;
      cfg.workload.fuzz.seed = base_seed + s;
      replay_paths[s] = options.trace_dir + "/fuzz_" +
                        std::to_string(base_seed + s) + ".tvpc";
      record_corpus(cfg, replay_paths[s]);
    }
  }

  // Each seed's panel runs as one cohort: its defences share the seed's
  // stream, its partition pass and its demand walk. A panel splits into
  // contiguous sub-cohorts only when there are more jobs than seeds, so
  // that the extra workers have work. Either way every cell equals its
  // solo run, lands in its pre-sized slot and is reduced in cell order,
  // so the result is bit-identical for every TVP_JOBS value.
  FuzzCampaignResult result;
  const std::size_t cells = options.fuzz_seeds * panel.size();
  const std::size_t jobs = util::job_count();
  const std::size_t parts =
      jobs > options.fuzz_seeds
          ? std::min(panel.size(),
                     (jobs + options.fuzz_seeds - 1) / options.fuzz_seeds)
          : 1;
  std::vector<RunResult> runs(cells);
  std::vector<mem::StageProfile> stages(options.fuzz_seeds * parts);
  util::parallel_for_indexed(stages.size(), jobs, [&](std::size_t unit) {
    const std::size_t s = unit / parts;
    const std::size_t first = unit % parts * panel.size() / parts;
    const std::size_t last = (unit % parts + 1) * panel.size() / parts;
    const SimConfig cfg = seed_config(options, base_seed + s, replay_paths[s]);
    std::vector<CohortMember> members;
    for (std::size_t d = first; d < last; ++d)
      members.push_back(member_of(panel[d], cfg));
    Simulation sim(std::move(members), cfg);
    while (sim.step() != 0) {
    }
    sim.advance();
    std::vector<RunResult> results = sim.results();
    for (std::size_t d = first; d < last; ++d)
      runs[s * panel.size() + d] = std::move(results[d - first]);
    stages[unit] = sim.controller().stage_profile();
  });
  for (const mem::StageProfile& p : stages) {
    result.stages.scattered_acts += p.scattered_acts;
    result.stages.partitioned_acts += p.partitioned_acts;
  }

  result.cells.resize(cells);
  std::unordered_map<std::uint64_t, bool> potent;  // seed -> baseline flipped
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint32_t s = static_cast<std::uint32_t>(i / panel.size());
    const auto& defence = panel[i % panel.size()];
    auto& cell = result.cells[i];
    cell.fuzz_seed = base_seed + s;
    cell.defence = defence.name;
    cell.flips = runs[i].flips;
    cell.victim_flips = runs[i].victim_flips;
    cell.peak_disturbance = runs[i].peak_disturbance;
    cell.overhead_pct = runs[i].overhead_pct();
    cell.fpr_pct = runs[i].fpr_pct();
    if (defence.kind == DefenceKind::kNone && cell.evaded()) {
      potent[cell.fuzz_seed] = true;
      ++result.potent_seeds;
    }
  }

  for (const auto& defence : panel) {
    FuzzDefenceSummary summary;
    summary.defence = defence.name;
    for (const auto& cell : result.cells) {
      if (cell.defence != defence.name) continue;
      ++summary.seeds;
      summary.total_flips += cell.flips;
      summary.total_victim_flips += cell.victim_flips;
      summary.mean_overhead_pct += cell.overhead_pct;
      summary.mean_fpr_pct += cell.fpr_pct;
      if (cell.evaded()) {
        ++summary.evaded;
        if (potent.count(cell.fuzz_seed)) ++summary.evaded_potent;
      }
    }
    if (summary.seeds > 0) {
      summary.mean_overhead_pct /= summary.seeds;
      summary.mean_fpr_pct /= summary.seeds;
    }
    result.defences.push_back(std::move(summary));
  }
  return result;
}

std::string fuzz_report_json(const FuzzCampaignOptions& options,
                             const FuzzCampaignResult& result) {
  const auto& fuzz = options.base.workload.fuzz;
  util::JsonWriter json;
  json.begin_object();
  json.key("campaign").value("fuzz-evasion");
  json.key("config").begin_object();
  json.key("fuzz_seeds").value(static_cast<std::uint64_t>(options.fuzz_seeds));
  json.key("first_seed").value(fuzz.seed);
  json.key("patterns_per_seed").value(static_cast<std::uint64_t>(fuzz.patterns));
  json.key("acts_per_interval").value(fuzz.acts_per_interval);
  json.key("pairs").begin_array();
  json.value(static_cast<std::uint64_t>(fuzz.params.pairs_min));
  json.value(static_cast<std::uint64_t>(fuzz.params.pairs_max));
  json.end_array();
  json.key("period_exp").begin_array();
  json.value(static_cast<std::uint64_t>(fuzz.params.period_exp_min));
  json.value(static_cast<std::uint64_t>(fuzz.params.period_exp_max));
  json.end_array();
  json.key("amplitude_max").value(static_cast<std::uint64_t>(fuzz.params.amplitude_max));
  json.key("half_double").value(fuzz.params.half_double);
  json.key("pbase_exps").begin_array();
  for (const auto exp : options.pbase_exps)
    json.value(static_cast<std::uint64_t>(exp));
  json.end_array();
  json.key("sim_seed").value(options.base.seed);
  json.key("windows").value(static_cast<std::uint64_t>(options.base.windows));
  json.key("banks").value(
      static_cast<std::uint64_t>(options.base.geometry.total_banks()));
  json.key("blast_radius").value(
      static_cast<std::uint64_t>(options.base.disturbance.blast_radius));
  // No record/replay marker and no wall-clock: the report bytes are the
  // same whether the cells were generated or replayed from .tvpc.
  json.end_object();

  json.key("potent_seeds").value(static_cast<std::uint64_t>(result.potent_seeds));
  json.key("defences").begin_array();
  for (const auto& summary : result.defences) {
    json.begin_object();
    json.key("defence").value(summary.defence);
    json.key("seeds").value(static_cast<std::uint64_t>(summary.seeds));
    json.key("evaded").value(static_cast<std::uint64_t>(summary.evaded));
    json.key("evasion_rate").value(summary.evasion_rate(result.potent_seeds));
    json.key("total_flips").value(summary.total_flips);
    json.key("total_victim_flips").value(summary.total_victim_flips);
    json.key("mean_overhead_pct").value(summary.mean_overhead_pct);
    json.key("mean_fpr_pct").value(summary.mean_fpr_pct);
    json.end_object();
  }
  json.end_array();

  json.key("cells").begin_array();
  for (const auto& cell : result.cells) {
    json.begin_object();
    json.key("fuzz_seed").value(cell.fuzz_seed);
    json.key("defence").value(cell.defence);
    json.key("flips").value(cell.flips);
    json.key("victim_flips").value(cell.victim_flips);
    json.key("peak_disturbance").value(cell.peak_disturbance);
    json.key("overhead_pct").value(cell.overhead_pct);
    json.key("fpr_pct").value(cell.fpr_pct);
    json.key("evaded").value(cell.evaded());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace tvp::exp
