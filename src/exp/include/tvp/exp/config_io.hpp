// Experiment configuration files: a SimConfig (system, workload,
// technique knobs, attacks) described as a flat key/value file, so whole
// experiments are shareable artifacts (see configs/ for samples and the
// key reference).
#pragma once

#include <string>

#include "tvp/exp/runner.hpp"
#include "tvp/util/config.hpp"

namespace tvp::exp {

/// Applies @p file onto @p config. Unknown keys throw
/// std::invalid_argument (typos must not silently change experiments);
/// recognised keys are documented in configs/README (and below in the
/// implementation). finalize() is called before returning.
void apply_config(SimConfig& config, const util::KeyValueFile& file);

/// Loads a SimConfig from @p path on top of the defaults.
SimConfig load_sim_config(const std::string& path);

/// The refresh.policy names: seq (or neighbor), remap, random, mask.
/// Throws std::invalid_argument on any other name.
dram::RefreshPolicy parse_policy(const std::string& name);

/// The workload.model names: mixed, cache, uniform, replay, fuzz.
/// Throws std::invalid_argument on any other name.
BenignModel parse_model(const std::string& name);

/// Serialises every part of @p config that a key addresses (geometry,
/// timing preset, workload, technique knobs, attacks), so that
/// apply_config reads back the same experiment. Throws
/// std::invalid_argument when the timing matches no timing.preset.
std::string to_config_text(const SimConfig& config);

}  // namespace tvp::exp
