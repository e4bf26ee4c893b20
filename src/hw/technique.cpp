#include "tvp/hw/technique.hpp"

#include "tvp/util/bitutil.hpp"

namespace tvp::hw {

std::string_view to_string(Technique technique) noexcept {
  switch (technique) {
    case Technique::kPara: return "PARA";
    case Technique::kProHit: return "ProHit";
    case Technique::kMrLoc: return "MRLoc";
    case Technique::kTwice: return "TWiCe";
    case Technique::kCra: return "CRA";
    case Technique::kLiPRoMi: return "LiPRoMi";
    case Technique::kLoPRoMi: return "LoPRoMi";
    case Technique::kLoLiPRoMi: return "LoLiPRoMi";
    case Technique::kCaPRoMi: return "CaPRoMi";
  }
  return "?";
}

std::optional<Technique> parse_technique(std::string_view name) noexcept {
  for (const auto t : kAllTechniques)
    if (to_string(t) == name) return t;
  return std::nullopt;
}

unsigned TechniqueParams::row_bits() const noexcept {
  return util::bits_for(rows_per_bank);
}

unsigned TechniqueParams::interval_bits() const noexcept {
  return util::bits_for(refresh_intervals);
}

}  // namespace tvp::hw
