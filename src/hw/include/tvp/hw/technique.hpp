// Enumeration of the nine mitigation techniques the paper evaluates,
// plus the structural parameters the hardware models need about them.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tvp::hw {

enum class Technique {
  kPara,
  kProHit,
  kMrLoc,
  kTwice,
  kCra,
  kLiPRoMi,
  kLoPRoMi,
  kLoLiPRoMi,
  kCaPRoMi,
};

/// All nine, in the paper's Figure-4 order.
inline constexpr std::array<Technique, 9> kAllTechniques = {
    Technique::kPara,     Technique::kMrLoc,    Technique::kProHit,
    Technique::kTwice,    Technique::kCra,      Technique::kLoPRoMi,
    Technique::kLoLiPRoMi, Technique::kLiPRoMi, Technique::kCaPRoMi,
};

/// The four TiVaPRoMi variants (this paper's contribution).
inline constexpr std::array<Technique, 4> kTiVaPRoMiVariants = {
    Technique::kLiPRoMi, Technique::kLoPRoMi, Technique::kLoLiPRoMi,
    Technique::kCaPRoMi,
};

std::string_view to_string(Technique technique) noexcept;

/// The technique whose to_string() is exactly @p name (case-sensitive),
/// or nullopt for any other name.
std::optional<Technique> parse_technique(std::string_view name) noexcept;

/// True for LiPRoMi / LoPRoMi / LoLiPRoMi / CaPRoMi.
constexpr bool is_tivapromi(Technique t) noexcept {
  return t == Technique::kLiPRoMi || t == Technique::kLoPRoMi ||
         t == Technique::kLoLiPRoMi || t == Technique::kCaPRoMi;
}

/// Structural parameters shared by the cycle and area models. Defaults
/// are the paper's configuration (Section IV).
struct TechniqueParams {
  std::uint32_t rows_per_bank = 131072;
  std::uint32_t refresh_intervals = 8192;
  std::uint32_t history_entries = 32;   // TiVaPRoMi
  std::uint32_t counter_entries = 64;   // CaPRoMi
  std::uint32_t prohit_hot = 4;
  std::uint32_t prohit_cold = 8;
  std::uint32_t mrloc_queue = 16;
  std::uint32_t twice_entries = 560;

  unsigned row_bits() const noexcept;
  unsigned interval_bits() const noexcept;
};

}  // namespace tvp::hw
