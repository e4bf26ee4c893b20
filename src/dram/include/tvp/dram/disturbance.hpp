// Row-Hammer disturbance model.
//
// Tracks, for every physical row, the number of neighbour activations
// accumulated since the row's charge was last restored (by its own ACT,
// by a refresh, or by a mitigation-issued activate-neighbours command).
// When the accumulated disturbance reaches the flip threshold (139 K
// activations per [12], Table I), a bit-flip event is recorded. This is
// the ground truth against which all nine mitigation techniques are
// judged: a technique "fails" iff a flip event occurs.
#pragma once

#include <cstdint>
#include <vector>

#include "tvp/dram/geometry.hpp"

namespace tvp::dram {

/// Parameters of the physical disturbance process.
struct DisturbanceParams {
  /// Combined aggressor activations that flip a victim (Table I: 139 K).
  std::uint32_t flip_threshold = 139'000;
  /// How many rows on each side of an activated row are disturbed.
  /// 1 reproduces the paper's model; 2 enables the half-double-style
  /// extension study (disturbance at distance 2 is attenuated).
  std::uint32_t blast_radius = 1;
  /// Disturbance contributed to rows at distance 2 (per activation),
  /// expressed in 1/256 units. Only used when blast_radius == 2.
  std::uint32_t distance2_weight_q8 = 16;  // 1/16 of a distance-1 hit
  /// Cell-strength variation (extension): per-row thresholds drawn
  /// uniformly from [flip_threshold * (1 - v), flip_threshold * (1 + v)]
  /// where v = variation_pct / 100. Real DRAM has weak rows; defences
  /// tuned to the nominal threshold must survive the weak tail. 0
  /// reproduces the paper's uniform model.
  std::uint32_t variation_pct = 0;
  /// Seed for the (device-fixed) per-row threshold draw.
  std::uint64_t variation_seed = 0x5EED;
};

/// One recorded bit flip.
struct FlipEvent {
  BankId bank = 0;
  RowId row = 0;         // physical row that flipped
  std::uint64_t at_activation = 0;  // global activation count when it flipped
  std::uint32_t interval = 0;       // refresh interval index when it flipped
};

/// Exact per-row disturbance bookkeeping for one memory system.
///
/// All row indices are *physical*. Activations must be reported through
/// on_activate(); refreshes through on_refresh_row(). The model never
/// throttles or mitigates — it only observes.
class DisturbanceModel {
 public:
  DisturbanceModel(std::uint32_t banks, RowId rows_per_bank,
                   DisturbanceParams params = {});

  const DisturbanceParams& params() const noexcept { return params_; }
  std::uint32_t banks() const noexcept { return banks_; }
  RowId rows_per_bank() const noexcept { return rows_; }

  /// Reports an activation of @p row in @p bank. Disturbs neighbours,
  /// restores the activated row's own charge.
  /// @p interval is the current refresh interval (for flip reporting).
  /// One activation on the bank's lane, committed at once; throws
  /// std::logic_error while the bank's lane holds uncommitted flips.
  void on_activate(BankId bank, RowId row, std::uint32_t interval);

  /// Reports a refresh of @p row (charge restored, no disturbance).
  void on_refresh_row(BankId bank, RowId row);

  /// Accumulated disturbance (in 1/256 units of a distance-1 hit) of a
  /// row; mostly for tests and diagnostics.
  std::uint64_t disturbance_q8(BankId bank, RowId row) const;

  /// Total activations observed so far.
  std::uint64_t activations() const noexcept { return activations_; }

  /// All flips recorded so far (at most one per row per charge period).
  const std::vector<FlipEvent>& flips() const noexcept { return flips_; }
  bool any_flip() const noexcept { return !flips_.empty(); }

  /// Highest disturbance (q8) currently accumulated anywhere — how close
  /// the system came to a flip.
  std::uint64_t peak_disturbance_q8() const noexcept { return peak_q8_; }

  /// This row's flip threshold in activations (varies per row when
  /// variation_pct > 0; the draw is fixed per device/seed).
  std::uint32_t threshold_of(BankId bank, RowId row) const;

  /// Clears counters and flip history (new experiment).
  void reset();

  /// A per-bank shard of the model for one parallel region.
  ///
  /// Per-row charge state is naturally disjoint per bank, so a Lane
  /// mutates its bank's cells directly; the *shared* members
  /// (activations_, peak_q8_, flips_) are accumulated lane-locally and
  /// folded back by commit_lanes() in a way that is bit-identical to
  /// serial execution. Each activation is tagged with its position in
  /// the serial order — (serial, offset) where `serial` is the record's
  /// index within the region and `offset` numbers the activations that
  /// record performs (0 = the demand ACT, 1.. = mitigation extras in
  /// issue order) — so commit_lanes can re-sequence flip events and
  /// reconstruct their exact at_activation values from a per-record
  /// activation prefix sum.
  ///
  /// A Lane is a handful of raw pointers and two counters, bound once by
  /// lane(): the bank's cells, its threshold column (or the one uniform
  /// threshold, selected through an all-ones / zero index mask), the
  /// distance-2 weight and the model's flip queue for the bank. It is
  /// trivially copyable, so a hot loop can walk a local copy — whose
  /// counters stay in registers — and store it back once.
  ///
  /// Lanes of distinct banks may run on different threads; a Lane itself
  /// is not thread-safe. A Lane is bound to (model, bank) once and
  /// reused across regions; commit_lanes resets it for the next region.
  class Lane {
   public:
    Lane() = default;

    /// Same physical effect as DisturbanceModel::on_activate for the
    /// lane's bank; see the class comment for the (serial, offset) tag.
    void on_activate(RowId row, std::uint32_t interval, std::uint32_t serial,
                     std::uint32_t offset);

    /// Activations performed through this lane since the last commit.
    std::uint64_t activations() const noexcept { return activations_; }
    /// Whether a flip awaits commit_lanes (bound lanes only).
    bool has_pending_flips() const noexcept { return !pending_->empty(); }

   private:
    friend class DisturbanceModel;
    struct PendingFlip {
      RowId row = 0;
      std::uint32_t interval = 0;
      std::uint32_t serial = 0;
      std::uint32_t offset = 0;
    };
    void disturb(RowId row, std::uint64_t amount_q8, std::uint32_t interval,
                 std::uint32_t serial, std::uint32_t offset);

    std::uint64_t* cells_ = nullptr;               // the bank's cells
    const std::uint32_t* thresholds_ = nullptr;    // column or uniform value
    std::size_t threshold_mask_ = 0;               // ~0 = column, 0 = uniform
    std::uint64_t distance2_q8_ = 0;               // 0 at blast radius 1
    RowId rows_ = 0;
    BankId bank_ = 0;
    std::uint64_t activations_ = 0;
    std::uint64_t peak_q8_ = 0;
    std::vector<PendingFlip>* pending_ = nullptr;  // the model's, per bank
  };

  /// Binds a lane to @p bank. At most one live lane per bank; the lane
  /// must not outlive the model.
  Lane lane(BankId bank);

  /// Folds a region's lanes back into the model (serial; call after the
  /// parallel region joins). @p prefix re-sequences flips: prefix[j] is
  /// the number of activations performed by all records with serial
  /// index < j in the region (across every lane), so a flip tagged
  /// (serial, offset) happened at global activation
  /// activations() + prefix[serial] + offset + 1. @p prefix may be null
  /// when no lane has pending flips. Lanes are reset for reuse.
  void commit_lanes(Lane* const* lanes, std::size_t n_lanes,
                    const std::uint64_t* prefix);

 private:
  /// A cell holds the row's q8 disturbance count in bits 0-62 and its
  /// flip latch in bit 63. A flip fires when threshold_q8 <= cell <
  /// kLatch, i.e. the count has reached the threshold and the latch is
  /// clear. The count reaches bit 63 only after 2^55 full-weight hits
  /// without a restore, so the packing never changes a count, a peak or
  /// a flip.
  static constexpr std::uint64_t kLatch = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kCountMask = kLatch - 1;

  std::size_t index(BankId bank, RowId row) const noexcept {
    return static_cast<std::size_t>(bank) * rows_ + row;
  }

  std::uint32_t banks_;
  RowId rows_;
  DisturbanceParams params_;
  std::vector<std::uint64_t> cells_;       // per (bank, row); see kLatch
  std::vector<std::uint32_t> thresholds_;  // per (bank, row), or 1 uniform
  std::vector<std::vector<Lane::PendingFlip>> pending_;  // per bank
  std::vector<FlipEvent> flips_;
  std::uint64_t activations_ = 0;
  std::uint64_t peak_q8_ = 0;
};

// Lane's per-activation path is defined inline: it runs once per demand
// or mitigation ACT (10^8+ calls per campaign) and the bodies are a few
// loads and compares — the out-of-line call cost would rival the work.

inline void DisturbanceModel::Lane::disturb(RowId row, std::uint64_t amount_q8,
                                            std::uint32_t interval,
                                            std::uint32_t serial,
                                            std::uint32_t offset) {
  const std::uint64_t c = cells_[row] + amount_q8;
  const std::uint64_t count = c & kCountMask;
  peak_q8_ = count > peak_q8_ ? count : peak_q8_;
  const std::uint64_t threshold_q8 =
      std::uint64_t{thresholds_[static_cast<std::size_t>(row) & threshold_mask_]}
      << 8;
  if (c >= threshold_q8 && c < kLatch) [[unlikely]] {
    cells_[row] = c | kLatch;
    pending_->push_back(PendingFlip{row, interval, serial, offset});
  } else {
    cells_[row] = c;
  }
}

inline void DisturbanceModel::Lane::on_activate(RowId row,
                                                std::uint32_t interval,
                                                std::uint32_t serial,
                                                std::uint32_t offset) {
  ++activations_;
  // The activated row's own charge is restored and its latch cleared.
  cells_[row] = 0;
  if (row > 0) disturb(row - 1, 256, interval, serial, offset);
  if (row + 1 < rows_) disturb(row + 1, 256, interval, serial, offset);
  if (distance2_q8_ != 0) {
    if (row > 1) disturb(row - 2, distance2_q8_, interval, serial, offset);
    if (row + 2 < rows_) disturb(row + 2, distance2_q8_, interval, serial, offset);
  }
}

}  // namespace tvp::dram
