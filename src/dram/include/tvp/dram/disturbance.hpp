// Row-Hammer disturbance model.
//
// Tracks, for every physical row, the number of neighbour activations
// accumulated since the row's charge was last restored (by its own ACT,
// by a refresh, or by a mitigation-issued activate-neighbours command).
// When the accumulated disturbance reaches the flip threshold (139 K
// activations per [12], Table I), a bit-flip event is recorded. This is
// the ground truth against which all nine mitigation techniques are
// judged: a technique "fails" iff a flip event occurs.
//
// One model can serve a *cohort*: several memory systems (members) that
// see the same demand stream and differ only in the extra activations
// their defences issue. The demand stream updates one shared ledger; a
// member keeps only what its own extra activations change (see
// DESIGN.md, "The ACT hot path"). A model of one member is the plain
// single-system model.
#pragma once

#include <cstdint>
#include <functional>
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

/// Exact per-row disturbance bookkeeping for one memory system, or for
/// a cohort of @p members systems that share their demand activations.
///
/// All row indices are *physical*. Activations must be reported through
/// on_activate() or a Lane; refreshes through on_refresh_rows(). The
/// model never throttles or mitigates — it only observes. Every
/// per-member query takes the member's index (0 for a single system).
class DisturbanceModel {
 public:
  DisturbanceModel(std::uint32_t banks, RowId rows_per_bank,
                   DisturbanceParams params = {}, std::uint32_t members = 1);

  const DisturbanceParams& params() const noexcept { return params_; }
  std::uint32_t banks() const noexcept { return banks_; }
  RowId rows_per_bank() const noexcept { return rows_; }
  std::uint32_t members() const noexcept { return members_; }

  /// Reports an activation of @p row in @p bank by @p member: a demand
  /// ACT in a model of one member, an extra ACT of that member's defence
  /// in a cohort. Disturbs neighbours, restores the activated row's own
  /// charge. @p interval is the current refresh interval (for flip
  /// reporting). One activation on the bank's lane, committed at once;
  /// throws std::logic_error while the bank's lane holds uncommitted
  /// flips.
  void on_activate(BankId bank, RowId row, std::uint32_t interval,
                   std::uint32_t member = 0);

  /// Reports a refresh of @p rows[0, n) of @p bank (every member's
  /// charge restored, no disturbance).
  void on_refresh_rows(BankId bank, const RowId* rows, std::size_t n);
  void on_refresh_row(BankId bank, RowId row) { on_refresh_rows(bank, &row, 1); }

  /// Accumulated disturbance (in 1/256 units of a distance-1 hit) of a
  /// row in @p member's system; mostly for tests and diagnostics.
  std::uint64_t disturbance_q8(BankId bank, RowId row,
                               std::uint32_t member = 0) const;

  /// Activations observed so far in @p member's system (the shared
  /// demand activations plus the member's own).
  std::uint64_t activations(std::uint32_t member = 0) const {
    return activations_.at(member);
  }

  /// All flips recorded so far in @p member's system (at most one per
  /// row per charge period).
  const std::vector<FlipEvent>& flips(std::uint32_t member = 0) const {
    return flips_.at(member);
  }
  bool any_flip(std::uint32_t member = 0) const { return !flips(member).empty(); }

  /// Highest disturbance (q8) accumulated anywhere so far in @p member's
  /// system — how close it came to a flip. A count only grows between
  /// restores, so the model folds each charge period's count in when
  /// the row is restored and scans the open periods here.
  std::uint64_t peak_disturbance_q8(std::uint32_t member = 0) const;
  /// peak_disturbance_q8 of every member, from one scan of the cells:
  /// an unmarked row folds one count shared by every member, a marked
  /// row each member's own.
  std::vector<std::uint64_t> peaks_q8() const;

  /// This row's flip threshold in activations (varies per row when
  /// variation_pct > 0; the draw is fixed per device/seed).
  std::uint32_t threshold_of(BankId bank, RowId row) const;

  /// Clears counters and flip history (new experiment).
  void reset();

  // An open-addressed map from row to a signed value and a latch: the
  // sparse part of the ledger. Small and short-lived — an entry lives
  // until its row's next shared restore.
 private:
  class RowTable {
   public:
    struct Entry {
      RowId row;
      std::uint32_t latch;
      std::int64_t value;
    };
    Entry* find(RowId row) noexcept;
    const Entry* find(RowId row) const noexcept {
      return const_cast<RowTable*>(this)->find(row);
    }
    /// The row's entry, inserted as {row, @p latch, 0} when absent; may
    /// move every entry.
    Entry& find_or_insert(RowId row, bool latch);
    /// Removes @p entry (a live entry of this table); may move others.
    void erase(Entry& entry) noexcept;
    void clear() noexcept;

   private:
    static constexpr RowId kEmpty = ~RowId{0};
    std::size_t slot_of(RowId row) const noexcept {
      return static_cast<std::size_t>((row * 0x9E3779B97F4A7C15ull) >> 32) &
             (slots_.size() - 1);
    }
    void grow();
    std::vector<Entry> slots_;
    std::size_t size_ = 0;
  };

 public:
  /// A per-bank shard of the model for one parallel region.
  ///
  /// Per-row charge state is naturally disjoint per bank, so a Lane
  /// mutates its bank's cells and ledgers directly; the *shared* members
  /// (activations_, the peaks, flips_) are accumulated lane-locally and
  /// folded back by commit_lanes() in a way that is bit-identical to
  /// serial execution. Each activation is tagged with its position in
  /// the serial order — (serial, offset) where `serial` is the record's
  /// index within the region and `offset` numbers the activations that
  /// record performs in the member's system (0 = the demand ACT, 1.. =
  /// mitigation extras in issue order) — so commit_lanes can re-sequence
  /// flip events and reconstruct their exact at_activation values from
  /// a per-record activation prefix sum of each member.
  ///
  /// A Lane is a handful of raw pointers and two counters, bound once by
  /// lane(): the bank's cells, its threshold column (or the one uniform
  /// threshold, selected through an all-ones / zero index mask), the
  /// disturbance amounts and the bank's ledger. It is trivially
  /// copyable, so a hot loop can walk a local copy — whose counters stay
  /// in registers — and store it back once.
  ///
  /// Lanes of distinct banks may run on different threads; a Lane itself
  /// is not thread-safe. A Lane is bound to (model, bank) once and
  /// reused across regions; commit_lanes resets it for the next region.
  class Lane {
   public:
    Lane() = default;

    /// A demand activation, shared by every member (the same physical
    /// effect as on_activate in a model of one member); see the class
    /// comment for the (serial, offset) tag.
    void on_activate(RowId row, std::uint32_t interval, std::uint32_t serial,
                     std::uint32_t offset);
    /// An extra activation of @p member's defence: the member's system
    /// alone sees it. In a model of one member it is on_activate.
    void on_extra(std::uint32_t member, RowId row, std::uint32_t interval,
                  std::uint32_t serial, std::uint32_t offset);

    /// Shared activations performed through this lane since the last
    /// commit.
    std::uint64_t activations() const noexcept { return activations_; }
    /// Whether a flip of any member awaits commit_lanes (bound lanes
    /// only).
    bool has_pending_flips() const noexcept;

   private:
    friend class DisturbanceModel;
    struct PendingFlip {
      RowId row = 0;
      std::uint32_t interval = 0;
      std::uint32_t serial = 0;
      std::uint32_t offset = 0;
    };
    struct Tag {
      std::uint32_t interval;
      std::uint32_t serial;
      std::uint32_t offset;
    };
    /// One member's view of the bank beyond the shared cells.
    struct MemberLedger {
      RowTable overlay;  ///< per row: member count - shared count, member latch
      std::vector<PendingFlip> pending;
      std::uint64_t activations = 0;  ///< extra activations since the commit
      std::uint64_t peak_q8 = 0;      ///< folds of rows this member overlays
    };
    /// A shared row's count and latch, and its mark record if marked.
    struct Shared {
      std::uint64_t count;
      bool latch;
      RowTable::Entry* mark;
    };

    std::int64_t threshold_q8(RowId row) const noexcept {
      return std::int64_t{thresholds_[static_cast<std::size_t>(row) & threshold_mask_]}
             << 8;
    }
    void restore(RowId row);
    void disturb(RowId row, std::int64_t amount2, Tag tag);
    // The rare paths, out of line. They take the lane by value, so the
    // walk's copy never escapes and its counters stay in registers.
    static void restore_marked(Lane lane, RowId row, std::int64_t cell);
    static std::int64_t crossed(Lane lane, RowId row, std::int64_t cell, Tag tag);
    static void member_activate(Lane lane, std::uint32_t member, RowId row,
                                Tag tag);
    void fire(std::uint32_t member, RowId row, Tag tag);
    Shared shared(RowId row);
    void remark(RowId row, const Shared& s, std::int64_t level);
    void member_disturb(MemberLedger& ledger, std::uint32_t member, RowId row,
                        std::int64_t amount, Tag tag);

    std::int64_t* cells_ = nullptr;                // the bank's cells
    const std::uint32_t* thresholds_ = nullptr;    // column or uniform value
    std::size_t threshold_mask_ = 0;               // ~0 = column, 0 = uniform
    std::int64_t distance2_q8_ = 0;                // 0 at blast radius 1
    RowId rows_ = 0;
    BankId bank_ = 0;
    std::uint32_t members_ = 1;
    std::uint64_t activations_ = 0;
    std::uint64_t peak_q8_ = 0;                    // folds of unmarked rows
    RowTable* marks_ = nullptr;                    // the bank's marked rows
    MemberLedger* ledgers_ = nullptr;              // the bank's, per member
  };

  /// Binds a lane to @p bank. At most one live lane per bank; the lane
  /// must not outlive the model.
  Lane lane(BankId bank);

  /// Folds a region's lanes back into the model (serial; call after the
  /// parallel region joins). @p prefix_of re-sequences flips: called for
  /// each member m with a pending flip, it returns an array whose entry j
  /// is the number of activations performed in m's system by all records
  /// with serial index < j in the region (across every lane), valid
  /// until its next call; a flip of m tagged (serial, offset) happened at
  /// activation activations(m) + prefix[serial] + offset + 1. Lanes are
  /// reset for reuse.
  using PrefixOf = std::function<const std::uint64_t*(std::uint32_t member)>;
  void commit_lanes(Lane* const* lanes, std::size_t n_lanes,
                    const PrefixOf& prefix_of);

 private:
  /// A cell holds 2 * (count - level) + mark: the row's q8 disturbance
  /// count relative to the level at which the next flip may fire, doubled
  /// so that bit 0 can mark a row on which some member keeps an overlay.
  /// A cell below zero needs no attention; a disturbance that brings it
  /// to zero or above is a flip, or a marked row to re-examine. The
  /// level of an unmarked row is its threshold, or threshold + kNever
  /// while its flip latch is set; a marked row's level (its trip) is
  /// kept in the bank's mark table, with the shared latch. A count
  /// reaches kNever only after 2^53 full-weight hits without a restore,
  /// so the encoding never changes a count, a peak or a flip.
  static constexpr std::int64_t kNever = std::int64_t{1} << 61;

  std::size_t index(BankId bank, RowId row) const noexcept {
    return static_cast<std::size_t>(bank) * rows_ + row;
  }
  std::uint32_t threshold_at(std::size_t index) const noexcept {
    return thresholds_[params_.variation_pct > 0 ? index : 0];
  }
  /// on_refresh_row of a marked row: every member folds and drops its
  /// overlay.
  void refresh_marked(BankId bank, RowId row);
  /// @p member's count of a row (the shared count plus its overlay).
  std::uint64_t count_of(BankId bank, RowId row, std::uint32_t member) const;
  void check_member(std::uint32_t member) const;

  /// The bank's sparse state: marked rows and each member's ledger.
  struct alignas(64) BankLedger {
    RowTable marks;  ///< marked row -> {shared latch, trip level}
    std::vector<Lane::MemberLedger> members;
  };

  std::uint32_t banks_;
  RowId rows_;
  DisturbanceParams params_;
  std::uint32_t members_;
  std::vector<std::int64_t> cells_;        // per (bank, row); see kNever
  std::vector<std::uint32_t> thresholds_;  // per (bank, row), or 1 uniform
  std::vector<BankLedger> ledgers_;        // per bank
  std::vector<std::vector<FlipEvent>> flips_;  // per member
  std::vector<std::uint64_t> activations_;     // per member
  std::uint64_t peak_q8_ = 0;                  // folds of unmarked rows
  std::vector<std::uint64_t> member_peak_q8_;  // per member: marked folds
};

// Lane's per-activation path is defined inline: it runs once per demand
// or mitigation ACT (10^8+ calls per campaign) and the bodies are a few
// loads and compares — the out-of-line call cost would rival the work.

inline void DisturbanceModel::Lane::restore(RowId row) {
  // Fold the closing charge period's count into the peak: it is the
  // period's highest.
  const std::int64_t c = cells_[row];
  const std::int64_t threshold = threshold_q8(row);
  if (c & 1) [[unlikely]] {
    restore_marked(*this, row, c);
  } else {
    std::int64_t count = (c >> 1) + threshold;
    count += (count >> 63) & kNever;  // a latched row's level is + kNever
    const auto folded = static_cast<std::uint64_t>(count);
    peak_q8_ = folded > peak_q8_ ? folded : peak_q8_;
  }
  cells_[row] = -2 * threshold;
}

inline void DisturbanceModel::Lane::disturb(RowId row, std::int64_t amount2,
                                            Tag tag) {
  std::int64_t c = cells_[row] + amount2;
  if (c >= 0) [[unlikely]] c = crossed(*this, row, c, tag);
  cells_[row] = c;
}

inline void DisturbanceModel::Lane::on_activate(RowId row,
                                                std::uint32_t interval,
                                                std::uint32_t serial,
                                                std::uint32_t offset) {
  ++activations_;
  const Tag tag{interval, serial, offset};
  // The activated row's own charge is restored and its latch cleared.
  restore(row);
  if (row > 0) disturb(row - 1, 2 * 256, tag);
  if (row + 1 < rows_) disturb(row + 1, 2 * 256, tag);
  if (distance2_q8_ != 0) {
    if (row > 1) disturb(row - 2, 2 * distance2_q8_, tag);
    if (row + 2 < rows_) disturb(row + 2, 2 * distance2_q8_, tag);
  }
}

inline void DisturbanceModel::Lane::on_extra(std::uint32_t member, RowId row,
                                             std::uint32_t interval,
                                             std::uint32_t serial,
                                             std::uint32_t offset) {
  if (members_ == 1)
    on_activate(row, interval, serial, offset);
  else
    member_activate(*this, member, row, Tag{interval, serial, offset});
}

}  // namespace tvp::dram
