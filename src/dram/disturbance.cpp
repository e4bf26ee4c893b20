#include "tvp/dram/disturbance.hpp"

#include <algorithm>
#include <stdexcept>

#include "tvp/util/rng.hpp"

namespace tvp::dram {

// ----------------------------------------------------------------- RowTable

DisturbanceModel::RowTable::Entry* DisturbanceModel::RowTable::find(
    RowId row) noexcept {
  if (size_ == 0) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(row);; i = (i + 1) & mask) {
    if (slots_[i].row == row) return &slots_[i];
    if (slots_[i].row == kEmpty) return nullptr;
  }
}

DisturbanceModel::RowTable::Entry& DisturbanceModel::RowTable::find_or_insert(
    RowId row, bool latch) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_of(row);; i = (i + 1) & mask) {
    Entry& e = slots_[i];
    if (e.row == row) return e;
    if (e.row == kEmpty) {
      e = Entry{row, latch ? 1u : 0u, 0};
      ++size_;
      return e;
    }
  }
}

void DisturbanceModel::RowTable::erase(Entry& entry) noexcept {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole when the hole lies between its home slot and itself.
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = static_cast<std::size_t>(&entry - slots_.data());
  for (std::size_t j = (hole + 1) & mask; slots_[j].row != kEmpty;
       j = (j + 1) & mask) {
    const std::size_t home = slot_of(slots_[j].row);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].row = kEmpty;
  --size_;
}

void DisturbanceModel::RowTable::clear() noexcept {
  for (Entry& e : slots_) e.row = kEmpty;
  size_ = 0;
}

void DisturbanceModel::RowTable::grow() {
  std::vector<Entry> old(std::max<std::size_t>(16, 2 * slots_.size()),
                         Entry{kEmpty, 0, 0});
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Entry& e : old) {
    if (e.row == kEmpty) continue;
    std::size_t i = slot_of(e.row);
    while (slots_[i].row != kEmpty) i = (i + 1) & mask;
    slots_[i] = e;
  }
}

// -------------------------------------------------------- DisturbanceModel

DisturbanceModel::DisturbanceModel(std::uint32_t banks, RowId rows_per_bank,
                                   DisturbanceParams params,
                                   std::uint32_t members)
    : banks_(banks), rows_(rows_per_bank), params_(params), members_(members) {
  if (banks_ == 0 || rows_ == 0)
    throw std::invalid_argument("DisturbanceModel: zero banks or rows");
  if (members_ == 0)
    throw std::invalid_argument("DisturbanceModel: zero members");
  if (params_.flip_threshold == 0)
    throw std::invalid_argument("DisturbanceModel: zero flip threshold");
  if (params_.blast_radius == 0 || params_.blast_radius > 2)
    throw std::invalid_argument("DisturbanceModel: blast_radius must be 1 or 2");
  if (params_.variation_pct >= 100)
    throw std::invalid_argument(
        "DisturbanceModel: variation_pct must be below 100");
  const std::size_t cells = static_cast<std::size_t>(banks_) * rows_;
  if (params_.variation_pct > 0) {
    // Device-fixed per-row threshold draw (weak/strong cell variation).
    util::Rng rng(params_.variation_seed);
    thresholds_.resize(cells);
    const double v = params_.variation_pct / 100.0;
    const double base = static_cast<double>(params_.flip_threshold);
    for (auto& t : thresholds_) {
      const double factor = 1.0 - v + 2.0 * v * rng.uniform();
      t = std::max<std::uint32_t>(1, static_cast<std::uint32_t>(base * factor));
    }
  } else {
    thresholds_.assign(1, params_.flip_threshold);
  }
  ledgers_ = std::vector<BankLedger>(banks_);
  for (BankLedger& ledger : ledgers_) ledger.members.resize(members_);
  flips_.resize(members_);
  activations_.assign(members_, 0);
  member_peak_q8_.assign(members_, 0);
  reset();
}

void DisturbanceModel::check_member(std::uint32_t member) const {
  if (member >= members_)
    throw std::out_of_range("DisturbanceModel: member out of range");
}

std::uint32_t DisturbanceModel::threshold_of(BankId bank, RowId row) const {
  if (bank >= banks_ || row >= rows_)
    throw std::out_of_range("DisturbanceModel::threshold_of");
  return threshold_at(index(bank, row));
}

void DisturbanceModel::on_activate(BankId bank, RowId row, std::uint32_t interval,
                                   std::uint32_t member) {
  check_member(member);
  Lane l = lane(bank);
  if (l.has_pending_flips())
    throw std::logic_error(
        "DisturbanceModel::on_activate: the bank's lane is not committed");
  l.on_extra(member, row, interval, 0, 0);
  Lane* const lanes[] = {&l};
  static constexpr std::uint64_t kZero = 0;
  commit_lanes(lanes, 1, [](std::uint32_t) { return &kZero; });
}

void DisturbanceModel::on_refresh_rows(BankId bank, const RowId* rows,
                                       std::size_t n) {
  std::int64_t* const cells = cells_.data() + index(bank, 0);
  const bool per_row = params_.variation_pct > 0;
  const std::uint32_t* const thresholds =
      thresholds_.data() + (per_row ? index(bank, 0) : 0);
  const std::size_t mask = per_row ? ~std::size_t{0} : 0;
  std::uint64_t peak = peak_q8_;
  for (std::size_t k = 0; k < n; ++k) {
    const RowId row = rows[k];
    const std::int64_t c = cells[row];
    const std::int64_t restored =
        -2 * (std::int64_t{thresholds[row & mask]} << 8);
    // Most refreshed rows were not disturbed since their last restore.
    if (c == restored) continue;
    if (c & 1) [[unlikely]] {
      refresh_marked(bank, row);
    } else {
      std::int64_t count = (c - restored) >> 1;
      count += (count >> 63) & kNever;
      peak = std::max(peak, static_cast<std::uint64_t>(count));
    }
    cells[row] = restored;
  }
  peak_q8_ = peak;
}

void DisturbanceModel::refresh_marked(BankId bank, RowId row) {
  Lane::restore_marked(lane(bank), row, cells_[index(bank, row)]);
  // Nothing else is pending in the members' ledgers between commits.
  for (std::uint32_t m = 0; m < members_; ++m) {
    std::uint64_t& folded = ledgers_[bank].members[m].peak_q8;
    member_peak_q8_[m] = std::max(member_peak_q8_[m], folded);
    folded = 0;
  }
}

std::uint64_t DisturbanceModel::count_of(BankId bank, RowId row,
                                         std::uint32_t member) const {
  const std::size_t i = index(bank, row);
  const std::int64_t c = cells_[i];
  if (c & 1) {
    const BankLedger& ledger = ledgers_[bank];
    std::int64_t count = (c >> 1) + ledger.marks.find(row)->value;
    if (const RowTable::Entry* e = ledger.members[member].overlay.find(row))
      count += e->value;
    return static_cast<std::uint64_t>(count);
  }
  std::int64_t count = (c >> 1) + (std::int64_t{threshold_at(i)} << 8);
  count += (count >> 63) & kNever;
  return static_cast<std::uint64_t>(count);
}

std::uint64_t DisturbanceModel::disturbance_q8(BankId bank, RowId row,
                                               std::uint32_t member) const {
  if (bank >= banks_ || row >= rows_)
    throw std::out_of_range("DisturbanceModel::disturbance_q8");
  check_member(member);
  return count_of(bank, row, member);
}

std::uint64_t DisturbanceModel::peak_disturbance_q8(std::uint32_t member) const {
  check_member(member);
  return peaks_q8()[member];
}

std::vector<std::uint64_t> DisturbanceModel::peaks_q8() const {
  std::uint64_t shared = peak_q8_;
  std::vector<std::uint64_t> peaks = member_peak_q8_;
  const std::size_t mask = params_.variation_pct > 0 ? ~std::size_t{0} : 0;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const std::int64_t c = cells_[i];
    const std::int64_t restored = -2 * (std::int64_t{thresholds_[i & mask]} << 8);
    if (c == restored) continue;  // count 0, the common case
    if (c & 1) {
      for (std::uint32_t m = 0; m < members_; ++m)
        peaks[m] = std::max(peaks[m], count_of(static_cast<BankId>(i / rows_),
                                               static_cast<RowId>(i % rows_), m));
      continue;
    }
    std::int64_t count = (c - restored) >> 1;
    count += (count >> 63) & kNever;
    shared = std::max(shared, static_cast<std::uint64_t>(count));
  }
  for (std::uint64_t& peak : peaks) peak = std::max(peak, shared);
  return peaks;
}

void DisturbanceModel::reset() {
  // Every row restored: count 0 below its threshold, latch clear.
  const std::size_t cells = static_cast<std::size_t>(banks_) * rows_;
  if (params_.variation_pct > 0) {
    cells_.clear();
    cells_.reserve(cells);
    for (std::size_t i = 0; i < cells; ++i)
      cells_.push_back(-2 * (std::int64_t{thresholds_[i]} << 8));
  } else {
    cells_.assign(cells, -2 * (std::int64_t{thresholds_[0]} << 8));
  }
  for (BankLedger& ledger : ledgers_) {
    ledger.marks.clear();
    for (Lane::MemberLedger& m : ledger.members) {
      m.overlay.clear();
      m.pending.clear();
      m.activations = 0;
      m.peak_q8 = 0;
    }
  }
  for (auto& flips : flips_) flips.clear();
  std::fill(activations_.begin(), activations_.end(), 0);
  std::fill(member_peak_q8_.begin(), member_peak_q8_.end(), 0);
  peak_q8_ = 0;
}

DisturbanceModel::Lane DisturbanceModel::lane(BankId bank) {
  if (bank >= banks_) throw std::out_of_range("DisturbanceModel::lane");
  const bool per_row = params_.variation_pct > 0;
  Lane l;
  l.cells_ = cells_.data() + index(bank, 0);
  l.thresholds_ = thresholds_.data() + (per_row ? index(bank, 0) : 0);
  l.threshold_mask_ = per_row ? ~std::size_t{0} : 0;
  l.distance2_q8_ =
      params_.blast_radius >= 2 ? params_.distance2_weight_q8 : 0;
  l.rows_ = rows_;
  l.bank_ = bank;
  l.members_ = members_;
  l.marks_ = &ledgers_[bank].marks;
  l.ledgers_ = ledgers_[bank].members.data();
  return l;
}

void DisturbanceModel::commit_lanes(Lane* const* lanes, std::size_t n_lanes,
                                    const PrefixOf& prefix_of) {
  std::uint64_t shared = 0;
  for (std::size_t i = 0; i < n_lanes; ++i) {
    shared += lanes[i]->activations_;
    peak_q8_ = std::max(peak_q8_, lanes[i]->peak_q8_);
    lanes[i]->activations_ = 0;
    lanes[i]->peak_q8_ = 0;
  }
  for (std::uint32_t m = 0; m < members_; ++m) {
    const std::uint64_t base = activations_[m];
    std::uint64_t own = 0;
    bool any_flips = false;
    for (std::size_t i = 0; i < n_lanes; ++i) {
      Lane::MemberLedger& ledger = lanes[i]->ledgers_[m];
      own += ledger.activations;
      member_peak_q8_[m] = std::max(member_peak_q8_[m], ledger.peak_q8);
      any_flips = any_flips || !ledger.pending.empty();
      ledger.activations = 0;
      ledger.peak_q8 = 0;
    }
    activations_[m] = base + shared + own;
    if (!any_flips) continue;
    const std::uint64_t* prefix = prefix_of(m);
    // Flips are rare (a mitigation failure); re-sequencing them into the
    // serial activation order may allocate.
    struct Tagged {
      BankId bank;
      Lane::PendingFlip flip;
    };
    std::vector<Tagged> all;
    for (std::size_t i = 0; i < n_lanes; ++i) {
      auto& pending = lanes[i]->ledgers_[m].pending;
      for (const auto& f : pending) all.push_back(Tagged{lanes[i]->bank_, f});
      pending.clear();
    }
    // stable: a single activation can flip several neighbours (same
    // serial and offset) — they keep the order the lane disturbed them
    // in (row-1, row+1, row-2, row+2).
    std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
      if (a.flip.serial != b.flip.serial) return a.flip.serial < b.flip.serial;
      return a.flip.offset < b.flip.offset;
    });
    for (const auto& t : all)
      flips_[m].push_back(FlipEvent{t.bank, t.flip.row,
                                    base + prefix[t.flip.serial] + t.flip.offset + 1,
                                    t.flip.interval});
  }
}

// --------------------------------------------------------- Lane, rare paths

bool DisturbanceModel::Lane::has_pending_flips() const noexcept {
  for (std::uint32_t m = 0; m < members_; ++m)
    if (!ledgers_[m].pending.empty()) return true;
  return false;
}

void DisturbanceModel::Lane::fire(std::uint32_t member, RowId row, Tag tag) {
  ledgers_[member].pending.push_back(
      PendingFlip{row, tag.interval, tag.serial, tag.offset});
}

void DisturbanceModel::Lane::restore_marked(Lane lane, RowId row,
                                            std::int64_t cell) {
  // Every member's charge is restored: each folds its own count and
  // drops its overlay, and the row is unmarked (the caller resets it).
  RowTable::Entry* mark = lane.marks_->find(row);
  const std::int64_t count = (cell >> 1) + mark->value;
  for (std::uint32_t m = 0; m < lane.members_; ++m) {
    MemberLedger& ledger = lane.ledgers_[m];
    std::int64_t mine = count;
    if (RowTable::Entry* e = ledger.overlay.find(row)) {
      mine += e->value;
      ledger.overlay.erase(*e);
    }
    ledger.peak_q8 = std::max(ledger.peak_q8, static_cast<std::uint64_t>(mine));
  }
  lane.marks_->erase(*mark);
}

std::int64_t DisturbanceModel::Lane::crossed(Lane lane, RowId row,
                                             std::int64_t cell, Tag tag) {
  const std::int64_t threshold = lane.threshold_q8(row);
  if (!(cell & 1)) {
    // An unmarked row reached its threshold: it flips in every member's
    // system, and its latch (level + kNever) holds until its restore.
    for (std::uint32_t m = 0; m < lane.members_; ++m) lane.fire(m, row, tag);
    return cell - 2 * kNever;
  }
  // A marked row reached its trip: the shared flip fires for the members
  // without an overlay; a member with one tests its own count and latch.
  // Then the trip is recomputed exactly.
  RowTable::Entry* mark = lane.marks_->find(row);
  const std::int64_t count = (cell >> 1) + mark->value;
  const bool shared_flip = mark->latch == 0 && count >= threshold;
  if (shared_flip) mark->latch = 1;
  std::int64_t trip = mark->latch != 0 ? kNever : threshold;
  for (std::uint32_t m = 0; m < lane.members_; ++m) {
    RowTable::Entry* e = lane.ledgers_[m].overlay.find(row);
    if (e == nullptr) {
      if (shared_flip) lane.fire(m, row, tag);
      continue;
    }
    if (e->latch == 0 && count + e->value >= threshold) {
      e->latch = 1;
      lane.fire(m, row, tag);
    }
    if (e->latch == 0) trip = std::min(trip, threshold - e->value);
  }
  mark->value = trip;
  return 2 * (count - trip) + 1;
}

DisturbanceModel::Lane::Shared DisturbanceModel::Lane::shared(RowId row) {
  const std::int64_t c = cells_[row];
  if (c & 1) {
    RowTable::Entry* mark = marks_->find(row);
    return Shared{static_cast<std::uint64_t>((c >> 1) + mark->value),
                  mark->latch != 0, mark};
  }
  std::int64_t count = (c >> 1) + threshold_q8(row);
  const bool latch = count < 0;
  if (latch) count += kNever;
  return Shared{static_cast<std::uint64_t>(count), latch, nullptr};
}

void DisturbanceModel::Lane::remark(RowId row, const Shared& s,
                                    std::int64_t level) {
  // The trip is the lowest level at which some member's system can flip
  // the row; lowering it is always safe (crossed recomputes it exactly).
  RowTable::Entry* mark = s.mark;
  if (mark == nullptr) {
    mark = &marks_->find_or_insert(row, s.latch);
    mark->value = s.latch ? kNever : threshold_q8(row);
  }
  mark->value = std::min(mark->value, level);
  cells_[row] = 2 * (static_cast<std::int64_t>(s.count) - mark->value) + 1;
}

void DisturbanceModel::Lane::member_activate(Lane lane, std::uint32_t member,
                                             RowId row, Tag tag) {
  MemberLedger& ledger = lane.ledgers_[member];
  ++ledger.activations;
  // The row's charge is restored in this member's system only.
  const Shared s = lane.shared(row);
  RowTable::Entry& e = ledger.overlay.find_or_insert(row, s.latch);
  const std::int64_t count = static_cast<std::int64_t>(s.count);
  ledger.peak_q8 =
      std::max(ledger.peak_q8, static_cast<std::uint64_t>(count + e.value));
  e.value = -count;
  e.latch = 0;
  lane.remark(row, s, lane.threshold_q8(row) + count);
  if (row > 0) lane.member_disturb(ledger, member, row - 1, 256, tag);
  if (row + 1 < lane.rows_) lane.member_disturb(ledger, member, row + 1, 256, tag);
  if (lane.distance2_q8_ != 0) {
    if (row > 1)
      lane.member_disturb(ledger, member, row - 2, lane.distance2_q8_, tag);
    if (row + 2 < lane.rows_)
      lane.member_disturb(ledger, member, row + 2, lane.distance2_q8_, tag);
  }
}

void DisturbanceModel::Lane::member_disturb(MemberLedger& ledger,
                                            std::uint32_t member, RowId row,
                                            std::int64_t amount, Tag tag) {
  const Shared s = shared(row);
  RowTable::Entry& e = ledger.overlay.find_or_insert(row, s.latch);
  e.value += amount;
  const std::int64_t threshold = threshold_q8(row);
  if (e.latch == 0 && static_cast<std::int64_t>(s.count) + e.value >= threshold) {
    e.latch = 1;
    fire(member, row, tag);
  }
  remark(row, s, e.latch != 0 ? kNever : threshold - e.value);
}

}  // namespace tvp::dram
