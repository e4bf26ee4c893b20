#include "tvp/dram/disturbance.hpp"

#include <algorithm>
#include <stdexcept>

#include "tvp/util/rng.hpp"

namespace tvp::dram {

DisturbanceModel::DisturbanceModel(std::uint32_t banks, RowId rows_per_bank,
                                   DisturbanceParams params)
    : banks_(banks), rows_(rows_per_bank), params_(params) {
  if (banks_ == 0 || rows_ == 0)
    throw std::invalid_argument("DisturbanceModel: zero banks or rows");
  if (params_.flip_threshold == 0)
    throw std::invalid_argument("DisturbanceModel: zero flip threshold");
  if (params_.blast_radius == 0 || params_.blast_radius > 2)
    throw std::invalid_argument("DisturbanceModel: blast_radius must be 1 or 2");
  if (params_.variation_pct >= 100)
    throw std::invalid_argument(
        "DisturbanceModel: variation_pct must be below 100");
  const std::size_t cells = static_cast<std::size_t>(banks_) * rows_;
  cells_.assign(cells, 0);
  pending_.resize(banks_);
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
}

std::uint32_t DisturbanceModel::threshold_of(BankId bank, RowId row) const {
  if (bank >= banks_ || row >= rows_)
    throw std::out_of_range("DisturbanceModel::threshold_of");
  return params_.variation_pct > 0 ? thresholds_[index(bank, row)]
                                   : thresholds_[0];
}

void DisturbanceModel::on_activate(BankId bank, RowId row, std::uint32_t interval) {
  Lane l = lane(bank);
  if (l.has_pending_flips())
    throw std::logic_error(
        "DisturbanceModel::on_activate: the bank's lane is not committed");
  l.on_activate(row, interval, 0, 0);
  Lane* const lanes[] = {&l};
  const std::uint64_t prefix = 0;
  commit_lanes(lanes, 1, &prefix);
}

void DisturbanceModel::on_refresh_row(BankId bank, RowId row) {
  cells_[index(bank, row)] = 0;
}

std::uint64_t DisturbanceModel::disturbance_q8(BankId bank, RowId row) const {
  if (bank >= banks_ || row >= rows_)
    throw std::out_of_range("DisturbanceModel::disturbance_q8");
  return cells_[index(bank, row)] & kCountMask;
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
  l.pending_ = &pending_[bank];
  return l;
}

void DisturbanceModel::commit_lanes(Lane* const* lanes, std::size_t n_lanes,
                                    const std::uint64_t* prefix) {
  const std::uint64_t base = activations_;
  bool any_flips = false;
  for (std::size_t i = 0; i < n_lanes; ++i) {
    activations_ += lanes[i]->activations_;
    peak_q8_ = std::max(peak_q8_, lanes[i]->peak_q8_);
    any_flips = any_flips || lanes[i]->has_pending_flips();
  }
  if (any_flips) {
    if (prefix == nullptr)
      throw std::invalid_argument(
          "DisturbanceModel::commit_lanes: flips pending but no prefix");
    // Flips are rare (a mitigation failure); re-sequencing them into the
    // serial activation order may allocate.
    struct Tagged {
      BankId bank;
      Lane::PendingFlip flip;
    };
    std::vector<Tagged> all;
    for (std::size_t i = 0; i < n_lanes; ++i)
      for (const auto& f : *lanes[i]->pending_)
        all.push_back(Tagged{lanes[i]->bank_, f});
    // stable: a single activation can flip several neighbours (same
    // serial and offset) — they keep the order the lane disturbed them
    // in (row-1, row+1, row-2, row+2).
    std::stable_sort(all.begin(), all.end(), [](const Tagged& a, const Tagged& b) {
      if (a.flip.serial != b.flip.serial) return a.flip.serial < b.flip.serial;
      return a.flip.offset < b.flip.offset;
    });
    for (const auto& t : all)
      flips_.push_back(FlipEvent{t.bank, t.flip.row,
                                 base + prefix[t.flip.serial] + t.flip.offset + 1,
                                 t.flip.interval});
  }
  for (std::size_t i = 0; i < n_lanes; ++i) {
    lanes[i]->activations_ = 0;
    lanes[i]->peak_q8_ = 0;
    lanes[i]->pending_->clear();
  }
}

void DisturbanceModel::reset() {
  std::fill(cells_.begin(), cells_.end(), 0);
  flips_.clear();
  activations_ = 0;
  peak_q8_ = 0;
}

}  // namespace tvp::dram
