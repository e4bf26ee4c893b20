#include "tvp/trace/source.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace tvp::trace {

std::size_t TraceSource::span_lanes(const AccessRecord** data,
                                   const BankLaneView** lanes,
                                   std::size_t* lane_banks) {
  *data = nullptr;
  *lanes = nullptr;
  *lane_banks = 0;
  return 0;
}

std::optional<AccessRecord> TraceSource::next() {
  AccessRecord rec;
  if (next_batch(&rec, 1) == 0) return std::nullopt;
  return rec;
}

void gather_lanes(const BankLaneView* lanes, std::size_t banks,
                  std::size_t* cursors, std::size_t from, std::size_t to,
                  AccessRecord* out) {
  for (std::size_t b = 0; b < banks; ++b) {
    const BankLaneView& lane = lanes[b];
    std::size_t k = cursors[b];
    for (; k < lane.count && lane.serials[k] < to; ++k) {
      AccessRecord& r = out[lane.serials[k] - from];
      const std::uint8_t flags = lane.flags[k];
      r.time_ps = lane.times[k];
      r.bank = static_cast<dram::BankId>(b);
      r.row = lane.rows[k];
      r.write = (flags & kLaneWrite) != 0;
      r.is_attack = (flags & kLaneAttack) != 0;
      r.source = lane.sources[k];
    }
    cursors[b] = k;
  }
}

std::size_t cut_lanes_before(BankLaneView* lanes, std::size_t banks,
                             std::uint64_t end_ps) {
  std::size_t kept = 0;
  for (std::size_t b = 0; b < banks; ++b) {
    BankLaneView& lane = lanes[b];
    lane.count = static_cast<std::size_t>(
        std::lower_bound(lane.times, lane.times + lane.count, end_ps) - lane.times);
    kept += lane.count;
  }
  return kept;
}

VectorSource::VectorSource(std::vector<AccessRecord> records)
    : records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i)
    if (records_[i].time_ps < records_[i - 1].time_ps)
      throw std::invalid_argument("VectorSource: records not time-sorted");
}

std::size_t VectorSource::next_batch(AccessRecord* out, std::size_t max) {
  const std::size_t n = std::min(max, records_.size() - pos_);
  std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
  pos_ += n;
  return n;
}

std::size_t VectorSource::span_lanes(const AccessRecord** data,
                                    const BankLaneView** lanes,
                                    std::size_t* lane_banks) {
  *lanes = nullptr;
  *lane_banks = 0;
  const std::size_t n = records_.size() - pos_;
  *data = n > 0 ? records_.data() + pos_ : nullptr;
  pos_ = records_.size();
  return n;
}

namespace {

// Loser-tree order: earlier time first, then lower index (registration
// order, with kDone leaves after every child that has records left).
bool before(std::uint64_t time, std::uint32_t index, std::uint64_t other_time,
            std::uint32_t other_index) noexcept {
  return time < other_time || (time == other_time && index < other_index);
}

}  // namespace

MergedSource::MergedSource(std::vector<std::unique_ptr<TraceSource>> sources)
    : sources_(std::move(sources)),
      records_(sources_.size() * kLaneRecords),
      lanes_(sources_.size()) {
  for (const auto& source : sources_)
    if (!source) throw std::invalid_argument("MergedSource: null source");
  const std::size_t leaves =
      std::bit_ceil(std::max<std::size_t>(sources_.size(), 1));
  times_.resize(leaves);
  indices_.resize(leaves);

  // The first tournament, bottom-up: slot j of these scratch arrays
  // holds the winner below node j, and the loser goes into the tree.
  std::vector<std::uint64_t> times(2 * leaves, ~std::uint64_t{0});
  std::vector<std::uint32_t> indices(2 * leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    indices[leaves + i] = static_cast<std::uint32_t>(i) | kDone;
    if (i < sources_.size() && load(i)) {
      times[leaves + i] = records_[i * kLaneRecords].time_ps;
      indices[leaves + i] = static_cast<std::uint32_t>(i);
    }
  }
  for (std::size_t j = leaves; j-- > 1;) {
    std::size_t winner = 2 * j;
    std::size_t loser = 2 * j + 1;
    if (before(times[loser], indices[loser], times[winner], indices[winner]))
      std::swap(winner, loser);
    times[j] = times[winner];
    indices[j] = indices[winner];
    times_[j] = times[loser];
    indices_[j] = indices[loser];
  }
  times_[0] = times[1];
  indices_[0] = indices[1];
}

// Refills child @p index's lane; false once the child is exhausted.
bool MergedSource::load(std::size_t index) {
  const std::size_t got =
      sources_[index]->next_batch(&records_[index * kLaneRecords], kLaneRecords);
  lanes_[index] = Lane{0, static_cast<std::uint32_t>(got)};
  return got != 0;
}

// Emits the winner's lane head, moves that lane on (refilling it when it
// runs dry, or marking the leaf kDone once its child is exhausted) and
// replays the leaf's path to the root: at each node the moving key and
// the stored loser play, and the loser stays. The moving key lives in
// locals and every array is reached through a local pointer, because a
// store into out[] may alias any member.
std::size_t MergedSource::next_batch(AccessRecord* out, std::size_t max) {
  std::uint64_t* const times = times_.data();
  std::uint32_t* const indices = indices_.data();
  Lane* const lanes = lanes_.data();
  const AccessRecord* const records = records_.data();
  const std::size_t leaves = times_.size();
  std::uint64_t time = times[0];
  std::uint32_t index = indices[0];
  std::size_t n = 0;
  for (; n < max && (index & kDone) == 0; ++n) {
    const std::uint32_t child = index;
    const AccessRecord* const lane_records = records + child * kLaneRecords;
    const Lane lane = lanes[child];
    out[n] = lane_records[lane.pos];
    if (lane.pos + 1 < lane.len) {
      lanes[child].pos = lane.pos + 1;
      time = lane_records[lane.pos + 1].time_ps;
    } else if (load(child)) {
      time = lane_records[0].time_ps;
    } else {
      time = ~std::uint64_t{0};
      index = child | kDone;
    }
    for (std::size_t node = (leaves + child) >> 1; node != 0; node >>= 1) {
      if (before(times[node], indices[node], time, index)) {
        std::swap(time, times[node]);
        std::swap(index, indices[node]);
      }
    }
  }
  times[0] = time;
  indices[0] = index;
  return n;
}

LimitSource::LimitSource(std::unique_ptr<TraceSource> inner,
                         std::uint64_t limit_records, std::uint64_t end_ps)
    : inner_(std::move(inner)), remaining_(limit_records), end_ps_(end_ps) {
  if (!inner_) throw std::invalid_argument("LimitSource: null source");
}

// Cuts the @p got records the inner source just produced: the time
// horizon first (records are time-sorted, so it is a partition point),
// then the record budget. Returns how many records survive.
std::size_t LimitSource::cut(const AccessRecord* records, std::size_t got) {
  const AccessRecord* end = std::partition_point(
      records, records + got,
      [this](const AccessRecord& r) { return r.time_ps < end_ps_; });
  return take(static_cast<std::size_t>(end - records), end != records + got);
}

// The record budget over @p got records that are before the horizon;
// @p time_cut says the horizon fell inside the pull, which ends the
// stream, as does an empty pull. Returns how many records survive.
std::size_t LimitSource::take(std::size_t got, bool time_cut) {
  if (got == 0 || time_cut || got >= remaining_) {
    got = static_cast<std::size_t>(std::min<std::uint64_t>(got, remaining_));
    remaining_ = 0;
  } else {
    remaining_ -= got;
  }
  return got;
}

std::size_t LimitSource::next_batch(AccessRecord* out, std::size_t max) {
  if (remaining_ == 0) return 0;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(max, remaining_));
  return cut(out, inner_->next_batch(out, want));
}

std::size_t LimitSource::span_lanes(const AccessRecord** data,
                                    const BankLaneView** lanes,
                                    std::size_t* lane_banks) {
  *data = nullptr;
  *lanes = nullptr;
  *lane_banks = 0;
  if (remaining_ == 0) return 0;
  const AccessRecord* span = nullptr;
  const BankLaneView* inner_lanes = nullptr;
  std::size_t inner_banks = 0;
  const std::size_t full = inner_->span_lanes(&span, &inner_lanes, &inner_banks);
  if (inner_lanes == nullptr) {
    const std::size_t got = cut(span, full);
    if (got != 0) *data = span;
    return got;
  }
  // A time-ordered span's records before the horizon, and those within
  // the record budget, are a prefix of it and of each of its lanes: cut
  // every lane at its own bound and the lanes still hold the cut span.
  lanes_.assign(inner_lanes, inner_lanes + inner_banks);
  const std::size_t before = cut_lanes_before(lanes_.data(), lanes_.size(), end_ps_);
  const std::size_t got = take(before, before != full);
  if (got < before)
    for (BankLaneView& lane : lanes_)
      lane.count = static_cast<std::size_t>(
          std::lower_bound(lane.serials, lane.serials + lane.count, got) -
          lane.serials);
  if (got == 0) return 0;
  *data = span;
  *lanes = lanes_.data();
  *lane_banks = inner_banks;
  return got;
}

std::vector<AccessRecord> drain(TraceSource& source, std::size_t max_records) {
  constexpr std::size_t kChunk = 4096;
  std::vector<AccessRecord> out;
  while (out.size() < max_records) {
    const std::size_t at = out.size();
    out.resize(at + std::min(kChunk, max_records - at));
    const std::size_t n = source.next_batch(out.data() + at, out.size() - at);
    out.resize(at + n);
    if (n == 0) break;
  }
  return out;
}

}  // namespace tvp::trace
