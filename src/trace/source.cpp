#include "tvp/trace/source.hpp"

#include <algorithm>
#include <stdexcept>

namespace tvp::trace {

std::size_t TraceSource::next_batch(AccessRecord* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    auto rec = next();
    if (!rec) break;
    out[n++] = *rec;
  }
  return n;
}

std::size_t TraceSource::next_span(const AccessRecord** data) {
  *data = nullptr;
  return 0;
}

VectorSource::VectorSource(std::vector<AccessRecord> records)
    : records_(std::move(records)) {
  for (std::size_t i = 1; i < records_.size(); ++i)
    if (records_[i].time_ps < records_[i - 1].time_ps)
      throw std::invalid_argument("VectorSource: records not time-sorted");
}

std::optional<AccessRecord> VectorSource::next() {
  if (pos_ >= records_.size()) return std::nullopt;
  return records_[pos_++];
}

std::size_t VectorSource::next_batch(AccessRecord* out, std::size_t max) {
  const std::size_t n = std::min(max, records_.size() - pos_);
  std::copy_n(records_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
  pos_ += n;
  return n;
}

std::size_t VectorSource::next_span(const AccessRecord** data) {
  const std::size_t n = records_.size() - pos_;
  *data = n > 0 ? records_.data() + pos_ : nullptr;
  pos_ = records_.size();
  return n;
}

MergedSource::MergedSource(std::vector<std::unique_ptr<TraceSource>> sources)
    : sources_(std::move(sources)),
      records_(sources_.size() * kLaneRecords),
      lanes_(sources_.size()) {
  for (const auto& source : sources_)
    if (!source) throw std::invalid_argument("MergedSource: null source");
  heap_.reserve(sources_.size());
  for (std::size_t i = 0; i < sources_.size(); ++i)
    if (load(i))
      heap_.push_back(Key{records_[i * kLaneRecords].time_ps,
                          static_cast<std::uint32_t>(i)});
  for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i);
}

// Refills child @p index's lane; false once the child is exhausted.
bool MergedSource::load(std::size_t index) {
  const std::size_t got =
      sources_[index]->next_batch(&records_[index * kLaneRecords], kLaneRecords);
  lanes_[index] = Lane{0, static_cast<std::uint32_t>(got)};
  return got != 0;
}

// Moves heap_[hole]'s key down to its place.
void MergedSource::sift_down(std::size_t hole) {
  const std::size_t n = heap_.size();
  const Key key = heap_[hole];
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < key)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = key;
}

// Emits the earliest lane head, then advances that lane: the top key is
// replaced by the lane's next time (refilling the lane when it runs
// dry) or removed when its child is exhausted, and sifted down once.
bool MergedSource::pop(AccessRecord& out) {
  if (heap_.empty()) return false;
  const std::size_t index = heap_.front().index;
  Lane& lane = lanes_[index];
  const AccessRecord* lane_records = &records_[index * kLaneRecords];
  out = lane_records[lane.pos];
  if (++lane.pos < lane.len || load(index)) {
    heap_.front().time_ps = lane_records[lane.pos].time_ps;
  } else {
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) return true;
  }
  sift_down(0);
  return true;
}

std::optional<AccessRecord> MergedSource::next() {
  AccessRecord rec;
  if (!pop(rec)) return std::nullopt;
  return rec;
}

std::size_t MergedSource::next_batch(AccessRecord* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max && pop(out[n])) ++n;
  return n;
}

LimitSource::LimitSource(std::unique_ptr<TraceSource> inner,
                         std::uint64_t limit_records, std::uint64_t end_ps)
    : inner_(std::move(inner)), remaining_(limit_records), end_ps_(end_ps) {
  if (!inner_) throw std::invalid_argument("LimitSource: null source");
}

std::optional<AccessRecord> LimitSource::next() {
  if (remaining_ == 0) return std::nullopt;
  auto rec = inner_->next();
  if (!rec || rec->time_ps >= end_ps_) {
    remaining_ = 0;
    return std::nullopt;
  }
  --remaining_;
  return rec;
}

std::size_t LimitSource::next_batch(AccessRecord* out, std::size_t max) {
  if (remaining_ == 0) return 0;
  const std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(max, remaining_));
  const std::size_t got = inner_->next_batch(out, want);
  // Cut at the time horizon exactly where next() would have: the first
  // out-of-range record kills the stream (records are time-ordered, so
  // everything after it is out of range too).
  for (std::size_t i = 0; i < got; ++i) {
    if (out[i].time_ps >= end_ps_) {
      remaining_ = 0;
      return i;
    }
  }
  remaining_ -= got;
  if (got < want) remaining_ = 0;  // inner exhausted
  return got;
}

std::size_t LimitSource::next_span(const AccessRecord** data) {
  *data = nullptr;
  if (remaining_ == 0) return 0;
  const AccessRecord* span = nullptr;
  std::size_t got = inner_->next_span(&span);
  if (got == 0) {
    remaining_ = 0;
    return 0;
  }
  // Trim at the time horizon first: spans are time-sorted, so the cut
  // is the partition point of time_ps < end_ps_.
  const AccessRecord* cut = std::partition_point(
      span, span + got,
      [this](const AccessRecord& r) { return r.time_ps < end_ps_; });
  const bool time_cut = cut != span + got;
  if (time_cut) got = static_cast<std::size_t>(cut - span);
  if (got >= remaining_) {
    got = static_cast<std::size_t>(remaining_);
    remaining_ = 0;
  } else {
    // A time cut kills the stream even under the record limit.
    remaining_ = time_cut ? 0 : remaining_ - got;
  }
  *data = got > 0 ? span : nullptr;
  return got;
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
  std::size_t got = inner_->span_lanes(&span, &inner_lanes, &inner_banks);
  if (got == 0) {
    remaining_ = 0;
    return 0;
  }
  const std::size_t full = got;
  // Same cut-off as next_span: time horizon first, then the record
  // budget.
  const AccessRecord* cut = std::partition_point(
      span, span + got,
      [this](const AccessRecord& r) { return r.time_ps < end_ps_; });
  const bool time_cut = cut != span + got;
  if (time_cut) got = static_cast<std::size_t>(cut - span);
  if (got >= remaining_) {
    got = static_cast<std::size_t>(remaining_);
    remaining_ = 0;
  } else {
    remaining_ = time_cut ? 0 : remaining_ - got;
  }
  *data = got > 0 ? span : nullptr;
  // Lanes describe the inner span in full; a trimmed span would leave
  // them claiming records past the cut, so only an untrimmed span
  // passes them through (the consumer re-partitions otherwise).
  if (got == full && inner_lanes != nullptr) {
    *lanes = inner_lanes;
    *lane_banks = inner_banks;
  }
  return got;
}

std::vector<AccessRecord> drain(TraceSource& source, std::size_t max_records) {
  std::vector<AccessRecord> out;
  while (out.size() < max_records) {
    auto rec = source.next();
    if (!rec) break;
    out.push_back(*rec);
  }
  return out;
}

}  // namespace tvp::trace
