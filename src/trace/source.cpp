#include "tvp/trace/source.hpp"

#include <algorithm>
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

std::size_t TraceSource::next_span(const AccessRecord** data) {
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  return span_lanes(data, &lanes, &lane_banks);
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

// Cuts the @p got records the inner source just produced: the time
// horizon first (records are time-sorted, so it is a partition point,
// and it ends the stream), then the record budget. An empty pull ends
// the stream too. Returns how many records survive.
std::size_t LimitSource::cut(const AccessRecord* records, std::size_t got) {
  const AccessRecord* end = std::partition_point(
      records, records + got,
      [this](const AccessRecord& r) { return r.time_ps < end_ps_; });
  const bool time_cut = end != records + got;
  got = static_cast<std::size_t>(end - records);
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
  const std::size_t got = cut(span, full);
  if (got == 0) return 0;
  *data = span;
  // Lanes describe the inner span in full; a trimmed span would leave
  // them claiming records past the cut, so only an untrimmed span
  // passes them through (the consumer re-partitions otherwise).
  if (got == full) {
    *lanes = inner_lanes;
    *lane_banks = inner_banks;
  }
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
