// Trace sources: pull-based streams of AccessRecords ordered by time.
//
// Generators (synthetic workloads, attackers, file readers) implement
// TraceSource; MergedSource interleaves any number of them into one
// time-ordered stream, which is what the memory controller consumes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tvp/trace/record.hpp"

namespace tvp::trace {

/// Abstract pull-based record stream. Implementations must produce
/// records with non-decreasing time_ps.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Next record, or nullopt when the stream is exhausted.
  virtual std::optional<AccessRecord> next() = 0;

  /// Fills @p out with up to @p max records and returns the count
  /// (0 = exhausted). The record sequence is exactly the one next()
  /// would produce — batching only amortizes the per-record virtual
  /// call from the consumer's side. The base implementation loops
  /// next(); sources with cheap bulk access override it.
  virtual std::size_t next_batch(AccessRecord* out, std::size_t max);

  /// True when next_span() is cheaper than next_batch() for this
  /// source — i.e. the records already live in memory and the source
  /// can hand out a borrowed view instead of copying.
  virtual bool supports_spans() const noexcept { return false; }

  /// Zero-copy variant of next_batch(): points @p data at a contiguous
  /// run of records owned by the source and returns its length
  /// (0 = exhausted). The span stays valid until the next call on this
  /// source. Span lengths are an implementation detail (block-sized for
  /// mmap'd corpora, the whole tail for vectors); the concatenation of
  /// all spans is exactly the next() sequence. Only meaningful when
  /// supports_spans() is true; the base implementation returns 0.
  virtual std::size_t next_span(const AccessRecord** data);

  /// Like next_span(), but additionally offers the span's per-bank
  /// column lanes when the source has them precomputed (a corpus with a
  /// partition index): on return *lanes either points at @p lane_banks
  /// BankLaneView entries — one per bank, serials relative to the
  /// returned span, valid until the next call — or is null, meaning the
  /// consumer partitions the span itself. Lanes are an optimization,
  /// never a semantic: the record span is identical either way. The
  /// base implementation forwards to next_span() with no lanes.
  virtual std::size_t span_lanes(const AccessRecord** data,
                                 const BankLaneView** lanes,
                                 std::size_t* lane_banks) {
    *lanes = nullptr;
    *lane_banks = 0;
    return next_span(data);
  }
};

/// Replays a pre-built vector of records (must be time-sorted; verified
/// at construction).
class VectorSource final : public TraceSource {
 public:
  explicit VectorSource(std::vector<AccessRecord> records);
  std::optional<AccessRecord> next() override;
  /// Bulk copy out of the backing vector (one virtual call per batch).
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  bool supports_spans() const noexcept override { return true; }
  /// Hands out the whole unconsumed tail of the vector in one span.
  std::size_t next_span(const AccessRecord** data) override;

 private:
  std::vector<AccessRecord> records_;
  std::size_t pos_ = 0;
};

/// Merges multiple sources into one time-ordered stream (stable k-way
/// merge; ties broken by source registration order).
///
/// Each child is read ahead into a lane of kLaneRecords records with one
/// next_batch() call per refill, and a binary min-heap keyed on
/// (time_ps, source index) picks the next lane. Reading ahead changes no
/// record: children own their state (RNG forks, cursors) and share
/// nothing mutable, so when a child is pulled is unobservable and the
/// merged order depends only on the children's sequences. Records read
/// past a downstream cut (LimitSource's horizon) are simply discarded.
class MergedSource final : public TraceSource {
 public:
  /// Records pulled from a child per refill.
  static constexpr std::size_t kLaneRecords = 256;

  explicit MergedSource(std::vector<std::unique_ptr<TraceSource>> sources);
  std::optional<AccessRecord> next() override;
  /// Runs the merge loop inline, one virtual call per batch.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;

 private:
  /// Heap entry: the time of a child's current lane head.
  struct Key {
    std::uint64_t time_ps;
    std::uint32_t index;
    /// Earlier time first, then registration order. Keys never compare
    /// equal (one per child), so any valid heap pops the same sequence.
    bool operator<(const Key& other) const noexcept {
      return time_ps < other.time_ps ||
             (time_ps == other.time_ps && index < other.index);
    }
  };
  /// A child's unconsumed lane range [pos, len).
  struct Lane {
    std::uint32_t pos = 0;
    std::uint32_t len = 0;
  };

  bool load(std::size_t index);
  void sift_down(std::size_t hole);
  bool pop(AccessRecord& out);

  std::vector<std::unique_ptr<TraceSource>> sources_;
  // Every child's lane in one block (child i owns records
  // [i * kLaneRecords, (i + 1) * kLaneRecords)).
  std::vector<AccessRecord> records_;
  std::vector<Lane> lanes_;
  std::vector<Key> heap_;  // one entry per child with records left
};

/// Truncates an underlying source after @p limit records or @p end_ps
/// picoseconds (whichever comes first).
class LimitSource final : public TraceSource {
 public:
  LimitSource(std::unique_ptr<TraceSource> inner, std::uint64_t limit_records,
              std::uint64_t end_ps);
  std::optional<AccessRecord> next() override;
  /// Forwards to the inner source's batch path, applying the record and
  /// time limits per record (identical cut-off to next()).
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  /// Spans pass through when the inner source supports them.
  bool supports_spans() const noexcept override {
    return inner_->supports_spans();
  }
  /// Borrows the inner span and trims it to the record/time limits
  /// (identical cut-off to next(); the trim is a partition_point on the
  /// time-sorted span, not a copy).
  std::size_t next_span(const AccessRecord** data) override;
  /// Passes the inner source's lanes through for untrimmed spans; a
  /// trimmed span drops them (its lanes would reference records past
  /// the cut).
  std::size_t span_lanes(const AccessRecord** data, const BankLaneView** lanes,
                         std::size_t* lane_banks) override;

 private:
  std::unique_ptr<TraceSource> inner_;
  std::uint64_t remaining_;
  std::uint64_t end_ps_;
};

/// Drains a source into a vector (testing / trace capture helper).
std::vector<AccessRecord> drain(TraceSource& source, std::size_t max_records = ~0ull);

}  // namespace tvp::trace
