// Trace sources: pull-based streams of AccessRecords ordered by time.
//
// Generators (synthetic workloads, attackers, the cache front-end) and
// the corpus reader (MmapSource, trace/corpus.hpp) implement
// TraceSource; MergedSource interleaves any number of them into one
// time-ordered stream, which is what the memory controller consumes.
// A source is pulled by copy (next_batch) or, when its records already
// live in memory, by borrowed span (span_lanes): a record span, or a
// corpus block's per-bank lanes.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tvp/trace/record.hpp"

namespace tvp::trace {

/// Abstract pull-based record stream. Implementations must produce
/// records with non-decreasing time_ps.
///
/// Two virtual pulls: next_batch() copies records out, span_lanes()
/// lends them in place. next() is a convenience over next_batch().
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Fills @p out with up to @p max records and returns the count
  /// (0 = exhausted).
  virtual std::size_t next_batch(AccessRecord* out, std::size_t max) = 0;

  /// True when span_lanes() is cheaper than next_batch() for this
  /// source — i.e. the records already live in memory and the source
  /// can hand out a borrowed view instead of copying.
  virtual bool supports_spans() const noexcept { return false; }

  /// Zero-copy variant of next_batch(): lends the next run of records
  /// owned by the source and returns its length (0 = exhausted), valid
  /// until the next call on this source. Span lengths are an
  /// implementation detail (block-sized for mmap'd corpora, the whole
  /// tail for vectors); the concatenation of all spans is exactly the
  /// next_batch() sequence.
  ///
  /// A span comes in one of two shapes. Either *lanes is null and
  /// @p data points at the records, or *lanes points at @p lane_banks
  /// BankLaneView entries that hold the span (one per bank, serials
  /// relative to the span; a corpus block) and *data may be null: a
  /// lane-only span has no records to point at, and gather_lanes
  /// rebuilds them for a consumer that needs them. Only meaningful when
  /// supports_spans() is true; the base implementation returns 0.
  virtual std::size_t span_lanes(const AccessRecord** data,
                                 const BankLaneView** lanes,
                                 std::size_t* lane_banks);

  /// Next record, or nullopt when the stream is exhausted
  /// (next_batch() of one).
  std::optional<AccessRecord> next();
};

/// Replays a pre-built vector of records (must be time-sorted; verified
/// at construction).
class VectorSource final : public TraceSource {
 public:
  explicit VectorSource(std::vector<AccessRecord> records);
  /// Bulk copy out of the backing vector (one virtual call per batch).
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  bool supports_spans() const noexcept override { return true; }
  /// Hands out the whole unconsumed tail of the vector in one span,
  /// without lanes.
  std::size_t span_lanes(const AccessRecord** data, const BankLaneView** lanes,
                         std::size_t* lane_banks) override;

 private:
  std::vector<AccessRecord> records_;
  std::size_t pos_ = 0;
};

/// Merges multiple sources into one time-ordered stream (stable k-way
/// merge; ties broken by source registration order).
///
/// Each child is read ahead into a lane of kLaneRecords records with one
/// next_batch() call per refill, and a loser tree over the lane heads,
/// keyed on (time_ps, source index), picks the next lane. Its leaves are
/// the children, padded to a power of two; each internal node keeps the
/// loser of its last match, so a pop replays only the path from the
/// popped child's leaf to the root. Padding leaves and exhausted
/// children carry kDone in their index and sort after every real key,
/// including a record at time_ps == UINT64_MAX.
///
/// Reading ahead changes no record: children own their state (RNG
/// forks, cursors) and share nothing mutable, so when a child is pulled
/// is unobservable and the merged order depends only on the children's
/// sequences. Records read past a downstream cut (LimitSource's horizon)
/// are simply discarded.
class MergedSource final : public TraceSource {
 public:
  /// Records pulled from a child per refill.
  static constexpr std::size_t kLaneRecords = 256;

  explicit MergedSource(std::vector<std::unique_ptr<TraceSource>> sources);
  /// Runs the merge loop inline, one virtual call per batch.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;

 private:
  /// Index bit of a leaf with no records left (padding or exhausted).
  static constexpr std::uint32_t kDone = 1u << 31;

  /// A child's unconsumed lane range [pos, len).
  struct Lane {
    std::uint32_t pos = 0;
    std::uint32_t len = 0;
  };

  bool load(std::size_t index);

  std::vector<std::unique_ptr<TraceSource>> sources_;
  // Every child's lane in one block (child i owns records
  // [i * kLaneRecords, (i + 1) * kLaneRecords)).
  std::vector<AccessRecord> records_;
  std::vector<Lane> lanes_;
  // The tree's keys, one per node: node j in [1, leaves) holds the loser
  // of the match between its subtrees 2j and 2j + 1 (leaf i is node
  // leaves + i), and node 0 holds the overall winner. Keys never tie
  // (one index per leaf), so the merged order is unique.
  std::vector<std::uint64_t> times_;
  std::vector<std::uint32_t> indices_;
};

/// Truncates an underlying source after @p limit records or @p end_ps
/// picoseconds (whichever comes first).
class LimitSource final : public TraceSource {
 public:
  LimitSource(std::unique_ptr<TraceSource> inner, std::uint64_t limit_records,
              std::uint64_t end_ps);
  /// Forwards to the inner source's batch path and cuts what it returns.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  /// Spans pass through when the inner source supports them.
  bool supports_spans() const noexcept override {
    return inner_->supports_spans();
  }
  /// Borrows the inner span and trims it to the limits, never copying
  /// a record: a record span by a partition_point on its times, a
  /// lane-only span lane by lane (a lower_bound on each lane's times for
  /// the horizon, then on its serials for the record budget), so a cut
  /// block keeps its lanes.
  std::size_t span_lanes(const AccessRecord** data, const BankLaneView** lanes,
                         std::size_t* lane_banks) override;

 private:
  std::size_t cut(const AccessRecord* records, std::size_t got);
  std::size_t take(std::size_t got, bool time_cut);

  std::unique_ptr<TraceSource> inner_;
  std::uint64_t remaining_;
  std::uint64_t end_ps_;
  std::vector<BankLaneView> lanes_;  // the inner lanes, cut
};

/// Drains a source into a vector (testing / trace capture helper).
std::vector<AccessRecord> drain(TraceSource& source, std::size_t max_records = ~0ull);

}  // namespace tvp::trace
