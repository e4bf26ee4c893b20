// Trace corpus (".tvpc"): the one on-disk format for access streams,
// built for replay at memory speed, and the one way a trace enters a run
// (external address traces are imported as corpora through trace/io.hpp).
//
// Layout (all integers little-endian, all offsets 8-byte aligned):
//
//   [file header, 32 B]   "TVPC" | version=2 | record_bytes=24 | flags
//                         (u32; bit 0 = no oracle, other bits zero) |
//                         16 zero bytes
//   [block]*              40 B block header ("TVPB", codec, record
//                         count, payload size, min/max time_ps, CRC-32
//                         of the record bytes), then the packed records
//   [footer]              "TVPF" | totals | per-block index entries
//                         (offset, first record, count, codec, CRC,
//                         time range) | sorted aggressor-oracle keys |
//                         sorted victim-oracle keys
//   [trailer, 24 B]       footer offset | footer size | footer CRC-32 |
//                         "TVPCEND\0"
//
// The design invariants the readers rely on:
//  * The on-disk record layout IS the in-memory AccessRecord layout
//    (static_asserts in corpus.cpp pin every offset), so an mmap'd raw
//    block replays zero-copy: the span handed to the controller is the
//    page cache itself.
//  * Blocks are read only through that mapping: MmapSource maps the file
//    or throws naming it. The header, trailer and footer are read with
//    pread, which is all read_corpus_info does.
//  * Every block carries a CRC-32 over its record bytes. A block's
//    first touch checks it and proves the block time-ordered in one
//    record-order sweep that trails the CRC chunk by chunk (a mismatch
//    is reported as corruption first): every flag byte is 0 or 1, the
//    records ascend, the first and last equal the footer index's min
//    and max, and the first is no earlier than the previous block's
//    index max. Once every block is touched the whole corpus is proven
//    ordered, and every reader downstream (LimitSource's time cut, the
//    controller's lane cut) relies on that without rescanning. A block
//    that fails is a precise error naming it. Two verified bits per
//    block record the proof (trust-after-verify: rewind() keeps them,
//    so warm replay passes skip the sweep entirely): bit 0 covers the
//    records (CRC, flag bytes, order), bit 1 the partition lanes
//    (below). next_batch() needs bit 0 only and never reads the lanes;
//    span_lanes() on a partitioned corpus sets both in the same sweep.
//    The mapping and its verified bits are shared process-wide between
//    sources of the same unchanged file, so a sweep replaying one
//    corpus across many cells pays the sweep once, not per cell.
//  * The footer CRC covers the index — and therefore every block CRC —
//    which makes it a cheap whole-corpus identity: the campaign service
//    journals it so a resumed trace job proves it replays the same
//    bytes.
//  * Blocks are stored raw (codec 0). Codec 1 is reserved for zstd and
//    rejected by name; any other codec is reported as unknown.
//  * The ground truth travels with the corpus: the aggressor oracle
//    (the (bank, row) keys the attack generators marked) and the victim
//    oracle (the rows the attacks aim to flip), so replayed experiments
//    compute the same false-positive rate and victim-flip counts as
//    generated ones. Header flag bit 0 marks a corpus whose writer got no
//    oracle (an imported trace): unlike an empty oracle (a benign-only
//    recording), it leaves FPR and victim flips unknown.
//  * Optionally each block carries a partition index: the block's
//    records pre-split into per-bank column lanes (times, rows,
//    span-relative serials, write flags — the controller's scatter pass
//    done once at write time). It lives between the block payload and
//    the next block, is described by a footer extension (magic "PIDX" +
//    bank count + per-block offset/size/CRC, covered by the footer CRC)
//    and is CRC'd, its counts summed against the block, and every lane
//    element cross-checked against its record on first touch (record i
//    must be the next element of its bank's lane, with serial i and the
//    same time, row and write flag), in the record-order sweep above.
//    Readers that predate the extension reject the footer size; corpora
//    without it replay exactly as before (the controller
//    re-partitions).
//  * The writer starts each block's writeback (sync_file_range) as soon
//    as the block is written, so close()'s fsync of the file and its
//    directory waits only for the tail; durability and every byte are
//    unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tvp/trace/source.hpp"

namespace tvp::trace {

/// Per-block payload encoding.
enum class CorpusCodec : std::uint32_t {
  kRaw = 0,   ///< packed records, mmap-replayable in place
  kZstd = 1,  ///< reserved (zstd); readers reject it
};

/// One footer index entry: everything needed to locate, size and check
/// a block without touching its bytes.
struct CorpusBlockInfo {
  std::uint64_t offset = 0;        ///< file offset of the block header
  std::uint64_t first_record = 0;  ///< global index of the block's first record
  std::uint32_t records = 0;
  CorpusCodec codec = CorpusCodec::kRaw;
  std::uint32_t crc = 0;  ///< CRC-32 of the record bytes
  std::uint64_t min_time_ps = 0;
  std::uint64_t max_time_ps = 0;
};

/// One block's partition-index frame: where its per-bank lane columns
/// live and their checksum.
struct CorpusPartitionInfo {
  std::uint64_t offset = 0;  ///< file offset of the block's lane region
  std::uint32_t bytes = 0;   ///< exact region size (padding included)
  std::uint32_t crc = 0;     ///< CRC-32 of the region bytes
};

/// Parsed footer: the corpus's index and identity.
struct CorpusInfo {
  std::uint64_t total_records = 0;
  /// CRC-32 of the footer bytes — the corpus identity (covers every
  /// block CRC via the index).
  std::uint32_t footer_crc = 0;
  std::vector<CorpusBlockInfo> blocks;
  /// Sorted (bank << 32 | row) keys of ground-truth aggressor rows.
  std::vector<std::uint64_t> aggressors;
  /// Sorted (bank << 32 | row) keys of the attacks' declared victim
  /// rows (logical, pre-remap).
  std::vector<std::uint64_t> victims;
  /// Bank count of the partition index; 0 = the corpus has none.
  std::uint32_t partition_banks = 0;
  /// Per-block partition frames (one per block when partition_banks > 0,
  /// empty otherwise).
  std::vector<CorpusPartitionInfo> partitions;
  /// False when the header marks the corpus as carrying no oracle.
  bool oracle = true;
};

/// Streaming corpus writer: append records (non-decreasing time_ps,
/// enforced), then close() for a durable file. A writer destroyed
/// without close() leaves no usable corpus (no footer/trailer).
class CorpusWriter {
 public:
  struct Options {
    /// Records per block; 64 Ki records = 1.5 MiB of raw payload.
    std::size_t records_per_block = std::size_t{1} << 16;
    /// Write a per-block partition index for this many banks (0 = none).
    /// When set, every appended record's bank must be below this count
    /// (enforced; the lanes must cover the whole block for replay to
    /// skip its own scatter pass).
    std::uint32_t partition_banks = 0;
  };

  /// Creates (truncates) @p path. Throws std::runtime_error on I/O
  /// failure.
  explicit CorpusWriter(const std::string& path);
  CorpusWriter(const std::string& path, Options options);
  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;
  ~CorpusWriter();

  void append(const AccessRecord& record);
  void append(const AccessRecord* records, std::size_t count);

  /// Installs the aggressor oracle (any order; sorted and deduplicated
  /// on write). Call any time before close(). A writer that gets neither
  /// this nor set_victims() marks its corpus as carrying no oracle.
  void set_aggressors(std::vector<std::uint64_t> keys);

  /// Installs the victim oracle (same key encoding and semantics).
  void set_victims(std::vector<std::uint64_t> keys);

  std::uint64_t records_written() const noexcept { return total_records_; }

  /// Flushes the tail block, writes footer + trailer, fsyncs the file
  /// and its directory. Returns the footer CRC (the corpus identity).
  /// Every earlier block's writeback was already started when it was
  /// written, so the fsync mostly waits for the tail.
  std::uint32_t close();

 private:
  void flush_block();
  void fail(const std::string& what) const;

  std::string path_;
  Options options_;
  int fd_ = -1;
  std::vector<AccessRecord> block_;
  std::vector<unsigned char> staging_;
  std::vector<unsigned char> lane_staging_;
  std::vector<CorpusBlockInfo> index_;
  std::vector<CorpusPartitionInfo> pindex_;
  std::vector<std::uint64_t> aggressors_;
  std::vector<std::uint64_t> victims_;
  std::uint64_t total_records_ = 0;
  std::uint64_t write_offset_ = 0;
  std::uint64_t last_time_ps_ = 0;
  bool oracle_ = false;
};

/// One process-wide read-only mapping of a corpus file, shared between
/// every MmapSource over the same unchanged file (same device, inode,
/// size, mtime and identity). Holds the per-block verified bits, so the
/// CRC sweep runs once per corpus per process, not once per source.
struct CorpusMapping;

/// Replays a corpus file as a TraceSource. The file is mapped read-only
/// and raw blocks stream zero-copy through span_lanes(). Construction
/// parses and validates the trailer, footer and file header, then maps
/// the file; each block is CRC-checked and proven time-ordered on first
/// touch.
class MmapSource final : public TraceSource {
 public:
  /// Throws std::runtime_error naming the file with a precise reason on
  /// any structural problem (bad magic/version, truncated footer, a
  /// reserved or unknown block codec, ...) and when the file cannot be
  /// mapped.
  explicit MmapSource(const std::string& path);
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  bool supports_spans() const noexcept override { return true; }
  /// Hands out the rest of the current block, or the next block. When
  /// the corpus carries a partition index, a whole block also comes
  /// with its on-disk lane columns (zero-copy: the lane pointers are
  /// the page cache). On first touch the region is CRC-checked and
  /// every element cross-checked against its record in the block's
  /// order-proof sweep (trust-after-verify, shared like the block
  /// bits); any disagreement is a precise error, never a silent
  /// fallback. So a span with lanes always ascends in time and its
  /// lanes hold exactly its records, which is what
  /// MemoryController::on_records_partitioned requires. A block tail
  /// left by next_batch() comes without lanes.
  std::size_t span_lanes(const AccessRecord** data, const BankLaneView** lanes,
                         std::size_t* lane_banks) override;

  /// Restarts the stream from the first record. Verified blocks stay
  /// verified — a warm replay pass skips the CRC sweep. The bits are
  /// shared process-wide, so a fresh MmapSource over the same unchanged
  /// file starts warm too.
  void rewind();

  const CorpusInfo& info() const noexcept { return info_; }
  const std::string& path() const noexcept { return path_; }

 private:
  void load_block(std::size_t index, bool with_lanes);
  void point_lanes(std::size_t index, bool check);
  void prove_block(std::size_t index, bool with_lanes, bool check_crc);
  void fail(const std::string& what) const;

  std::string path_;
  std::uint64_t file_size_ = 0;
  std::shared_ptr<CorpusMapping> mapping_;
  const unsigned char* base_ = nullptr;  // mapping_->base, cached
  CorpusInfo info_;
  std::size_t block_ = 0;               // next block to load
  const AccessRecord* span_ = nullptr;  // current block's records
  std::size_t span_len_ = 0;
  std::size_t span_pos_ = 0;
  std::vector<BankLaneView> lanes_;     // current block's lane views
};

/// Reads and validates header + trailer + footer only (no payload I/O):
/// O(1) in the record count. This is how the campaign service computes
/// a corpus identity before queuing a job.
CorpusInfo read_corpus_info(const std::string& path);

/// Full verification: parses the footer and touches every block through
/// span_lanes(), so every first-touch check runs (block CRCs, the time
/// order proof, and the partition index's CRCs and cross-check when
/// there is one). Returns the corpus info; throws with the failing
/// block's index on corruption.
CorpusInfo verify_corpus(const std::string& path);

/// Convenience: writes @p records (time-sorted) as a single corpus.
/// Returns the footer CRC.
std::uint32_t write_corpus(const std::string& path,
                           const std::vector<AccessRecord>& records,
                           CorpusWriter::Options options = {});

/// Convenience: loads every record of a corpus into memory (through
/// next_batch(), so partition lanes are never read).
std::vector<AccessRecord> read_corpus(const std::string& path);

/// Failpoint sites on the corpus I/O paths (see util/failpoint.hpp);
/// the torture harness enumerates these.
const std::vector<std::string>& corpus_failpoint_sites();

}  // namespace tvp::trace
