// Trace corpus (".tvpc"): the one on-disk format for access streams,
// built for replay at memory speed, and the one way a trace enters a run
// (external address traces are imported as corpora through trace/io.hpp).
//
// Layout, version 4 (all integers little-endian, all offsets 8-byte
// aligned). Each fact is stored once; what can be derived is derived.
//
//   [file header, 32 B]   "TVPC" | version=4 | flags (u32; bit 0 = no
//                         oracle, other bits zero) | bank count (u32,
//                         >= 1) | 16 zero bytes
//   [block]*              a block is its per-bank lanes: a u32 record
//                         count per bank (zero-padded to 8 B), then one
//                         column each of u64 times, u32 rows, u32 block-
//                         relative serials, u8 flags (bit 0 = write, bit
//                         1 = attack) and u8 source ids (zero-padded to
//                         8 B), the lanes concatenated bank after bank in
//                         each column: 18 bytes per record
//   [footer]              "TVPF" | block count (u32) | aggressor count
//                         (u64) | victim count (u64) | per-block entries
//                         (u32 record count, u32 CRC-32 of the block, u64
//                         min and max time_ps) | sorted aggressor-oracle
//                         keys | sorted victim-oracle keys
//   [trailer, 16 B]       footer size (u32) | footer CRC-32 (u32, over
//                         the file header and then the footer) |
//                         "TVPCEND\0"
//
// A record's serial is its position in the block's time order; its bank
// is the lane that holds it. A block's size follows from its record
// count and the bank count, so the parser derives every block's offset
// and first record and the record total, and requires the blocks to
// tile the file exactly from the header to the footer. Every byte is
// then proven by the footer CRC (the header and the footer) or a block
// CRC (the whole block); the header's constant fields and zero bytes
// are also compared.
//
// The design invariants the readers rely on:
//  * A block is what replay consumes: the controller's scatter pass done
//    once at write time. An mmap'd block's lanes go to the controller
//    zero-copy (the lane pointers are the page cache), and no record
//    exists on that path; next_batch() rebuilds AccessRecords from the
//    lanes (gather_lanes) for a consumer that wants records.
//  * Blocks are read only through that mapping: MmapSource maps the file
//    or throws naming it. The header, trailer and footer are read with
//    pread, which is all read_corpus_info does.
//  * A block's first touch checks its CRC and then proves it (a mismatch
//    is reported as corruption first): the lane counts sum to the block,
//    the padding is zero, no flag byte has a bit above bit 1, each
//    lane's serials ascend strictly and together form a permutation of
//    [0, n), the times ascend in serial order, the first and last equal
//    the footer index's min and max, and the first is no earlier than
//    the previous block's index max. Once every block is touched the
//    whole corpus is proven ordered, and every reader downstream
//    (LimitSource's lane cut, the controller's lane cut, gather_lanes)
//    relies on that without rescanning. A block that fails is a precise
//    error naming it. One verified bit per block records the proof
//    (trust-after-verify: rewind() keeps it, so warm replay passes skip
//    the proof entirely). The mapping and its verified bits are shared
//    process-wide between sources of the same unchanged file, so a
//    sweep replaying one corpus across many cells pays the proof once,
//    not per cell.
//  * The footer CRC covers the header and the index — and therefore
//    every block CRC and the bank count that lays out the lanes — which
//    makes it a cheap whole-corpus identity: the campaign service
//    journals it so a resumed trace job proves it replays the same bytes.
//  * The ground truth travels with the corpus: the aggressor oracle
//    (the (bank, row) keys the attack generators marked) and the victim
//    oracle (the rows the attacks aim to flip), so replayed experiments
//    compute the same false-positive rate and victim-flip counts as
//    generated ones. Header flag bit 0 marks a corpus whose writer got no
//    oracle (an imported trace): unlike an empty oracle (a benign-only
//    recording), it leaves FPR and victim flips unknown.
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

/// One footer index entry: everything needed to locate, size and check
/// a block without touching its bytes. The offset and first record are
/// derived by the parser, not stored.
struct CorpusBlockInfo {
  std::uint64_t offset = 0;        ///< file offset of the block
  std::uint64_t first_record = 0;  ///< global index of the block's first record
  std::uint32_t records = 0;
  std::uint32_t crc = 0;  ///< CRC-32 of the whole block
  std::uint64_t min_time_ps = 0;
  std::uint64_t max_time_ps = 0;
};

/// Parsed header and footer: the corpus's index and identity.
struct CorpusInfo {
  std::uint64_t total_records = 0;  ///< the sum of the blocks' records
  /// The footer CRC, over the file header and the footer — the corpus
  /// identity (covers every block CRC via the index, and the bank count).
  std::uint32_t footer_crc = 0;
  /// Lanes per block: the bank count the corpus was written for.
  std::uint32_t banks = 0;
  std::vector<CorpusBlockInfo> blocks;
  /// Sorted (bank << 32 | row) keys of ground-truth aggressor rows.
  std::vector<std::uint64_t> aggressors;
  /// Sorted (bank << 32 | row) keys of the attacks' declared victim
  /// rows (logical, pre-remap).
  std::vector<std::uint64_t> victims;
  /// False when the header marks the corpus as carrying no oracle.
  bool oracle = true;
};

/// Streaming corpus writer: append records (non-decreasing time_ps and
/// a bank below the corpus's bank count, both enforced), then close()
/// for a durable file. A writer destroyed without close() leaves no
/// usable corpus (no footer/trailer).
class CorpusWriter {
 public:
  /// Records per block by default; 64 Ki records = 1.125 MiB of lanes.
  static constexpr std::size_t kDefaultBlockRecords = std::size_t{1} << 16;

  /// Creates (truncates) @p path for a corpus of @p banks banks (>= 1;
  /// each block carries one lane per bank). Throws std::invalid_argument
  /// on zero banks or zero records per block, std::runtime_error on I/O
  /// failure.
  CorpusWriter(const std::string& path, std::uint32_t banks,
               std::size_t records_per_block = kDefaultBlockRecords);
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
  std::uint32_t banks_;
  std::size_t records_per_block_;
  int fd_ = -1;
  std::vector<AccessRecord> block_;
  std::vector<unsigned char> staging_;
  std::vector<CorpusBlockInfo> index_;
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
/// first-touch proof runs once per corpus per process, not once per
/// source.
struct CorpusMapping;

/// Replays a corpus file as a TraceSource. The file is mapped read-only
/// and blocks stream zero-copy through span_lanes(). Construction parses
/// and validates the file header, trailer and footer (and that the
/// blocks tile the file), then maps it; each block is CRC-checked and
/// proven on first touch.
class MmapSource final : public TraceSource {
 public:
  /// Throws std::runtime_error naming the file with a precise reason on
  /// any structural problem (bad magic or version, a truncated footer,
  /// blocks that do not tile the file, ...) and when the file cannot be
  /// mapped.
  explicit MmapSource(const std::string& path);
  MmapSource(const MmapSource&) = delete;
  MmapSource& operator=(const MmapSource&) = delete;

  /// Rebuilds records from the blocks' lanes (gather_lanes), up to
  /// @p max of them.
  std::size_t next_batch(AccessRecord* out, std::size_t max) override;
  bool supports_spans() const noexcept override { return true; }
  /// Hands out the next block as its on-disk lanes (zero-copy: the lane
  /// pointers are the page cache) with *data null. The block is proven
  /// on first touch (see the file comment); any defect is a precise
  /// error, never a silent fallback. So a block's lanes always hold a
  /// time-ordered span, which is what
  /// MemoryController::on_records_partitioned requires. The rest of a
  /// block that next_batch() has partly consumed comes as records
  /// rebuilt from the lanes, without lanes.
  std::size_t span_lanes(const AccessRecord** data, const BankLaneView** lanes,
                         std::size_t* lane_banks) override;

  /// Restarts the stream from the first record. Verified blocks stay
  /// verified — a warm replay pass skips the proof. The bits are shared
  /// process-wide, so a fresh MmapSource over the same unchanged file
  /// starts warm too.
  void rewind();

  const CorpusInfo& info() const noexcept { return info_; }
  const std::string& path() const noexcept { return path_; }

 private:
  void load_block(std::size_t index);
  void point_lanes(std::size_t index);
  void prove_block(std::size_t index);
  [[noreturn]] void fail(const std::string& what) const;

  std::string path_;
  std::uint64_t file_size_ = 0;
  std::shared_ptr<CorpusMapping> mapping_;
  const unsigned char* base_ = nullptr;  // mapping_->base, cached
  CorpusInfo info_;
  std::size_t block_ = 0;             // next block to load
  std::size_t span_len_ = 0;          // current block's records
  std::size_t span_pos_ = 0;          // ...of which handed out
  std::vector<BankLaneView> lanes_;   // current block's lane views
  std::vector<std::size_t> cursors_;  // next_batch's gather_lanes cursors
  std::vector<AccessRecord> tail_;    // a partly consumed block's rest
};

/// Reads and validates header + trailer + footer only (no payload I/O):
/// O(1) in the record count. This is how the campaign service computes
/// a corpus identity before queuing a job.
CorpusInfo read_corpus_info(const std::string& path);

/// Full verification: parses the footer and touches every block, so
/// every first-touch check runs (block CRCs, lane counts and padding,
/// flags, the serial permutation and the time order). Returns the
/// corpus info; throws with the failing block's index on corruption.
CorpusInfo verify_corpus(const std::string& path);

/// Convenience: writes @p records (time-sorted, banks below @p banks) as
/// a single corpus without an oracle. Returns the footer CRC.
std::uint32_t write_corpus(
    const std::string& path, const std::vector<AccessRecord>& records,
    std::uint32_t banks,
    std::size_t records_per_block = CorpusWriter::kDefaultBlockRecords);

/// Convenience: loads every record of a corpus into memory (through
/// next_batch()).
std::vector<AccessRecord> read_corpus(const std::string& path);

/// Failpoint sites on the corpus I/O paths (see util/failpoint.hpp);
/// the torture harness enumerates these.
const std::vector<std::string>& corpus_failpoint_sites();

}  // namespace tvp::trace
