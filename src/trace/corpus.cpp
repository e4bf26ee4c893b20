#include "tvp/trace/corpus.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "tvp/util/crc32.hpp"
#include "tvp/util/failpoint.hpp"

namespace tvp::trace {

namespace fp = util::fp;

/// See corpus.hpp: one shared read-only mapping of a corpus file plus
/// the per-block verified bits. Sources hold it by shared_ptr; the last
/// one to go unmaps.
struct CorpusMapping {
  const unsigned char* base = nullptr;
  std::uint64_t size = 0;
  /// Per-block trust-after-verify bits (set with fetch_or): bit 0 =
  /// the records are proven (payload CRC, flag bytes, time order
  /// against the footer index), bit 1 = the partition lanes are proven
  /// too (region CRC, counts, every element against its record). The
  /// lane path sets both in one sweep; next_batch only ever needs bit 0.
  std::unique_ptr<std::atomic<std::uint8_t>[]> verified;
  /// Per-(block, bank) lane row maxima, filled by the lane path's proof
  /// (published by the bit-1 release store); lets every source range-
  /// check a whole lane in O(1). Empty when the corpus has no partition
  /// index. Atomics because racing sources may write the same values.
  std::unique_ptr<std::atomic<std::uint32_t>[]> lane_max_rows;

  ~CorpusMapping() {
    if (base != nullptr)
      ::munmap(const_cast<unsigned char*>(base), static_cast<std::size_t>(size));
  }
};

// The zero-copy contract: bytes on disk ARE AccessRecords in memory.
// Any change to AccessRecord that moves these offsets is a format
// break and must bump the corpus version.
static_assert(std::is_standard_layout_v<AccessRecord> &&
              std::is_trivially_copyable_v<AccessRecord>);
static_assert(sizeof(AccessRecord) == 24);
static_assert(offsetof(AccessRecord, time_ps) == 0);
static_assert(offsetof(AccessRecord, bank) == 8);
static_assert(offsetof(AccessRecord, row) == 12);
static_assert(offsetof(AccessRecord, write) == 16);
static_assert(offsetof(AccessRecord, is_attack) == 17);
static_assert(offsetof(AccessRecord, source) == 18);
static_assert(std::endian::native == std::endian::little,
              "the corpus format stores little-endian integers in place");

namespace {

constexpr std::size_t kRecordBytes = sizeof(AccessRecord);
constexpr std::size_t kFileHeaderBytes = 32;
constexpr std::size_t kBlockHeaderBytes = 40;
constexpr std::size_t kFooterHeadBytes = 32;
constexpr std::size_t kIndexEntryBytes = 48;
constexpr std::size_t kTrailerBytes = 24;
constexpr std::uint32_t kVersion = 2;
// File-header flags word (offset 12); bytes 16-31 stay zero.
constexpr std::size_t kFlagsOffset = 12;
constexpr std::uint32_t kFlagNoOracle = 1u;  // the writer was given no oracle
constexpr char kFileMagic[4] = {'T', 'V', 'P', 'C'};
constexpr char kBlockMagic[4] = {'T', 'V', 'P', 'B'};
constexpr char kFooterMagic[4] = {'T', 'V', 'P', 'F'};
constexpr char kTrailerMagic[8] = {'T', 'V', 'P', 'C', 'E', 'N', 'D', '\0'};
// Footer extension framing the per-block partition index ("PIDX").
constexpr std::uint32_t kPartitionMagic = 0x58444950u;
constexpr std::size_t kPartitionHeadBytes = 8;    // magic + bank count
constexpr std::size_t kPartitionEntryBytes = 16;  // offset + bytes + crc
// Per-bank/per-record sizes of a block's lane region: a u32 count per
// bank, then the concatenated lane columns (u64 time + u32 row + u32
// span-relative serial + u8 write flag per record), each column padded
// to an 8-byte boundary as a whole.
constexpr std::size_t kLaneBytesPerRecord = 8 + 4 + 4 + 1;

constexpr std::size_t pad8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }

/// Exact byte size of one block's lane region.
constexpr std::size_t partition_region_bytes(std::uint32_t banks,
                                             std::size_t records) {
  return pad8(std::size_t{banks} * 4) + records * 16 + pad8(records);
}

// Failpoint sites, one per syscall location (see util/failpoint.hpp).
constexpr const char* kSiteCreateOpen = "corpus.create.open";
constexpr const char* kSiteHeaderWrite = "corpus.header.write";
constexpr const char* kSiteBlockWrite = "corpus.block.write";
constexpr const char* kSiteBlockWriteback = "corpus.block.writeback";
constexpr const char* kSiteFooterWrite = "corpus.footer.write";
constexpr const char* kSiteTrailerWrite = "corpus.trailer.write";
constexpr const char* kSiteCloseFsync = "corpus.close.fsync";
constexpr const char* kSiteDirOpen = "corpus.dir.open";
constexpr const char* kSiteDirFsync = "corpus.dir.fsync";
constexpr const char* kSiteReadOpen = "corpus.read.open";
constexpr const char* kSiteReadMmap = "corpus.read.mmap";
constexpr const char* kSiteReadPread = "corpus.read.pread";


void store_u32(unsigned char* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void store_u64(unsigned char* p, std::uint64_t v) { std::memcpy(p, &v, 8); }
std::uint32_t load_u32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

[[noreturn]] void corrupt(const std::string& path, const std::string& what) {
  throw std::runtime_error("Corpus " + path + ": " + what);
}

[[noreturn]] void io_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("Corpus " + path + ": " + what + ": " +
                           std::strerror(errno));
}

// Reads exactly @p size bytes at @p offset, retrying EINTR; throws on
// error or short read (a short read here always means truncation).
void pread_exact(int fd, void* buf, std::size_t size, std::uint64_t offset,
                 const std::string& path) {
  auto* p = static_cast<unsigned char*>(buf);
  while (size > 0) {
    const ssize_t n = fp::pread_eintr(kSiteReadPread, fd, p, size,
                                      static_cast<::off_t>(offset));
    if (n < 0) io_fail(path, "read failed");
    if (n == 0) corrupt(path, "unexpected end of file (truncated)");
    p += n;
    offset += static_cast<std::uint64_t>(n);
    size -= static_cast<std::size_t>(n);
  }
}

struct ParsedCorpus {
  std::uint64_t file_size = 0;
  std::uint64_t footer_offset = 0;
  CorpusInfo info;
};

// Parses and validates header + trailer + footer through @p fd. Only
// O(footer) bytes are read; block payloads stay untouched.
ParsedCorpus parse_corpus(int fd, const std::string& path) {
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) io_fail(path, "cannot stat");
  ParsedCorpus parsed;
  parsed.file_size = static_cast<std::uint64_t>(st.st_size);
  if (parsed.file_size < kFileHeaderBytes + kFooterHeadBytes + kTrailerBytes)
    corrupt(path, "file too small to be a corpus (" +
                      std::to_string(parsed.file_size) + " bytes)");

  unsigned char header[kFileHeaderBytes];
  pread_exact(fd, header, sizeof header, 0, path);
  if (std::memcmp(header, kFileMagic, 4) != 0)
    corrupt(path, "bad file magic (not a .tvpc corpus)");
  const std::uint32_t version = load_u32(header + 4);
  if (version != kVersion)
    corrupt(path, "unsupported corpus version " + std::to_string(version));
  const std::uint32_t record_bytes = load_u32(header + 8);
  if (record_bytes != kRecordBytes)
    corrupt(path, "record size " + std::to_string(record_bytes) +
                      " does not match this build's " +
                      std::to_string(kRecordBytes));
  const std::uint32_t flags = load_u32(header + kFlagsOffset);
  if ((flags & ~kFlagNoOracle) != 0)
    corrupt(path, "unknown header flags " + std::to_string(flags));
  for (std::size_t i = kFlagsOffset + 4; i < kFileHeaderBytes; ++i)
    if (header[i] != 0)
      corrupt(path, "reserved header byte " + std::to_string(i) + " is not zero");
  parsed.info.oracle = (flags & kFlagNoOracle) == 0;

  unsigned char trailer[kTrailerBytes];
  pread_exact(fd, trailer, sizeof trailer, parsed.file_size - kTrailerBytes,
              path);
  if (std::memcmp(trailer + 16, kTrailerMagic, 8) != 0)
    corrupt(path, "bad trailer magic (truncated or not a corpus)");
  parsed.footer_offset = load_u64(trailer);
  const std::uint64_t footer_bytes = load_u32(trailer + 8);
  const std::uint32_t footer_crc = load_u32(trailer + 12);
  if (parsed.footer_offset < kFileHeaderBytes ||
      footer_bytes < kFooterHeadBytes ||
      parsed.footer_offset + footer_bytes != parsed.file_size - kTrailerBytes)
    corrupt(path, "trailer does not frame a footer (truncated footer?)");

  std::vector<unsigned char> footer(static_cast<std::size_t>(footer_bytes));
  pread_exact(fd, footer.data(), footer.size(), parsed.footer_offset, path);
  const std::uint32_t got_crc = util::crc32(footer.data(), footer.size());
  if (got_crc != footer_crc)
    corrupt(path, "footer CRC mismatch (corrupt or truncated footer)");
  if (std::memcmp(footer.data(), kFooterMagic, 4) != 0)
    corrupt(path, "bad footer magic");

  CorpusInfo& info = parsed.info;
  info.footer_crc = footer_crc;
  const std::uint64_t block_count = load_u32(footer.data() + 4);
  info.total_records = load_u64(footer.data() + 8);
  const std::uint64_t aggressor_count = load_u64(footer.data() + 16);
  const std::uint64_t victim_count = load_u64(footer.data() + 24);
  const std::uint64_t base_bytes = kFooterHeadBytes +
                                   block_count * kIndexEntryBytes +
                                   (aggressor_count + victim_count) * 8;
  // Exactly two footer shapes exist: the base layout, and the base
  // layout followed by the partition-index extension. Anything else is
  // corruption, not a fallback.
  const bool has_partition =
      footer_bytes ==
      base_bytes + kPartitionHeadBytes + block_count * kPartitionEntryBytes;
  if (!has_partition && footer_bytes != base_bytes)
    corrupt(path, "footer size does not match its counts");

  info.blocks.reserve(static_cast<std::size_t>(block_count));
  std::uint64_t running = 0;
  const unsigned char* entry = footer.data() + kFooterHeadBytes;
  for (std::uint64_t b = 0; b < block_count; ++b, entry += kIndexEntryBytes) {
    CorpusBlockInfo block;
    block.offset = load_u64(entry);
    block.first_record = load_u64(entry + 8);
    block.records = load_u32(entry + 16);
    const std::uint32_t codec = load_u32(entry + 20);
    block.crc = load_u32(entry + 24);
    block.min_time_ps = load_u64(entry + 32);
    block.max_time_ps = load_u64(entry + 40);
    if (codec == static_cast<std::uint32_t>(CorpusCodec::kZstd))
      corrupt(path, "block " + std::to_string(b) +
                        " is zstd-compressed (codec 1), a reserved codec "
                        "this reader does not decode");
    if (codec != static_cast<std::uint32_t>(CorpusCodec::kRaw))
      corrupt(path, "block " + std::to_string(b) + " has unknown codec " +
                        std::to_string(codec));
    if (block.offset < kFileHeaderBytes ||
        block.offset + kBlockHeaderBytes > parsed.footer_offset)
      corrupt(path, "block " + std::to_string(b) + " offset out of range");
    if (block.first_record != running)
      corrupt(path, "block " + std::to_string(b) + " index is not contiguous");
    // The writer never emits an empty block, and the order proof needs
    // a first and a last record to hold against the index's time range.
    if (block.records == 0)
      corrupt(path, "block " + std::to_string(b) + " is empty");
    running += block.records;
    info.blocks.push_back(block);
  }
  if (running != info.total_records)
    corrupt(path, "footer record total does not match its index");

  info.aggressors.reserve(static_cast<std::size_t>(aggressor_count));
  const unsigned char* key = entry;
  for (std::uint64_t i = 0; i < aggressor_count; ++i, key += 8)
    info.aggressors.push_back(load_u64(key));
  info.victims.reserve(static_cast<std::size_t>(victim_count));
  for (std::uint64_t i = 0; i < victim_count; ++i, key += 8)
    info.victims.push_back(load_u64(key));

  if (has_partition) {
    if (load_u32(key) != kPartitionMagic)
      corrupt(path, "partition index has a bad magic");
    info.partition_banks = load_u32(key + 4);
    if (info.partition_banks == 0)
      corrupt(path, "partition index declares zero banks");
    key += kPartitionHeadBytes;
    info.partitions.reserve(static_cast<std::size_t>(block_count));
    for (std::uint64_t b = 0; b < block_count; ++b, key += kPartitionEntryBytes) {
      CorpusPartitionInfo p;
      p.offset = load_u64(key);
      p.bytes = load_u32(key + 8);
      p.crc = load_u32(key + 12);
      if (p.offset < kFileHeaderBytes ||
          p.offset + p.bytes > parsed.footer_offset)
        corrupt(path, "block " + std::to_string(b) +
                          " partition region out of range");
      if (p.bytes != partition_region_bytes(info.partition_banks,
                                            info.blocks[b].records))
        corrupt(path, "block " + std::to_string(b) +
                          " partition size does not match its records");
      info.partitions.push_back(p);
    }
  }
  return parsed;
}

void fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = fp::open(kSiteDirOpen, dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) io_fail(path, "cannot open directory " + dir);
  if (fp::fsync_eintr(kSiteDirFsync, fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_fail(path, "cannot fsync directory " + dir);
  }
  ::close(fd);
}

// A corpus file opened read-only for parsing (and mapping), closed on
// scope exit.
class ReadFd {
 public:
  explicit ReadFd(const std::string& path)
      : fd_(fp::open(kSiteReadOpen, path.c_str(), O_RDONLY)) {
    if (fd_ < 0) io_fail(path, "cannot open");
  }
  ReadFd(const ReadFd&) = delete;
  ReadFd& operator=(const ReadFd&) = delete;
  ~ReadFd() { ::close(fd_); }
  int get() const noexcept { return fd_; }

 private:
  int fd_;
};

// Where a block's first-touch sweep stopped: the first record it
// rejects and why (kNone: every record swept so far passed).
struct SweepStop {
  enum Why { kNone, kFlags, kOrder, kLane } why = kNone;
  std::size_t at = 0;
};

// What a block's first-touch sweep carries from one chunk to the next:
// the last record's time and, with lanes, each bank's next unclaimed
// lane element and the lane's end. The lanes' columns are concatenated
// bank after bank, so an element is one index into shared column
// bases (bank 0's views).
struct SweepState {
  SweepState(const AccessRecord* records, const BankLaneView* lanes,
             std::uint32_t banks)
      : prev(records[0].time_ps), lanes(lanes), next(banks), end(banks) {
    for (std::uint32_t b = 0; b < banks; ++b) {
      next[b] = static_cast<std::size_t>(lanes[b].serials - lanes[0].serials);
      end[b] = next[b] + lanes[b].count;
    }
  }
  std::uint64_t prev;
  const BankLaneView* lanes;  // null: the records alone
  std::vector<std::size_t> next;
  std::vector<std::size_t> end;
};

// The record-order sweep of MmapSource::prove_block over records
// [@p from, @p to): flag bytes, ascending times and, with lanes, each
// record against the next element of its bank's lane. Kept free of
// strings and exceptions so the loop stays in registers.
SweepStop sweep_records(const AccessRecord* records, std::size_t from,
                        std::size_t to, SweepState& state) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(records);
  const bool with_lanes = state.lanes != nullptr;
  const std::uint64_t* const times = with_lanes ? state.lanes[0].times : nullptr;
  const dram::RowId* const rows = with_lanes ? state.lanes[0].rows : nullptr;
  const std::uint32_t* const serials =
      with_lanes ? state.lanes[0].serials : nullptr;
  const std::uint8_t* const writes = with_lanes ? state.lanes[0].writes : nullptr;
  const std::size_t banks = state.next.size();
  std::size_t* const next = state.next.data();
  const std::size_t* const end = state.end.data();
  std::uint64_t prev = state.prev;
  for (std::size_t i = from; i < to; ++i) {
    const unsigned char* at = bytes + i * kRecordBytes;
    std::uint16_t flags;
    std::memcpy(&flags, at + 16, 2);
    const std::uint64_t time = load_u64(at);
    // Both flag bytes at once: any bit above the LSB in either byte
    // means a value other than 0/1.
    if ((flags & 0xFEFEu) != 0) return {SweepStop::kFlags, i};
    if (time < prev) return {SweepStop::kOrder, i};
    prev = time;
    if (!with_lanes) continue;
    const std::uint32_t bank = load_u32(at + 8);
    if (bank >= banks || next[bank] == end[bank]) return {SweepStop::kLane, i};
    const std::size_t k = next[bank]++;
    if ((serials[k] != i) | (times[k] != time) | (rows[k] != load_u32(at + 12)) |
        (writes[k] != (flags & 0xFFu)))
      return {SweepStop::kLane, i};
  }
  state.prev = prev;
  return {};
}

}  // namespace

const std::vector<std::string>& corpus_failpoint_sites() {
  static const std::vector<std::string> sites = {
      kSiteCreateOpen, kSiteHeaderWrite, kSiteBlockWrite, kSiteBlockWriteback,
      kSiteFooterWrite, kSiteTrailerWrite, kSiteCloseFsync, kSiteDirOpen,
      kSiteDirFsync, kSiteReadOpen, kSiteReadMmap, kSiteReadPread,
  };
  return sites;
}

// ---------------------------------------------------------------------------
// CorpusWriter

CorpusWriter::CorpusWriter(const std::string& path)
    : CorpusWriter(path, Options{}) {}

CorpusWriter::CorpusWriter(const std::string& path, Options options)
    : path_(path), options_(options) {
  if (options_.records_per_block == 0)
    throw std::invalid_argument("CorpusWriter: records_per_block must be > 0");
  fd_ = fp::open(kSiteCreateOpen, path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                 0644);
  if (fd_ < 0) io_fail(path_, "cannot create");
  block_.reserve(options_.records_per_block);

  unsigned char header[kFileHeaderBytes] = {};
  std::memcpy(header, kFileMagic, 4);
  store_u32(header + 4, kVersion);
  store_u32(header + 8, static_cast<std::uint32_t>(kRecordBytes));
  if (!fp::write_full(kSiteHeaderWrite, fd_, header, sizeof header)) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    ::unlink(path_.c_str());
    errno = saved;
    io_fail(path_, "cannot write header");
  }
  write_offset_ = kFileHeaderBytes;
}

CorpusWriter::~CorpusWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void CorpusWriter::fail(const std::string& what) const { io_fail(path_, what); }

void CorpusWriter::append(const AccessRecord& record) { append(&record, 1); }

void CorpusWriter::append(const AccessRecord* records, std::size_t count) {
  if (fd_ < 0) throw std::logic_error("CorpusWriter: append after close");
  for (std::size_t i = 0; i < count; ++i) {
    const AccessRecord& r = records[i];
    if (r.time_ps < last_time_ps_)
      throw std::invalid_argument(
          "CorpusWriter: record time goes backwards (" +
          std::to_string(r.time_ps) + " after " +
          std::to_string(last_time_ps_) + ")");
    if (options_.partition_banks != 0 && r.bank >= options_.partition_banks)
      throw std::invalid_argument(
          "CorpusWriter: record bank " + std::to_string(r.bank) +
          " outside the partition index's " +
          std::to_string(options_.partition_banks) + " banks");
    last_time_ps_ = r.time_ps;
    block_.push_back(r);
    if (block_.size() >= options_.records_per_block) flush_block();
  }
}

void CorpusWriter::set_aggressors(std::vector<std::uint64_t> keys) {
  aggressors_ = std::move(keys);
  oracle_ = true;
}

void CorpusWriter::set_victims(std::vector<std::uint64_t> keys) {
  victims_ = std::move(keys);
  oracle_ = true;
}

void CorpusWriter::flush_block() {
  if (block_.empty()) return;
  const std::size_t raw_bytes = block_.size() * kRecordBytes;
  staging_.resize(raw_bytes);
  for (std::size_t i = 0; i < block_.size(); ++i) {
    unsigned char* slot = staging_.data() + i * kRecordBytes;
    std::memcpy(slot, &block_[i], kRecordBytes);
    // The struct's tail padding is indeterminate in memory; the file
    // must be deterministic (its bytes are CRC'd and identity-hashed).
    std::memset(slot + 19, 0, kRecordBytes - 19);
  }
  const std::uint32_t crc = util::crc32(staging_.data(), raw_bytes);

  CorpusBlockInfo info;
  info.offset = write_offset_;
  info.first_record = total_records_;
  info.records = static_cast<std::uint32_t>(block_.size());
  info.crc = crc;
  info.min_time_ps = block_.front().time_ps;
  info.max_time_ps = block_.back().time_ps;

  unsigned char header[kBlockHeaderBytes] = {};
  std::memcpy(header, kBlockMagic, 4);
  store_u32(header + 4, static_cast<std::uint32_t>(info.codec));
  store_u32(header + 8, info.records);
  store_u32(header + 12, static_cast<std::uint32_t>(raw_bytes));
  store_u64(header + 16, info.min_time_ps);
  store_u64(header + 24, info.max_time_ps);
  store_u32(header + 32, crc);

  // Raw payloads are whole 24-byte records, so they end 8-byte aligned.
  static_assert(kRecordBytes % 8 == 0);
  if (!fp::write_full(kSiteBlockWrite, fd_, header, sizeof header) ||
      !fp::write_full(kSiteBlockWrite, fd_, staging_.data(), raw_bytes))
    fail("cannot write block");
  write_offset_ += kBlockHeaderBytes + raw_bytes;

  if (options_.partition_banks != 0) {
    // The block's scatter pass, done once at write time: per-bank lane
    // columns (time, row, span-relative serial, write flag), laid out
    // bank after bank so replay hands the mapped bytes straight to the
    // controller. All padding is zeroed — the file stays byte-
    // deterministic.
    const std::uint32_t banks = options_.partition_banks;
    const std::size_t n = block_.size();
    const std::size_t region = partition_region_bytes(banks, n);
    lane_staging_.assign(region, 0);
    unsigned char* counts = lane_staging_.data();
    unsigned char* times = counts + pad8(std::size_t{banks} * 4);
    unsigned char* rows = times + n * 8;
    unsigned char* serials = rows + n * 4;
    unsigned char* writes = serials + n * 4;

    std::vector<std::uint32_t> lane_count(banks, 0);
    for (const AccessRecord& r : block_) ++lane_count[r.bank];
    std::vector<std::uint32_t> cursor(banks, 0);
    for (std::uint32_t b = 0, at = 0; b < banks; ++b) {
      store_u32(counts + std::size_t{b} * 4, lane_count[b]);
      cursor[b] = at;
      at += lane_count[b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const AccessRecord& r = block_[i];
      const std::uint32_t k = cursor[r.bank]++;
      store_u64(times + std::size_t{k} * 8, r.time_ps);
      store_u32(rows + std::size_t{k} * 4, r.row);
      store_u32(serials + std::size_t{k} * 4,
                static_cast<std::uint32_t>(i));
      writes[k] = r.write ? 1 : 0;
    }

    if (region > 0xFFFFFFFFull)
      throw std::invalid_argument(
          "CorpusWriter: block too large for a partition index");
    CorpusPartitionInfo pinfo;
    pinfo.offset = write_offset_;
    pinfo.bytes = static_cast<std::uint32_t>(region);
    pinfo.crc = util::crc32(lane_staging_.data(), region);
    if (!fp::write_full(kSiteBlockWrite, fd_, lane_staging_.data(), region))
      fail("cannot write block partition");
    write_offset_ += region;
    pindex_.push_back(pinfo);
  }

  // Start the block's writeback now, so close()'s fsync waits on the
  // tail alone instead of flushing the whole file at once. Durability
  // still comes from that fsync; this only moves the I/O earlier.
  if (fp::sync_file_range(kSiteBlockWriteback, fd_,
                          static_cast<::off64_t>(info.offset),
                          static_cast<::off64_t>(write_offset_ - info.offset),
                          SYNC_FILE_RANGE_WRITE) != 0)
    fail("cannot start block writeback");

  total_records_ += block_.size();
  index_.push_back(info);
  block_.clear();
}

std::uint32_t CorpusWriter::close() {
  if (fd_ < 0) throw std::logic_error("CorpusWriter: double close");
  flush_block();
  // Before the footer: any file with a trailer has its final header.
  if (!oracle_) {
    unsigned char flags[4];
    store_u32(flags, kFlagNoOracle);
    if (fp::pwrite(kSiteHeaderWrite, fd_, flags, sizeof flags,
                   static_cast<::off_t>(kFlagsOffset)) != sizeof flags)
      fail("cannot write header flags");
  }

  std::sort(aggressors_.begin(), aggressors_.end());
  aggressors_.erase(std::unique(aggressors_.begin(), aggressors_.end()),
                    aggressors_.end());
  std::sort(victims_.begin(), victims_.end());
  victims_.erase(std::unique(victims_.begin(), victims_.end()),
                 victims_.end());

  const std::size_t ext_bytes =
      options_.partition_banks != 0
          ? kPartitionHeadBytes + pindex_.size() * kPartitionEntryBytes
          : 0;
  std::vector<unsigned char> footer(
      kFooterHeadBytes + index_.size() * kIndexEntryBytes +
      (aggressors_.size() + victims_.size()) * 8 + ext_bytes);
  std::memcpy(footer.data(), kFooterMagic, 4);
  store_u32(footer.data() + 4, static_cast<std::uint32_t>(index_.size()));
  store_u64(footer.data() + 8, total_records_);
  store_u64(footer.data() + 16, aggressors_.size());
  store_u64(footer.data() + 24, victims_.size());
  unsigned char* entry = footer.data() + kFooterHeadBytes;
  for (const CorpusBlockInfo& b : index_) {
    store_u64(entry, b.offset);
    store_u64(entry + 8, b.first_record);
    store_u32(entry + 16, b.records);
    store_u32(entry + 20, static_cast<std::uint32_t>(b.codec));
    store_u32(entry + 24, b.crc);
    store_u32(entry + 28, 0);
    store_u64(entry + 32, b.min_time_ps);
    store_u64(entry + 40, b.max_time_ps);
    entry += kIndexEntryBytes;
  }
  for (const std::uint64_t key : aggressors_) {
    store_u64(entry, key);
    entry += 8;
  }
  for (const std::uint64_t key : victims_) {
    store_u64(entry, key);
    entry += 8;
  }
  if (options_.partition_banks != 0) {
    // Footer extension: the partition index's frame. Covered by the
    // footer CRC like everything else, so a tampered lane frame fails
    // the identity check before any lane byte is trusted.
    store_u32(entry, kPartitionMagic);
    store_u32(entry + 4, options_.partition_banks);
    entry += kPartitionHeadBytes;
    for (const CorpusPartitionInfo& p : pindex_) {
      store_u64(entry, p.offset);
      store_u32(entry + 8, p.bytes);
      store_u32(entry + 12, p.crc);
      entry += kPartitionEntryBytes;
    }
  }
  const std::uint32_t footer_crc = util::crc32(footer.data(), footer.size());

  unsigned char trailer[kTrailerBytes] = {};
  store_u64(trailer, write_offset_);
  store_u32(trailer + 8, static_cast<std::uint32_t>(footer.size()));
  store_u32(trailer + 12, footer_crc);
  std::memcpy(trailer + 16, kTrailerMagic, 8);

  if (!fp::write_full(kSiteFooterWrite, fd_, footer.data(), footer.size()))
    fail("cannot write footer");
  if (!fp::write_full(kSiteTrailerWrite, fd_, trailer, sizeof trailer))
    fail("cannot write trailer");
  if (fp::fsync_eintr(kSiteCloseFsync, fd_) != 0) fail("cannot fsync");
  ::close(fd_);
  fd_ = -1;
  fsync_parent_dir(path_);
  return footer_crc;
}

// ---------------------------------------------------------------------------
// MmapSource

namespace {

/// Process-wide registry of shared mappings. Keyed by (device, inode,
/// size, mtime_ns, identity): a corpus rewritten in place gets a fresh
/// mapping with cleared verified bits. (mtime granularity is the
/// kernel's coarse clock; an in-place same-size same-identity rewrite
/// inside that window is not a supported pattern — the campaign service
/// pins the identity separately for exactly that reason.)
using MappingKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                              std::uint64_t, std::uint32_t>;
std::mutex g_mappings_mutex;
std::map<MappingKey, std::weak_ptr<CorpusMapping>> g_mappings;

/// Strong refs to the most recently acquired mappings, so a sweep that
/// opens and closes one source per cell keeps the mapping (and its
/// verified bits) warm between cells. Read-only file-backed pages stay
/// reclaimable while mapped, so this pins address space, not memory.
constexpr std::size_t kMappingKeepAlive = 8;
std::shared_ptr<CorpusMapping> g_keep_alive[kMappingKeepAlive];
std::size_t g_keep_alive_next = 0;

void keep_alive(const std::shared_ptr<CorpusMapping>& mapping) {
  for (const auto& held : g_keep_alive)
    if (held == mapping) return;
  g_keep_alive[g_keep_alive_next++ % kMappingKeepAlive] = mapping;
}

/// Returns the shared mapping for the corpus behind @p fd, mapping it
/// on first acquire. Throws naming @p path when the file cannot be
/// stat'ed or mapped.
std::shared_ptr<CorpusMapping> acquire_mapping(int fd, const std::string& path,
                                               std::uint64_t file_size,
                                               std::size_t blocks,
                                               std::uint32_t lane_banks,
                                               std::uint32_t identity) {
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) io_fail(path, "cannot stat");
  const MappingKey key{
      static_cast<std::uint64_t>(st.st_dev),
      static_cast<std::uint64_t>(st.st_ino),
      file_size,
      static_cast<std::uint64_t>(st.st_mtim.tv_sec) * 1'000'000'000ull +
          static_cast<std::uint64_t>(st.st_mtim.tv_nsec),
      identity};

  std::lock_guard<std::mutex> lock(g_mappings_mutex);
  for (auto it = g_mappings.begin(); it != g_mappings.end();)
    it = it->second.expired() ? g_mappings.erase(it) : std::next(it);
  if (const auto it = g_mappings.find(key); it != g_mappings.end())
    if (auto existing = it->second.lock()) {
      keep_alive(existing);
      return existing;
    }

  void* base = fp::mmap(kSiteReadMmap, nullptr, file_size, PROT_READ,
                        MAP_PRIVATE, fd, 0);
  if (base == MAP_FAILED) io_fail(path, "cannot mmap");
  // Replay walks the file front to back; aggressive readahead cuts the
  // page-fault stalls. Advisory only — failure is fine.
  (void)::posix_madvise(base, file_size, POSIX_MADV_SEQUENTIAL);
  (void)::posix_madvise(base, file_size, POSIX_MADV_WILLNEED);

  auto mapping = std::make_shared<CorpusMapping>();
  mapping->base = static_cast<const unsigned char*>(base);
  mapping->size = file_size;
  mapping->verified = std::make_unique<std::atomic<std::uint8_t>[]>(blocks);
  for (std::size_t i = 0; i < blocks; ++i)
    mapping->verified[i].store(0, std::memory_order_relaxed);
  if (lane_banks != 0) {
    const std::size_t cells = blocks * lane_banks;
    mapping->lane_max_rows =
        std::make_unique<std::atomic<std::uint32_t>[]>(cells);
    for (std::size_t i = 0; i < cells; ++i)
      mapping->lane_max_rows[i].store(0, std::memory_order_relaxed);
  }
  g_mappings[key] = mapping;
  keep_alive(mapping);
  return mapping;
}

}  // namespace

MmapSource::MmapSource(const std::string& path) : path_(path) {
  const ReadFd fd(path_);
  ParsedCorpus parsed = parse_corpus(fd.get(), path_);
  file_size_ = parsed.file_size;
  info_ = std::move(parsed.info);
  // The mapping outlives the descriptor, which closes on return.
  mapping_ = acquire_mapping(fd.get(), path_, file_size_, info_.blocks.size(),
                             info_.partition_banks, info_.footer_crc);
  base_ = mapping_->base;
  lanes_.resize(info_.partition_banks);
}

void MmapSource::fail(const std::string& what) const { corrupt(path_, what); }

// Loads block @p index and points span_ at its records: the mapped
// bytes themselves (zero-copy). With @p with_lanes it also points
// lanes_ at the block's partition columns. The block's first touch
// verifies what it needs (point_lanes, then prove_block) and records
// that in the shared verified bits.
void MmapSource::load_block(std::size_t index, bool with_lanes) {
  const CorpusBlockInfo& b = info_.blocks[index];
  const std::uint64_t payload_offset = b.offset + kBlockHeaderBytes;
  const std::uint64_t raw_bytes = std::uint64_t{b.records} * kRecordBytes;

  const unsigned char* header = base_ + b.offset;
  if (std::memcmp(header, kBlockMagic, 4) != 0)
    fail("block " + std::to_string(index) + " has a bad magic");
  if (load_u32(header + 4) != static_cast<std::uint32_t>(b.codec) ||
      load_u32(header + 8) != b.records ||
      load_u32(header + 32) != b.crc)
    fail("block " + std::to_string(index) +
         " header disagrees with the footer index");
  const std::uint64_t payload_bytes = load_u32(header + 12);
  if (payload_offset + payload_bytes > file_size_ - kTrailerBytes)
    fail("block " + std::to_string(index) + " payload out of range");

  if (payload_bytes != raw_bytes)
    fail("block " + std::to_string(index) + " payload size mismatch");
  const unsigned char* payload = base_ + payload_offset;
  span_ = reinterpret_cast<const AccessRecord*>(payload);
  span_len_ = b.records;
  span_pos_ = 0;

  // Trust-after-verify, shared process-wide: if a concurrent source
  // races us here both verify — harmless, the bytes are immutable.
  // Bit 0 covers the records, bit 1 the partition lanes.
  const std::uint8_t need = with_lanes ? 3 : 1;
  const std::uint8_t have =
      mapping_->verified[index].load(std::memory_order_acquire);
  const bool proven = (have & need) == need;
  if (with_lanes) point_lanes(index, !proven);
  if (!proven) {
    prove_block(index, with_lanes, !(have & 1));
    mapping_->verified[index].fetch_or(need, std::memory_order_release);
  }
  if (with_lanes)
    for (std::uint32_t k = 0; k < info_.partition_banks; ++k)
      lanes_[k].max_row =
          mapping_->lane_max_rows[index * info_.partition_banks + k].load(
              std::memory_order_relaxed);
}

// Points lanes_ at block @p index's partition columns (zero-copy: the
// lane pointers are the page cache). With @p check (the first touch)
// the region's CRC and lane counts are verified before any pointer is
// formed; prove_block cross-checks the elements.
void MmapSource::point_lanes(std::size_t index, bool check) {
  const std::uint32_t banks = info_.partition_banks;
  const CorpusPartitionInfo& p = info_.partitions[index];
  const unsigned char* counts = base_ + p.offset;
  if (check) {
    if (util::crc32(counts, p.bytes) != p.crc)
      fail("block " + std::to_string(index) +
           " partition CRC mismatch (corrupt)");
    std::uint64_t covered = 0;
    for (std::uint32_t b = 0; b < banks; ++b)
      covered += load_u32(counts + std::size_t{b} * 4);
    if (covered != span_len_)
      fail("block " + std::to_string(index) +
           " partition lanes do not cover the block");
  }
  const unsigned char* times = counts + pad8(std::size_t{banks} * 4);
  const unsigned char* rows = times + span_len_ * 8;
  const unsigned char* serials = rows + span_len_ * 4;
  const unsigned char* writes = serials + span_len_ * 4;
  std::size_t at = 0;
  for (std::uint32_t b = 0; b < banks; ++b) {
    const std::uint32_t n = load_u32(counts + std::size_t{b} * 4);
    BankLaneView& lv = lanes_[b];
    lv.rows = reinterpret_cast<const dram::RowId*>(rows + at * 4);
    lv.times = reinterpret_cast<const std::uint64_t*>(times + at * 8);
    lv.serials = reinterpret_cast<const std::uint32_t*>(serials + at * 4);
    lv.writes = writes + at;
    lv.count = n;
    at += n;
  }
}

// The first-touch proof of the loaded block @p index: with
// @p check_crc its payload CRC, then, in one record-order sweep, every
// flag byte is 0 or 1 (anything else was not written by our writer, and
// reading it as bool would be undefined), the records ascend in time,
// the first and last equal the footer's min and max, and the first is
// no earlier than the previous block's footer max — so once every
// block is touched the whole corpus is proven time-ordered. With
// @p with_lanes the same sweep cross-checks the partition lanes: record
// i must be the next element of its bank's lane, with serial i and
// equal time, row and write flag (the counts already sum to the block,
// so the lanes then hold exactly its records), and the lanes' row
// maxima are filled. Any disagreement is a precise error naming the
// block, corruption (a CRC mismatch) reported first: a corpus that
// advertises a partition index must carry a correct one.
void MmapSource::prove_block(std::size_t index, bool with_lanes,
                             bool check_crc) {
  const CorpusBlockInfo& info = info_.blocks[index];
  const std::string block = "block " + std::to_string(index);
  const AccessRecord* const records = span_;
  const std::size_t n = span_len_;
  const auto* bytes = reinterpret_cast<const unsigned char*>(records);

  // Each chunk is CRC'd just before it is swept, so the sweep reads it
  // from cache (a whole block and its lanes overflow a 2 MB L2).
  constexpr std::size_t kChunkRecords = 2048;
  std::uint32_t crc = 0;
  std::size_t crc_end = 0;
  const auto crc_to = [&](std::size_t to) {
    if (!check_crc || to <= crc_end) return;
    crc = util::crc32(bytes + crc_end * kRecordBytes,
                      (to - crc_end) * kRecordBytes, crc);
    crc_end = to;
  };
  SweepState state(records, with_lanes ? lanes_.data() : nullptr,
                   with_lanes ? info_.partition_banks : 0);
  SweepStop stop;
  for (std::size_t at = 0; at < n && stop.why == SweepStop::kNone;
       at += kChunkRecords) {
    const std::size_t to = std::min(n, at + kChunkRecords);
    crc_to(to);
    stop = sweep_records(records, at, to, state);
  }
  crc_to(n);
  if (check_crc && crc != info.crc) fail(block + " CRC mismatch (corrupt)");

  if (records[0].time_ps != info.min_time_ps ||
      records[n - 1].time_ps != info.max_time_ps)
    fail(block + " time range disagrees with the footer index");
  if (index > 0 && records[0].time_ps < info_.blocks[index - 1].max_time_ps)
    fail(block + " records are not time-ordered across blocks");
  if (stop.why == SweepStop::kFlags)
    fail(block + " record " + std::to_string(stop.at) +
         " has an invalid flag byte");
  if (stop.why == SweepStop::kOrder)
    fail(block + " records are not time-ordered");
  if (stop.why == SweepStop::kLane)
    fail(block + " partition lane disagrees with its records");
  if (!with_lanes) return;
  // The lanes now hold exactly the block's records, so each lane's row
  // maximum is a plain scan of its row column.
  const std::uint32_t banks = info_.partition_banks;
  for (std::uint32_t b = 0; b < banks; ++b) {
    const BankLaneView& lane = lanes_[b];
    const dram::RowId max_row =
        lane.count == 0 ? 0 : *std::max_element(lane.rows, lane.rows + lane.count);
    mapping_->lane_max_rows[index * banks + b].store(max_row,
                                                     std::memory_order_relaxed);
  }
}

std::size_t MmapSource::next_batch(AccessRecord* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    if (span_pos_ >= span_len_) {
      if (block_ >= info_.blocks.size()) break;
      load_block(block_++, false);
      continue;
    }
    const std::size_t take = std::min(max - n, span_len_ - span_pos_);
    std::memcpy(out + n, span_ + span_pos_, take * kRecordBytes);
    span_pos_ += take;
    n += take;
  }
  return n;
}

std::size_t MmapSource::span_lanes(const AccessRecord** data,
                                   const BankLaneView** lanes,
                                   std::size_t* lane_banks) {
  *lanes = nullptr;
  *lane_banks = 0;
  // Lanes describe whole blocks: only a span starting at a block
  // boundary gets them (a tail left by next_batch() does not — its
  // serials would be off by the consumed prefix). Blocks are never
  // empty (parse_corpus), so a loaded block always has a record.
  if (span_pos_ >= span_len_) {
    if (block_ >= info_.blocks.size()) {
      *data = nullptr;
      return 0;
    }
    const bool with_lanes = info_.partition_banks != 0;
    load_block(block_++, with_lanes);
    if (with_lanes) {
      *lanes = lanes_.data();
      *lane_banks = info_.partition_banks;
    }
  }
  *data = span_ + span_pos_;
  const std::size_t n = span_len_ - span_pos_;
  span_pos_ = span_len_;
  return n;
}

void MmapSource::rewind() {
  block_ = 0;
  span_ = nullptr;
  span_len_ = 0;
  span_pos_ = 0;
}

// ---------------------------------------------------------------------------
// Convenience entry points

CorpusInfo read_corpus_info(const std::string& path) {
  const ReadFd fd(path);
  return parse_corpus(fd.get(), path).info;
}

CorpusInfo verify_corpus(const std::string& path) {
  // Touching every block through the lane path runs the whole proof:
  // block CRCs, time order against the footer index, and a partition
  // index's CRC and element cross-check when there is one.
  MmapSource source(path);
  const AccessRecord* span = nullptr;
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  while (source.span_lanes(&span, &lanes, &lane_banks) != 0) {
  }
  return source.info();
}

std::uint32_t write_corpus(const std::string& path,
                           const std::vector<AccessRecord>& records,
                           CorpusWriter::Options options) {
  CorpusWriter writer(path, options);
  writer.append(records.data(), records.size());
  return writer.close();
}

std::vector<AccessRecord> read_corpus(const std::string& path) {
  // next_batch proves each block's records and never reads its lanes.
  MmapSource source(path);
  std::vector<AccessRecord> out;
  std::vector<AccessRecord> batch(std::size_t{1} << 12);
  while (const std::size_t n = source.next_batch(batch.data(), batch.size()))
    out.insert(out.end(), batch.data(), batch.data() + n);
  return out;
}

}  // namespace tvp::trace
