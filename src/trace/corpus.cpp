#include "tvp/trace/corpus.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
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
#include <utility>

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
  /// Per-block trust-after-verify bits: 1 once the block's first-touch
  /// proof passed (see corpus.hpp).
  std::unique_ptr<std::atomic<std::uint8_t>[]> verified;
  /// Per-(block, bank) lane row maxima, filled by the proof (published
  /// by the verified bit's release store); lets every source range-
  /// check a whole lane in O(1). Atomics because racing sources may
  /// write the same values.
  std::unique_ptr<std::atomic<std::uint32_t>[]> lane_max_rows;

  ~CorpusMapping() {
    if (base != nullptr)
      ::munmap(const_cast<unsigned char*>(base), static_cast<std::size_t>(size));
  }
};

// The lanes go to the controller as typed pointers into the mapping.
static_assert(std::endian::native == std::endian::little,
              "the corpus format stores little-endian integers in place");
static_assert(sizeof(dram::RowId) == 4 && sizeof(SourceId) == 1);

namespace {

constexpr std::size_t kFileHeaderBytes = 32;
constexpr std::size_t kFooterHeadBytes = 24;
constexpr std::size_t kIndexEntryBytes = 24;
constexpr std::size_t kTrailerBytes = 16;
constexpr std::uint32_t kVersion = 4;
// File-header words after the magic and version; bytes 16-31 stay zero.
constexpr std::size_t kFlagsOffset = 8;
constexpr std::size_t kBanksOffset = 12;
constexpr std::uint32_t kFlagNoOracle = 1u;  // the writer was given no oracle
constexpr char kFileMagic[4] = {'T', 'V', 'P', 'C'};
constexpr char kFooterMagic[4] = {'T', 'V', 'P', 'F'};
constexpr char kTrailerMagic[8] = {'T', 'V', 'P', 'C', 'E', 'N', 'D', '\0'};

constexpr std::uint64_t pad8(std::uint64_t n) { return (n + 7u) & ~std::uint64_t{7}; }

// Where a block's columns start, relative to the block, for @p banks
// banks and @p n records (see corpus.hpp): the per-bank counts, padded
// to 8 bytes, then the time (u64), row (u32), serial (u32), flag (u8)
// and source (u8) columns, the last padded to 8 bytes; `end` is the
// block's size.
struct LaneLayout {
  constexpr LaneLayout(std::uint64_t banks, std::uint64_t n)
      : times(pad8(banks * 4)),
        rows(times + n * 8),
        serials(rows + n * 4),
        flags(serials + n * 4),
        sources(flags + n),
        end(flags + pad8(2 * n)) {}
  std::uint64_t times, rows, serials, flags, sources, end;
};

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
constexpr const char* kSiteReadRelease = "corpus.read.release";

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

// The file header of a corpus of @p banks banks, with or without an
// oracle.
std::array<unsigned char, kFileHeaderBytes> encode_header(std::uint32_t banks,
                                                          bool oracle) {
  std::array<unsigned char, kFileHeaderBytes> header{};
  std::memcpy(header.data(), kFileMagic, 4);
  store_u32(header.data() + 4, kVersion);
  store_u32(header.data() + kFlagsOffset, oracle ? 0 : kFlagNoOracle);
  store_u32(header.data() + kBanksOffset, banks);
  return header;
}

struct ParsedCorpus {
  std::uint64_t file_size = 0;
  CorpusInfo info;
};

// Parses and validates header + trailer + footer through @p fd, and
// derives every block's offset from the record counts. Only O(footer)
// bytes are read; block payloads stay untouched.
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
    corrupt(path, "unsupported corpus version " + std::to_string(version) +
                      " (this reader reads version " + std::to_string(kVersion) +
                      ")");
  const std::uint32_t flags = load_u32(header + kFlagsOffset);
  if ((flags & ~kFlagNoOracle) != 0)
    corrupt(path, "unknown header flags " + std::to_string(flags));
  CorpusInfo& info = parsed.info;
  info.oracle = (flags & kFlagNoOracle) == 0;
  info.banks = load_u32(header + kBanksOffset);
  if (info.banks == 0) corrupt(path, "header declares zero banks");
  for (std::size_t i = kBanksOffset + 4; i < kFileHeaderBytes; ++i)
    if (header[i] != 0)
      corrupt(path, "reserved header byte " + std::to_string(i) + " is not zero");

  unsigned char trailer[kTrailerBytes];
  pread_exact(fd, trailer, sizeof trailer, parsed.file_size - kTrailerBytes,
              path);
  if (std::memcmp(trailer + 8, kTrailerMagic, 8) != 0)
    corrupt(path, "bad trailer magic (truncated or not a corpus)");
  const std::uint64_t footer_bytes = load_u32(trailer);
  const std::uint32_t footer_crc = load_u32(trailer + 4);
  if (footer_bytes < kFooterHeadBytes ||
      footer_bytes > parsed.file_size - kFileHeaderBytes - kTrailerBytes)
    corrupt(path, "trailer does not frame a footer (truncated footer?)");
  const std::uint64_t footer_offset =
      parsed.file_size - kTrailerBytes - footer_bytes;

  std::vector<unsigned char> footer(static_cast<std::size_t>(footer_bytes));
  pread_exact(fd, footer.data(), footer.size(), footer_offset, path);
  if (util::crc32(footer.data(), footer.size(),
                  util::crc32(header, sizeof header)) != footer_crc)
    corrupt(path, "footer CRC mismatch (corrupt header or footer)");
  if (std::memcmp(footer.data(), kFooterMagic, 4) != 0)
    corrupt(path, "bad footer magic");

  info.footer_crc = footer_crc;
  const std::uint64_t block_count = load_u32(footer.data() + 4);
  const std::uint64_t aggressor_count = load_u64(footer.data() + 8);
  const std::uint64_t victim_count = load_u64(footer.data() + 16);
  // Bounded first, so the size below cannot wrap.
  if (aggressor_count > footer_bytes / 8 || victim_count > footer_bytes / 8 ||
      footer_bytes != kFooterHeadBytes + block_count * kIndexEntryBytes +
                          (aggressor_count + victim_count) * 8)
    corrupt(path, "footer size does not match its counts");

  // The blocks follow the header back to back, each as long as its
  // record count and the bank count make it, and end at the footer.
  info.blocks.reserve(static_cast<std::size_t>(block_count));
  std::uint64_t offset = kFileHeaderBytes;
  const unsigned char* entry = footer.data() + kFooterHeadBytes;
  for (std::uint64_t b = 0; b < block_count; ++b, entry += kIndexEntryBytes) {
    CorpusBlockInfo block;
    block.offset = offset;
    block.first_record = info.total_records;
    block.records = load_u32(entry);
    block.crc = load_u32(entry + 4);
    block.min_time_ps = load_u64(entry + 8);
    block.max_time_ps = load_u64(entry + 16);
    // The writer never emits an empty block, and the order proof needs
    // a first and a last record to hold against the index's time range.
    if (block.records == 0)
      corrupt(path, "block " + std::to_string(b) + " is empty");
    offset += LaneLayout(info.banks, block.records).end;
    if (offset > footer_offset)
      corrupt(path, "block " + std::to_string(b) + " runs into the footer");
    info.total_records += block.records;
    info.blocks.push_back(block);
  }
  if (offset != footer_offset)
    corrupt(path, "blocks end at byte " + std::to_string(offset) +
                      ", not at the footer (byte " +
                      std::to_string(footer_offset) + ")");

  info.aggressors.reserve(static_cast<std::size_t>(aggressor_count));
  const unsigned char* key = entry;
  for (std::uint64_t i = 0; i < aggressor_count; ++i, key += 8)
    info.aggressors.push_back(load_u64(key));
  info.victims.reserve(static_cast<std::size_t>(victim_count));
  for (std::uint64_t i = 0; i < victim_count; ++i, key += 8)
    info.victims.push_back(load_u64(key));
  return parsed;
}

void fsync_parent_dir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path().string();
  const std::string dir = parent.empty() ? std::string(".") : parent;
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

// What the serial and time half of a block's first-touch proof rejects
// first (kNone: nothing).
enum class LaneDefect { kNone, kSerialOrder, kPermutation, kTimeOrder };

// The serial and time proof of a block of @p n records over its @p banks
// @p lanes (whose counts sum to n): each lane's serials ascend strictly
// and stay below n, and no serial is claimed twice, so the serials are a
// permutation of [0, n); then the times ascend in serial order. Fills
// each lane's max_row and, on success, @p first and @p last with the
// block's first and last times. Kept free of strings and exceptions so
// the loops stay in registers.
LaneDefect prove_lanes(BankLaneView* lanes, std::uint32_t banks, std::size_t n,
                       std::uint64_t& first, std::uint64_t& last) {
  // Every slot of by_serial is written before it is read, once the
  // serials are proven a permutation.
  const auto by_serial = std::make_unique_for_overwrite<std::uint64_t[]>(n);
  std::vector<std::uint64_t> seen((n + 63) / 64, 0);
  for (std::uint32_t b = 0; b < banks; ++b) {
    BankLaneView& lane = lanes[b];
    const std::uint32_t* const serials = lane.serials;
    const std::uint64_t* const times = lane.times;
    dram::RowId max_row = 0;
    for (std::size_t k = 0; k < lane.count; ++k) {
      const std::uint32_t s = serials[k];
      if (k > 0 && s <= serials[k - 1]) return LaneDefect::kSerialOrder;
      if (s >= n) return LaneDefect::kPermutation;
      const std::uint64_t bit = std::uint64_t{1} << (s & 63);
      if ((seen[s >> 6] & bit) != 0) return LaneDefect::kPermutation;
      seen[s >> 6] |= bit;
      by_serial[s] = times[k];
      max_row = std::max(max_row, lane.rows[k]);
    }
    lane.max_row = max_row;
  }
  for (std::size_t s = 1; s < n; ++s)
    if (by_serial[s] < by_serial[s - 1]) return LaneDefect::kTimeOrder;
  first = by_serial[0];
  last = by_serial[n - 1];
  return LaneDefect::kNone;
}

}  // namespace

const std::vector<std::string>& corpus_failpoint_sites() {
  static const std::vector<std::string> sites = {
      kSiteCreateOpen, kSiteHeaderWrite, kSiteBlockWrite, kSiteBlockWriteback,
      kSiteFooterWrite, kSiteTrailerWrite, kSiteCloseFsync, kSiteDirOpen,
      kSiteDirFsync, kSiteReadOpen, kSiteReadMmap, kSiteReadPread,
      kSiteReadRelease,
  };
  return sites;
}

// ---------------------------------------------------------------------------
// CorpusWriter

CorpusWriter::CorpusWriter(const std::string& path, std::uint32_t banks,
                           std::size_t records_per_block)
    : path_(path), banks_(banks), records_per_block_(records_per_block) {
  if (banks_ == 0)
    throw std::invalid_argument("CorpusWriter: a corpus needs at least one bank");
  if (records_per_block_ == 0)
    throw std::invalid_argument("CorpusWriter: records_per_block must be > 0");
  fd_ = fp::open(kSiteCreateOpen, path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                 0644);
  if (fd_ < 0) io_fail(path_, "cannot create");
  block_.reserve(records_per_block_);

  const auto header = encode_header(banks_, true);
  if (!fp::write_full(kSiteHeaderWrite, fd_, header.data(), header.size())) {
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
    if (r.bank >= banks_)
      throw std::invalid_argument("CorpusWriter: record bank " +
                                  std::to_string(r.bank) + " outside the corpus's " +
                                  std::to_string(banks_) + " banks");
    last_time_ps_ = r.time_ps;
    block_.push_back(r);
    if (block_.size() >= records_per_block_) flush_block();
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
  const std::size_t n = block_.size();
  const LaneLayout layout(banks_, n);
  // Every byte below is written, padding as zeros: the file must be
  // deterministic (its bytes are CRC'd and identity-hashed).
  staging_.resize(static_cast<std::size_t>(layout.end));

  // The block's scatter pass, done once at write time: per-bank lane
  // columns (time, row, block-relative serial, flags, source), laid out
  // bank after bank so replay hands the mapped bytes straight to the
  // controller.
  unsigned char* const block = staging_.data();
  unsigned char* const times = block + layout.times;
  unsigned char* const rows = block + layout.rows;
  unsigned char* const serials = block + layout.serials;
  unsigned char* const flags = block + layout.flags;
  unsigned char* const sources = block + layout.sources;
  // Each lane's length, then its next slot in the columns.
  std::vector<std::uint32_t> next(banks_, 0);
  for (const AccessRecord& r : block_) ++next[r.bank];
  std::memset(block, 0, static_cast<std::size_t>(layout.times));  // + padding
  for (std::uint32_t b = 0, at = 0; b < banks_; ++b) {
    store_u32(block + std::size_t{b} * 4, next[b]);
    at += std::exchange(next[b], at);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const AccessRecord& r = block_[i];
    const std::uint32_t k = next[r.bank]++;
    store_u64(times + std::size_t{k} * 8, r.time_ps);
    store_u32(rows + std::size_t{k} * 4, r.row);
    store_u32(serials + std::size_t{k} * 4, static_cast<std::uint32_t>(i));
    flags[k] = static_cast<unsigned char>((r.write ? kLaneWrite : 0) |
                                          (r.is_attack ? kLaneAttack : 0));
    sources[k] = r.source;
  }
  std::memset(sources + n, 0, static_cast<std::size_t>(layout.end - layout.sources) - n);

  CorpusBlockInfo info;
  info.offset = write_offset_;
  info.records = static_cast<std::uint32_t>(n);
  info.crc = util::crc32(staging_.data(), staging_.size());
  info.min_time_ps = block_.front().time_ps;
  info.max_time_ps = block_.back().time_ps;
  if (!fp::write_full(kSiteBlockWrite, fd_, staging_.data(), staging_.size()))
    fail("cannot write block");
  write_offset_ += staging_.size();

  // Start the block's writeback now, so close()'s fsync waits on the
  // tail alone instead of flushing the whole file at once. Durability
  // still comes from that fsync; this only moves the I/O earlier.
  if (fp::sync_file_range(kSiteBlockWriteback, fd_,
                          static_cast<::off64_t>(info.offset),
                          static_cast<::off64_t>(write_offset_ - info.offset),
                          SYNC_FILE_RANGE_WRITE) != 0)
    fail("cannot start block writeback");

  total_records_ += n;
  index_.push_back(info);
  block_.clear();
}

std::uint32_t CorpusWriter::close() {
  if (fd_ < 0) throw std::logic_error("CorpusWriter: double close");
  flush_block();
  // Before the footer: any file with a trailer has its final header.
  const auto header = encode_header(banks_, oracle_);
  if (!oracle_ && fp::pwrite(kSiteHeaderWrite, fd_, header.data() + kFlagsOffset,
                             4, static_cast<::off_t>(kFlagsOffset)) != 4)
    fail("cannot write header flags");

  std::sort(aggressors_.begin(), aggressors_.end());
  aggressors_.erase(std::unique(aggressors_.begin(), aggressors_.end()),
                    aggressors_.end());
  std::sort(victims_.begin(), victims_.end());
  victims_.erase(std::unique(victims_.begin(), victims_.end()),
                 victims_.end());

  std::vector<unsigned char> footer(kFooterHeadBytes +
                                    index_.size() * kIndexEntryBytes +
                                    (aggressors_.size() + victims_.size()) * 8);
  std::memcpy(footer.data(), kFooterMagic, 4);
  store_u32(footer.data() + 4, static_cast<std::uint32_t>(index_.size()));
  store_u64(footer.data() + 8, aggressors_.size());
  store_u64(footer.data() + 16, victims_.size());
  unsigned char* entry = footer.data() + kFooterHeadBytes;
  for (const CorpusBlockInfo& b : index_) {
    store_u32(entry, b.records);
    store_u32(entry + 4, b.crc);
    store_u64(entry + 8, b.min_time_ps);
    store_u64(entry + 16, b.max_time_ps);
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
  const std::uint32_t footer_crc = util::crc32(
      footer.data(), footer.size(), util::crc32(header.data(), header.size()));

  unsigned char trailer[kTrailerBytes] = {};
  store_u32(trailer, static_cast<std::uint32_t>(footer.size()));
  store_u32(trailer + 4, footer_crc);
  std::memcpy(trailer + 8, kTrailerMagic, 8);

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
/// verified bits) warm between cells. A source releases the pages behind
/// the block it reads and the rest once it ends or rewinds
/// (MmapSource::release_before), so a kept mapping holds address space
/// and, of a source destroyed mid-stream, at most its last block.
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
                                               std::uint32_t banks,
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
  const std::size_t cells = blocks * banks;
  mapping->lane_max_rows = std::make_unique<std::atomic<std::uint32_t>[]>(cells);
  for (std::size_t i = 0; i < cells; ++i)
    mapping->lane_max_rows[i].store(0, std::memory_order_relaxed);
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
                             info_.banks, info_.footer_crc);
  base_ = mapping_->base;
  // Blocks bound the bank count by the file size; an empty corpus's
  // count bounds nothing, and it has no lanes to view.
  lanes_.resize(info_.blocks.empty() ? 0 : info_.banks);
  cursors_.resize(lanes_.size());
}

void MmapSource::fail(const std::string& what) const { corrupt(path_, what); }

// Loads block @p index: releases the pages before it, then points
// lanes_ at its lane columns, which its first touch proves first
// (prove_block), recording that in the shared verified bits.
void MmapSource::load_block(std::size_t index) {
  release_before(info_.blocks[index].offset);
  span_len_ = info_.blocks[index].records;
  span_pos_ = 0;
  std::fill(cursors_.begin(), cursors_.end(), 0);
  // Trust-after-verify, shared process-wide: if a concurrent source
  // races us here both verify — harmless, the bytes are immutable.
  if (mapping_->verified[index].load(std::memory_order_acquire) == 0) {
    prove_block(index);
    mapping_->verified[index].store(1, std::memory_order_release);
  } else {
    point_lanes(index);
  }
  for (std::uint32_t k = 0; k < info_.banks; ++k)
    lanes_[k].max_row = mapping_->lane_max_rows[index * info_.banks + k].load(
        std::memory_order_relaxed);
}

// Releases the mapping's pages below byte @p end (rounded down to a
// page, or the whole mapping when @p end is the file's end) that this
// source has not released since its last rewind. The mapping is read-only
// and MAP_PRIVATE over a file nothing writes through it, so a released
// page refaults from the page cache with the same bytes, also for another
// source that shares the mapping and still reads it.
void MmapSource::release_before(std::uint64_t end) {
  static const std::uint64_t page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  end = end >= file_size_ ? (file_size_ + page - 1) / page * page : end / page * page;
  if (end <= released_) return;
  if (fp::madvise(kSiteReadRelease, const_cast<unsigned char*>(base_) + released_,
                  static_cast<std::size_t>(end - released_), MADV_DONTNEED) != 0)
    io_fail(path_, "cannot release replayed pages");
  released_ = end;
}

// Points lanes_ at block @p index's lane columns (zero-copy: the lane
// pointers are the page cache). The counts must already be known to sum
// to the block, so that every pointer stays inside it.
void MmapSource::point_lanes(std::size_t index) {
  const CorpusBlockInfo& b = info_.blocks[index];
  const unsigned char* const block = base_ + b.offset;
  const LaneLayout layout(info_.banks, b.records);
  std::size_t at = 0;
  for (std::uint32_t k = 0; k < info_.banks; ++k) {
    BankLaneView& lv = lanes_[k];
    lv.times = reinterpret_cast<const std::uint64_t*>(block + layout.times + at * 8);
    lv.rows = reinterpret_cast<const dram::RowId*>(block + layout.rows + at * 4);
    lv.serials =
        reinterpret_cast<const std::uint32_t*>(block + layout.serials + at * 4);
    lv.flags = block + layout.flags + at;
    lv.sources = block + layout.sources + at;
    lv.count = load_u32(block + std::size_t{k} * 4);
    at += lv.count;
  }
}

// The first-touch proof of block @p index (see corpus.hpp): its CRC
// first, so that corruption is reported as such, then the lane counts,
// the zero padding and the flag bytes (anything above bit 1 was not
// written by our writer, and reading it as bool would be undefined),
// then the lanes (prove_lanes) and the block's time range against the
// footer index and the previous block — so once every block is touched
// the whole corpus is proven time-ordered. Fills the lanes' row maxima.
// Any defect is a precise error naming the block.
void MmapSource::prove_block(std::size_t index) {
  const CorpusBlockInfo& info = info_.blocks[index];
  const std::string block = "block " + std::to_string(index);
  const unsigned char* const bytes = base_ + info.offset;
  const std::size_t n = info.records;
  const std::uint32_t banks = info_.banks;
  const LaneLayout layout(banks, n);
  if (util::crc32(bytes, static_cast<std::size_t>(layout.end)) != info.crc)
    fail(block + " CRC mismatch (corrupt)");

  std::uint64_t covered = 0;
  for (std::uint32_t b = 0; b < banks; ++b)
    covered += load_u32(bytes + std::size_t{b} * 4);
  if (covered != n)
    fail(block + " lanes do not cover the block");
  const auto zero = [](const unsigned char* from, const unsigned char* to) {
    return std::all_of(from, to, [](unsigned char c) { return c == 0; });
  };
  if (!zero(bytes + std::size_t{banks} * 4, bytes + layout.times) ||
      !zero(bytes + layout.sources + n, bytes + layout.end))
    fail(block + " lane padding is not zero");
  if (!std::all_of(bytes + layout.flags, bytes + layout.flags + n,
                   [](unsigned char f) { return (f & ~(kLaneWrite | kLaneAttack)) == 0; }))
    fail(block + " has a flag byte with bits above bit 1");

  point_lanes(index);
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  switch (prove_lanes(lanes_.data(), banks, n, first, last)) {
    case LaneDefect::kNone:
      break;
    case LaneDefect::kSerialOrder:
      fail(block + " lane serials do not ascend");
    case LaneDefect::kPermutation:
      fail(block + " lane serials are not a permutation of the block");
    case LaneDefect::kTimeOrder:
      fail(block + " records are not time-ordered");
  }
  if (first != info.min_time_ps || last != info.max_time_ps)
    fail(block + " time range disagrees with the footer index");
  if (index > 0 && first < info_.blocks[index - 1].max_time_ps)
    fail(block + " records are not time-ordered across blocks");
  for (std::uint32_t b = 0; b < banks; ++b)
    mapping_->lane_max_rows[index * banks + b].store(lanes_[b].max_row,
                                                     std::memory_order_relaxed);
}

std::size_t MmapSource::next_batch(AccessRecord* out, std::size_t max) {
  std::size_t n = 0;
  while (n < max) {
    if (span_pos_ >= span_len_) {
      if (block_ >= info_.blocks.size()) {
        release_before(file_size_);
        break;
      }
      load_block(block_++);
      continue;
    }
    const std::size_t take = std::min(max - n, span_len_ - span_pos_);
    gather_lanes(lanes_.data(), lanes_.size(), cursors_.data(), span_pos_,
                 span_pos_ + take, out + n);
    span_pos_ += take;
    n += take;
  }
  return n;
}

std::size_t MmapSource::span_lanes(const AccessRecord** data,
                                   const BankLaneView** lanes,
                                   std::size_t* lane_banks) {
  *data = nullptr;
  *lanes = nullptr;
  *lane_banks = 0;
  if (span_pos_ < span_len_) {
    // next_batch() stopped inside this block: its lanes' serials count
    // from the block's start, so the rest goes out as records.
    const std::size_t n = span_len_ - span_pos_;
    tail_.resize(n);
    gather_lanes(lanes_.data(), lanes_.size(), cursors_.data(), span_pos_,
                 span_len_, tail_.data());
    span_pos_ = span_len_;
    *data = tail_.data();
    return n;
  }
  // Blocks are never empty (parse_corpus), so a loaded block always has
  // a record.
  if (block_ >= info_.blocks.size()) {
    release_before(file_size_);
    return 0;
  }
  load_block(block_++);
  span_pos_ = span_len_;
  *lanes = lanes_.data();
  *lane_banks = info_.banks;
  return span_len_;
}

void MmapSource::rewind() {
  release_before(file_size_);
  released_ = 0;
  block_ = 0;
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
  // Touching every block runs its whole first-touch proof.
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
                           std::uint32_t banks, std::size_t records_per_block) {
  CorpusWriter writer(path, banks, records_per_block);
  writer.append(records.data(), records.size());
  return writer.close();
}

std::vector<AccessRecord> read_corpus(const std::string& path) {
  MmapSource source(path);
  std::vector<AccessRecord> out;
  std::vector<AccessRecord> batch(std::size_t{1} << 12);
  while (const std::size_t n = source.next_batch(batch.data(), batch.size()))
    out.insert(out.end(), batch.data(), batch.data() + n);
  return out;
}

}  // namespace tvp::trace
