#include "tvp/svc/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "tvp/svc/result_io.hpp"
#include "tvp/util/crc32.hpp"
#include "tvp/util/failpoint.hpp"

namespace tvp::svc {

namespace fp = util::fp;

namespace {

// Every syscall in the journal path goes through a named failpoint site
// (see util/failpoint.hpp); the torture harness enumerates these and
// proves crash consistency at each one.
constexpr const char* kSiteCreateOpen = "journal.create.open";
constexpr const char* kSiteAppendOpen = "journal.append.open";
constexpr const char* kSiteAppendWrite = "journal.append.write";
constexpr const char* kSiteAppendFsync = "journal.append.fsync";
constexpr const char* kSiteDirOpen = "journal.dir.open";
constexpr const char* kSiteDirFsync = "journal.dir.fsync";
constexpr const char* kSiteRemoveUnlink = "journal.remove.unlink";
constexpr const char* kSiteTailTruncate = "journal.tail.ftruncate";
constexpr const char* kSiteTailFsync = "journal.tail.fsync";
constexpr const char* kSiteReplayOpen = "journal.replay.open";
constexpr const char* kSiteReplayRead = "journal.replay.read";

[[noreturn]] void io_fail(const std::string& what) {
  throw std::runtime_error("Journal: " + what + ": " + std::strerror(errno));
}

// fsync'ing a file makes its *contents* durable but not its directory
// entry: after a crash a freshly created (or removed) journal may not
// exist (or still exist). Fsync the containing directory too.
void fsync_parent_dir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path().string();
  const std::string dir = parent.empty() ? std::string(".") : parent;
  const int fd = fp::open(kSiteDirOpen, dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) io_fail("cannot open directory " + dir);
  if (fp::fsync_eintr(kSiteDirFsync, fd) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    io_fail("cannot fsync directory " + dir);
  }
  ::close(fd);
}

}  // namespace

const std::vector<std::string>& journal_failpoint_sites() {
  static const std::vector<std::string> sites = {
      kSiteCreateOpen, kSiteAppendOpen,   kSiteAppendWrite,  kSiteAppendFsync,
      kSiteDirOpen,    kSiteDirFsync,     kSiteRemoveUnlink, kSiteTailTruncate,
      kSiteTailFsync,  kSiteReplayOpen,   kSiteReplayRead,
  };
  return sites;
}

std::uint32_t crc32(std::string_view data) { return util::crc32(data); }

Journal Journal::create(const std::string& path, const JobSpec& spec) {
  const int fd =
      fp::open(kSiteCreateOpen, path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
               0644);
  if (fd < 0) io_fail("cannot create " + path);
  Journal journal(fd);
  util::JsonWriter json;
  json.begin_object();
  json.key("type").value("job");
  json.key("spec");
  spec.write_json(json);
  json.end_object();
  try {
    journal.append_line(json.str());
    // The header is durable only once its directory entry is too.
    fsync_parent_dir(path);
  } catch (...) {
    // A failed create must not leave a half-written file behind: the
    // caller never got a journal, so a lingering stub would block every
    // future submit under this name. Best-effort, raw unlink — this is
    // error cleanup, not a durability point.
    journal.close();
    ::unlink(path.c_str());
    throw;
  }
  return journal;
}

bool Journal::is_torn_create(const std::string& path) {
  // Raw syscalls on purpose: this classifies wreckage during recovery
  // and must not consume failpoint hits the torture harness counted for
  // the replay path.
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  char buf[1 << 12];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;  // unreadable — let replay() surface the real error
    }
    if (n == 0) break;
    if (std::memchr(buf, '\n', static_cast<std::size_t>(n)) != nullptr) {
      ::close(fd);
      return false;  // at least one complete record: a real journal
    }
  }
  ::close(fd);
  return true;
}

void Journal::remove(const std::string& path) {
  if (fp::unlink(kSiteRemoveUnlink, path.c_str()) != 0) {
    if (errno == ENOENT) return;  // already gone — nothing to make durable
    io_fail("cannot remove " + path);
  }
  fsync_parent_dir(path);
}

Journal Journal::append_to(const std::string& path,
                           std::size_t truncate_tail_bytes) {
  const int fd = fp::open(kSiteAppendOpen, path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) io_fail("cannot open " + path);
  if (truncate_tail_bytes > 0) {
    // Cut off the torn tail replay() reported; appending after it would
    // glue the new record onto the corrupt line and lose both.
    const off_t size = ::lseek(fd, 0, SEEK_END);
    if (size < 0 || static_cast<std::size_t>(size) < truncate_tail_bytes ||
        fp::ftruncate(kSiteTailTruncate, fd,
                      size - static_cast<off_t>(truncate_tail_bytes)) != 0 ||
        fp::fsync_eintr(kSiteTailFsync, fd) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      io_fail("cannot drop the torn tail of " + path);
    }
  }
  return Journal(fd);
}

Journal::Journal(Journal&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Journal::~Journal() { close(); }

void Journal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Journal::append_line(const std::string& payload) {
  if (fd_ < 0) throw std::logic_error("Journal: append on closed journal");
  std::string line = "{\"crc\":" + std::to_string(crc32(payload)) +
                     ",\"e\":" + payload + "}\n";
  if (!fp::write_full(kSiteAppendWrite, fd_, line.data(), line.size()))
    io_fail("write failed");
  if (fp::fsync_eintr(kSiteAppendFsync, fd_) != 0) io_fail("fsync failed");
}

void Journal::append_cell(std::size_t index, const exp::SweepCell& cell) {
  util::JsonWriter json;
  json.begin_object();
  json.key("type").value("cell");
  json.key("cell");
  write_sweep_cell(json, index, cell);
  json.end_object();
  append_line(json.str());
}

void Journal::append_done() {
  util::JsonWriter json;
  json.begin_object();
  json.key("type").value("done");
  json.end_object();
  append_line(json.str());
}

Journal::Replay Journal::replay(const std::string& path) {
  const int fd = fp::open(kSiteReplayOpen, path.c_str(), O_RDONLY);
  if (fd < 0) io_fail("cannot read " + path);
  std::string text;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = fp::read_eintr(kSiteReplayRead, fd, buf, sizeof buf);
    if (n < 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      io_fail("cannot read " + path);
    }
    if (n == 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  Replay replay;
  bool have_header = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = pos;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn trailing line
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;

    // Extract the payload textually (the CRC covers its exact bytes).
    static constexpr std::string_view kPrefix = "{\"crc\":";
    static constexpr std::string_view kSep = ",\"e\":";
    std::size_t payload_begin = std::string::npos;
    std::uint32_t want_crc = 0;
    if (line.compare(0, kPrefix.size(), kPrefix) == 0 && line.back() == '}') {
      const std::size_t sep = line.find(kSep, kPrefix.size());
      if (sep != std::string::npos) {
        bool digits_ok = sep > kPrefix.size();
        std::uint64_t crc_value = 0;
        for (std::size_t i = kPrefix.size(); i < sep && digits_ok; ++i) {
          const char c = line[i];
          if (c < '0' || c > '9') digits_ok = false;
          crc_value = crc_value * 10 + static_cast<std::uint64_t>(c - '0');
        }
        if (digits_ok && crc_value <= 0xFFFFFFFFu) {
          payload_begin = sep + kSep.size();
          want_crc = static_cast<std::uint32_t>(crc_value);
        }
      }
    }
    if (payload_begin == std::string::npos) {
      pos = start;
      break;  // malformed framing: stop here, drop the rest
    }
    const std::string payload =
        line.substr(payload_begin, line.size() - 1 - payload_begin);
    if (crc32(payload) != want_crc) {
      pos = start;
      break;  // corrupt record
    }

    util::JsonValue entry;
    std::string type;
    try {
      entry = util::JsonValue::parse(payload);
      type = entry.at("type").as_string();
      if (type == "job") {
        if (have_header)
          throw std::runtime_error("Journal: duplicate header in " + path);
        replay.spec = JobSpec::from_json(entry.at("spec"));
        have_header = true;
      } else if (type == "cell") {
        if (!have_header)
          throw std::runtime_error("Journal: cell before header in " + path);
        std::size_t index = 0;
        exp::SweepCell cell = read_sweep_cell(entry.at("cell"), index);
        replay.cells[index] = std::move(cell);
      } else if (type == "done") {
        replay.done = true;
      } else {
        pos = start;  // unknown record type (newer writer): stop here
        break;
      }
    } catch (const std::runtime_error&) {
      if (type == "job" || (!have_header && type.empty())) throw;
      pos = start;  // undecodable record past the header: stop here
      break;
    }
  }
  if (!have_header)
    throw std::runtime_error("Journal: missing or corrupt header in " + path);
  replay.dropped_bytes = text.size() - pos;
  return replay;
}

}  // namespace tvp::svc
