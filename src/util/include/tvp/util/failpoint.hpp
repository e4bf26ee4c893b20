// Deterministic, compile-time-optional fault injection.
//
// A *failpoint site* is a named place in the code — by convention one
// site per syscall location, named `module.operation.syscall` (e.g.
// "journal.append.fsync") — where tests can make the operation fail
// with a chosen errno or kill the process at that exact point. Sites
// are evaluated through the fp:: syscall shims below; in a default
// build (TVP_ENABLE_FAILPOINTS off) the shims inline to the bare
// syscalls and the evaluation compiles to nothing, so production
// binaries pay zero cost. Build with -DTVP_ENABLE_FAILPOINTS=ON to arm
// the sites (scripts/torture.sh does).
//
// Policies are per site:
//   action   return(<errno>) — the shim fails with that errno
//            abort           — std::abort() at the site (SIGABRT)
//            kill            — SIGKILL at the site (crash simulation:
//                              no unwinding, no flushing, no atexit)
//            off             — site passes through (counting only)
//   trigger  every evaluation, or only the Nth (`@N`, 1-based)
//
// Configuration is programmatic (set/configure) or via the
// TVP_FAILPOINTS environment variable (tvp_serve reads it at startup):
//
//   TVP_FAILPOINTS='journal.append.fsync=kill@3;client.send=return(EIO)'
//
// The registry itself (parsing, counters) is always compiled so the
// tier-1 suite exercises it in every build; only the site evaluation in
// the shims is gated. Every evaluation — even with no policy set —
// increments the site's hit counter, which is how the torture harness
// (tests/torture_test.cpp) enumerates "every Nth occurrence of every
// site" exhaustively instead of guessing kill points.
#pragma once

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tvp::util::failpoint {

struct Policy {
  enum class Action { kOff, kReturnErrno, kAbort, kKill };
  Action action = Action::kOff;
  /// The errno injected for kReturnErrno.
  int error = 0;
  /// 0 = fire on every evaluation; N > 0 = fire only on the Nth
  /// evaluation of the site (1-based, counted from the last reset()).
  std::uint64_t nth = 0;
};

/// True when the shims below were compiled with their sites armed
/// (-DTVP_ENABLE_FAILPOINTS=ON).
constexpr bool compiled_in() noexcept {
#if defined(TVP_ENABLE_FAILPOINTS) && TVP_ENABLE_FAILPOINTS
  return true;
#else
  return false;
#endif
}

/// Sets (replaces) the policy for @p site.
void set(const std::string& site, const Policy& policy);

/// Removes the policy for @p site (its hit counter is kept).
void clear(const std::string& site);

/// Drops every policy and every hit counter.
void reset();

/// Applies a spec string: entries separated by ';' or ',', each
/// `site=action[@N]` with action one of `off`, `abort`, `kill`,
/// `return(ERRNO)` (symbolic like EIO/EINTR/ENOSPC, or decimal).
/// Throws std::invalid_argument on a malformed spec.
void configure(const std::string& spec);

/// configure()s from the TVP_FAILPOINTS environment variable.
/// Returns false when the variable is unset or empty.
bool configure_from_env();

/// Evaluations of @p site since the last reset() (0 if never hit).
std::uint64_t hits(const std::string& site);

/// Snapshot of every site seen so far (evaluated or configured) with
/// its hit count, sorted by site name.
std::vector<std::pair<std::string, std::uint64_t>> counters();

/// Site evaluation — called by the shims on every attempt. Counts the
/// hit, then applies the site's policy: returns an errno to inject,
/// 0 to pass through, or does not return (kAbort/kKill).
int eval(const char* site) noexcept;

}  // namespace tvp::util::failpoint

// Injects a failure at `site`: on a triggered return-errno policy sets
// errno and evaluates `failure_result` as the enclosing function's
// return value. Compiles to nothing when failpoints are off.
#if defined(TVP_ENABLE_FAILPOINTS) && TVP_ENABLE_FAILPOINTS
#define TVP_FAILPOINT_INJECT(site, failure_result)                  \
  do {                                                              \
    if (const int tvp_fp_err_ = ::tvp::util::failpoint::eval(site)) \
      return (errno = tvp_fp_err_, failure_result);                 \
  } while (0)
#else
#define TVP_FAILPOINT_INJECT(site, failure_result) \
  do {                                             \
    (void)sizeof(site);                            \
  } while (0)
#endif

namespace tvp::util::fp {

// Failpoint-aware syscall shims. Each takes the site name first and
// otherwise mirrors the raw syscall; with failpoints compiled out they
// inline to the bare call.

inline int open(const char* site, const char* path, int flags,
                ::mode_t mode = 0) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::open(path, flags, mode);
}

inline ssize_t read(const char* site, int fd, void* buf, std::size_t count) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::read(fd, buf, count);
}

inline ssize_t write(const char* site, int fd, const void* buf,
                     std::size_t count) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::write(fd, buf, count);
}

inline int fsync(const char* site, int fd) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::fsync(fd);
}

inline int sync_file_range(const char* site, int fd, ::off64_t offset,
                           ::off64_t nbytes, unsigned int flags) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::sync_file_range(fd, offset, nbytes, flags);
}

inline int ftruncate(const char* site, int fd, ::off_t length) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::ftruncate(fd, length);
}

inline int unlink(const char* site, const char* path) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::unlink(path);
}

inline ssize_t pread(const char* site, int fd, void* buf, std::size_t count,
                     ::off_t offset) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::pread(fd, buf, count, offset);
}

inline ssize_t pwrite(const char* site, int fd, const void* buf,
                      std::size_t count, ::off_t offset) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::pwrite(fd, buf, count, offset);
}

inline void* mmap(const char* site, void* addr, std::size_t length, int prot,
                  int flags, int fd, ::off_t offset) {
  TVP_FAILPOINT_INJECT(site, MAP_FAILED);
  return ::mmap(addr, length, prot, flags, fd, offset);
}

inline ssize_t send(const char* site, int fd, const void* buf, std::size_t len,
                    int flags) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::send(fd, buf, len, flags);
}

inline int accept4(const char* site, int fd, ::sockaddr* addr,
                   ::socklen_t* len, int flags) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::accept4(fd, addr, len, flags);
}

inline int epoll_ctl(const char* site, int epoll_fd, int op, int fd,
                     struct ::epoll_event* event) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::epoll_ctl(epoll_fd, op, fd, event);
}

inline int epoll_wait(const char* site, int epoll_fd,
                      struct ::epoll_event* events, int max_events,
                      int timeout_ms) {
  TVP_FAILPOINT_INJECT(site, -1);
  return ::epoll_wait(epoll_fd, events, max_events, timeout_ms);
}

// EINTR-hardened variants: retry while the call — real or injected —
// fails with EINTR, so a signal landing mid-I/O never surfaces as a
// spurious error. The failpoint is re-evaluated on every attempt
// (advancing the hit counter), so a one-shot `return(EINTR)@N` policy
// exercises exactly one retry; an unconditional EINTR policy on one of
// these sites would retry forever — use `@N`.

inline ssize_t read_eintr(const char* site, int fd, void* buf,
                          std::size_t count) {
  while (true) {
    const ssize_t n = fp::read(site, fd, buf, count);
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t pread_eintr(const char* site, int fd, void* buf,
                           std::size_t count, ::off_t offset) {
  while (true) {
    const ssize_t n = fp::pread(site, fd, buf, count, offset);
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t write_eintr(const char* site, int fd, const void* buf,
                           std::size_t count) {
  while (true) {
    const ssize_t n = fp::write(site, fd, buf, count);
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline ssize_t send_eintr(const char* site, int fd, const void* buf,
                          std::size_t len, int flags) {
  while (true) {
    const ssize_t n = fp::send(site, fd, buf, len, flags);
    if (n >= 0 || errno != EINTR) return n;
  }
}

inline int fsync_eintr(const char* site, int fd) {
  while (true) {
    const int rc = fp::fsync(site, fd);
    if (rc == 0 || errno != EINTR) return rc;
  }
}

/// Writes all @p size bytes, retrying EINTR and short writes.
/// Returns false on any other error (errno set).
inline bool write_full(const char* site, int fd, const void* data,
                       std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = fp::write_eintr(site, fd, p, size);
    if (n < 0) return false;
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace tvp::util::fp
