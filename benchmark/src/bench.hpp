// Shared pieces of the end-to-end benchmark: run options, the outcome
// a workload reports, the in-memory span log of traced runs, and small
// statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured region
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  bool smoke = false;     ///< reduced sizes, one pass, no timing claims
  std::string workdir;    ///< temporary files: corpora, sockets, journals
  std::string inputs_dir; ///< checked-in workload configs and golden digests
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. An op is one simulation cell or one
/// service job; an op counts as failed on an exception, a failed job or
/// any output mismatch.
struct Outcome {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::string> digests;  ///< golden key -> FNV-1a hex
  bool coverage_too_low = false;

  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = {value, unit};
  }
  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    errors.push_back(why);
  }
};

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Spans of a traced run, kept in memory and written once at the end as
/// Chrome trace JSON. Cell- and pass-level spans are always kept;
/// per-batch spans stop being stored past kMaxSpans (the per-layer
/// totals do not depend on the log).
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = 100000;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Starts a parent span; returns its id (-1 when the log is off).
  int open(const char* name, int parent, std::int64_t cell, std::int64_t start_ns);
  void close(int id, std::int64_t end_ns);
  /// Records a finished leaf span; dropped when the log is full.
  void leaf(const char* name, int parent, std::int64_t cell,
            std::int64_t start_ns, std::int64_t end_ns);

  /// Writes {"traceEvents":[...]} with one complete event per span.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t cell;
    std::uint32_t tid;
  };
  std::uint32_t thread_slot();

  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint32_t> tids_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, @p q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Records @p text's digest (FNV-1a 64) under @p key and, when a golden
/// digest for this seed and key is checked in, fails @p ops ops on a
/// mismatch.
void check_golden(const Options& opts, const std::string& key,
                  const std::string& text, std::uint64_t ops, Outcome& out);

/// Process high-water RSS in MB (VmHWM of /proc/<pid>/status).
double peak_rss_mb(long pid = 0);

/// The host-speed reference: a fixed memory-bound kernel, random
/// read-modify-writes over a 64 MB table, timed next to the workload.
/// The host's last-level cache and memory are shared with other
/// tenants, whose traffic slows the simulator by tens of percent for
/// seconds to minutes at a time; it slows this kernel alike, so the
/// ratio of the two holds steady where either time alone does not. The
/// kernel lives in the benchmark, so a change to the program cannot
/// move it. Constructing one touches the whole table (64 MB of RSS).
class HostReference {
 public:
  HostReference();
  /// Median wall time of @p runs kernel runs, in seconds.
  double time(int runs);

 private:
  std::vector<std::uint32_t> table_;
  std::uint64_t state_ = 0x9E3779B97F4A7C15ull;
};

Outcome run_sim_workload(const Options& opts, SpanLog& log);
/// The set-up alone, for the processes whose start run_sim_workload times.
void run_sim_setup(const Options& opts);
Outcome run_service_workload(const Options& opts, SpanLog& log);

}  // namespace bench
