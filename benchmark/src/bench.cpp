#include "bench.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace bench {

std::uint32_t SpanLog::thread_slot() {
  const auto key =
      static_cast<std::uint64_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const auto it = tids_.find(key);
  if (it != tids_.end()) return it->second;
  const auto slot = static_cast<std::uint32_t>(tids_.size() + 1);
  tids_.emplace(key, slot);
  return slot;
}

int SpanLog::open(const char* name, int parent, std::int64_t cell,
                  std::int64_t start_ns) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, start_ns, parent, cell, thread_slot()});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::close(int id, std::int64_t end_ns) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

void SpanLog::leaf(const char* name, int parent, std::int64_t cell,
                   std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) return;
  spans_.push_back({name, start_ns, end_ns, parent, cell, thread_slot()});
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::ofstream os(path);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,",
                  i == 0 ? "" : ",", s.name, s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"cell\":%lld}}", i,
                  s.parent, static_cast<long long>(s.cell));
    os << buf;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("cannot write span file " + path);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

namespace {

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

void check_golden(const Options& opts, const std::string& key,
                  const std::string& text, std::uint64_t ops, Outcome& out) {
  const std::string got = digest_hex(text);
  out.digests[key] = got;
  std::ifstream in(opts.inputs_dir + "/golden/seed" + std::to_string(opts.seed) + ".txt");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, want;
    if (!(fields >> name >> want) || name != key) continue;
    if (want != got)
      out.fail(ops, "golden digest mismatch for " + key + ": got " + got +
                        ", checked in " + want);
    return;
  }
}

double peak_rss_mb(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in " + path);
}

namespace {

constexpr std::size_t kReferenceWords = std::size_t{1} << 24;  // 64 MB
constexpr std::uint64_t kReferenceSteps = 1'000'000;           // ~16 ms quiet

}  // namespace

HostReference::HostReference() : table_(kReferenceWords, 1) {}

double HostReference::time(int runs) {
  std::vector<double> seconds;
  for (int r = 0; r < runs; ++r) {
    const std::int64_t start = now_ns();
    std::uint64_t x = state_;
    for (std::uint64_t i = 0; i < kReferenceSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::uint32_t& counter = table_[x & (kReferenceWords - 1)];
      if (++counter > 1000) counter = 0;
    }
    state_ = x;
    seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  return median(std::move(seconds));
}

}  // namespace bench
