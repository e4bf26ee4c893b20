// svc_load — load generator for the campaign service (tvp_serve).
//
// Spawns concurrent client threads against a running daemon and
// measures what the service sustains: submit clients push uniquely
// named jobs (retrying on queue-full backpressure) and poll status
// until every job is terminal, recording each status round-trip;
// stream clients submit a job and consume its live cell stream;
// an idle-connection flood holds extra sockets open and pings them
// before and after the run to prove the server still answers under
// load. The summary is machine-readable JSON (BENCH_service.json in
// CI):
//
//   ./build/bench/svc_load --socket=/tmp/tvp.sock --clients=32
//       --jobs-per-client=4 --conns=256 --out=bench.json
//
// --no-wait submits without polling to terminal (the kill-during-load
// harness restarts the daemon and verifies resume separately), and
// --tolerate-errors exits 0 even when connections die mid-run (the
// expected outcome when the harness SIGKILLs the daemon under load).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tvp/svc/client.hpp"
#include "tvp/svc/wire.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string socket;
  std::string host = "127.0.0.1";
  int port = -1;
  std::size_t clients = 8;
  std::size_t jobs_per_client = 2;
  std::size_t stream_clients = 2;
  std::size_t idle_conns = 64;
  std::size_t cancel_every = 0;  // 0 = never; N = every Nth job
  std::string prefix = "load";
  std::string values = "1,2";
  bool no_wait = false;
  bool tolerate_errors = false;
  double timeout_seconds = 300.0;
  std::string out_path;
};

// The same tiny-but-real spec for every job (distinct names): small
// enough that one job is tens of milliseconds, so throughput reflects
// service overhead plus scheduling, not one giant sweep.
const char* kLoadConfig =
    "geometry.banks = 2\n"
    "windows = 1\n"
    "workload.benign_rate = 5\n"
    "seed = 3\n";

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto comma = text.find(',', pos);
    out.push_back(text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

tvp::svc::Client connect(const Options& opts) {
  if (!opts.socket.empty()) return tvp::svc::Client::connect_unix(opts.socket);
  return tvp::svc::Client::connect_tcp(opts.host, opts.port);
}

tvp::svc::JobSpec load_spec(const Options& opts, const std::string& name) {
  tvp::svc::JobSpec spec;
  spec.name = name;
  spec.config_text = kLoadConfig;
  spec.param_key = "windows";
  spec.values = split_csv(opts.values);
  spec.techniques = {"PARA"};
  return spec;
}

struct Totals {
  std::mutex mu;
  std::vector<double> status_rtt_ms;  // one sample per status(id) call
  std::size_t submitted = 0;
  std::size_t done = 0;
  std::size_t cancelled = 0;
  std::size_t failed = 0;
  std::size_t stream_cells = 0;
  std::size_t stream_ends = 0;
  std::atomic<std::size_t> errors{0};
};

bool terminal(tvp::svc::JobState state) {
  return state == tvp::svc::JobState::kDone ||
         state == tvp::svc::JobState::kFailed ||
         state == tvp::svc::JobState::kCancelled;
}

/// One submit client: pushes jobs_per_client uniquely named jobs
/// (retrying queue-full), optionally cancelling every Nth, then polls
/// its jobs to terminal while timing each status round-trip.
void submit_client(const Options& opts, std::size_t index, Totals& totals) {
  std::vector<double> rtt_ms;
  std::size_t submitted = 0, done = 0, cancelled = 0, failed = 0;
  try {
    tvp::svc::Client client = connect(opts);
    std::vector<std::uint64_t> ids;
    for (std::size_t j = 0; j < opts.jobs_per_client; ++j) {
      const std::string name = opts.prefix + "_c" + std::to_string(index) +
                               "_j" + std::to_string(j);
      std::uint64_t id = 0;
      while (true) {
        try {
          id = client.submit(load_spec(opts, name));
          break;
        } catch (const std::runtime_error& e) {
          // Queue-full is the documented backpressure signal: retry.
          if (std::string(e.what()).find("queue full") == std::string::npos)
            throw;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
      ++submitted;
      ids.push_back(id);
      const std::size_t global = index * opts.jobs_per_client + j;
      if (opts.cancel_every > 0 && (global + 1) % opts.cancel_every == 0) {
        try {
          client.cancel(id);
        } catch (const std::runtime_error&) {
          // Already finished — losing the race to completion is fine.
        }
      }
    }
    if (!opts.no_wait) {
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(opts.timeout_seconds);
      std::vector<bool> settled(ids.size(), false);
      std::size_t open = ids.size();
      while (open > 0) {
        if (Clock::now() >= deadline)
          throw std::runtime_error("timed out waiting for jobs");
        for (std::size_t j = 0; j < ids.size(); ++j) {
          if (settled[j]) continue;
          const auto before = Clock::now();
          const tvp::svc::JobStatus status = client.status(ids[j]);
          rtt_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - before)
                  .count());
          if (!terminal(status.state)) continue;
          settled[j] = true;
          --open;
          if (status.state == tvp::svc::JobState::kDone)
            ++done;
          else if (status.state == tvp::svc::JobState::kCancelled)
            ++cancelled;
          else
            ++failed;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  } catch (const std::exception& e) {
    totals.errors.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "svc_load: submit client %zu: %s\n", index, e.what());
  }
  std::lock_guard<std::mutex> lock(totals.mu);
  totals.submitted += submitted;
  totals.done += done;
  totals.cancelled += cancelled;
  totals.failed += failed;
  totals.status_rtt_ms.insert(totals.status_rtt_ms.end(), rtt_ms.begin(),
                              rtt_ms.end());
}

/// One stream client: submits a job and consumes its live cell stream
/// to the end event.
void stream_client(const Options& opts, std::size_t index, Totals& totals) {
  std::size_t cells = 0;
  bool ended = false;
  try {
    tvp::svc::Client client = connect(opts);
    const std::string name = opts.prefix + "_s" + std::to_string(index);
    std::uint64_t id = 0;
    while (true) {
      try {
        id = client.submit(load_spec(opts, name));
        break;
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()).find("queue full") == std::string::npos)
          throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    client.stream_results(id,
                          [&](const tvp::util::JsonValue&) { ++cells; });
    ended = true;
  } catch (const std::exception& e) {
    totals.errors.fetch_add(1, std::memory_order_relaxed);
    std::fprintf(stderr, "svc_load: stream client %zu: %s\n", index, e.what());
  }
  std::lock_guard<std::mutex> lock(totals.mu);
  totals.stream_cells += cells;
  if (ended) {
    ++totals.stream_ends;
    ++totals.submitted;
    ++totals.done;  // stream end == terminal state observed
  }
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

int usage(bool ok) {
  std::printf(
      "usage: svc_load (--socket=PATH | --host=H --port=N) [options]\n"
      "  --clients=N          submit clients (default 8)\n"
      "  --jobs-per-client=N  jobs per submit client (default 2)\n"
      "  --stream-clients=N   clients consuming live cell streams (default 2)\n"
      "  --conns=N            idle connections held open (default 64)\n"
      "  --cancel-every=N     cancel every Nth submitted job (default: never)\n"
      "  --values=v1,v2,...   sweep values per job (default 1,2 -> 2 cells)\n"
      "  --prefix=NAME        job-name prefix (default 'load')\n"
      "  --no-wait            submit only; do not poll jobs to terminal\n"
      "  --tolerate-errors    exit 0 even when connections die mid-run\n"
      "  --timeout=SECONDS    per-client wait budget (default 300)\n"
      "  --out=FILE           also write the JSON summary to FILE\n");
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tvp;
  try {
    util::Flags flags(argc, argv,
                      {"socket", "host", "port", "clients", "jobs-per-client",
                       "stream-clients", "conns", "cancel-every", "values",
                       "prefix", "no-wait", "tolerate-errors", "timeout",
                       "out", "help"});
    if (flags.get_bool("help")) return usage(true);

    Options opts;
    opts.socket = flags.get("socket", "");
    opts.host = flags.get("host", "127.0.0.1");
    opts.port = flags.get_integer<int>("port", -1, -1, 65535);
    if (opts.socket.empty() && opts.port < 0) return usage(false);
    opts.clients = flags.get_integer<std::size_t>("clients", 8);
    opts.jobs_per_client = flags.get_integer<std::size_t>("jobs-per-client", 2);
    opts.stream_clients = flags.get_integer<std::size_t>("stream-clients", 2);
    opts.idle_conns = flags.get_integer<std::size_t>("conns", 64);
    opts.cancel_every = flags.get_integer<std::size_t>("cancel-every", 0);
    opts.values = flags.get("values", "1,2");
    opts.prefix = flags.get("prefix", "load");
    opts.no_wait = flags.get_bool("no-wait");
    opts.tolerate_errors = flags.get_bool("tolerate-errors");
    opts.timeout_seconds = flags.get_double("timeout", 300.0);
    opts.out_path = flags.get("out", "");

    Totals totals;

    // Idle-connection flood: hold sockets open across the whole run and
    // require each to still answer ping at the end — the "connections
    // sustained" figure.
    std::vector<svc::Client> idle;
    idle.reserve(opts.idle_conns);
    std::size_t idle_opened = 0;
    for (std::size_t i = 0; i < opts.idle_conns; ++i) {
      try {
        svc::Client c = connect(opts);
        c.ping();
        idle.push_back(std::move(c));
        ++idle_opened;
      } catch (const std::exception& e) {
        totals.errors.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "svc_load: idle conn %zu: %s\n", i, e.what());
        break;  // fd limit on either side; report what we achieved
      }
    }

    const auto start = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(opts.clients + opts.stream_clients);
    for (std::size_t i = 0; i < opts.clients; ++i)
      threads.emplace_back(submit_client, std::cref(opts), i,
                           std::ref(totals));
    for (std::size_t i = 0; i < opts.stream_clients; ++i)
      threads.emplace_back(stream_client, std::cref(opts), i,
                           std::ref(totals));
    for (auto& t : threads) t.join();
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();

    std::size_t idle_alive = 0;
    for (auto& c : idle) {
      try {
        c.ping();
        ++idle_alive;
      } catch (const std::exception&) {
        totals.errors.fetch_add(1, std::memory_order_relaxed);
      }
    }

    std::sort(totals.status_rtt_ms.begin(), totals.status_rtt_ms.end());
    const std::size_t finished =
        totals.done + totals.cancelled + totals.failed;

    util::JsonWriter json;
    json.begin_object();
    json.key("clients").value(static_cast<std::uint64_t>(opts.clients));
    json.key("jobs_per_client")
        .value(static_cast<std::uint64_t>(opts.jobs_per_client));
    json.key("stream_clients")
        .value(static_cast<std::uint64_t>(opts.stream_clients));
    json.key("jobs_submitted")
        .value(static_cast<std::uint64_t>(totals.submitted));
    json.key("jobs_done").value(static_cast<std::uint64_t>(totals.done));
    json.key("jobs_cancelled")
        .value(static_cast<std::uint64_t>(totals.cancelled));
    json.key("jobs_failed").value(static_cast<std::uint64_t>(totals.failed));
    json.key("wall_seconds").value(wall);
    json.key("jobs_per_sec")
        .value(wall > 0 ? static_cast<double>(finished) / wall : 0.0);
    json.key("status_rtt_ms").begin_object();
    json.key("samples")
        .value(static_cast<std::uint64_t>(totals.status_rtt_ms.size()));
    json.key("p50").value(percentile(totals.status_rtt_ms, 0.50));
    json.key("p90").value(percentile(totals.status_rtt_ms, 0.90));
    json.key("p99").value(percentile(totals.status_rtt_ms, 0.99));
    json.end_object();
    json.key("stream_cells")
        .value(static_cast<std::uint64_t>(totals.stream_cells));
    json.key("stream_ends")
        .value(static_cast<std::uint64_t>(totals.stream_ends));
    json.key("idle_conns_requested")
        .value(static_cast<std::uint64_t>(opts.idle_conns));
    json.key("idle_conns_opened")
        .value(static_cast<std::uint64_t>(idle_opened));
    json.key("idle_conns_sustained")
        .value(static_cast<std::uint64_t>(idle_alive));
    json.key("errors")
        .value(static_cast<std::uint64_t>(
            totals.errors.load(std::memory_order_relaxed)));
    json.end_object();

    const std::string summary = json.str();
    std::printf("%s\n", summary.c_str());
    if (!opts.out_path.empty()) {
      std::ofstream os(opts.out_path);
      os << summary << "\n";
    }

    const std::size_t errors = totals.errors.load(std::memory_order_relaxed);
    if (errors > 0 && !opts.tolerate_errors) return 1;
    return 0;
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "svc_load: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svc_load: %s\n", e.what());
    return 1;
  }
}
