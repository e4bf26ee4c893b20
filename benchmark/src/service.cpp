// The service workload: a tvp_serve daemon with one executor worker,
// driven by one closed-loop client in this process. The client submits
// a small sweep job, streams it to its end event, and only then submits
// the next, so at most one thread computes at a time and the latency
// does not depend on how many cores the host lends the run. The
// simulation per job is small; queue, journal fsync, wire and streaming
// run on every job.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/svc/client.hpp"
#include "tvp/svc/journal.hpp"
#include "tvp/svc/result_io.hpp"

namespace bench {
namespace {

using namespace tvp;

/// Pins the calling thread, and the processes it starts meanwhile, to
/// one CPU for its lifetime: the last one it may use (CPU 0 usually
/// takes most interrupts). The client, the daemon's worker and the host
/// reference then share that CPU, so the reference sees the same
/// neighbours as the job it is set against; spread over CPUs, the two
/// were slowed by different tenants.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (!CPU_ISSET(cpu, &saved_)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
      return;
    }
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;
  ~PinnedToOneCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// A child process running the tvp_serve of the same build
/// (TVP_SERVE_PATH). The destructor kills and reaps a daemon that was
/// not stopped, so no path leaves it running.
class Daemon {
 public:
  Daemon(const Options& opts, const std::string& socket, const std::string& journal_dir)
      : socket_(socket), log_path_(opts.workdir + "/serve.log") {
    std::vector<std::string> args = {TVP_SERVE_PATH, "--socket=" + socket,
                                     "--journal-dir=" + journal_dir, "--workers=1",
                                     "--jobs=1"};
    std::vector<char*> argv;
    for (auto& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // Dies with the benchmark even when the benchmark is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  long pid() const { return pid_; }

  /// Blocks until a ping succeeds; throws when the daemon exits first
  /// or does not answer within 10 s.
  void wait_ready() {
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    for (;;) {
      try {
        svc::Client::connect_unix(socket_).ping();
        return;
      } catch (const std::exception&) {
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("tvp_serve exited during start-up: " + log_text());
      }
      if (now_ns() > deadline)
        throw std::runtime_error("tvp_serve did not answer ping: " + log_text());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Asks the daemon to shut down and reaps it (SIGKILL after 10 s).
  /// Returns true when it exited cleanly with status 0.
  bool stop() {
    if (pid_ < 0) return false;
    try {
      svc::Client::connect_unix(socket_).shutdown(false);
    } catch (const std::exception&) {
    }
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) != pid_) {
      if (now_ns() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// The daemon's output so far (its log lives in the work directory,
  /// which the run removes).
  std::string log_text() const {
    std::ifstream in(log_path_);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  std::string socket_;
  std::string log_path_;
  pid_t pid_ = -1;
};

/// A cell as compared between the service and the in-process sweep:
/// the full result record minus its wall-clock field.
std::string cell_digest(const exp::SweepCell& cell) {
  exp::RunResult result = cell.result;
  result.wall_seconds = 0.0;
  util::JsonWriter json;
  json.begin_object();
  json.key("value").value(cell.value);
  json.key("technique").value(cell.technique);
  json.key("result");
  svc::write_run_result(json, result);
  json.end_object();
  return json.str();
}

struct JobSample {
  std::int64_t start_ns = 0;  ///< submit request sent
  std::int64_t end_ns = 0;    ///< end event received
  double ping_ms = 0.0;       ///< traced runs only
  double submit_ms = 0.0;
  double first_cell_ms = 0.0;
  double end_gap_ms = 0.0;    ///< last cell event -> end event
  double ref_s = 0.0;         ///< host reference right after the job
  bool done = false;
  std::vector<std::string> cells;  ///< cell digests by row-major index
  std::string error;
};

struct Load {
  std::vector<JobSample> jobs;
  std::uint64_t queue_full_retries = 0;
  double coverage_pct = 0.0;
  double rss_mb = 0.0;    ///< daemon VmHWM after kRssAfterJobs jobs (or at the end)
};

/// The daemon keeps every finished job's record, so its memory grows
/// with the job count; sampling it after a fixed count keeps the number
/// independent of how fast the machine ran the load.
constexpr std::size_t kRssAfterJobs = 200;

/// One closed-loop client: submit, stream to the end event, repeat
/// until @p budget_s has passed or @p max_jobs jobs are done. With a
/// @p reference, the client times it after each job, while the daemon
/// idles. A client error fails the run in @p out.
Load run_load(const std::string& socket, const svc::JobSpec& base, const Daemon& daemon,
              const std::string& tag, double budget_s, std::size_t max_jobs,
              bool traced, HostReference* reference, SpanLog& log, Outcome& out) {
  Load load;
  const std::int64_t loop_start = now_ns();
  const std::int64_t deadline = loop_start + static_cast<std::int64_t>(budget_s * 1e9);
  std::int64_t busy_ns = 0;  // time inside ping/submit/stream spans
  try {
    svc::Client client = svc::Client::connect_unix(socket);
    for (std::size_t n = 0; n < max_jobs && now_ns() < deadline; ++n) {
      JobSample s;
      svc::JobSpec spec = base;
      spec.name = base.name + "_" + tag + "_j" + std::to_string(n);
      const auto id = static_cast<std::int64_t>(n);
      const std::int64_t job_start = now_ns();
      const int span = log.open("svc.job", -1, id, job_start);
      if (traced) {
        client.ping();
        const std::int64_t pinged = now_ns();
        s.ping_ms = static_cast<double>(pinged - job_start) / 1e6;
        log.leaf("svc.ping", span, id, job_start, pinged);
      }
      s.start_ns = now_ns();
      std::uint64_t job = 0;
      for (;;) {
        try {
          job = client.submit(spec);
          break;
        } catch (const std::runtime_error& e) {
          // Queue-full is the documented backpressure signal: retry.
          if (std::string(e.what()).find("queue full") == std::string::npos) throw;
          ++load.queue_full_retries;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }
      const std::int64_t submitted = now_ns();
      s.submit_ms = static_cast<double>(submitted - s.start_ns) / 1e6;
      log.leaf("svc.submit", span, id, s.start_ns, submitted);

      std::int64_t first = 0;
      std::int64_t last = 0;
      s.cells.resize(spec.cell_count());
      const svc::Client::StreamEnd end =
          client.stream_results(job, [&](const util::JsonValue& value) {
            last = now_ns();
            if (first == 0) first = last;
            std::size_t index = 0;
            const exp::SweepCell cell = svc::read_sweep_cell(value, index);
            if (index < s.cells.size()) s.cells[index] = cell_digest(cell);
          });
      s.end_ns = now_ns();
      log.leaf("svc.stream", span, id, submitted, s.end_ns);
      log.close(span, s.end_ns);
      busy_ns += s.end_ns - job_start;
      s.first_cell_ms = static_cast<double>((first ? first : s.end_ns) - s.start_ns) / 1e6;
      s.end_gap_ms = static_cast<double>(s.end_ns - (last ? last : s.end_ns)) / 1e6;
      s.done = end.state == svc::JobState::kDone;
      if (!s.done) s.error = std::string(svc::to_string(end.state)) + " " + end.error;
      if (reference) s.ref_s = reference->time(1);
      load.jobs.push_back(std::move(s));
      if (load.jobs.size() == kRssAfterJobs) load.rss_mb = peak_rss_mb(daemon.pid());
    }
  } catch (const std::exception& e) {
    out.fail(1, std::string("service client: ") + e.what());
  }
  const std::int64_t loop_ns = now_ns() - loop_start;
  if (load.jobs.empty()) throw std::runtime_error("service load completed no job");
  if (load.rss_mb == 0.0) load.rss_mb = peak_rss_mb(daemon.pid());
  load.coverage_pct = 100.0 * static_cast<double>(busy_ns) / static_cast<double>(loop_ns);
  return load;
}

std::vector<double> samples(const std::vector<JobSample>& jobs,
                            double JobSample::*field) {
  std::vector<double> out;
  for (const auto& job : jobs) out.push_back(job.*field);
  return out;
}

std::vector<double> latencies_ms(const std::vector<JobSample>& jobs) {
  std::vector<double> out;
  for (const auto& job : jobs)
    out.push_back(static_cast<double>(job.end_ns - job.start_ns) / 1e6);
  return out;
}

/// The in-process reference: the same spec through exp::run_param_sweep.
exp::SweepResult reference_sweep(const svc::JobSpec& spec) {
  exp::SweepHooks hooks;
  hooks.jobs = 1;
  return exp::run_param_sweep(util::KeyValueFile::parse(spec.config_text),
                              spec.param_key, spec.values, spec.parsed_techniques(),
                              hooks);
}

/// Checks every streamed job against the reference cells.
void check_jobs(const std::vector<JobSample>& jobs,
                const std::vector<std::string>& reference, Outcome& out) {
  for (const auto& job : jobs) {
    if (!job.done)
      out.fail(1, "service job did not finish: " + job.error);
    else if (job.cells != reference)
      out.fail(1, "service job result differs from the in-process sweep");
  }
}

/// Per-layer service metrics. The client-side ones come from the traced
/// jobs; the journal and the cell execution the daemon performs are
/// timed in this process on the same cells.
void set_layer_metrics(const Options& opts, const svc::JobSpec& spec,
                       const exp::SweepResult& reference, const Load& e2e,
                       const Load& traced, Outcome& out) {
  const std::size_t reps = opts.smoke ? 3 : 40;

  std::vector<double> create_ms, append_ms;
  const std::string dir = opts.workdir + "/journal-probe";
  std::filesystem::create_directories(dir);
  for (std::size_t r = 0; r < reps; ++r) {
    const std::string path = dir + "/probe_" + std::to_string(r) + ".tvpj";
    const std::int64_t a = now_ns();
    svc::Journal journal = svc::Journal::create(path, spec);
    create_ms.push_back(static_cast<double>(now_ns() - a) / 1e6);
    for (std::size_t i = 0; i < reference.cells.size(); ++i) {
      const std::int64_t b = now_ns();
      journal.append_cell(i, reference.cells[i]);
      append_ms.push_back(static_cast<double>(now_ns() - b) / 1e6);
    }
    journal.append_done();
    journal.close();
    svc::Journal::remove(path);
  }

  std::vector<double> cell_ms, job_ms;
  for (std::size_t r = 0; r < reps; ++r) {
    exp::SweepHooks hooks;
    hooks.jobs = 1;
    std::int64_t mark = now_ns();
    const std::int64_t start = mark;
    hooks.on_cell = [&](std::size_t, const exp::SweepCell&) {
      const std::int64_t t = now_ns();
      cell_ms.push_back(static_cast<double>(t - mark) / 1e6);
      mark = t;
    };
    exp::run_param_sweep(util::KeyValueFile::parse(spec.config_text), spec.param_key,
                         spec.values, spec.parsed_techniques(), hooks);
    job_ms.push_back(static_cast<double>(now_ns() - start) / 1e6);
  }

  const auto p50 = [](std::vector<double> v) { return median(std::move(v)); };
  out.set("svc.ping_ms_p50", p50(samples(traced.jobs, &JobSample::ping_ms)), "ms");
  out.set("svc.submit_ms_p50", p50(samples(traced.jobs, &JobSample::submit_ms)), "ms");
  out.set("svc.journal_create_ms_p50", p50(create_ms), "ms");
  out.set("svc.journal_append_ms_p50", p50(append_ms), "ms");
  out.set("svc.cell_exec_ms_p50", p50(cell_ms), "ms");
  out.set("svc.stream_gap_ms_p50", p50(samples(traced.jobs, &JobSample::end_gap_ms)), "ms");
  out.set("svc.overhead_ms_p50", p50(latencies_ms(traced.jobs)) - p50(job_ms), "ms");
  out.set("svc.queue_full_retries",
          static_cast<double>(e2e.queue_full_retries + traced.queue_full_retries), "count");
  out.set("svc.job_ms_p90", percentile(latencies_ms(traced.jobs), 0.9), "ms");
  out.set("svc.first_cell_ms_p50", p50(samples(traced.jobs, &JobSample::first_cell_ms)),
          "ms");
  out.set("bench.coverage_pct", traced.coverage_pct, "%");
  out.set("bench.tracing_overhead_pct",
          100.0 * (p50(latencies_ms(traced.jobs)) / p50(latencies_ms(e2e.jobs)) - 1.0), "%");
}

}  // namespace

Outcome run_service_workload(const Options& opts, SpanLog& log) {
  const PinnedToOneCpu pinned;
  Outcome out;
  svc::JobSpec spec;
  {
    std::ifstream in(opts.inputs_dir + "/workloads/service_job.cfg");
    if (!in) throw std::runtime_error("cannot read workloads/service_job.cfg");
    std::ostringstream text;
    text << in.rdbuf() << "seed = " << opts.seed << "\n";
    spec.config_text = text.str();
  }
  spec.name = "s" + std::to_string(opts.seed);
  spec.param_key = "windows";
  spec.values = {"1", "2"};
  spec.techniques = {"PARA"};

  // The socket path is relative: sun_path holds at most 107 bytes and
  // the checkout may sit deep in the file system.
  const std::string socket =
      std::filesystem::relative(opts.workdir + "/svc.sock").string();
  const std::string journal_dir = opts.workdir + "/journals";
  std::filesystem::create_directories(journal_dir);

  // Set-up: daemon spawn until the first successful ping, several times;
  // the last daemon serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < (opts.smoke ? 2 : 15); ++i) {
    if (daemon && !daemon->stop()) out.fail(1, "tvp_serve did not shut down cleanly");
    const std::int64_t a = now_ns();
    daemon = std::make_unique<Daemon>(opts, socket, journal_dir);
    daemon->wait_ready();
    setup_s.push_back(static_cast<double>(now_ns() - a) / 1e9);
  }
  out.set("setup_s", median(setup_s), "s");

  // A traced run splits its budget: untraced jobs first (the baseline
  // of the tracing overhead), then jobs with pings and spans.
  const std::size_t max_jobs =
      opts.smoke ? 5 : std::numeric_limits<std::size_t>::max();
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  HostReference host;
  const Load e2e =
      run_load(socket, spec, *daemon, "e2e", budget, max_jobs, false, &host, log, out);
  Load traced;
  if (opts.trace)
    traced = run_load(socket, spec, *daemon, "traced", budget, max_jobs, true, nullptr, log,
                      out);
  if (!daemon->stop()) out.fail(1, "tvp_serve did not shut down cleanly");
  out.attempted = e2e.jobs.size() + traced.jobs.size();

  const exp::SweepResult reference = reference_sweep(spec);
  std::vector<std::string> reference_cells;
  std::uint64_t records_per_job = 0;
  for (const auto& cell : reference.cells) {
    reference_cells.push_back(cell_digest(cell));
    records_per_job += cell.result.records;
  }
  check_jobs(e2e.jobs, reference_cells, out);
  check_jobs(traced.jobs, reference_cells, out);
  check_golden(opts, "service", exp::sweep_to_csv(reference), out.attempted, out);

  std::vector<double> job_ref, ref_s;
  for (const auto& job : e2e.jobs) {
    job_ref.push_back(static_cast<double>(job.end_ns - job.start_ns) / 1e9 / job.ref_s);
    ref_s.push_back(job.ref_s);
  }
  const double wall = median(latencies_ms(e2e.jobs)) / 1e3;
  const double wall_ref = median(job_ref);
  out.set("wall_ref", wall_ref, "ref");
  out.set("sim_acts_per_ref", static_cast<double>(records_per_job) / wall_ref, "1/ref");
  out.set("wall_s", wall, "s");
  out.set("ref_s", median(ref_s), "s");
  out.set("ops_per_s", 1.0 / wall, "1/s");
  out.set("sim_acts_per_s", static_cast<double>(records_per_job) / wall, "1/s");
  out.set("peak_rss_mb", e2e.rss_mb, "MB");
  out.set("passes", static_cast<double>(e2e.jobs.size()), "count");
  if (opts.trace) set_layer_metrics(opts, spec, reference, e2e, traced, out);
  return out;
}

}  // namespace bench
