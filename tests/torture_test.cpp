// Crash-consistency torture harness for the campaign service.
//
// PR 3 proved kill-and-resume at two hand-picked kill points; this
// harness proves it at *every* syscall in the journal path. A counting
// pass runs each scenario once with inert failpoints to learn how often
// every `journal.*` site fires, then the torture passes replay the
// scenario once per (site, Nth occurrence) with a fault injected at
// exactly that point — an errno (the engine must fail the job
// gracefully) or SIGKILL in a forked child (the process must die with
// no unwinding). After every injection the campaign is resumed with
// failpoints cleared and must finish with a CSV byte-identical to an
// uninterrupted run.
//
// Requires a build with -DTVP_ENABLE_FAILPOINTS=ON (scripts/torture.sh);
// the default build compiles the sites out and skips this test binary.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "tvp/exp/config_io.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/svc/client.hpp"
#include "tvp/svc/engine.hpp"
#include "tvp/svc/journal.hpp"
#include "tvp/svc/server.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/util/config.hpp"
#include "tvp/util/failpoint.hpp"
#include "tvp/util/log.hpp"

#if !defined(TVP_ENABLE_FAILPOINTS) || !TVP_ENABLE_FAILPOINTS
#error "torture_test requires -DTVP_ENABLE_FAILPOINTS=ON"
#endif

namespace tvp::svc {
namespace {

namespace fs = std::filesystem;
namespace failpoint = util::failpoint;

static_assert(failpoint::compiled_in(),
              "torture harness needs armed failpoint sites");

/// The campaign every torture case runs: two cells, well under a second.
JobSpec torture_spec() {
  JobSpec spec;
  spec.name = "torture";
  spec.config_text =
      "geometry.banks = 2\n"
      "windows = 1\n"
      "workload.benign_rate = 5\n"
      "seed = 11\n";
  spec.param_key = "windows";
  spec.values = {"1", "2"};
  spec.techniques = {"PARA"};
  return spec;
}

const exp::SweepResult& reference_sweep() {
  static const exp::SweepResult sweep = [] {
    const JobSpec spec = torture_spec();
    exp::SweepHooks hooks;
    hooks.jobs = 1;
    return exp::run_param_sweep(util::KeyValueFile::parse(spec.config_text),
                                spec.param_key, spec.values,
                                spec.parsed_techniques(), hooks);
  }();
  return sweep;
}

const std::string& reference_csv() {
  static const std::string csv = exp::sweep_to_csv(reference_sweep());
  return csv;
}

/// What one engine lifetime on a journal dir produced. state stays
/// kQueued when the campaign never reached a terminal state (e.g. the
/// submit itself was rejected; the reason is in error).
struct RunOutcome {
  JobState state = JobState::kQueued;
  std::string error;
  std::string csv;
};

/// Starts an engine on @p dir, resumes the journaled campaign (or
/// submits a fresh one when the dir is empty), waits for a terminal
/// state, and shuts down. gtest-free so the forked crash children can
/// use it too.
RunOutcome run_campaign_once(const std::string& dir) {
  RunOutcome out;
  EngineConfig config;
  config.journal_dir = dir;
  config.sweep_jobs = 1;
  CampaignEngine engine(config);
  const std::vector<std::uint64_t> resumed = engine.start();
  std::uint64_t id = 0;
  if (!resumed.empty()) {
    id = resumed.front();
  } else {
    std::string error;
    id = engine.submit(torture_spec(), &error);
    if (id == 0) {
      out.error = error;
      engine.shutdown(true);
      return out;
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto status = engine.status(id);
    if (status && (status->state == JobState::kDone ||
                   status->state == JobState::kFailed ||
                   status->state == JobState::kCancelled)) {
      out.state = status->state;
      out.error = status->error;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (out.state == JobState::kDone)
    if (const auto result = engine.result(id))
      out.csv = exp::sweep_to_csv(*result);
  engine.shutdown(true);
  return out;
}

/// Scenario preparation: what is on disk before the tortured engine
/// starts. "fresh" = empty dir (covers submit/create/append/done);
/// "torn resume" = a journal holding the header, one cell and a torn
/// trailing line (covers replay, tail truncation and resumed appends).
using Prep = std::function<void(const std::string& dir)>;

void prepare_fresh(const std::string&) {}

void prepare_torn_resume(const std::string& dir) {
  const std::string file =
      (fs::path(dir) / (torture_spec().name + ".tvpj")).string();
  {
    Journal journal = Journal::create(file, torture_spec());
    journal.append_cell(0, reference_sweep().cells[0]);
  }
  std::ofstream out(file, std::ios::app | std::ios::binary);
  out << "{\"crc\":123,\"e\":{\"type\":\"cell\",\"cel";  // crash mid-append
}

struct TortureCase {
  std::string site;
  std::uint64_t nth;
};

class TortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("tvp_torture_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    failpoint::reset();
  }
  void TearDown() override {
    failpoint::reset();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  /// Counting pass: run @p prep + campaign once with inert failpoints
  /// and enumerate every (journal site, Nth occurrence) pair that
  /// fired. The campaign is deterministic (sweep_jobs = 1), so the
  /// torture passes see the same sequence.
  std::vector<TortureCase> enumerate_cases(const Prep& prep,
                                           const std::string& label) {
    const std::string dir = path("count_" + label);
    fs::create_directories(dir);
    prep(dir);
    failpoint::reset();
    const RunOutcome out = run_campaign_once(dir);
    EXPECT_EQ(out.state, JobState::kDone) << out.error;
    EXPECT_EQ(out.csv, reference_csv());
    std::vector<TortureCase> cases;
    for (const auto& site : journal_failpoint_sites())
      for (std::uint64_t n = 1; n <= failpoint::hits(site); ++n)
        cases.push_back({site, n});
    failpoint::reset();
    EXPECT_FALSE(cases.empty()) << "no journal sites fired in " << label;
    return cases;
  }

  /// Errno torture: inject EIO at exactly (site, nth); whatever the
  /// engine made of it, a resume with failpoints cleared must finish
  /// byte-identical to an uninterrupted run.
  void errno_torture(const Prep& prep, const std::string& label) {
    std::size_t index = 0;
    for (const TortureCase& torture : enumerate_cases(prep, label)) {
      SCOPED_TRACE(label + ": EIO at " + torture.site + "@" +
                   std::to_string(torture.nth));
      const std::string dir =
          path(label + "_eio_" + std::to_string(index++));
      fs::create_directories(dir);
      prep(dir);
      failpoint::reset();
      failpoint::Policy policy;
      policy.action = failpoint::Policy::Action::kReturnErrno;
      policy.error = EIO;
      policy.nth = torture.nth;
      failpoint::set(torture.site, policy);

      const RunOutcome injected = run_campaign_once(dir);
      EXPECT_GE(failpoint::hits(torture.site), torture.nth)
          << "counting pass and torture pass diverged";
      // Never half-done: either the fault aborted the campaign or the
      // result is exactly right.
      if (injected.state == JobState::kDone) {
        EXPECT_EQ(injected.csv, reference_csv());
      }

      failpoint::reset();
      const RunOutcome recovered = run_campaign_once(dir);
      ASSERT_EQ(recovered.state, JobState::kDone)
          << "no recovery after injected EIO: " << recovered.error;
      EXPECT_EQ(recovered.csv, reference_csv());
    }
  }

  /// Crash torture: SIGKILL the process at exactly (site, nth) in a
  /// forked child, then resume in the parent and require byte-identical
  /// results.
  void crash_torture(const Prep& prep, const std::string& label) {
    std::size_t index = 0;
    for (const TortureCase& torture : enumerate_cases(prep, label)) {
      SCOPED_TRACE(label + ": SIGKILL at " + torture.site + "@" +
                   std::to_string(torture.nth));
      const std::string dir =
          path(label + "_kill_" + std::to_string(index++));
      fs::create_directories(dir);
      prep(dir);

      const pid_t pid = ::fork();
      ASSERT_NE(pid, -1) << std::strerror(errno);
      if (pid == 0) {
        // Child: arm the kill and run. Exit codes only — gtest state in
        // a forked child must not be touched.
        util::set_log_level(util::LogLevel::kOff);
        failpoint::reset();
        failpoint::Policy policy;
        policy.action = failpoint::Policy::Action::kKill;
        policy.nth = torture.nth;
        failpoint::set(torture.site, policy);
        const RunOutcome out = run_campaign_once(dir);
        ::_exit(out.state == JobState::kDone ? 0 : 7);
      }
      int status = 0;
      ASSERT_EQ(::waitpid(pid, &status, 0), pid) << std::strerror(errno);
      EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "child did not die at the failpoint (status " << status << ")";

      failpoint::reset();
      const RunOutcome recovered = run_campaign_once(dir);
      ASSERT_EQ(recovered.state, JobState::kDone)
          << "no recovery after crash: " << recovered.error;
      EXPECT_EQ(recovered.csv, reference_csv());
    }
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// The torture matrix: {fresh run, torn-tail resume} x {errno, crash}
// ---------------------------------------------------------------------------

TEST_F(TortureTest, ErrnoAtEveryJournalSiteOfAFreshRun) {
  errno_torture(prepare_fresh, "fresh");
}

TEST_F(TortureTest, ErrnoAtEveryJournalSiteOfATornResume) {
  errno_torture(prepare_torn_resume, "torn");
}

TEST_F(TortureTest, CrashAtEveryJournalSiteOfAFreshRun) {
  crash_torture(prepare_fresh, "fresh");
}

TEST_F(TortureTest, CrashAtEveryJournalSiteOfATornResume) {
  crash_torture(prepare_torn_resume, "torn");
}

/// The two scenarios together must drive every journal site except the
/// queue-full rollback unlink (exercised separately below) — otherwise
/// the torture matrix silently shrank because a shim was unwired.
TEST_F(TortureTest, ScenariosCoverEveryJournalSite) {
  std::map<std::string, std::uint64_t> coverage;
  for (const auto& [prep, label] :
       {std::pair<Prep, std::string>{prepare_fresh, "fresh"},
        std::pair<Prep, std::string>{prepare_torn_resume, "torn"}})
    for (const TortureCase& torture : enumerate_cases(prep, label))
      ++coverage[torture.site];
  for (const auto& site : journal_failpoint_sites()) {
    if (site == "journal.remove.unlink") continue;
    EXPECT_GT(coverage[site], 0u) << site << " is never exercised";
  }
}

/// Queue-full rollback with a failing unlink: the fresh journal cannot
/// be removed, so the rejected job resurrects on the next start — it
/// must then simply run to the correct result (at-least-once, never
/// corruption).
TEST_F(TortureTest, RollbackUnlinkFailureResurrectsACorrectJob) {
  const std::string dir = path("journals");
  fs::create_directories(dir);
  JobSpec first = torture_spec();
  JobSpec second = torture_spec();
  second.name = "torture_overflow";
  {
    EngineConfig config;
    config.journal_dir = dir;
    config.queue_capacity = 1;
    CampaignEngine engine(config);  // never started: the queue stays full
    std::string error;
    ASSERT_NE(engine.submit(first, &error), 0u) << error;

    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EIO;
    failpoint::set("journal.remove.unlink", policy);
    EXPECT_EQ(engine.submit(second, &error), 0u);
    EXPECT_NE(error.find("queue full"), std::string::npos) << error;
    failpoint::reset();
    EXPECT_TRUE(fs::exists(engine.journal_path(second.name)))
        << "rollback unlink was injected to fail; journal must linger";
  }
  // Restart: both journals resurrect and both campaigns must finish
  // with the reference matrix.
  EngineConfig config;
  config.journal_dir = dir;
  config.sweep_jobs = 1;
  CampaignEngine engine(config);
  const auto resumed = engine.start();
  ASSERT_EQ(resumed.size(), 2u);
  for (const auto id : resumed) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto status = engine.status(id);
      if (status && status->state == JobState::kDone) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(engine.status(id)->state, JobState::kDone);
    EXPECT_EQ(exp::sweep_to_csv(*engine.result(id)), reference_csv());
  }
  engine.shutdown(true);
}

// ---------------------------------------------------------------------------
// EINTR regressions: a signal landing inside journal I/O must be
// retried, not surface as a spurious failure. (Before the fp:: shims,
// an EINTR from fsync(2) failed the append and the whole job.)
// ---------------------------------------------------------------------------

TEST_F(TortureTest, AppendRetriesInterruptedWriteAndFsync) {
  const std::string file = path("eintr.tvpj");
  Journal journal = Journal::create(file, torture_spec());
  for (const char* site : {"journal.append.write", "journal.append.fsync"}) {
    SCOPED_TRACE(site);
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EINTR;
    policy.nth = failpoint::hits(site) + 1;  // exactly the next attempt
    failpoint::set(site, policy);
    EXPECT_NO_THROW(journal.append_cell(0, reference_sweep().cells[0]));
    EXPECT_GE(failpoint::hits(site), policy.nth + 1)
        << "the interrupted syscall must have been retried";
  }
  journal.close();
  const Journal::Replay replay = Journal::replay(file);
  EXPECT_EQ(replay.cells.size(), 1u) << "both appends must have landed";
}

TEST_F(TortureTest, ReplayRetriesInterruptedRead) {
  const std::string file = path("eintr_replay.tvpj");
  {
    Journal journal = Journal::create(file, torture_spec());
    journal.append_cell(0, reference_sweep().cells[0]);
  }
  failpoint::reset();
  failpoint::Policy policy;
  policy.action = failpoint::Policy::Action::kReturnErrno;
  policy.error = EINTR;
  policy.nth = 1;
  failpoint::set("journal.replay.read", policy);
  const Journal::Replay replay = Journal::replay(file);
  EXPECT_EQ(replay.cells.size(), 1u);
  EXPECT_GE(failpoint::hits("journal.replay.read"), 2u);
}

// ---------------------------------------------------------------------------
// Socket-path injection: connection-level faults cost one connection,
// never the daemon.
// ---------------------------------------------------------------------------

TEST_F(TortureTest, ServerSurvivesInjectedConnectionFaults) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  for (const char* site : {"server.conn.read", "server.conn.write"}) {
    SCOPED_TRACE(site);
    failpoint::reset();
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EIO;
    policy.nth = 1;
    failpoint::set(site, policy);
    Client victim = Client::connect_unix(config.unix_path);
    EXPECT_THROW(victim.ping(), std::runtime_error)
        << "the injected fault must drop this connection";
  }
  failpoint::reset();

  // Client-side faults surface as client errors; the daemon never sees
  // a difference.
  {
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EPIPE;
    policy.nth = 1;
    failpoint::set("client.send", policy);
    Client client = Client::connect_unix(config.unix_path);
    EXPECT_THROW(client.ping(), std::runtime_error);
  }
  failpoint::reset();

  Client healthy = Client::connect_unix(config.unix_path);
  EXPECT_NO_THROW(healthy.ping()) << "the daemon must have survived it all";
  healthy.shutdown(false);
  serving.join();
}

/// Streaming across a crash: the daemon is SIGKILLed mid-checkpoint,
/// and a subscriber attached to the *resumed* engine must still see
/// every cell exactly once — journaled cells replayed, the rest live —
/// with the matrix byte-identical to an uninterrupted run.
TEST_F(TortureTest, StreamThenKillResumeReplaysEveryCellExactlyOnce) {
  const std::string dir = path("journals");
  fs::create_directories(dir);

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1) << std::strerror(errno);
  if (pid == 0) {
    util::set_log_level(util::LogLevel::kOff);
    failpoint::reset();
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kKill;
    policy.nth = 2;  // die inside the second checkpoint append
    failpoint::set("journal.append.write", policy);
    run_campaign_once(dir);
    ::_exit(7);  // unreachable unless the failpoint never fired
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid) << std::strerror(errno);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die at the failpoint (status " << status << ")";

  failpoint::reset();
  EngineConfig config;
  config.journal_dir = dir;
  config.sweep_jobs = 1;
  config.workers = 4;  // resume correctness must not depend on one worker
  CampaignEngine engine(config);
  const std::vector<std::uint64_t> resumed = engine.start();
  ASSERT_EQ(resumed.size(), 1u) << "the torn journal must be picked up";

  std::mutex mu;
  std::vector<std::uint64_t> streamed;
  std::atomic<bool> ended{false};
  JobState end_state = JobState::kQueued;
  // Whether this lands before the first live cell or after the job is
  // already done, the replay log keeps delivery exactly-once.
  ASSERT_NE(engine.subscribe(
                resumed[0],
                [&](const std::string& cell_json) {
                  const auto cell = util::JsonValue::parse(cell_json);
                  std::lock_guard<std::mutex> lock(mu);
                  streamed.push_back(cell.at("i").as_uint());
                },
                [&](JobState state, const std::string&) {
                  end_state = state;
                  ended.store(true);
                }),
            0u);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!ended.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(ended.load()) << "the subscriber must see an end event";
  EXPECT_EQ(end_state, JobState::kDone);

  const std::size_t total = torture_spec().cell_count();
  {
    std::lock_guard<std::mutex> lock(mu);
    std::sort(streamed.begin(), streamed.end());
    ASSERT_EQ(streamed.size(), total)
        << "replayed + live cells must cover the matrix with no duplicates";
    for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(streamed[i], i);
  }
  EXPECT_EQ(exp::sweep_to_csv(*engine.result(resumed[0])), reference_csv());
  engine.shutdown(true);
}

// ---------------------------------------------------------------------------
// Epoll-path injection: loop-level faults are retried or cost one
// connection — never the daemon.
// ---------------------------------------------------------------------------

TEST_F(TortureTest, ServerSurvivesInjectedEpollFaults) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  // EINTR out of epoll_wait (a signal landed) must be retried, not
  // treated as a fatal loop error.
  {
    failpoint::reset();
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EINTR;
    policy.nth = failpoint::hits("server.epoll.wait") + 1;
    failpoint::set("server.epoll.wait", policy);
    Client client = Client::connect_unix(config.unix_path);
    EXPECT_NO_THROW(client.ping());
  }

  // A failed epoll registration of a fresh connection (fd pressure)
  // drops that connection only.
  {
    failpoint::reset();
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EIO;
    policy.nth = 1;  // the next connection to register
    failpoint::set("server.epoll.ctl", policy);
    Client victim = Client::connect_unix(config.unix_path);
    EXPECT_THROW(victim.ping(), std::runtime_error)
        << "the unregistered connection must have been closed";
  }

  failpoint::reset();
  Client healthy = Client::connect_unix(config.unix_path);
  EXPECT_NO_THROW(healthy.ping()) << "the daemon must have survived it all";
  healthy.shutdown(false);
  serving.join();
}

// ---------------------------------------------------------------------------
// Corpus (trace record/replay) I/O torture: the .tvpc writer must never
// leave a half-written file that a reader accepts, and a failed read
// (mmap or pread) must be a precise error naming the file.
// ---------------------------------------------------------------------------

/// The same tiny campaign as torture_spec(), as a SimConfig for
/// exp::record_corpus.
exp::SimConfig corpus_sim_config() {
  exp::SimConfig sim;
  exp::apply_config(sim, util::KeyValueFile::parse(torture_spec().config_text));
  return sim;
}

/// Blocks small enough that the tiny campaign's 82,292 records fill
/// nine of them (eight full ones and the tail that close() flushes), so
/// the block sites fire on a first, an interior and a tail block, yet
/// few enough that re-recording the corpus for every (site, Nth hit)
/// case stays cheap.
constexpr std::size_t kCorpusBlockRecords = 10'000;

/// EIO at every (writer site, Nth occurrence): the record must fail with
/// an exception, whatever lingers on disk must be either rejected or the
/// complete corpus (a directory-durability fault lands after the data
/// fsync), and re-recording over the same path must recover the
/// reference corpus bit-identically.
TEST_F(TortureTest, ErrnoAtEveryCorpusWriteSiteNeverLeavesAHalfCorpus) {
  const exp::SimConfig sim = corpus_sim_config();

  // Counting pass: one clean record with inert failpoints learns how
  // often every writer site fires. (Read sites are tortured below.)
  const std::string count_file = path("count.tvpc");
  failpoint::reset();
  const std::uint32_t identity =
      exp::record_corpus(sim, count_file, kCorpusBlockRecords);
  std::vector<TortureCase> cases;
  for (const auto& site : trace::corpus_failpoint_sites()) {
    if (site.rfind("corpus.read.", 0) == 0) continue;
    for (std::uint64_t n = 1; n <= failpoint::hits(site); ++n)
      cases.push_back({site, n});
  }
  // First, interior and tail block: each block writes its header, its
  // records and its lanes, then starts its writeback.
  EXPECT_GE(failpoint::hits("corpus.block.write"), 3u);
  EXPECT_GE(failpoint::hits("corpus.block.writeback"), 3u);
  failpoint::reset();
  ASSERT_FALSE(cases.empty()) << "no corpus writer sites fired";
  const trace::CorpusInfo reference = trace::verify_corpus(count_file);
  ASSERT_EQ(reference.footer_crc, identity);
  EXPECT_GE(reference.blocks.size(), 6u);
  EXPECT_LE(reference.blocks.size(), 10u);

  std::size_t index = 0;
  for (const TortureCase& torture : cases) {
    SCOPED_TRACE("EIO at " + torture.site + "@" + std::to_string(torture.nth));
    const std::string file =
        path("eio_" + std::to_string(index++) + ".tvpc");
    failpoint::reset();
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EIO;
    policy.nth = torture.nth;
    failpoint::set(torture.site, policy);
    EXPECT_THROW(exp::record_corpus(sim, file, kCorpusBlockRecords),
                 std::runtime_error);
    failpoint::reset();

    // Never half-done: the leftover either fails verification outright
    // or is the full reference corpus.
    try {
      const trace::CorpusInfo leftover = trace::verify_corpus(file);
      EXPECT_EQ(leftover.footer_crc, reference.footer_crc);
      EXPECT_EQ(leftover.total_records, reference.total_records);
    } catch (const std::exception&) {
      // Rejected — equally fine.
    }

    // Recovery: re-recording over the debris must restore the exact
    // reference identity.
    EXPECT_EQ(exp::record_corpus(sim, file, kCorpusBlockRecords),
              reference.footer_crc);
    EXPECT_EQ(trace::verify_corpus(file).total_records,
              reference.total_records);
  }
}

/// SIGKILL mid-write (forked child) leaves a torn file — no header-only
/// stub, missing footer, or missing trailer may ever parse.
TEST_F(TortureTest, KillDuringCorpusWriteLeavesARejectedFile) {
  const exp::SimConfig sim = corpus_sim_config();
  std::size_t index = 0;
  for (const char* site : {"corpus.block.write", "corpus.footer.write",
                           "corpus.trailer.write"}) {
    SCOPED_TRACE(site);
    const std::string file =
        path("kill_" + std::to_string(index++) + ".tvpc");

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1) << std::strerror(errno);
    if (pid == 0) {
      util::set_log_level(util::LogLevel::kOff);
      failpoint::reset();
      failpoint::Policy policy;
      policy.action = failpoint::Policy::Action::kKill;
      policy.nth = 1;
      failpoint::set(site, policy);
      try {
        exp::record_corpus(sim, file, kCorpusBlockRecords);
      } catch (...) {
      }
      ::_exit(7);  // unreachable unless the failpoint never fired
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid) << std::strerror(errno);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child did not die at the failpoint (status " << status << ")";

    failpoint::reset();
    try {
      trace::read_corpus_info(file);
      FAIL() << "a corpus killed at " << site << " must not parse";
    } catch (const std::exception& e) {
      // The rejection must name the file and be a framing diagnosis,
      // not a misread.
      EXPECT_NE(std::string(e.what()).find(file), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("corpus"), std::string::npos)
          << e.what();
    }
  }
}

/// An injected mmap failure is a precise error naming the file, and
/// leaves the file untouched: once the fault clears it verifies clean.
TEST_F(TortureTest, MmapFailureIsAPreciseError) {
  const exp::SimConfig sim = corpus_sim_config();
  const std::string file = path("mmap_eio.tvpc");
  exp::record_corpus(sim, file, kCorpusBlockRecords);

  // No source has opened this file yet, so the process-wide mapping
  // cache is cold and the constructor must call mmap.
  failpoint::reset();
  failpoint::Policy policy;
  policy.action = failpoint::Policy::Action::kReturnErrno;
  policy.error = EIO;
  policy.nth = 1;
  failpoint::set("corpus.read.mmap", policy);
  try {
    trace::MmapSource source(file);
    FAIL() << "the injected mmap failure must surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot mmap"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(file), std::string::npos) << e.what();
  }
  EXPECT_EQ(failpoint::hits("corpus.read.mmap"), 1u);
  failpoint::reset();

  EXPECT_NO_THROW(trace::verify_corpus(file));
}

/// EIO from any of the three preads that parse a corpus (header,
/// trailer, footer) is a precise read error naming the file — never a
/// misparse.
TEST_F(TortureTest, PreadFaultWhileParsingIsAPreciseError) {
  const exp::SimConfig sim = corpus_sim_config();
  const std::string file = path("pread_eio.tvpc");
  exp::record_corpus(sim, file, kCorpusBlockRecords);

  failpoint::reset();
  trace::read_corpus_info(file);
  ASSERT_EQ(failpoint::hits("corpus.read.pread"), 3u)
      << "parsing reads the header, the trailer and the footer";

  for (std::uint64_t nth = 1; nth <= 3; ++nth) {
    SCOPED_TRACE("EIO at corpus.read.pread@" + std::to_string(nth));
    failpoint::reset();
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EIO;
    policy.nth = nth;
    failpoint::set("corpus.read.pread", policy);
    try {
      trace::read_corpus_info(file);
      ADD_FAILURE() << "the injected pread fault must surface";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("read failed"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(file), std::string::npos)
          << e.what();
    }
  }
  failpoint::reset();
}

/// An EINTR inside corpus pread (a signal landed) must be retried, not
/// surface as a failure — same contract as the journal reader.
TEST_F(TortureTest, CorpusReadRetriesInterruptedPread) {
  const exp::SimConfig sim = corpus_sim_config();
  const std::string file = path("pread_eintr.tvpc");
  exp::record_corpus(sim, file, kCorpusBlockRecords);

  failpoint::reset();
  failpoint::Policy policy;
  policy.action = failpoint::Policy::Action::kReturnErrno;
  policy.error = EINTR;
  policy.nth = 1;
  failpoint::set("corpus.read.pread", policy);
  EXPECT_NO_THROW(trace::read_corpus_info(file));
  EXPECT_GE(failpoint::hits("corpus.read.pread"), 2u)
      << "the interrupted pread must have been retried";
}

/// The tiny campaign with a fuzzed workload instead of a benign-only
/// one: the corpus now carries kFuzzed attack records plus the victim
/// oracle in the footer.
exp::SimConfig fuzz_sim_config() {
  exp::SimConfig sim = corpus_sim_config();
  sim.workload.model = exp::BenignModel::kFuzz;
  sim.workload.fuzz.seed = 5;
  sim.workload.fuzz.patterns = 1;
  sim.workload.fuzz.acts_per_interval = 10.0;
  sim.finalize();
  return sim;
}

/// EIO at the first occurrence of every writer site while recording a
/// fuzzed corpus: same never-half-done contract as the benign scenario
/// above (one occurrence per site keeps the fuzz matrix compact — the
/// Nth-occurrence grid is already covered there).
TEST_F(TortureTest, ErrnoInTheCorpusWriterOfAFuzzedRecord) {
  const exp::SimConfig sim = fuzz_sim_config();
  const std::string count_file = path("fuzz_count.tvpc");
  failpoint::reset();
  const std::uint32_t identity =
      exp::record_corpus(sim, count_file, kCorpusBlockRecords);
  std::vector<std::string> sites;
  for (const auto& site : trace::corpus_failpoint_sites())
    if (site.rfind("corpus.read.", 0) != 0 && failpoint::hits(site) > 0)
      sites.push_back(site);
  failpoint::reset();
  ASSERT_FALSE(sites.empty()) << "no corpus writer sites fired";
  const trace::CorpusInfo reference = trace::verify_corpus(count_file);
  ASSERT_EQ(reference.footer_crc, identity);
  ASSERT_FALSE(reference.victims.empty())
      << "a fuzzed corpus must carry the victim oracle";

  std::size_t index = 0;
  for (const auto& site : sites) {
    SCOPED_TRACE("EIO at " + site + "@1");
    const std::string file =
        path("fuzz_eio_" + std::to_string(index++) + ".tvpc");
    failpoint::reset();
    failpoint::Policy policy;
    policy.action = failpoint::Policy::Action::kReturnErrno;
    policy.error = EIO;
    policy.nth = 1;
    failpoint::set(site, policy);
    EXPECT_THROW(exp::record_corpus(sim, file, kCorpusBlockRecords),
                 std::runtime_error);
    failpoint::reset();

    try {
      const trace::CorpusInfo leftover = trace::verify_corpus(file);
      EXPECT_EQ(leftover.footer_crc, reference.footer_crc);
    } catch (const std::exception&) {
      // Rejected — equally fine.
    }

    EXPECT_EQ(exp::record_corpus(sim, file, kCorpusBlockRecords),
              reference.footer_crc);
  }
}

/// One record + verify round trip must drive every corpus site —
/// otherwise the torture matrix silently shrank because a shim was
/// unwired.
TEST_F(TortureTest, ScenariosCoverEveryCorpusSite) {
  const exp::SimConfig sim = corpus_sim_config();
  const std::string file = path("coverage.tvpc");
  failpoint::reset();
  exp::record_corpus(sim, file, kCorpusBlockRecords);
  trace::verify_corpus(file);
  for (const auto& site : trace::corpus_failpoint_sites())
    EXPECT_GT(failpoint::hits(site), 0u) << site << " is never exercised";
}

}  // namespace
}  // namespace tvp::svc
