// Unit + integration tests for tvp::svc — the campaign service: job
// queue, crash-safe journal, engine resume determinism, wire protocol,
// and the socket server end to end.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "tvp/exp/sweep.hpp"
#include "tvp/svc/client.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/util/table.hpp"
#include "tvp/svc/engine.hpp"
#include "tvp/svc/journal.hpp"
#include "tvp/svc/queue.hpp"
#include "tvp/svc/result_io.hpp"
#include "tvp/svc/server.hpp"
#include "tvp/svc/wire.hpp"

namespace tvp::svc {
namespace {

namespace fs = std::filesystem;

// A fresh scratch directory per test (unix sockets + journals).
class SvcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::path(::testing::TempDir()) /
           (std::string("tvp_svc_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

/// A four-cell sweep (2 values x 2 techniques) that finishes in well
/// under a second per cell.
JobSpec tiny_spec(const std::string& name, std::uint64_t seed) {
  JobSpec spec;
  spec.name = name;
  spec.config_text =
      "geometry.banks = 2\n"
      "windows = 1\n"
      "workload.benign_rate = 5\n"
      "seed = " + std::to_string(seed) + "\n";
  spec.param_key = "windows";
  spec.values = {"1", "2"};
  spec.techniques = {"PARA", "LiPRoMi"};
  return spec;
}

exp::SweepResult run_direct(const JobSpec& spec, std::size_t jobs) {
  exp::SweepHooks hooks;
  hooks.jobs = jobs;
  return exp::run_param_sweep(util::KeyValueFile::parse(spec.config_text),
                              spec.param_key, spec.values,
                              spec.parsed_techniques(), hooks);
}

/// Raw unix-socket connect for tests that speak the wire protocol by
/// hand (misbehaving clients the Client class cannot imitate).
int raw_connect(const std::string& socket_path, int socket_flags = 0) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | socket_flags, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;  // keep the connect failure visible past close
    ::close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

JobStatus wait_terminal(const CampaignEngine& engine, std::uint64_t id,
                        double timeout_seconds = 120.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto status = engine.status(id);
    if (status && (status->state == JobState::kDone ||
                   status->state == JobState::kFailed ||
                   status->state == JobState::kCancelled))
      return *status;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ADD_FAILURE() << "job " << id << " did not reach a terminal state";
  return JobStatus{};
}

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(JobQueue, FifoAndBounded) {
  JobQueue queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3)) << "capacity 2 must refuse the third push";
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(2));
  EXPECT_EQ(queue.try_pop(), std::nullopt);
}

TEST(JobQueue, CloseDrainsThenReturnsNull) {
  JobQueue queue(4);
  EXPECT_TRUE(queue.try_push(7));
  queue.close();
  EXPECT_FALSE(queue.try_push(8)) << "closed queue must refuse pushes";
  EXPECT_EQ(queue.pop(), std::optional<std::uint64_t>(7));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(JobQueue, CloseWakesBlockedPopper) {
  JobQueue queue(1);
  std::thread popper([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  popper.join();
}

TEST(JobQueue, ZeroCapacityThrows) {
  EXPECT_THROW(JobQueue(0), std::invalid_argument);
}

/// The executor pool pops from one queue on N threads: every pushed id
/// must come out exactly once, and close() must release every popper.
TEST(JobQueue, ConcurrentPoppersDrainEachItemExactlyOnce) {
  JobQueue queue(256);
  constexpr std::uint64_t kItems = 200;
  std::mutex mu;
  std::vector<std::uint64_t> popped;
  std::vector<std::thread> poppers;
  for (int i = 0; i < 4; ++i)
    poppers.emplace_back([&] {
      while (const auto id = queue.pop()) {
        std::lock_guard<std::mutex> lock(mu);
        popped.push_back(*id);
      }
    });
  for (std::uint64_t i = 1; i <= kItems; ++i) {
    while (!queue.try_push(i))  // poppers may lag a full queue briefly
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.close();  // drains the remainder, then unblocks every popper
  for (auto& popper : poppers) popper.join();
  std::sort(popped.begin(), popped.end());
  ASSERT_EQ(popped.size(), kItems) << "no item may be lost or duplicated";
  for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(popped[i], i + 1);
}

// ---------------------------------------------------------------------------
// JobSpec
// ---------------------------------------------------------------------------

TEST(JobSpec, CanonicalJsonRoundTrip) {
  const JobSpec spec = tiny_spec("round_trip-1.a", 3);
  const JobSpec back = JobSpec::from_json(util::JsonValue::parse(spec.canonical_json()));
  EXPECT_EQ(back.canonical_json(), spec.canonical_json());
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.config_text, spec.config_text);
  EXPECT_EQ(back.values, spec.values);
  EXPECT_EQ(back.techniques, spec.techniques);
}

TEST(JobSpec, ValidateRejectsBadInput) {
  JobSpec spec = tiny_spec("ok", 1);
  EXPECT_NO_THROW(spec.validate());

  JobSpec bad_name = spec;
  bad_name.name = "has/slash";
  EXPECT_THROW(bad_name.validate(), std::invalid_argument);

  JobSpec bad_technique = spec;
  bad_technique.techniques = {"NotATechnique"};
  EXPECT_THROW(bad_technique.validate(), std::invalid_argument);

  JobSpec empty_values = spec;
  empty_values.values.clear();
  EXPECT_THROW(empty_values.validate(), std::invalid_argument);

  JobSpec bad_config = spec;
  bad_config.config_text = "no equals sign here";
  EXPECT_THROW(bad_config.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Result serialisation
// ---------------------------------------------------------------------------

TEST(ResultIo, RunResultRoundTripIsExact) {
  const JobSpec spec = tiny_spec("exact", 11);
  const exp::SweepResult sweep = run_direct(spec, 1);
  ASSERT_FALSE(sweep.cells.empty());
  for (const auto& cell : sweep.cells) {
    util::JsonWriter json;
    write_run_result(json, cell.result);
    const exp::RunResult back =
        read_run_result(util::JsonValue::parse(json.str()));

    const exp::RunResult& ref = cell.result;
    EXPECT_EQ(back.technique, ref.technique);
    EXPECT_EQ(back.stats.demand_acts, ref.stats.demand_acts);
    EXPECT_EQ(back.stats.extra_acts, ref.stats.extra_acts);
    EXPECT_EQ(back.stats.fp_extra_acts, ref.stats.fp_extra_acts);
    EXPECT_EQ(back.stats.triggers, ref.stats.triggers);
    EXPECT_EQ(back.stats.refresh_intervals, ref.stats.refresh_intervals);
    EXPECT_EQ(back.stats.rows_refreshed, ref.stats.rows_refreshed);
    EXPECT_EQ(back.stats.reads, ref.stats.reads);
    EXPECT_EQ(back.stats.writes, ref.stats.writes);
    EXPECT_EQ(back.stats.delayed_acts, ref.stats.delayed_acts);
    EXPECT_EQ(back.stats.first_extra_act_at, ref.stats.first_extra_act_at);
    EXPECT_EQ(back.stats.extra_acts_by_phase, ref.stats.extra_acts_by_phase);
    // RunningStat restores its exact Welford state (bit-identical).
    const auto raw_back = back.stats.acts_per_interval.raw();
    const auto raw_ref = ref.stats.acts_per_interval.raw();
    EXPECT_EQ(raw_back.n, raw_ref.n);
    EXPECT_EQ(raw_back.mean, raw_ref.mean);
    EXPECT_EQ(raw_back.m2, raw_ref.m2);
    EXPECT_EQ(raw_back.min, raw_ref.min);
    EXPECT_EQ(raw_back.max, raw_ref.max);
    EXPECT_EQ(raw_back.sum, raw_ref.sum);
    EXPECT_EQ(back.flips, ref.flips);
    EXPECT_EQ(back.victim_flips, ref.victim_flips);
    ASSERT_EQ(back.flip_events.size(), ref.flip_events.size());
    for (std::size_t i = 0; i < ref.flip_events.size(); ++i) {
      EXPECT_EQ(back.flip_events[i].bank, ref.flip_events[i].bank);
      EXPECT_EQ(back.flip_events[i].row, ref.flip_events[i].row);
      EXPECT_EQ(back.flip_events[i].at_activation, ref.flip_events[i].at_activation);
      EXPECT_EQ(back.flip_events[i].interval, ref.flip_events[i].interval);
    }
    EXPECT_EQ(back.peak_disturbance, ref.peak_disturbance);
    EXPECT_EQ(back.state_bytes_per_bank, ref.state_bytes_per_bank);
    EXPECT_EQ(back.records, ref.records);
    EXPECT_EQ(back.wall_seconds, ref.wall_seconds);
    EXPECT_EQ(back.oracle, ref.oracle);
  }
}

TEST(ResultIo, OracleFlagRoundTripsAndDefaultsToTrue) {
  // A run without an oracle keeps saying so through a journal or the
  // wire; a record written before the field existed held an oracle run.
  exp::RunResult none;
  none.technique = "PARA";
  none.oracle = false;
  util::JsonWriter json;
  write_run_result(json, none);
  EXPECT_FALSE(read_run_result(util::JsonValue::parse(json.str())).oracle);

  exp::RunResult with;
  with.technique = "PARA";
  util::JsonWriter legacy;
  write_run_result(legacy, with);
  std::string text = legacy.str();
  const std::string field = ",\"oracle\":true";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos) << text;
  text.erase(at, field.size());
  EXPECT_TRUE(read_run_result(util::JsonValue::parse(text)).oracle);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

TEST_F(SvcTest, JournalRoundTrip) {
  const JobSpec spec = tiny_spec("journal_rt", 5);
  const exp::SweepResult sweep = run_direct(spec, 1);
  const std::string file = path("a.tvpj");
  {
    Journal journal = Journal::create(file, spec);
    journal.append_cell(0, sweep.cells[0]);
    journal.append_cell(2, sweep.cells[2]);
    journal.append_done();
  }
  const Journal::Replay replay = Journal::replay(file);
  EXPECT_EQ(replay.spec.canonical_json(), spec.canonical_json());
  EXPECT_TRUE(replay.done);
  EXPECT_EQ(replay.dropped_bytes, 0u);
  ASSERT_EQ(replay.cells.size(), 2u);
  EXPECT_EQ(replay.cells.at(0).technique, sweep.cells[0].technique);
  EXPECT_EQ(replay.cells.at(2).value, sweep.cells[2].value);
}

TEST_F(SvcTest, JournalTornTrailingLineIsDropped) {
  const JobSpec spec = tiny_spec("journal_torn", 5);
  const exp::SweepResult sweep = run_direct(spec, 1);
  const std::string file = path("torn.tvpj");
  {
    Journal journal = Journal::create(file, spec);
    journal.append_cell(0, sweep.cells[0]);
  }
  // Simulate a crash mid-append: half a record, no newline.
  {
    std::ofstream out(file, std::ios::app | std::ios::binary);
    out << "{\"crc\":123,\"e\":{\"type\":\"cell\",\"cell\":{\"i\":1,\"val";
  }
  const Journal::Replay replay = Journal::replay(file);
  EXPECT_EQ(replay.cells.size(), 1u);
  EXPECT_GT(replay.dropped_bytes, 0u);
  EXPECT_FALSE(replay.done);
}

TEST_F(SvcTest, JournalCorruptTrailingEntryIsDropped) {
  const JobSpec spec = tiny_spec("journal_corrupt", 5);
  const exp::SweepResult sweep = run_direct(spec, 1);
  const std::string file = path("corrupt.tvpj");
  {
    Journal journal = Journal::create(file, spec);
    journal.append_cell(0, sweep.cells[0]);
    journal.append_cell(1, sweep.cells[1]);
  }
  // Flip one byte inside the last record's payload: the CRC must
  // reject it and replay must keep everything before it.
  std::string text;
  {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  const std::size_t last_line = text.rfind("{\"crc\":");
  ASSERT_NE(last_line, std::string::npos);
  text[last_line + 40] ^= 0x01;
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << text;
  }
  const Journal::Replay replay = Journal::replay(file);
  EXPECT_EQ(replay.cells.size(), 1u);
  EXPECT_TRUE(replay.cells.count(0));
  EXPECT_GT(replay.dropped_bytes, 0u);
}

TEST_F(SvcTest, JournalMissingHeaderThrows) {
  const std::string file = path("headerless.tvpj");
  {
    std::ofstream out(file, std::ios::binary);
    out << "not a journal\n";
  }
  EXPECT_THROW(Journal::replay(file), std::runtime_error);
  EXPECT_THROW(Journal::replay(path("absent.tvpj")), std::runtime_error);
}

TEST_F(SvcTest, JournalRemoveIsDurableAndIdempotent) {
  const std::string file = path("victim.tvpj");
  Journal::create(file, tiny_spec("victim", 1)).close();
  ASSERT_TRUE(fs::exists(file));
  Journal::remove(file);
  EXPECT_FALSE(fs::exists(file));
  EXPECT_NO_THROW(Journal::remove(file)) << "removing an absent journal is ok";
}

// ---------------------------------------------------------------------------
// Sweep hooks (the exp-level checkpoint seam)
// ---------------------------------------------------------------------------

TEST(SweepHooks, PreloadedCellsAreNotRecomputed) {
  const JobSpec spec = tiny_spec("hooks", 9);
  const exp::SweepResult reference = run_direct(spec, 1);

  std::map<std::size_t, exp::SweepCell> preloaded;
  for (std::size_t i = 0; i < reference.cells.size(); ++i)
    preloaded[i] = reference.cells[i];

  std::atomic<int> computed{0};
  exp::SweepHooks hooks;
  hooks.preloaded = &preloaded;
  hooks.on_cell = [&](std::size_t, const exp::SweepCell&) { ++computed; };
  hooks.jobs = 1;
  const exp::SweepResult resumed = exp::run_param_sweep(
      util::KeyValueFile::parse(spec.config_text), spec.param_key, spec.values,
      spec.parsed_techniques(), hooks);
  EXPECT_EQ(computed.load(), 0) << "fully preloaded matrix must not rerun";
  EXPECT_EQ(exp::sweep_to_csv(resumed), exp::sweep_to_csv(reference));
}

TEST(SweepHooks, MismatchedPreloadThrows) {
  const JobSpec spec = tiny_spec("hooks_bad", 9);
  const exp::SweepResult reference = run_direct(spec, 1);
  std::map<std::size_t, exp::SweepCell> preloaded;
  preloaded[0] = reference.cells[0];
  preloaded[0].technique = "TWiCe";  // grid says PARA
  exp::SweepHooks hooks;
  hooks.preloaded = &preloaded;
  EXPECT_THROW(
      exp::run_param_sweep(util::KeyValueFile::parse(spec.config_text),
                           spec.param_key, spec.values,
                           spec.parsed_techniques(), hooks),
      std::invalid_argument);
}

TEST(SweepHooks, StopSkipsRemainingCells) {
  const JobSpec spec = tiny_spec("hooks_stop", 9);
  std::atomic<bool> stop{false};
  std::atomic<int> computed{0};
  exp::SweepHooks hooks;
  hooks.stop = &stop;
  hooks.jobs = 1;
  hooks.on_cell = [&](std::size_t, const exp::SweepCell&) {
    if (++computed >= 2) stop.store(true);
  };
  const exp::SweepResult partial = exp::run_param_sweep(
      util::KeyValueFile::parse(spec.config_text), spec.param_key, spec.values,
      spec.parsed_techniques(), hooks);
  EXPECT_EQ(computed.load(), 2);
  std::size_t filled = 0;
  for (const auto& cell : partial.cells)
    if (!cell.technique.empty()) ++filled;
  EXPECT_EQ(filled, 2u);
}

// ---------------------------------------------------------------------------
// CampaignEngine
// ---------------------------------------------------------------------------

TEST_F(SvcTest, EngineMatchesDirectSweep) {
  EngineConfig config;
  config.sweep_jobs = 2;
  CampaignEngine engine(config);
  engine.start();

  const JobSpec spec = tiny_spec("direct_match", 21);
  std::string error;
  const std::uint64_t id = engine.submit(spec, &error);
  ASSERT_NE(id, 0u) << error;
  const JobStatus status = wait_terminal(engine, id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.completed_cells, spec.cell_count());
  const auto result = engine.result(id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(exp::sweep_to_csv(*result), exp::sweep_to_csv(run_direct(spec, 1)));
  engine.shutdown(true);
}

TEST_F(SvcTest, EngineRejectsBadSpecDuplicateNameAndFullQueue) {
  EngineConfig config;
  config.queue_capacity = 1;
  CampaignEngine engine(config);  // not started: queued jobs stay queued

  std::string error;
  JobSpec bad = tiny_spec("bad", 1);
  bad.techniques = {"NotReal"};
  EXPECT_EQ(engine.submit(bad, &error), 0u);
  EXPECT_NE(error.find("NotReal"), std::string::npos);

  EXPECT_NE(engine.submit(tiny_spec("a", 1), &error), 0u) << error;
  EXPECT_EQ(engine.submit(tiny_spec("a", 1), &error), 0u)
      << "duplicate active name must be rejected";
  EXPECT_NE(error.find("already active"), std::string::npos);

  EXPECT_EQ(engine.submit(tiny_spec("b", 1), &error), 0u)
      << "queue of capacity 1 must exert backpressure";
  EXPECT_NE(error.find("queue full"), std::string::npos);
}

TEST_F(SvcTest, ConcurrentSubmitsOfOneNameAcceptExactlyOne) {
  EngineConfig config;
  config.journal_dir = path("journals");  // journal I/O widens the race window
  CampaignEngine engine(config);  // not started: accepted jobs stay active

  const JobSpec spec = tiny_spec("contested", 1);
  constexpr int kThreads = 8;
  std::atomic<int> go{0};
  std::atomic<int> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }  // start all submits as close together as possible
      std::string error;
      if (engine.submit(spec, &error) != 0) accepted.fetch_add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(accepted.load(), 1)
      << "one name, one active job, one journal file";
  EXPECT_EQ(engine.statuses().size(), 1u);
}

TEST_F(SvcTest, EngineCancelQueuedJob) {
  EngineConfig config;
  CampaignEngine engine(config);  // not started, so the job stays queued
  std::string error;
  const std::uint64_t id = engine.submit(tiny_spec("till_cancelled", 1), &error);
  ASSERT_NE(id, 0u) << error;
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_EQ(engine.status(id)->state, JobState::kCancelled);
  EXPECT_FALSE(engine.cancel(id)) << "terminal jobs cannot be cancelled again";
  EXPECT_FALSE(engine.cancel(9999));
}

/// The acceptance criterion: a campaign killed mid-run and resumed from
/// its journal produces a byte-identical results file, across seeds and
/// job counts — including when the trailing journal entry was torn.
TEST_F(SvcTest, KillAndResumeIsByteIdentical) {
  int variant = 0;
  for (const std::uint64_t seed : {1ull, 7ull}) {
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
      const bool corrupt_tail = (variant++ % 2) == 1;
      const std::string name =
          "kill_s" + std::to_string(seed) + "_j" + std::to_string(jobs);
      const JobSpec spec = tiny_spec(name, seed);
      const std::string csv_reference =
          exp::sweep_to_csv(run_direct(spec, jobs));

      // Phase 1 — the "killed" campaign: checkpoint cells into the
      // journal, stop after two cells (as SIGKILL would).
      const std::string journal_dir = path("journals_" + name);
      fs::create_directories(journal_dir);
      const std::string journal_file =
          (fs::path(journal_dir) / (name + ".tvpj")).string();
      {
        Journal journal = Journal::create(journal_file, spec);
        std::atomic<bool> stop{false};
        std::atomic<int> cells{0};
        std::mutex mu;
        exp::SweepHooks hooks;
        hooks.stop = &stop;
        hooks.jobs = jobs;
        hooks.on_cell = [&](std::size_t i, const exp::SweepCell& cell) {
          std::lock_guard<std::mutex> lock(mu);
          journal.append_cell(i, cell);
          if (++cells >= 2) stop.store(true);
        };
        exp::run_param_sweep(util::KeyValueFile::parse(spec.config_text),
                             spec.param_key, spec.values,
                             spec.parsed_techniques(), hooks);
      }

      if (corrupt_tail) {
        // Tear the final journal entry, as a crash mid-append would.
        std::string text;
        {
          std::ifstream in(journal_file, std::ios::binary);
          std::ostringstream buf;
          buf << in.rdbuf();
          text = buf.str();
        }
        ASSERT_GT(text.size(), 20u);
        text.resize(text.size() - 17);  // chop mid-record, no newline
        std::ofstream out(journal_file, std::ios::binary | std::ios::trunc);
        out << text;
      }

      // Phase 2 — restart: the engine scans the journal dir, resumes
      // the campaign, and recomputes only the missing cells.
      EngineConfig config;
      config.journal_dir = journal_dir;
      config.sweep_jobs = jobs;
      CampaignEngine engine(config);
      const auto resumed = engine.start();
      ASSERT_EQ(resumed.size(), 1u) << "journal must be picked up on start";
      const JobStatus status = wait_terminal(engine, resumed[0]);
      EXPECT_EQ(status.state, JobState::kDone) << status.error;
      EXPECT_GT(status.resumed_cells, 0u) << "resume must reuse journal cells";
      EXPECT_LT(status.resumed_cells, spec.cell_count())
          << "the kill must have left work to do";
      const auto result = engine.result(resumed[0]);
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(exp::sweep_to_csv(*result), csv_reference)
          << "resumed campaign must be byte-identical (seed " << seed
          << ", jobs " << jobs << ", corrupt_tail " << corrupt_tail << ")";
      engine.shutdown(true);

      // Restarting again finds the finished journal and reloads the
      // whole matrix from it without recomputing anything.
      CampaignEngine reloaded(config);
      const auto reloaded_ids = reloaded.start();
      ASSERT_EQ(reloaded_ids.size(), 1u);
      const JobStatus reloaded_status = wait_terminal(reloaded, reloaded_ids[0]);
      EXPECT_EQ(reloaded_status.state, JobState::kDone);
      EXPECT_EQ(reloaded_status.resumed_cells, spec.cell_count());
      EXPECT_EQ(exp::sweep_to_csv(*reloaded.result(reloaded_ids[0])),
                csv_reference);
      reloaded.shutdown(true);
    }
  }
}

/// A windows job is one run read at each value: killed after its first
/// horizon, its journal holds exactly that horizon's cells, and the
/// resumed job computes only the others and matches an uninterrupted
/// sweep byte for byte.
TEST_F(SvcTest, WindowsJobKilledAfterItsFirstHorizonResumes) {
  JobSpec spec = tiny_spec("horizon_kill", 3);
  spec.values = {"1", "2", "3"};
  const std::string csv_reference = exp::sweep_to_csv(run_direct(spec, 1));
  const std::string journal_dir = path("journals");
  fs::create_directories(journal_dir);
  const std::string journal_file =
      (fs::path(journal_dir) / "horizon_kill.tvpj").string();
  const auto journal_lines = [&] {
    std::ifstream in(journal_file);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);) ++lines;
    return lines;
  };
  {
    Journal journal = Journal::create(journal_file, spec);
    std::atomic<bool> stop{false};
    std::vector<std::size_t> emitted;
    exp::SweepHooks hooks;
    hooks.stop = &stop;
    hooks.jobs = 1;
    hooks.on_cell = [&](std::size_t i, const exp::SweepCell& cell) {
      journal.append_cell(i, cell);
      emitted.push_back(i);
      stop.store(true);  // the kill lands with the first cell
    };
    exp::run_param_sweep(util::KeyValueFile::parse(spec.config_text),
                         spec.param_key, spec.values, spec.parsed_techniques(),
                         hooks);
    // The horizon being read still completes: both techniques at 1.
    EXPECT_EQ(emitted, (std::vector<std::size_t>{0, 1}));
  }
  EXPECT_EQ(journal_lines(), 1u + 2u);  // the header and two cells

  EngineConfig config;
  config.journal_dir = journal_dir;
  config.sweep_jobs = 1;
  CampaignEngine engine(config);
  const auto resumed = engine.start();
  ASSERT_EQ(resumed.size(), 1u);
  const JobStatus status = wait_terminal(engine, resumed[0]);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(status.resumed_cells, 2u);
  EXPECT_EQ(exp::sweep_to_csv(*engine.result(resumed[0])), csv_reference);
  engine.shutdown(true);
  // Each cell was journalled once: the resume computed only the four
  // missing ones, then marked the job done.
  EXPECT_EQ(journal_lines(), 1u + spec.cell_count() + 1u);
}

TEST_F(SvcTest, SubmitRejectsJournalSpecMismatch) {
  const std::string journal_dir = path("journals");
  EngineConfig config;
  config.journal_dir = journal_dir;
  {
    CampaignEngine engine(config);
    std::string error;
    ASSERT_NE(engine.submit(tiny_spec("same_name", 1), &error), 0u) << error;
    // Job is durable from submit: the journal header exists already.
    EXPECT_TRUE(fs::exists(engine.journal_path("same_name")));
  }
  CampaignEngine engine(config);
  std::string error;
  EXPECT_EQ(engine.submit(tiny_spec("same_name", 2), &error), 0u)
      << "same name with a different spec must be rejected";
  EXPECT_NE(error.find("different spec"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace (replay) jobs
// ---------------------------------------------------------------------------

TEST(JobSpec, CanonicalJsonOmitsTraceKeysWhenUnset) {
  // Journals written before trace jobs existed must keep their exact
  // canonical JSON — the resume spec-mismatch check compares the bytes.
  const JobSpec plain = tiny_spec("plain", 1);
  EXPECT_EQ(plain.canonical_json().find("\"trace\""), std::string::npos);

  JobSpec traced = plain;
  traced.trace = "/corpora/run.tvpc";
  traced.trace_hash = "0a1b2c3d";
  const JobSpec back =
      JobSpec::from_json(util::JsonValue::parse(traced.canonical_json()));
  EXPECT_EQ(back.trace, traced.trace);
  EXPECT_EQ(back.trace_hash, traced.trace_hash);
  EXPECT_EQ(back.canonical_json(), traced.canonical_json());
}

TEST_F(SvcTest, TraceJobReplayMatchesDirectSweepAndPinsIdentity) {
  // Record the corpus the job will replay: the same system the job's
  // config describes.
  const JobSpec base_spec = tiny_spec("traced", 5);
  exp::SimConfig sim;
  exp::apply_config(sim, util::KeyValueFile::parse(base_spec.config_text));
  const std::string corpus = path("traced.tvpc");
  const std::uint32_t identity = exp::record_corpus(sim, corpus);

  EngineConfig config;
  config.journal_dir = path("journals");
  CampaignEngine engine(config);
  engine.start();
  JobSpec spec = base_spec;
  spec.trace = corpus;
  std::string error;
  const std::uint64_t id = engine.submit(spec, &error);
  ASSERT_NE(id, 0u) << error;
  const JobStatus status = wait_terminal(engine, id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;

  // Reference: the same matrix swept directly over a replay config.
  util::KeyValueFile base = util::KeyValueFile::parse(spec.config_text);
  base.set("workload.model", "replay");
  base.set("workload.trace", corpus);
  exp::SweepHooks hooks;
  hooks.jobs = 1;
  const exp::SweepResult direct =
      exp::run_param_sweep(base, spec.param_key, spec.values,
                           spec.parsed_techniques(), hooks);
  const auto result = engine.result(id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(exp::sweep_to_csv(*result), exp::sweep_to_csv(direct));

  // Submit filled the identity and journalled it with the spec.
  const Journal::Replay replay =
      Journal::replay(engine.journal_path("traced"));
  EXPECT_EQ(replay.spec.trace_hash, util::strfmt("%08x", identity));
  engine.shutdown(true);
}

TEST_F(SvcTest, TraceJobRejectsMissingCorpusBadHashAndDanglingHash) {
  EngineConfig config;
  CampaignEngine engine(config);  // not started: submit-time checks only
  std::string error;

  JobSpec missing = tiny_spec("missing_corpus", 1);
  missing.trace = path("nowhere.tvpc");
  EXPECT_EQ(engine.submit(missing, &error), 0u);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

  const std::string corpus = path("tiny.tvpc");
  trace::write_corpus(corpus, {}, 4);
  JobSpec mismatched = tiny_spec("stale_hash", 1);
  mismatched.trace = corpus;
  mismatched.trace_hash = "deadbeef";  // not this corpus's identity
  EXPECT_EQ(engine.submit(mismatched, &error), 0u);
  EXPECT_NE(error.find("changed underneath"), std::string::npos) << error;

  JobSpec dangling = tiny_spec("dangling_hash", 1);
  dangling.trace_hash = "deadbeef";
  EXPECT_EQ(engine.submit(dangling, &error), 0u);
  EXPECT_NE(error.find("without a trace path"), std::string::npos) << error;
}

TEST_F(SvcTest, ResumeRefusesACorpusChangedUnderneath) {
  const JobSpec base_spec = tiny_spec("changed_corpus", 3);
  exp::SimConfig sim;
  exp::apply_config(sim, util::KeyValueFile::parse(base_spec.config_text));
  const std::string corpus = path("changed.tvpc");
  exp::record_corpus(sim, corpus);

  EngineConfig config;
  config.journal_dir = path("journals");
  {
    CampaignEngine engine(config);  // not started: the job stays queued,
                                    // but its journal header is durable
    JobSpec spec = base_spec;
    spec.trace = corpus;
    std::string error;
    ASSERT_NE(engine.submit(spec, &error), 0u) << error;
  }

  // Re-record with a different seed: same path, different bytes — the
  // journalled identity no longer matches.
  sim.seed = 99;
  sim.finalize();
  exp::record_corpus(sim, corpus);

  CampaignEngine engine(config);
  EXPECT_TRUE(engine.start().empty())
      << "a corpus changed underneath a journalled job must not resume";
  engine.shutdown(true);
}

/// Executor-pool isolation: jobs running concurrently on four workers
/// must each produce the same matrix as a direct solo run, and each
/// journal must hold exactly its own job, sealed done — two workers
/// never touch one journal.
TEST_F(SvcTest, MultiWorkerJobsKeepIsolatedJournalsAndExactResults) {
  EngineConfig config;
  config.journal_dir = path("journals");
  config.workers = 4;
  config.sweep_jobs = 1;
  CampaignEngine engine(config);
  engine.start();

  constexpr int kJobs = 8;
  std::vector<JobSpec> specs;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kJobs; ++i) {
    specs.push_back(tiny_spec("pool_" + std::to_string(i),
                              40 + static_cast<std::uint64_t>(i)));
    std::string error;
    const std::uint64_t id = engine.submit(specs.back(), &error);
    ASSERT_NE(id, 0u) << error;
    ids.push_back(id);
  }
  for (int i = 0; i < kJobs; ++i) {
    const JobStatus status = wait_terminal(engine, ids[i]);
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    const auto result = engine.result(ids[i]);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(exp::sweep_to_csv(*result), exp::sweep_to_csv(run_direct(specs[i], 1)))
        << "job " << specs[i].name << " must match its solo run";
  }
  engine.shutdown(true);

  for (const JobSpec& spec : specs) {
    const Journal::Replay replay =
        Journal::replay(engine.journal_path(spec.name));
    EXPECT_TRUE(replay.done) << spec.name;
    EXPECT_EQ(replay.cells.size(), spec.cell_count()) << spec.name;
    EXPECT_EQ(replay.spec.canonical_json(), spec.canonical_json())
        << "journal must hold exactly its own job's spec";
  }
}

// ------------------------------------------------- engine streaming

TEST_F(SvcTest, SubscribeDeliversEveryCellExactlyOnceThenEnds) {
  EngineConfig config;
  config.workers = 1;
  config.sweep_jobs = 2;
  CampaignEngine engine(config);

  std::string error;
  const std::uint64_t id = engine.submit(tiny_spec("stream_live", 5), &error);
  ASSERT_NE(id, 0u) << error;
  EXPECT_EQ(engine.subscribe(4242, nullptr, nullptr), 0u)
      << "unknown job ids yield token 0, not a crash";

  std::mutex mu;
  std::vector<std::uint64_t> indices;
  std::atomic<bool> ended{false};
  JobState end_state = JobState::kQueued;
  // Subscribed before start(): every cell arrives live.
  const std::uint64_t token = engine.subscribe(
      id,
      [&](const std::string& cell_json) {
        const auto cell = util::JsonValue::parse(cell_json);
        std::lock_guard<std::mutex> lock(mu);
        indices.push_back(cell.at("i").as_uint());
      },
      [&](JobState state, const std::string&) {
        end_state = state;
        ended.store(true);
      });
  ASSERT_NE(token, 0u);
  engine.start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!ended.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(ended.load()) << "the end event must fire at the terminal state";
  EXPECT_EQ(end_state, JobState::kDone);
  const std::size_t total = tiny_spec("stream_live", 5).cell_count();
  {
    std::lock_guard<std::mutex> lock(mu);
    std::sort(indices.begin(), indices.end());
    ASSERT_EQ(indices.size(), total) << "every cell exactly once";
    for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(indices[i], i);
  }

  // A late subscriber on the finished job replays the whole matrix and
  // ends synchronously, inside this subscribe call.
  std::vector<std::uint64_t> replayed;
  bool replay_ended = false;
  JobState replay_state = JobState::kQueued;
  engine.subscribe(
      id,
      [&](const std::string& cell_json) {
        replayed.push_back(util::JsonValue::parse(cell_json).at("i").as_uint());
      },
      [&](JobState state, const std::string&) {
        replay_state = state;
        replay_ended = true;
      });
  EXPECT_TRUE(replay_ended);
  EXPECT_EQ(replay_state, JobState::kDone);
  std::sort(replayed.begin(), replayed.end());
  ASSERT_EQ(replayed.size(), total);
  for (std::size_t i = 0; i < total; ++i) EXPECT_EQ(replayed[i], i);
  engine.shutdown(true);
}

/// Subscribers never hang: a cancel fires the end event immediately,
/// and shutdown flushes subscriptions of jobs that never got to run.
TEST_F(SvcTest, SubscribersSeeEndOnCancelAndOnShutdownFlush) {
  EngineConfig config;
  CampaignEngine engine(config);  // not started: jobs stay queued
  std::string error;
  const std::uint64_t cancelled =
      engine.submit(tiny_spec("stream_cancel", 1), &error);
  ASSERT_NE(cancelled, 0u) << error;
  const std::uint64_t flushed =
      engine.submit(tiny_spec("stream_flush", 1), &error);
  ASSERT_NE(flushed, 0u) << error;

  bool cancel_ended = false;
  JobState cancel_state = JobState::kQueued;
  ASSERT_NE(engine.subscribe(cancelled, nullptr,
                             [&](JobState state, const std::string&) {
                               cancel_state = state;
                               cancel_ended = true;
                             }),
            0u);
  bool flush_ended = false;
  JobState flush_state = JobState::kDone;
  std::string flush_error;
  ASSERT_NE(engine.subscribe(flushed, nullptr,
                             [&](JobState state, const std::string& e) {
                               flush_state = state;
                               flush_error = e;
                               flush_ended = true;
                             }),
            0u);

  EXPECT_TRUE(engine.cancel(cancelled));
  EXPECT_TRUE(cancel_ended) << "cancel of a queued job ends its stream now";
  EXPECT_EQ(cancel_state, JobState::kCancelled);

  engine.shutdown(false);
  EXPECT_TRUE(flush_ended) << "shutdown must flush open subscriptions";
  EXPECT_EQ(flush_state, JobState::kQueued);
  EXPECT_NE(flush_error.find("resumable"), std::string::npos) << flush_error;
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(Wire, RequestRoundTrip) {
  const JobSpec spec = tiny_spec("wire", 2);
  Request submit = parse_request(submit_request(spec));
  EXPECT_EQ(submit.op, Request::Op::kSubmit);
  EXPECT_EQ(submit.spec.canonical_json(), spec.canonical_json());

  Request all_status = parse_request(status_request());
  EXPECT_EQ(all_status.op, Request::Op::kStatus);
  EXPECT_FALSE(all_status.has_job_id);

  Request one_status = parse_request(status_request(42));
  EXPECT_TRUE(one_status.has_job_id);
  EXPECT_EQ(one_status.job_id, 42u);

  EXPECT_EQ(parse_request(results_request(7)).op, Request::Op::kResults);
  EXPECT_EQ(parse_request(cancel_request(7)).op, Request::Op::kCancel);
  EXPECT_EQ(parse_request(ping_request()).op, Request::Op::kPing);

  Request shutdown = parse_request(shutdown_request(true));
  EXPECT_EQ(shutdown.op, Request::Op::kShutdown);
  EXPECT_TRUE(shutdown.drain);
  EXPECT_FALSE(parse_request(shutdown_request(false)).drain);
}

TEST(Wire, MalformedRequestsThrowProtocolError) {
  EXPECT_THROW(parse_request("not json"), ProtocolError);
  EXPECT_THROW(parse_request("[1,2,3]"), ProtocolError);
  EXPECT_THROW(parse_request("{\"op\":\"warp\"}"), ProtocolError);
  EXPECT_THROW(parse_request("{\"op\":\"results\"}"), ProtocolError)
      << "results without a job id is malformed";
  EXPECT_THROW(parse_request("{\"op\":\"submit\",\"job\":{}}"), ProtocolError);
}

TEST(Wire, ErrorResponseParses) {
  const util::JsonValue response =
      util::JsonValue::parse(error_response("queue full"));
  EXPECT_FALSE(response.get_bool("ok", true));
  EXPECT_EQ(response.get("error", ""), "queue full");
}

// ---------------------------------------------------------------------------
// Server + Client end to end
// ---------------------------------------------------------------------------

TEST_F(SvcTest, UnixSocketEndToEnd) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  config.engine.journal_dir = path("journals");
  config.engine.sweep_jobs = 2;
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  const JobSpec spec = tiny_spec("e2e", 33);
  {
    Client client = Client::connect_unix(config.unix_path);
    client.ping();
    const std::uint64_t id = client.submit(spec);
    EXPECT_NE(id, 0u);
    const JobStatus done = client.wait(id, 120.0);
    EXPECT_EQ(done.state, JobState::kDone) << done.error;

    const util::JsonValue results = client.results(id);
    EXPECT_EQ(results.at("csv").as_string(),
              exp::sweep_to_csv(run_direct(spec, 1)))
        << "matrix over the socket must match a direct run_param_sweep";
    EXPECT_EQ(results.at("sweep").at("cells").items().size(),
              spec.cell_count());

    // Unknown ids are wire errors, not crashes.
    EXPECT_THROW(client.results(4242), std::runtime_error);

    client.shutdown(/*drain=*/true);
  }
  serving.join();
  EXPECT_FALSE(fs::exists(config.unix_path))
      << "socket file must be removed on shutdown";
}

TEST_F(SvcTest, TcpEndToEndAndRawProtocol) {
  ServerConfig config;
  config.tcp_port = 0;  // ephemeral
  Server server(config);
  server.start();
  ASSERT_GT(server.tcp_port(), 0);
  std::thread serving([&] { server.serve(); });

  {
    Client client = Client::connect_tcp("127.0.0.1", server.tcp_port());
    client.ping();
    // A malformed line must produce ok:false, not kill the connection.
    const util::JsonValue junk = client.request("this is not json");
    EXPECT_FALSE(junk.get_bool("ok", true));
    client.ping();  // connection still alive
    client.shutdown(false);
  }
  serving.join();
}

/// A client that sends a request and disconnects before the reply is
/// flushed must cost the server one EPIPE (connection dropped), not a
/// SIGPIPE that kills the daemon.
TEST_F(SvcTest, ClientGoneBeforeReplyDoesNotKillServer) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config.unix_path.c_str(),
               sizeof addr.sun_path - 1);
  for (int i = 0; i < 8; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const std::string request = ping_request() + "\n";
    ASSERT_EQ(::write(fd, request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
    ::close(fd);  // gone before the server writes the reply
  }

  Client client = Client::connect_unix(config.unix_path);
  client.ping();  // the server survived every EPIPE
  client.shutdown(false);
  serving.join();
}

// ----------------------------------------------- malformed wire input

/// Every flavour of malformed request line must come back as an
/// ok:false error reply on a still-usable connection — never a dropped
/// connection, never a dead daemon.
TEST_F(SvcTest, MalformedRequestLinesGetErrorRepliesNotCrashes) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });
  {
    Client client = Client::connect_unix(config.unix_path);
    const std::vector<std::string> malformed = {
        "{\"op\":\"submit\",\"job\"",            // truncated JSON
        "{\"op\":\"submit\"}",                   // submit without a job
        "{\"op\":\"warp\"}",                     // unknown command
        "{\"op\":\"results\"}",                  // results without a job id
        "[1,2,3]",                               // wrong JSON shape
        std::string("{\"op\":\"\xff\xfe\"}"),    // invalid UTF-8 bytes
        std::string("\x01\x02{}\x03", 5),        // binary garbage
    };
    for (const auto& line : malformed) {
      SCOPED_TRACE("line: " + line);
      util::JsonValue reply;
      ASSERT_NO_THROW(reply = client.request(line))
          << "malformed input must not drop the connection";
      EXPECT_FALSE(reply.get_bool("ok", true));
      EXPECT_FALSE(reply.get("error", "").empty())
          << "the error reply must say what was wrong";
    }
    client.ping();  // the same connection still works
    client.shutdown(false);
  }
  serving.join();
}

/// A request line above max_line_bytes costs that client its
/// connection (runaway guard) but nothing else: no reply, no crash,
/// and the next client is served normally.
TEST_F(SvcTest, OversizedRequestLineDropsOnlyThatConnection) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  config.max_line_bytes = 1024;
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });
  {
    Client greedy = Client::connect_unix(config.unix_path);
    const std::string huge(8 * 1024, 'x');  // 8x the limit, no newline yet
    EXPECT_THROW(greedy.request(huge), std::runtime_error)
        << "the runaway connection must be closed, not served";
  }
  Client polite = Client::connect_unix(config.unix_path);
  polite.ping();
  // Under the limit still works — the guard is about line length, not
  // total traffic.
  for (int i = 0; i < 32; ++i) polite.ping();
  polite.shutdown(false);
  serving.join();
}

/// Truncated frames (no trailing newline) and blank lines: the server
/// must buffer the partial line without replying, skip the blanks, and
/// survive the client vanishing mid-frame.
TEST_F(SvcTest, TruncatedFramesAndBlankLinesLeaveTheServerHealthy) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, config.unix_path.c_str(),
               sizeof addr.sun_path - 1);
  // Blank lines and a CRLF ping on one raw connection: exactly one
  // reply must come back (blank lines are skipped, not answered).
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const std::string frames = "\n\r\n" + ping_request() + "\r\n";
    ASSERT_EQ(::write(fd, frames.data(), frames.size()),
              static_cast<ssize_t>(frames.size()));
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    ASSERT_GT(n, 0);
    const std::string replies(buf, static_cast<std::size_t>(n));
    EXPECT_EQ(std::count(replies.begin(), replies.end(), '\n'), 1)
        << "one request in, one reply out: " << replies;
    ::close(fd);
  }
  // A half-written frame followed by a disappearing client.
  for (int i = 0; i < 4; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    const std::string partial = "{\"op\":\"sub";
    ASSERT_EQ(::write(fd, partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
    ::close(fd);  // gone mid-frame
  }
  Client client = Client::connect_unix(config.unix_path);
  client.ping();  // the daemon shrugged it all off
  client.shutdown(false);
  serving.join();
}

TEST_F(SvcTest, SignalStopCheckpointsAndExits) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  config.engine.journal_dir = path("journals");
  config.engine.sweep_jobs = 1;
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  std::uint64_t id = 0;
  {
    Client client = Client::connect_unix(config.unix_path);
    id = client.submit(tiny_spec("sig", 3));
    EXPECT_NE(id, 0u);
  }
  // What a SIGINT/SIGTERM handler does — poke the stop pipe.
  server.request_stop();
  serving.join();
  EXPECT_FALSE(fs::exists(config.unix_path));
  // The job is journaled, so whatever progress was made survives for
  // the next daemon; at minimum the header must exist.
  EXPECT_TRUE(fs::exists(server.engine().journal_path("sig")));
}

// ----------------------------------------------- streaming over the wire

TEST_F(SvcTest, StreamingResultsEndToEnd) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  config.engine.journal_dir = path("journals");
  config.engine.sweep_jobs = 1;
  config.engine.workers = 2;
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });
  {
    Client submitter = Client::connect_unix(config.unix_path);
    Client watcher = Client::connect_unix(config.unix_path);
    const JobSpec spec = tiny_spec("stream_e2e", 17);
    const std::uint64_t id = submitter.submit(spec);
    ASSERT_NE(id, 0u);

    // Subscribe from a second connection while the job runs: replayed
    // cells (if any) arrive first, live cells follow, then the end.
    std::vector<std::uint64_t> indices;
    const Client::StreamEnd end =
        watcher.stream_results(id, [&](const util::JsonValue& cell) {
          indices.push_back(cell.at("i").as_uint());
        });
    EXPECT_EQ(end.state, JobState::kDone) << end.error;
    std::sort(indices.begin(), indices.end());
    ASSERT_EQ(indices.size(), spec.cell_count()) << "every cell exactly once";
    for (std::size_t i = 0; i < spec.cell_count(); ++i)
      EXPECT_EQ(indices[i], i);
    watcher.ping();  // the connection is a plain request line after the end

    // Streaming a finished job replays the whole matrix from the engine's
    // log and ends immediately.
    std::size_t replayed = 0;
    const Client::StreamEnd again = submitter.stream_results(
        id, [&](const util::JsonValue&) { ++replayed; });
    EXPECT_EQ(again.state, JobState::kDone);
    EXPECT_EQ(replayed, spec.cell_count());

    EXPECT_THROW(submitter.stream_results(4242, nullptr), std::runtime_error)
        << "streaming an unknown job is a wire error";
    submitter.shutdown(true);
  }
  serving.join();
}

// ----------------------------------------------- slow-client protections

/// A client that requests large results and never reads must be dropped
/// at max_out_bytes — not buffered until the daemon OOMs (the unbounded
/// conn.out regression).
TEST_F(SvcTest, SlowReaderIsDroppedAtTheOutputCap) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  config.engine.sweep_jobs = 1;
  config.max_out_bytes = 16u << 10;  // trip the cap quickly
  config.sndbuf_bytes = 4096;        // and keep the kernel from hiding it
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  std::uint64_t id = 0;
  {
    Client client = Client::connect_unix(config.unix_path);
    id = client.submit(tiny_spec("hoard", 3));
    ASSERT_NE(id, 0u);
    EXPECT_EQ(client.wait(id, 120.0).state, JobState::kDone);
  }

  const int fd = raw_connect(config.unix_path);
  ASSERT_GE(fd, 0);
  const std::string request = results_request(id) + "\n";
  bool dropped = false;
  for (int i = 0; i < 4096 && !dropped; ++i) {
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) < 0)
      dropped = true;  // the server closed on us: EPIPE/ECONNRESET
    else if (i % 16 == 15)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::close(fd);
  EXPECT_TRUE(dropped)
      << "a reader that never drains its results must lose the connection";

  Client healthy = Client::connect_unix(config.unix_path);
  healthy.ping();  // only the hoarder paid; the daemon is fine
  healthy.shutdown(false);
  serving.join();
}

/// A response trickling through a tiny SO_SNDBUF must arrive byte-equal
/// to a greedily-read one: the offset-cursor drain (the O(n²) erase
/// regression) must neither drop nor duplicate bytes across partial
/// writes.
TEST_F(SvcTest, TrickledReaderGetsTheSameBytesAsAGreedyOne) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  config.engine.sweep_jobs = 1;
  config.sndbuf_bytes = 4096;  // forces many partial writes per response
  Server server(config);
  server.start();
  std::thread serving([&] { server.serve(); });

  std::uint64_t id = 0;
  {
    // 12 cells so the results payload outgrows SO_SNDBUF by a few times.
    JobSpec spec = tiny_spec("trickle", 3);
    spec.values = {"1", "2", "3", "4", "5", "6"};
    Client client = Client::connect_unix(config.unix_path);
    id = client.submit(spec);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(client.wait(id, 120.0).state, JobState::kDone);
  }

  const std::string request = results_request(id) + "\n";
  const auto fetch = [&](std::size_t chunk_bytes, int delay_us) {
    std::string response;
    const int fd = raw_connect(config.unix_path);
    if (fd < 0) return response;
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(request.size())) {
      ::close(fd);
      return response;
    }
    std::vector<char> buf(chunk_bytes);
    while (response.find('\n') == std::string::npos) {
      const ssize_t n = ::read(fd, buf.data(), buf.size());
      if (n <= 0) break;
      response.append(buf.data(), static_cast<std::size_t>(n));
      if (delay_us > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    ::close(fd);
    return response;
  };

  const std::string greedy = fetch(64u << 10, 0);
  ASSERT_GT(greedy.size(), 4096u)
      << "the payload must outgrow SO_SNDBUF or nothing trickles";
  const std::string trickled = fetch(256, 200);
  EXPECT_EQ(trickled, greedy);

  Client client = Client::connect_unix(config.unix_path);
  client.shutdown(false);
  serving.join();
}

// ----------------------------------------------- unix socket takeover

/// Starting a second daemon on a live socket must refuse — not unlink
/// the socket out from under the first daemon (the unconditional-unlink
/// regression).
TEST_F(SvcTest, SecondDaemonOnALiveSocketRefusesToStart) {
  ServerConfig config;
  config.unix_path = path("svc.sock");
  Server first(config);
  first.start();
  std::thread serving([&] { first.serve(); });
  {
    Server second(config);
    try {
      second.start();
      FAIL() << "the second daemon must refuse to start";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("another daemon"),
                std::string::npos)
          << e.what();
    }
  }
  // The refusal must have left the first daemon fully reachable.
  Client client = Client::connect_unix(config.unix_path);
  client.ping();
  client.shutdown(false);
  serving.join();
}

/// A socket file with nothing listening behind it (daemon SIGKILLed) is
/// stale: start() replaces it silently.
TEST_F(SvcTest, StaleSocketFileIsReplacedOnStart) {
  const std::string sock = path("svc.sock");
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(), sizeof addr.sun_path - 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);  // the file stays; nobody will ever accept on it
  }
  ASSERT_TRUE(fs::exists(sock));

  ServerConfig config;
  config.unix_path = sock;
  Server server(config);
  ASSERT_NO_THROW(server.start());
  std::thread serving([&] { server.serve(); });
  Client client = Client::connect_unix(sock);
  client.ping();
  client.shutdown(false);
  serving.join();
}

// ----------------------------------------------- configurable backlog

/// The listen(2) backlog is plumbed from ServerConfig (the hardcoded-16
/// regression): with backlog=1 a connect burst overflows while nobody
/// accepts; with the SOMAXCONN default the same burst fits.
TEST_F(SvcTest, ListenBacklogIsConfigurable) {
  {
    ServerConfig config;
    config.unix_path = path("default.sock");  // backlog 0 -> SOMAXCONN
    Server server(config);
    server.start();  // bound and listening; serve() never runs
    std::vector<int> fds;
    for (int i = 0; i < 16; ++i) {
      const int fd = raw_connect(config.unix_path, SOCK_NONBLOCK);
      EXPECT_GE(fd, 0) << "burst connect " << i
                       << " must fit a SOMAXCONN backlog: "
                       << std::strerror(errno);
      if (fd >= 0) fds.push_back(fd);
    }
    for (const int fd : fds) ::close(fd);
  }

  ServerConfig config;
  config.unix_path = path("tiny.sock");
  config.backlog = 1;
  Server server(config);
  server.start();
  int refused = 0;
  std::vector<int> fds;
  for (int i = 0; i < 16; ++i) {
    const int fd = raw_connect(config.unix_path, SOCK_NONBLOCK);
    if (fd < 0)
      ++refused;
    else
      fds.push_back(fd);
  }
  EXPECT_GT(refused, 0) << "backlog=1 must overflow on a 16-connect burst";

  // Once serve() starts accepting, the backlog drains and refused
  // clients simply retry.
  std::thread serving([&] { server.serve(); });
  for (const int fd : fds) ::close(fd);
  Client client = Client::connect_unix(config.unix_path);
  client.ping();
  client.shutdown(false);
  serving.join();
}

}  // namespace
}  // namespace tvp::svc
