// Tests for the v2 trace corpus (trace/corpus.hpp): the on-disk format,
// CorpusWriter, MmapSource replay, corruption rejection, the span API,
// and — the contract the whole record/replay pipeline stands on — that
// a replayed sweep is bit-identical to a generated one.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/exp/config_io.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/mitigation/trr.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/trace/source.hpp"
#include "tvp/util/crc32.hpp"
#include "tvp/util/rng.hpp"

namespace tvp::trace {
namespace {

namespace fs = std::filesystem;

// Unique temp path per test; removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("tvp_corpus_test_" + name + "_" +
                std::to_string(::getpid()) + ".tvpc"))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<AccessRecord> make_records(std::size_t count,
                                       std::uint64_t step_ps = 100) {
  std::vector<AccessRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AccessRecord r;
    r.time_ps = i * step_ps;
    r.bank = static_cast<dram::BankId>(i % 4);
    r.row = static_cast<dram::RowId>((i * 37) % 8192);
    r.write = (i % 3) == 0;
    r.is_attack = (i % 5) == 0;
    r.source = static_cast<SourceId>(i % 7);
    out.push_back(r);
  }
  return out;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------ round trips

TEST(Corpus, RoundTripPreservesRecordsAndOracle) {
  TempFile file("roundtrip");
  const auto records = make_records(1000);
  CorpusWriter::Options options;
  options.records_per_block = 64;  // force many blocks
  CorpusWriter writer(file.path(), options);
  writer.append(records.data(), records.size());
  writer.set_aggressors({42, 7, 42, 99});  // unsorted + duplicate
  writer.set_victims({8, 3, 8});
  const std::uint32_t identity = writer.close();
  EXPECT_NE(identity, 0u);

  const CorpusInfo info = read_corpus_info(file.path());
  EXPECT_EQ(info.total_records, records.size());
  EXPECT_EQ(info.footer_crc, identity);
  EXPECT_EQ(info.blocks.size(), (records.size() + 63) / 64);
  EXPECT_EQ(info.aggressors, (std::vector<std::uint64_t>{7, 42, 99}));
  EXPECT_EQ(info.victims, (std::vector<std::uint64_t>{3, 8}));
  EXPECT_EQ(info.blocks.front().min_time_ps, records.front().time_ps);
  EXPECT_EQ(info.blocks.back().max_time_ps, records.back().time_ps);

  EXPECT_EQ(read_corpus(file.path()), records);
}

TEST(Corpus, WriterIsDeterministic) {
  // Equal record streams must produce byte-equal files (the identity
  // hash and the journal depend on it) — in particular the struct tail
  // padding must not leak indeterminate bytes to disk.
  TempFile a("det_a");
  TempFile b("det_b");
  const auto records = make_records(257);
  EXPECT_EQ(write_corpus(a.path(), records), write_corpus(b.path(), records));
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(Corpus, EmptyCorpusRoundTrips) {
  TempFile file("empty");
  CorpusWriter writer(file.path());
  writer.close();
  const CorpusInfo info = verify_corpus(file.path());
  EXPECT_EQ(info.total_records, 0u);
  EXPECT_TRUE(info.blocks.empty());
  MmapSource source(file.path());
  EXPECT_FALSE(source.next().has_value());
}

TEST(Corpus, WriterRejectsTimeGoingBackwards) {
  TempFile file("backwards");
  CorpusWriter writer(file.path());
  AccessRecord r;
  r.time_ps = 100;
  writer.append(r);
  r.time_ps = 99;
  EXPECT_THROW(writer.append(r), std::invalid_argument);
}

TEST(Corpus, MmapSourceStreamsIdenticallyToEveryApi) {
  TempFile file("apis");
  const auto records = make_records(500);
  CorpusWriter::Options options;
  options.records_per_block = 100;
  write_corpus(file.path(), records, options);

  MmapSource by_next(file.path());
  std::vector<AccessRecord> via_next;
  while (auto r = by_next.next()) via_next.push_back(*r);
  EXPECT_EQ(via_next, records);

  MmapSource by_batch(file.path());
  std::vector<AccessRecord> via_batch(records.size());
  std::size_t got = 0;
  // An awkward batch size that straddles block boundaries.
  while (const std::size_t n =
             by_batch.next_batch(via_batch.data() + got, 77))
    got += n;
  via_batch.resize(got);
  EXPECT_EQ(via_batch, records);

  MmapSource by_span(file.path());
  ASSERT_TRUE(by_span.supports_spans());
  std::vector<AccessRecord> via_span;
  const AccessRecord* span = nullptr;
  while (const std::size_t n = by_span.next_span(&span))
    via_span.insert(via_span.end(), span, span + n);
  EXPECT_EQ(via_span, records);
}

TEST(Corpus, RewindReplaysIdentically) {
  TempFile file("rewind");
  const auto records = make_records(300);
  CorpusWriter::Options options;
  options.records_per_block = 128;
  write_corpus(file.path(), records, options);

  MmapSource source(file.path());
  const AccessRecord* span = nullptr;
  std::vector<AccessRecord> first;
  while (const std::size_t n = source.next_span(&span))
    first.insert(first.end(), span, span + n);
  source.rewind();  // second pass rides the trust-after-verify fast path
  std::vector<AccessRecord> second;
  while (const std::size_t n = source.next_span(&span))
    second.insert(second.end(), span, span + n);
  EXPECT_EQ(first, records);
  EXPECT_EQ(second, records);
}

// ------------------------------------------------------- corruption cases

TEST(Corpus, CorruptedBlockPayloadIsRejected) {
  TempFile file("corrupt_block");
  const auto records = make_records(200);
  CorpusWriter::Options options;
  options.records_per_block = 50;
  write_corpus(file.path(), records, options);

  // Flip one byte inside the third block's payload (row field of some
  // record): the footer still parses, the block CRC must catch it.
  const CorpusInfo info = read_corpus_info(file.path());
  ASSERT_GE(info.blocks.size(), 3u);
  auto bytes = slurp(file.path());
  const std::size_t victim =
      static_cast<std::size_t>(info.blocks[2].offset) + 40 + 12;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
  spit(file.path(), bytes);

  // Opening still succeeds (the footer is intact)...
  EXPECT_EQ(read_corpus_info(file.path()).total_records, records.size());
  // ...but touching the corrupt block reports it precisely.
  try {
    verify_corpus(file.path());
    FAIL() << "corrupt block not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("block 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
  }
}

TEST(Corpus, TruncatedFooterIsRejected) {
  TempFile file("trunc_footer");
  write_corpus(file.path(), make_records(100));
  auto bytes = slurp(file.path());
  // Chop 16 bytes out of the middle: the trailer magic is gone.
  bytes.resize(bytes.size() - 16);
  spit(file.path(), bytes);
  EXPECT_THROW(read_corpus_info(file.path()), std::runtime_error);
  EXPECT_THROW(MmapSource{file.path()}, std::runtime_error);
}

TEST(Corpus, TamperedFooterIsRejected) {
  TempFile file("tamper_footer");
  write_corpus(file.path(), make_records(100));
  auto bytes = slurp(file.path());
  // Corrupt a footer byte but leave the trailer intact: the footer CRC
  // in the trailer must catch it.
  bytes[bytes.size() - 24 - 4] ^= 0x01;
  spit(file.path(), bytes);
  try {
    read_corpus_info(file.path());
    FAIL() << "tampered footer not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("footer CRC"), std::string::npos)
        << e.what();
  }
}

TEST(Corpus, NotACorpusIsRejected) {
  TempFile file("not_a_corpus");
  std::ofstream(file.path()) << "definitely not a corpus, far too short";
  EXPECT_THROW(read_corpus_info(file.path()), std::runtime_error);
  std::ofstream(file.path(), std::ios::trunc)
      << std::string(4096, 'x');  // long enough, wrong magic
  EXPECT_THROW(read_corpus_info(file.path()), std::runtime_error);
}

TEST(Corpus, HeaderMarksAWriterThatWasGivenNoOracle) {
  // Flag bit 0 at header offset 12 means "no oracle": set exactly when
  // neither set_aggressors nor set_victims was called. An empty oracle
  // (a benign-only recording) is still an oracle.
  const auto records = make_records(300);
  TempFile bare("oracle_none");
  write_corpus(bare.path(), records);
  EXPECT_FALSE(read_corpus_info(bare.path()).oracle);
  EXPECT_EQ(slurp(bare.path())[12], 1);
  EXPECT_EQ(read_corpus(bare.path()), records);

  for (const bool victims : {false, true}) {
    TempFile given(victims ? "oracle_victims" : "oracle_aggressors");
    CorpusWriter writer(given.path());
    writer.append(records.data(), records.size());
    if (victims)
      writer.set_victims({});
    else
      writer.set_aggressors({});
    writer.close();
    EXPECT_TRUE(read_corpus_info(given.path()).oracle);
    const auto bytes = slurp(given.path());
    EXPECT_TRUE(std::all_of(bytes.begin() + 12, bytes.begin() + 32,
                            [](char c) { return c == 0; }));
    // The flag is all the two files differ in: same blocks, same footer.
    auto unmarked = slurp(bare.path());
    unmarked[12] = 0;
    EXPECT_EQ(bytes, unmarked);
  }
}

TEST(Corpus, UnknownHeaderFlagOrReservedByteIsRejected) {
  TempFile file("header_flags");
  write_corpus(file.path(), make_records(64));
  const auto clean = slurp(file.path());
  const std::pair<std::size_t, const char*> cases[] = {
      {12, "unknown header flags 3"},  // bit 1 next to the oracle bit
      {16, "reserved header byte 16 is not zero"},
      {31, "reserved header byte 31 is not zero"},
  };
  for (const auto& [at, message] : cases) {
    SCOPED_TRACE(message);
    auto bytes = clean;
    bytes[at] = static_cast<char>(bytes[at] | 2);
    spit(file.path(), bytes);
    try {
      read_corpus_info(file.path());
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(Corpus, ZstdCodecIsRejectedByName) {
  // Codec 1 is reserved for zstd-compressed blocks, which this reader
  // does not decode: a corpus claiming it must be refused precisely,
  // naming the block and the codec, not reported as generic corruption.
  TempFile file("zstd_codec");
  write_corpus(file.path(), make_records(128));
  const CorpusInfo info = read_corpus_info(file.path());
  ASSERT_FALSE(info.blocks.empty());

  // Footer entry 0's codec field, then a recomputed footer CRC so the
  // footer itself still checks out.
  auto bytes = slurp(file.path());
  const std::size_t trailer = bytes.size() - 24;
  auto load = [&](std::size_t at, int width) {
    std::uint64_t v = 0;
    for (int k = width - 1; k >= 0; --k)
      v = (v << 8) | static_cast<unsigned char>(bytes[at + k]);
    return v;
  };
  const std::size_t footer = static_cast<std::size_t>(load(trailer, 8));
  const std::size_t footer_bytes = static_cast<std::size_t>(load(trailer + 8, 4));
  const std::size_t codec_at = footer + 32 + 20;  // footer head + entry field
  ASSERT_EQ(load(codec_at, 4), 0u);
  bytes[codec_at] = 1;  // CorpusCodec::kZstd
  const std::uint32_t crc = util::crc32(bytes.data() + footer, footer_bytes);
  for (int k = 0; k < 4; ++k)
    bytes[trailer + 12 + k] = static_cast<char>((crc >> (8 * k)) & 0xFF);
  spit(file.path(), bytes);

  auto expect_named = [](const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("block 0"), std::string::npos) << what;
    EXPECT_NE(what.find("zstd"), std::string::npos) << what;
  };
  try {
    read_corpus_info(file.path());
    FAIL() << "zstd block not rejected by read_corpus_info";
  } catch (const std::runtime_error& e) {
    expect_named(e);
  }
  try {
    MmapSource source(file.path());
    FAIL() << "zstd block not rejected by MmapSource";
  } catch (const std::runtime_error& e) {
    expect_named(e);
  }
}

// ----------------------------------------------- replay == generation

// The pipeline's reason to exist: record once, then replay through the
// full simulation and get bit-identical results — stats, FPR ground
// truth (driven by the corpus-carried aggressor oracle), and the exact
// flip history — for every technique. Named *BitIdentical* so the CI
// determinism job (TVP_JOBS=1 vs 8) exercises it too.
// A deliberately tiny system, mirroring exp_test's batch-equivalence
// config: real tREFI shape, scaled thresholds so deterministic
// techniques trigger and flips land within the short run.
exp::SimConfig small_attacked_config() {
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 4;
  cfg.geometry.rows_per_bank = 16384;
  cfg.timing.t_refw_ps = 2'000'000'000;  // 2 ms window
  cfg.timing.refresh_intervals = 256;    // keeps tREFI at ~7.8 us
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  cfg.technique.flip_threshold = 4000;
  cfg.disturbance.flip_threshold = 3000;
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  attack.interarrival_ps = 180'000;  // 4 * tRC: ~11 K attack ACTs
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();
  return cfg;
}

void expect_identical_runs(const exp::RunResult& gen, const exp::RunResult& rep) {
  EXPECT_EQ(gen.records, rep.records);
  EXPECT_EQ(gen.stats.demand_acts, rep.stats.demand_acts);
  EXPECT_EQ(gen.stats.extra_acts, rep.stats.extra_acts);
  EXPECT_EQ(gen.stats.fp_extra_acts, rep.stats.fp_extra_acts);
  EXPECT_EQ(gen.stats.triggers, rep.stats.triggers);
  EXPECT_EQ(gen.stats.reads, rep.stats.reads);
  EXPECT_EQ(gen.stats.writes, rep.stats.writes);
  EXPECT_EQ(gen.stats.delayed_acts, rep.stats.delayed_acts);
  EXPECT_EQ(gen.stats.first_extra_act_at, rep.stats.first_extra_act_at);
  EXPECT_EQ(gen.stats.extra_acts_by_phase, rep.stats.extra_acts_by_phase);
  EXPECT_EQ(gen.flips, rep.flips);
  EXPECT_EQ(gen.victim_flips, rep.victim_flips);
  EXPECT_EQ(gen.peak_disturbance, rep.peak_disturbance);
  ASSERT_EQ(gen.flip_events.size(), rep.flip_events.size());
  for (std::size_t i = 0; i < gen.flip_events.size(); ++i) {
    EXPECT_EQ(gen.flip_events[i].bank, rep.flip_events[i].bank) << "flip " << i;
    EXPECT_EQ(gen.flip_events[i].row, rep.flip_events[i].row) << "flip " << i;
    EXPECT_EQ(gen.flip_events[i].at_activation, rep.flip_events[i].at_activation)
        << "flip " << i;
    EXPECT_EQ(gen.flip_events[i].interval, rep.flip_events[i].interval)
        << "flip " << i;
  }
}

TEST(CorpusReplay, EveryTechniqueReplayIsBitIdenticalToGenerated) {
  const exp::SimConfig cfg = small_attacked_config();

  TempFile file("replay_equiv");
  exp::record_corpus(cfg, file.path());

  exp::SimConfig replay_cfg = cfg;
  replay_cfg.workload.model = exp::BenignModel::kReplay;
  replay_cfg.workload.trace_path = file.path();
  replay_cfg.workload.attacks.clear();  // the corpus already has them
  replay_cfg.finalize();

  {
    SCOPED_TRACE("none");
    const auto none = [](dram::BankId, util::Rng) {
      return std::make_unique<mem::NoMitigation>();
    };
    expect_identical_runs(exp::run_custom_simulation(none, "none", cfg),
                          exp::run_custom_simulation(none, "none", replay_cfg));
  }
  for (const auto technique : hw::kAllTechniques) {
    SCOPED_TRACE(std::string(hw::to_string(technique)));
    expect_identical_runs(exp::run_simulation(technique, cfg),
                          exp::run_simulation(technique, replay_cfg));
  }
}

TEST(CorpusReplay, ReplayedParamSweepIsBitIdenticalToGenerated) {
  // Same contract one layer up, through the sweep engine the campaign
  // service drives: a sweep over a replay config equals the generated
  // sweep cell for cell (this is what a --trace campaign runs).
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 8.0;
  trace::AttackConfig attack;
  attack.victims = {2000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();

  TempFile file("sweep_equiv");
  exp::record_corpus(cfg, file.path());

  const util::KeyValueFile gen_base =
      util::KeyValueFile::parse(exp::to_config_text(cfg));
  util::KeyValueFile rep_base = gen_base;
  rep_base.set("workload.model", "replay");
  rep_base.set("workload.trace", file.path());
  rep_base.set("attack.count", "0");  // attacks live in the corpus now

  const std::vector<std::string> values = {"14", "15"};
  const std::vector<hw::Technique> techniques = {hw::Technique::kPara,
                                                 hw::Technique::kLiPRoMi};
  const exp::SweepResult gen = exp::run_param_sweep(
      gen_base, "technique.pbase_exp", values, techniques);
  const exp::SweepResult rep = exp::run_param_sweep(
      rep_base, "technique.pbase_exp", values, techniques);

  ASSERT_EQ(gen.cells.size(), rep.cells.size());
  for (std::size_t i = 0; i < gen.cells.size(); ++i) {
    SCOPED_TRACE(gen.cells[i].technique + " @ " + gen.cells[i].value);
    const exp::RunResult& g = gen.cells[i].result;
    const exp::RunResult& r = rep.cells[i].result;
    EXPECT_EQ(g.stats.demand_acts, r.stats.demand_acts);
    EXPECT_EQ(g.stats.extra_acts, r.stats.extra_acts);
    EXPECT_EQ(g.stats.fp_extra_acts, r.stats.fp_extra_acts);
    EXPECT_EQ(g.stats.triggers, r.stats.triggers);
    EXPECT_EQ(g.flips, r.flips);
    EXPECT_EQ(g.victim_flips, r.victim_flips);
  }
}

TEST(CorpusReplay, ReplayConfigRoundTripsThroughConfigText) {
  exp::SimConfig cfg;
  cfg.workload.model = exp::BenignModel::kReplay;
  cfg.workload.trace_path = "/tmp/some.tvpc";
  const std::string text = exp::to_config_text(cfg);
  exp::SimConfig parsed;
  exp::apply_config(parsed, util::KeyValueFile::parse(text));
  EXPECT_EQ(parsed.workload.model, exp::BenignModel::kReplay);
  EXPECT_EQ(parsed.workload.trace_path, "/tmp/some.tvpc");
}

TEST(CorpusReplay, ReplayWithoutTracePathIsRejected) {
  exp::SimConfig cfg;
  cfg.workload.model = exp::BenignModel::kReplay;
  EXPECT_THROW(cfg.finalize(), std::invalid_argument);
}

TEST(CorpusReplay, RecordCorpusStoresTheAggressorOracle) {
  exp::SimConfig cfg;
  cfg.geometry.banks_per_rank = 2;
  cfg.windows = 1;
  cfg.workload.benign_acts_per_interval_per_bank = 5.0;
  trace::AttackConfig attack;
  attack.victims = {1000, 5000};
  attack.rows_per_bank = cfg.geometry.rows_per_bank;
  cfg.workload.attacks.push_back(attack);
  cfg.finalize();

  TempFile file("oracle");
  exp::record_corpus(cfg, file.path());

  // The stored oracle equals the generation-time ground truth.
  std::unordered_set<std::uint64_t> expected;
  exp::Streams streams(cfg.seed);
  exp::build_workload(cfg, streams.workload, &expected);
  const CorpusInfo info = read_corpus_info(file.path());
  EXPECT_EQ(info.aggressors.size(), expected.size());
  for (const auto key : info.aggressors) EXPECT_TRUE(expected.count(key));
  // The declared victims (bank 0, logical rows) ride along too.
  EXPECT_EQ(info.victims, (std::vector<std::uint64_t>{1000, 5000}));
}

// ------------------------------------------------- partition index (lanes)

TEST(Corpus, PartitionedSpanLanesReconstructTheSpan) {
  TempFile file("lanes");
  const auto records = make_records(500);  // banks cycle 0..3
  CorpusWriter::Options options;
  options.records_per_block = 100;
  options.partition_banks = 4;
  write_corpus(file.path(), records, options);

  const CorpusInfo info = read_corpus_info(file.path());
  EXPECT_EQ(info.partition_banks, 4u);
  ASSERT_EQ(info.partitions.size(), info.blocks.size());

  MmapSource source(file.path());
  std::vector<AccessRecord> all;
  const AccessRecord* span = nullptr;
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  while (const std::size_t n = source.span_lanes(&span, &lanes, &lane_banks)) {
    ASSERT_NE(lanes, nullptr);
    ASSERT_EQ(lane_banks, 4u);
    // Scatter the lanes back through their serials: the rebuilt span
    // must equal the record span field for field.
    std::vector<AccessRecord> rebuilt(n);
    std::vector<bool> covered(n, false);
    for (std::size_t b = 0; b < lane_banks; ++b) {
      const BankLaneView& lane = lanes[b];
      dram::RowId max_row = 0;
      for (std::size_t k = 0; k < lane.count; ++k) {
        const std::size_t at = lane.serials[k];
        ASSERT_LT(at, n);
        ASSERT_FALSE(covered[at]);
        covered[at] = true;
        rebuilt[at].time_ps = lane.times[k];
        rebuilt[at].bank = static_cast<dram::BankId>(b);
        rebuilt[at].row = lane.rows[k];
        rebuilt[at].write = lane.writes[k] != 0;
        max_row = std::max(max_row, lane.rows[k]);
      }
      EXPECT_EQ(lane.max_row, max_row);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(covered[i]);
      EXPECT_EQ(rebuilt[i].time_ps, span[i].time_ps);
      EXPECT_EQ(rebuilt[i].bank, span[i].bank);
      EXPECT_EQ(rebuilt[i].row, span[i].row);
      EXPECT_EQ(rebuilt[i].write, span[i].write);
    }
    all.insert(all.end(), span, span + n);
  }
  EXPECT_EQ(all, records);
}

TEST(Corpus, UnpartitionedCorpusOffersNoLanes) {
  // A corpus written without a partition index (every pre-extension
  // corpus) must replay through span_lanes with null lanes — the
  // consumer re-partitions — and identical records.
  TempFile file("no_lanes");
  const auto records = make_records(300);
  write_corpus(file.path(), records);  // default: no partition index
  EXPECT_EQ(read_corpus_info(file.path()).partition_banks, 0u);

  MmapSource source(file.path());
  std::vector<AccessRecord> all;
  const AccessRecord* span = nullptr;
  const BankLaneView* lanes = reinterpret_cast<const BankLaneView*>(&all);
  std::size_t lane_banks = 99;
  while (const std::size_t n = source.span_lanes(&span, &lanes, &lane_banks)) {
    EXPECT_EQ(lanes, nullptr);
    EXPECT_EQ(lane_banks, 0u);
    all.insert(all.end(), span, span + n);
  }
  EXPECT_EQ(all, records);
}

TEST(Corpus, PartitionedWriterIsDeterministic) {
  TempFile a("pdet_a");
  TempFile b("pdet_b");
  const auto records = make_records(257);
  CorpusWriter::Options options;
  options.records_per_block = 64;
  options.partition_banks = 4;
  EXPECT_EQ(write_corpus(a.path(), records, options),
            write_corpus(b.path(), records, options));
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(Corpus, PartitionedWriterRejectsOutOfRangeBank) {
  TempFile file("pbank");
  CorpusWriter::Options options;
  options.partition_banks = 2;
  CorpusWriter writer(file.path(), options);
  AccessRecord r;
  r.bank = 2;  // lanes cover banks [0, 2)
  EXPECT_THROW(writer.append(r), std::invalid_argument);
}

TEST(Corpus, CorruptedPartitionSectionIsRejectedPrecisely) {
  TempFile file("corrupt_lanes");
  const auto records = make_records(400);
  CorpusWriter::Options options;
  options.records_per_block = 100;
  options.partition_banks = 4;
  write_corpus(file.path(), records, options);

  // Flip one byte inside the second block's partition region: the
  // record payloads and the footer stay intact.
  const CorpusInfo info = read_corpus_info(file.path());
  ASSERT_GE(info.partitions.size(), 2u);
  auto bytes = slurp(file.path());
  const std::size_t victim =
      static_cast<std::size_t>(info.partitions[1].offset) +
      info.partitions[1].bytes / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x20);
  spit(file.path(), bytes);

  // The records themselves still replay (their CRCs are untouched)...
  {
    MmapSource source(file.path());
    std::size_t n = 0;
    while (source.next()) ++n;
    EXPECT_EQ(n, records.size());
  }
  // ...but a corpus that advertises a partition index must carry a
  // correct one: the lane path reports the damage precisely instead of
  // silently falling back to re-partitioning.
  MmapSource source(file.path());
  const AccessRecord* span = nullptr;
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  try {
    while (source.span_lanes(&span, &lanes, &lane_banks)) {
    }
    FAIL() << "corrupt partition section not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("block 1 partition"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(verify_corpus(file.path()), std::runtime_error);
}

TEST(Corpus, PartitionedReplayFeedsLanesWithoutScatter) {
  // The point of carrying the partition index: a replayed corpus feeds
  // the controller's per-bank lanes zero-copy. The always-on profile
  // counters are the proof — every ACT arrives partitioned, none are
  // scattered — and the stats must equal the scatter path's.
  TempFile file("lane_feed");
  const auto records = make_records(600);
  CorpusWriter::Options options;
  options.records_per_block = 128;
  options.partition_banks = 4;
  write_corpus(file.path(), records, options);

  mem::ControllerConfig cfg;
  cfg.geometry.banks_per_rank = 4;
  cfg.geometry.rows_per_bank = 8192;
  const auto none = [](dram::BankId, util::Rng) {
    return std::make_unique<mem::NoMitigation>();
  };
  const auto run = [&](bool partitioned) {
    util::Rng rng{7};
    mem::MitigationEngine engine(cfg.geometry.total_banks(), none, rng);
    dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                       cfg.geometry.rows_per_bank);
    mem::MemoryController controller(cfg, engine, disturbance, rng);
    MmapSource source(file.path());
    const AccessRecord* span = nullptr;
    const BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    while (const std::size_t n =
               source.span_lanes(&span, &lanes, &lane_banks)) {
      if (partitioned) {
        EXPECT_NE(lanes, nullptr);
        controller.on_records_partitioned(span, n, lanes, lane_banks);
      } else {
        controller.on_records(span, n);
      }
    }
    return std::pair{controller.stats().demand_acts,
                     controller.stage_profile()};
  };
  const auto [acts_lanes, profile_lanes] = run(true);
  const auto [acts_scatter, profile_scatter] = run(false);
  EXPECT_EQ(acts_lanes, records.size());
  EXPECT_EQ(acts_scatter, records.size());
  EXPECT_EQ(profile_lanes.partitioned_acts, records.size());
  EXPECT_EQ(profile_lanes.scattered_acts, 0u);
  EXPECT_EQ(profile_scatter.partitioned_acts, 0u);
  EXPECT_EQ(profile_scatter.scattered_acts, records.size());
}

TEST(CorpusReplay, UnpartitionedCorpusReplaysBitIdenticallyViaFallback) {
  // Pre-extension corpora carry no partition index; replaying one must
  // produce bit-identical results to replaying the partitioned recording
  // of the same workload (the controller re-partitions the spans).
  const exp::SimConfig cfg = small_attacked_config();

  TempFile with_lanes("fallback_lanes");
  exp::record_corpus(cfg, with_lanes.path());  // partitioned by default
  const CorpusInfo info = read_corpus_info(with_lanes.path());
  ASSERT_GT(info.partition_banks, 0u);

  // Rewrite the same records + oracle without the partition index.
  TempFile without_lanes("fallback_flat");
  {
    const auto records = read_corpus(with_lanes.path());
    CorpusWriter writer(without_lanes.path());
    writer.append(records.data(), records.size());
    writer.set_aggressors(info.aggressors);
    writer.set_victims(info.victims);
    writer.close();
  }
  ASSERT_EQ(read_corpus_info(without_lanes.path()).partition_banks, 0u);

  const auto replay_cfg = [&](const std::string& path) {
    exp::SimConfig c = cfg;
    c.workload.model = exp::BenignModel::kReplay;
    c.workload.trace_path = path;
    c.workload.attacks.clear();
    c.finalize();
    return c;
  };
  const exp::SimConfig lanes_cfg = replay_cfg(with_lanes.path());
  const exp::SimConfig flat_cfg = replay_cfg(without_lanes.path());
  for (const auto technique :
       {hw::Technique::kPara, hw::Technique::kTwice, hw::Technique::kCaPRoMi}) {
    SCOPED_TRACE(std::string(hw::to_string(technique)));
    expect_identical_runs(exp::run_simulation(technique, lanes_cfg),
                          exp::run_simulation(technique, flat_cfg));
  }
}

TEST(CorpusReplay, RewritingARecordedCorpusReproducesItsBlocks) {
  // A recorded corpus read back and written again with the same options
  // must lay out the same blocks and partition regions: the layout is a
  // function of the record stream and the options alone.
  exp::SimConfig cfg = small_attacked_config();
  cfg.geometry.banks_per_rank = 2;
  cfg.finalize();
  CorpusWriter::Options options;
  options.records_per_block = 512;
  options.partition_banks = cfg.geometry.total_banks();

  TempFile recorded("rewrite_recorded");
  exp::record_corpus(cfg, recorded.path(), options);
  TempFile rewritten("rewrite_again");
  write_corpus(rewritten.path(), read_corpus(recorded.path()), options);

  const CorpusInfo a = read_corpus_info(recorded.path());
  const CorpusInfo b = read_corpus_info(rewritten.path());
  ASSERT_EQ(a.partition_banks, 2u);
  ASSERT_GT(a.blocks.size(), 1u);
  EXPECT_EQ(b.partition_banks, a.partition_banks);
  EXPECT_EQ(b.total_records, a.total_records);
  ASSERT_EQ(b.blocks.size(), a.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    SCOPED_TRACE("block " + std::to_string(i));
    EXPECT_EQ(b.blocks[i].offset, a.blocks[i].offset);
    EXPECT_EQ(b.blocks[i].records, a.blocks[i].records);
    EXPECT_EQ(b.blocks[i].crc, a.blocks[i].crc);
    EXPECT_EQ(b.blocks[i].min_time_ps, a.blocks[i].min_time_ps);
    EXPECT_EQ(b.blocks[i].max_time_ps, a.blocks[i].max_time_ps);
  }
  ASSERT_EQ(b.partitions.size(), a.partitions.size());
  for (std::size_t i = 0; i < a.partitions.size(); ++i) {
    SCOPED_TRACE("partition " + std::to_string(i));
    EXPECT_EQ(b.partitions[i].offset, a.partitions[i].offset);
    EXPECT_EQ(b.partitions[i].crc, a.partitions[i].crc);
  }
}

// ------------------------------------------- the order proof on first touch

std::uint64_t get_le(const std::vector<char>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int k = width - 1; k >= 0; --k)
    v = (v << 8) | static_cast<unsigned char>(bytes[at + k]);
  return v;
}

void put_le(std::vector<char>& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int k = 0; k < width; ++k)
    bytes[at + k] = static_cast<char>((v >> (8 * k)) & 0xFF);
}

/// Rewrites block @p k of the corpus image @p bytes (described by
/// @p info) to hold @p records (the block's count) under the footer
/// time range [@p min_ps, @p max_ps], re-encodes its partition lanes
/// when the corpus has them (from @p lane_records if given, else from
/// @p records), and re-stamps every CRC over what changed (block header
/// and index entry, partition frame, footer). Every frame then checks
/// out; only the records' order, the index's time range or the lanes'
/// agreement with the records can be wrong.
void restamp_block(std::vector<char>& bytes, const CorpusInfo& info,
                   std::size_t k, const std::vector<AccessRecord>& records,
                   std::uint64_t min_ps, std::uint64_t max_ps,
                   const std::vector<AccessRecord>* lane_records = nullptr) {
  const CorpusBlockInfo& block = info.blocks[k];
  ASSERT_EQ(records.size(), block.records);
  const std::size_t n = records.size();
  const std::size_t payload = static_cast<std::size_t>(block.offset) + 40;
  for (std::size_t i = 0; i < n; ++i) {
    char* slot = bytes.data() + payload + i * 24;
    std::memcpy(slot, &records[i], 19);
    std::memset(slot + 19, 0, 5);
  }
  const std::uint32_t crc = util::crc32(bytes.data() + payload, n * 24);
  put_le(bytes, static_cast<std::size_t>(block.offset) + 16, min_ps, 8);
  put_le(bytes, static_cast<std::size_t>(block.offset) + 24, max_ps, 8);
  put_le(bytes, static_cast<std::size_t>(block.offset) + 32, crc, 4);

  const std::size_t trailer = bytes.size() - 24;
  const std::size_t footer = static_cast<std::size_t>(get_le(bytes, trailer, 8));
  const std::size_t footer_bytes =
      static_cast<std::size_t>(get_le(bytes, trailer + 8, 4));
  const std::size_t entry = footer + 32 + k * 48;
  put_le(bytes, entry + 24, crc, 4);
  put_le(bytes, entry + 32, min_ps, 8);
  put_le(bytes, entry + 40, max_ps, 8);

  if (info.partition_banks != 0) {
    // The writer's lane layout: per-bank counts (padded to 8 bytes),
    // then the time, row, serial and write columns, bank after bank.
    const std::vector<AccessRecord>& lane =
        lane_records != nullptr ? *lane_records : records;
    const std::uint32_t banks = info.partition_banks;
    const CorpusPartitionInfo& frame = info.partitions[k];
    const std::size_t counts = static_cast<std::size_t>(frame.offset);
    const std::size_t times = counts + (banks * 4 + 7) / 8 * 8;
    const std::size_t rows = times + n * 8;
    const std::size_t serials = rows + n * 4;
    const std::size_t writes = serials + n * 4;
    std::size_t at = 0;
    for (std::uint32_t b = 0; b < banks; ++b) {
      std::uint32_t count = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (lane[i].bank != b) continue;
        put_le(bytes, times + at * 8, lane[i].time_ps, 8);
        put_le(bytes, rows + at * 4, lane[i].row, 4);
        put_le(bytes, serials + at * 4, i, 4);
        bytes[writes + at] = lane[i].write ? 1 : 0;
        ++at;
        ++count;
      }
      put_le(bytes, counts + b * 4, count, 4);
    }
    const std::size_t frame_at = footer + 32 + info.blocks.size() * 48 +
                                 (info.aggressors.size() + info.victims.size()) * 8 +
                                 8 + k * 16;
    put_le(bytes, frame_at + 12,
           util::crc32(bytes.data() + counts, std::size_t{frame.bytes}), 4);
  }
  put_le(bytes, trailer + 12, util::crc32(bytes.data() + footer, footer_bytes), 4);
}

/// Both read paths must reject @p path on the first touch of its bad
/// block with an error that contains @p what (which names the block):
/// span_lanes (with the lanes when the corpus has them) and next_batch
/// (which never reads the lanes). The blocks before it replay.
void expect_rejected_on_first_touch(const std::string& path,
                                    const std::string& what,
                                    std::size_t records_before) {
  {
    MmapSource source(path);
    const AccessRecord* span = nullptr;
    const BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    std::size_t replayed = 0;
    try {
      while (const std::size_t n = source.span_lanes(&span, &lanes, &lane_banks))
        replayed += n;
      ADD_FAILURE() << "span_lanes accepted the corpus";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
    EXPECT_EQ(replayed, records_before);
  }
  {
    MmapSource source(path);
    std::vector<AccessRecord> batch(33);
    std::size_t replayed = 0;
    try {
      while (const std::size_t n = source.next_batch(batch.data(), batch.size()))
        replayed += n;
      ADD_FAILURE() << "next_batch accepted the corpus";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    }
    EXPECT_LE(replayed, records_before);
  }
  EXPECT_THROW(verify_corpus(path), std::runtime_error);
}

/// Writes four blocks of @p per_block records (with or without a
/// partition index), then lets @p corrupt rewrite block 2 through
/// restamp_block.
template <typename Corrupt>
void write_and_corrupt(const std::string& path, std::uint32_t partition_banks,
                       Corrupt&& corrupt, std::size_t per_block = 100) {
  const auto records = make_records(4 * per_block);
  CorpusWriter::Options options;
  options.records_per_block = per_block;
  options.partition_banks = partition_banks;
  write_corpus(path, records, options);
  const CorpusInfo info = read_corpus_info(path);
  ASSERT_EQ(info.blocks.size(), 4u);
  std::vector<AccessRecord> block(records.begin() + 2 * per_block,
                                  records.begin() + 3 * per_block);
  auto bytes = slurp(path);
  corrupt(bytes, info, block);
  spit(path, bytes);
  // The frames all check out: the footer parses.
  EXPECT_EQ(read_corpus_info(path).total_records, records.size());
}

TEST(Corpus, SwappedRecordsAreRejectedOnFirstTouch) {
  // At 4096 records per block the swapped pair straddles the 2048-record
  // chunks the reader CRCs and sweeps a block in.
  for (const std::size_t per_block : {std::size_t{100}, std::size_t{4096}})
    for (const std::uint32_t banks : {0u, 4u}) {
      SCOPED_TRACE("partition banks " + std::to_string(banks) + ", " +
                   std::to_string(per_block) + " records per block");
      TempFile file("order_swap_" + std::to_string(banks) + "_" +
                    std::to_string(per_block));
      const std::size_t at = per_block == 100 ? 40 : 2047;
      write_and_corrupt(
          file.path(), banks,
          [at](std::vector<char>& bytes, const CorpusInfo& info,
               std::vector<AccessRecord>& block) {
            // Two records in the middle trade places; the block's first
            // and last stay, so the footer's time range still holds.
            std::swap(block[at], block[at + 1]);
            restamp_block(bytes, info, 2, block, info.blocks[2].min_time_ps,
                          info.blocks[2].max_time_ps);
          },
          per_block);
      expect_rejected_on_first_touch(
          file.path(), "block 2 records are not time-ordered", 2 * per_block);
    }
}

TEST(Corpus, BlockStartingBeforeThePreviousBlockEndsIsRejectedOnFirstTouch) {
  for (const std::uint32_t banks : {0u, 4u}) {
    SCOPED_TRACE("partition banks " + std::to_string(banks));
    TempFile file("order_overlap_" + std::to_string(banks));
    write_and_corrupt(file.path(), banks,
                      [](std::vector<char>& bytes, const CorpusInfo& info,
                         std::vector<AccessRecord>& block) {
                        // Block 2's first record moves just before block
                        // 1's last; the block still ascends and the
                        // footer's min follows it.
                        block[0].time_ps = info.blocks[1].max_time_ps - 1;
                        restamp_block(bytes, info, 2, block, block[0].time_ps,
                                      info.blocks[2].max_time_ps);
                      });
    expect_rejected_on_first_touch(
        file.path(), "block 2 records are not time-ordered across blocks", 200);
  }
}

TEST(Corpus, FooterTimeRangeDisagreeingWithTheRecordsIsRejectedOnFirstTouch) {
  for (const std::uint32_t banks : {0u, 4u})
    for (const bool at_min : {true, false}) {
      SCOPED_TRACE("partition banks " + std::to_string(banks) +
                   (at_min ? ", min" : ", max"));
      TempFile file("order_range_" + std::to_string(banks) +
                    (at_min ? "_min" : "_max"));
      write_and_corrupt(file.path(), banks,
                        [at_min](std::vector<char>& bytes, const CorpusInfo& info,
                                 std::vector<AccessRecord>& block) {
                          // Records untouched; the index claims a range
                          // one picosecond narrower than they span.
                          const CorpusBlockInfo& b = info.blocks[2];
                          restamp_block(bytes, info, 2, block,
                                        b.min_time_ps + (at_min ? 1 : 0),
                                        b.max_time_ps - (at_min ? 0 : 1));
                        });
      expect_rejected_on_first_touch(
          file.path(), "block 2 time range disagrees with the footer index", 200);
    }
}

TEST(Corpus, LaneDisagreeingWithItsRecordIsRejectedOnFirstTouch) {
  // The lane path's cross-check: a partition element that restates its
  // record wrongly, under a valid region CRC, fails span_lanes and
  // verify_corpus, while next_batch and read_corpus (which never read
  // the lanes) return every record.
  for (const int field : {0, 1, 2}) {
    SCOPED_TRACE("field " + std::to_string(field));
    TempFile file("lane_field_" + std::to_string(field));
    write_and_corrupt(file.path(), 4,
                      [field](std::vector<char>& bytes, const CorpusInfo& info,
                              std::vector<AccessRecord>& block) {
                        std::vector<AccessRecord> lanes = block;
                        if (field == 0) lanes[50].row ^= 1;
                        if (field == 1) lanes[50].write = !lanes[50].write;
                        if (field == 2) lanes[50].bank = (lanes[50].bank + 1) % 4;
                        restamp_block(bytes, info, 2, block,
                                      info.blocks[2].min_time_ps,
                                      info.blocks[2].max_time_ps, &lanes);
                      });
    MmapSource source(file.path());
    const AccessRecord* span = nullptr;
    const BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    try {
      while (source.span_lanes(&span, &lanes, &lane_banks) != 0) {
      }
      ADD_FAILURE() << "span_lanes accepted the lanes";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "block 2 partition lane disagrees with its records"),
                std::string::npos)
          << e.what();
    }
    MmapSource by_batch(file.path());
    std::vector<AccessRecord> replayed(400);
    std::size_t got = 0;
    while (const std::size_t n = by_batch.next_batch(replayed.data() + got, 64))
      got += n;
    replayed.resize(got);
    EXPECT_EQ(replayed, make_records(400));
    // read_corpus reads the records alone, like next_batch; the full
    // verification still reaches the lane.
    EXPECT_EQ(read_corpus(file.path()), make_records(400));
    EXPECT_THROW(verify_corpus(file.path()), std::runtime_error);
  }
}

/// Records that sit exactly on refresh boundaries, in equal-time runs
/// whose banks are drawn independently (so a run straddles banks, and
/// at small block sizes blocks too), mostly on a few hot rows.
std::vector<AccessRecord> boundary_records(std::uint64_t refi_ps) {
  util::Rng rng(21);
  std::vector<AccessRecord> out;
  std::uint64_t t = 0;
  while (out.size() < 3000) {
    if (rng.below(4) == 0)
      t = (t / refi_ps + 1) * refi_ps;  // exactly on the next boundary
    else
      t += rng.below(refi_ps / 8);
    for (std::uint64_t run = 1 + rng.below(4); run > 0; --run) {
      AccessRecord r;
      r.time_ps = t;
      r.bank = static_cast<dram::BankId>(rng.below(4));
      r.row = rng.below(4) != 0 ? static_cast<dram::RowId>(100 + 2 * rng.below(3))
                                : static_cast<dram::RowId>(rng.below(8192));
      r.write = rng.below(2) != 0;
      out.push_back(r);
    }
  }
  return out;
}

TEST(CorpusReplay, PartitionedReplayEqualsOnRecordsAtRefreshBoundaries) {
  mem::ControllerConfig cfg;
  cfg.geometry.banks_per_rank = 4;
  cfg.geometry.rows_per_bank = 8192;
  const std::uint64_t refi = cfg.timing.t_refi_ps();
  const auto records = boundary_records(refi);
  dram::DisturbanceParams disturbance_params;
  disturbance_params.flip_threshold = 40;  // the hot rows' victims flip
  mitigation::TrrConfig trr;
  trr.rows_per_bank = cfg.geometry.rows_per_bank;
  trr.rfm_enabled = true;  // actions in the middle of lanes too
  trr.raaimt = 8;

  struct Run {
    mem::ControllerStats stats;
    mem::StageProfile profile;
    std::vector<dram::FlipEvent> flips;
    std::uint64_t activations = 0;
  };
  const auto replay = [&](const std::string& path, bool partitioned) {
    util::Rng rng{9};
    mem::MitigationEngine engine(cfg.geometry.total_banks(),
                                 mitigation::make_trr_factory(trr), rng);
    dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                       cfg.geometry.rows_per_bank,
                                       disturbance_params);
    mem::MemoryController controller(cfg, engine, disturbance, rng);
    MmapSource source(path);
    const AccessRecord* span = nullptr;
    const BankLaneView* lanes = nullptr;
    std::size_t lane_banks = 0;
    while (const std::size_t n = source.span_lanes(&span, &lanes, &lane_banks)) {
      if (partitioned) {
        EXPECT_NE(lanes, nullptr);
        controller.on_records_partitioned(span, n, lanes, lane_banks);
      } else {
        controller.on_records(span, n);
      }
    }
    controller.advance_to(records.back().time_ps + 2 * refi);
    return Run{controller.stats(), controller.stage_profile(), disturbance.flips(),
               disturbance.activations()};
  };

  for (const std::size_t per_block :
       {std::size_t{1}, std::size_t{7}, std::size_t{128},
        CorpusWriter::Options{}.records_per_block}) {
    SCOPED_TRACE("records_per_block " + std::to_string(per_block));
    TempFile file("boundaries_" + std::to_string(per_block));
    CorpusWriter::Options options;
    options.records_per_block = per_block;
    options.partition_banks = 4;
    write_corpus(file.path(), records, options);

    const Run lanes = replay(file.path(), true);
    const Run scatter = replay(file.path(), false);
    EXPECT_EQ(lanes.profile.partitioned_acts, records.size());
    EXPECT_EQ(lanes.profile.scattered_acts, 0u);
    EXPECT_EQ(scatter.profile.partitioned_acts, 0u);
    EXPECT_EQ(scatter.profile.scattered_acts, records.size());

    const mem::ControllerStats& a = lanes.stats;
    const mem::ControllerStats& b = scatter.stats;
    EXPECT_EQ(a.demand_acts, records.size());
    EXPECT_GT(a.extra_acts, 0u);
    EXPECT_EQ(a.demand_acts, b.demand_acts);
    EXPECT_EQ(a.extra_acts, b.extra_acts);
    EXPECT_EQ(a.fp_extra_acts, b.fp_extra_acts);
    EXPECT_EQ(a.triggers, b.triggers);
    EXPECT_EQ(a.refresh_intervals, b.refresh_intervals);
    EXPECT_EQ(a.rows_refreshed, b.rows_refreshed);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.delayed_acts, b.delayed_acts);
    EXPECT_EQ(a.first_extra_act_at, b.first_extra_act_at);
    EXPECT_EQ(a.acts_per_interval.count(), b.acts_per_interval.count());
    EXPECT_EQ(a.acts_per_interval.mean(), b.acts_per_interval.mean());
    EXPECT_EQ(a.acts_per_interval.variance(), b.acts_per_interval.variance());
    EXPECT_EQ(a.acts_per_interval.min(), b.acts_per_interval.min());
    EXPECT_EQ(a.acts_per_interval.max(), b.acts_per_interval.max());
    EXPECT_EQ(a.extra_acts_by_phase, b.extra_acts_by_phase);
    EXPECT_EQ(lanes.activations, scatter.activations);
    EXPECT_FALSE(lanes.flips.empty());
    ASSERT_EQ(lanes.flips.size(), scatter.flips.size());
    for (std::size_t i = 0; i < lanes.flips.size(); ++i) {
      EXPECT_EQ(lanes.flips[i].bank, scatter.flips[i].bank) << "flip " << i;
      EXPECT_EQ(lanes.flips[i].row, scatter.flips[i].row) << "flip " << i;
      EXPECT_EQ(lanes.flips[i].at_activation, scatter.flips[i].at_activation)
          << "flip " << i;
      EXPECT_EQ(lanes.flips[i].interval, scatter.flips[i].interval) << "flip " << i;
    }
  }
}

}  // namespace
}  // namespace tvp::trace
