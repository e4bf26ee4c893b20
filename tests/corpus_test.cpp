// Tests for the v4 trace corpus (trace/corpus.hpp): the on-disk format,
// CorpusWriter, MmapSource replay, corruption rejection (down to every
// single-bit flip and every lying lane), the span API, and — the
// contract the whole record/replay pipeline stands on — that a replayed
// sweep is bit-identical to a generated one.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tvp/dram/disturbance.hpp"
#include "tvp/exp/config_io.hpp"
#include "tvp/exp/report.hpp"
#include "tvp/exp/runner.hpp"
#include "tvp/exp/sweep.hpp"
#include "tvp/mem/controller.hpp"
#include "tvp/mem/mitigation.hpp"
#include "tvp/mitigation/trr.hpp"
#include "tvp/trace/corpus.hpp"
#include "tvp/trace/io.hpp"
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
                                       std::uint64_t step_ps = 100,
                                       std::uint32_t banks = 4) {
  std::vector<AccessRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AccessRecord r;
    r.time_ps = i * step_ps;
    r.bank = static_cast<dram::BankId>(i % banks);
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

/// The records of a span as span_lanes lends it: its records, or the
/// records rebuilt from its lanes.
std::vector<AccessRecord> span_records(const AccessRecord* data,
                                       const BankLaneView* lanes,
                                       std::size_t lane_banks, std::size_t n) {
  if (lanes == nullptr) return {data, data + n};
  std::vector<AccessRecord> out(n);
  std::vector<std::size_t> cursors(lane_banks, 0);
  gather_lanes(lanes, lane_banks, cursors.data(), 0, n, out.data());
  return out;
}

/// Every record of @p source, pulled through span_lanes.
std::vector<AccessRecord> drain_spans(TraceSource& source) {
  std::vector<AccessRecord> out;
  const AccessRecord* data = nullptr;
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  while (const std::size_t n = source.span_lanes(&data, &lanes, &lane_banks)) {
    const auto span = span_records(data, lanes, lane_banks, n);
    out.insert(out.end(), span.begin(), span.end());
  }
  return out;
}

// ------------------------------------------------------------ round trips

TEST(Corpus, RoundTripPreservesRecordsAndOracle) {
  TempFile file("roundtrip");
  const auto records = make_records(1000);
  CorpusWriter writer(file.path(), 4, 64);  // 64 records a block: many blocks
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
  EXPECT_EQ(info.banks, 4u);
  EXPECT_TRUE(info.oracle);
  // Derived, not stored: each block starts where the last one ends.
  for (std::size_t b = 0; b < info.blocks.size(); ++b) {
    EXPECT_EQ(info.blocks[b].first_record, b * 64);
    if (b > 0) {
      EXPECT_GT(info.blocks[b].offset, info.blocks[b - 1].offset);
    }
  }

  EXPECT_EQ(read_corpus(file.path()), records);
}

TEST(Corpus, WriterIsDeterministic) {
  // Equal record streams must produce byte-equal files (the identity
  // hash and the journal depend on it) — in particular no padding byte
  // may leak indeterminate memory to disk.
  TempFile a("det_a");
  TempFile b("det_b");
  const auto records = make_records(257);
  EXPECT_EQ(write_corpus(a.path(), records, 4), write_corpus(b.path(), records, 4));
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(Corpus, EmptyCorpusRoundTrips) {
  TempFile file("empty");
  CorpusWriter writer(file.path(), 4);
  writer.close();
  const CorpusInfo info = verify_corpus(file.path());
  EXPECT_EQ(info.total_records, 0u);
  EXPECT_TRUE(info.blocks.empty());
  MmapSource source(file.path());
  EXPECT_FALSE(source.next().has_value());
}

TEST(Corpus, WriterRejectsTimeGoingBackwards) {
  TempFile file("backwards");
  CorpusWriter writer(file.path(), 4);
  AccessRecord r;
  r.time_ps = 100;
  writer.append(r);
  r.time_ps = 99;
  EXPECT_THROW(writer.append(r), std::invalid_argument);
}

TEST(Corpus, MmapSourceStreamsIdenticallyToEveryApi) {
  TempFile file("apis");
  const auto records = make_records(500);
  write_corpus(file.path(), records, 4, 100);

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

  // span_lanes lends whole blocks as lanes alone.
  MmapSource by_span(file.path());
  ASSERT_TRUE(by_span.supports_spans());
  EXPECT_EQ(drain_spans(by_span), records);

  // Mixed pulls: a block that next_batch() has partly consumed comes
  // back from span_lanes as its remaining records, rebuilt; the next
  // block comes as lanes again.
  MmapSource mixed(file.path());
  std::vector<AccessRecord> via_mixed(30);
  ASSERT_EQ(mixed.next_batch(via_mixed.data(), 30), 30u);
  const AccessRecord* data = nullptr;
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  ASSERT_EQ(mixed.span_lanes(&data, &lanes, &lane_banks), 70u);
  EXPECT_EQ(lanes, nullptr);
  via_mixed.insert(via_mixed.end(), data, data + 70);
  ASSERT_EQ(mixed.span_lanes(&data, &lanes, &lane_banks), 100u);
  EXPECT_EQ(data, nullptr);
  ASSERT_NE(lanes, nullptr);
  const auto block = span_records(data, lanes, lane_banks, 100);
  via_mixed.insert(via_mixed.end(), block.begin(), block.end());
  std::vector<AccessRecord> rest = drain(mixed);
  via_mixed.insert(via_mixed.end(), rest.begin(), rest.end());
  EXPECT_EQ(via_mixed, records);
}

TEST(Corpus, RewindReplaysIdentically) {
  TempFile file("rewind");
  const auto records = make_records(300);
  write_corpus(file.path(), records, 4, 128);

  MmapSource source(file.path());
  const auto first = drain_spans(source);
  source.rewind();  // second pass rides the trust-after-verify fast path
  const auto second = drain_spans(source);
  EXPECT_EQ(first, records);
  EXPECT_EQ(second, records);
}

// ------------------------------------------------------- corruption cases

std::uint64_t pad8(std::uint64_t n) { return (n + 7) / 8 * 8; }

/// Where a v4 block's columns start, relative to the block (the writer's
/// layout in corpus.hpp): per-bank counts padded to 8 bytes, then the
/// time, row, serial, flag and source columns, the last padded to 8.
struct Layout {
  Layout(std::uint64_t banks, std::uint64_t n)
      : times(pad8(banks * 4)),
        rows(times + n * 8),
        serials(rows + n * 4),
        flags(serials + n * 4),
        sources(flags + n),
        end(flags + pad8(2 * n)) {}
  std::uint64_t times, rows, serials, flags, sources, end;
};

TEST(Corpus, CorruptedBlockPayloadIsRejected) {
  TempFile file("corrupt_block");
  const auto records = make_records(200);
  write_corpus(file.path(), records, 4, 50);

  // Flip one byte inside the third block (the row of its first lane
  // element): the footer still parses, the block CRC must catch it.
  const CorpusInfo info = read_corpus_info(file.path());
  ASSERT_GE(info.blocks.size(), 3u);
  auto bytes = slurp(file.path());
  const std::size_t victim =
      static_cast<std::size_t>(info.blocks[2].offset + Layout(4, 50).rows);
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
  write_corpus(file.path(), make_records(100), 4);
  auto bytes = slurp(file.path());
  // Chop the last 8 bytes: the trailer magic is gone.
  bytes.resize(bytes.size() - 8);
  spit(file.path(), bytes);
  EXPECT_THROW(read_corpus_info(file.path()), std::runtime_error);
  EXPECT_THROW(MmapSource{file.path()}, std::runtime_error);
}

TEST(Corpus, TamperedFooterIsRejected) {
  TempFile file("tamper_footer");
  write_corpus(file.path(), make_records(100), 4);
  auto bytes = slurp(file.path());
  // Corrupt a footer byte but leave the trailer intact: the footer CRC
  // in the trailer must catch it.
  bytes[bytes.size() - 16 - 4] ^= 0x01;
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
  // Flag bit 0 at header offset 8 means "no oracle": set exactly when
  // neither set_aggressors nor set_victims was called. An empty oracle
  // (a benign-only recording) is still an oracle.
  const auto records = make_records(300);
  TempFile bare("oracle_none");
  write_corpus(bare.path(), records, 4);
  EXPECT_FALSE(read_corpus_info(bare.path()).oracle);
  EXPECT_EQ(slurp(bare.path())[8], 1);
  EXPECT_EQ(read_corpus(bare.path()), records);

  for (const bool victims : {false, true}) {
    TempFile given(victims ? "oracle_victims" : "oracle_aggressors");
    CorpusWriter writer(given.path(), 4);
    writer.append(records.data(), records.size());
    if (victims)
      writer.set_victims({});
    else
      writer.set_aggressors({});
    writer.close();
    EXPECT_TRUE(read_corpus_info(given.path()).oracle);
    const auto bytes = slurp(given.path());
    EXPECT_TRUE(std::all_of(bytes.begin() + 8, bytes.begin() + 12,
                            [](char c) { return c == 0; }));
    // The flag, and the footer CRC over it, are all the two files differ
    // in: same blocks, same footer.
    auto unmarked = slurp(bare.path());
    unmarked[8] = 0;
    ASSERT_EQ(bytes.size(), unmarked.size());
    const std::size_t crc_at = bytes.size() - 12;
    EXPECT_NE(std::vector<char>(bytes.begin() + crc_at, bytes.begin() + crc_at + 4),
              std::vector<char>(unmarked.begin() + crc_at, unmarked.begin() + crc_at + 4));
    std::copy(bytes.begin() + crc_at, bytes.begin() + crc_at + 4,
              unmarked.begin() + crc_at);
    EXPECT_EQ(bytes, unmarked);
  }
}

TEST(Corpus, UnknownHeaderFlagOrReservedByteIsRejected) {
  TempFile file("header_flags");
  write_corpus(file.path(), make_records(64), 4);
  const auto clean = slurp(file.path());
  const std::pair<std::size_t, const char*> cases[] = {
      {8, "unknown header flags 3"},  // bit 1 next to the oracle bit
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

/// Where the footer of the corpus image @p bytes starts (from its trailer).
std::size_t footer_at(const std::vector<char>& bytes) {
  return bytes.size() - 16 - static_cast<std::size_t>(get_le(bytes, bytes.size() - 16, 4));
}

/// Re-stamps the trailer's footer CRC (over the file header, then the
/// footer) of the corpus image @p bytes, so that only the structure a
/// test altered can be wrong.
void restamp_footer_crc(std::vector<char>& bytes) {
  const std::size_t footer = footer_at(bytes);
  const std::uint32_t crc = util::crc32(bytes.data() + footer,
                                        bytes.size() - 16 - footer,
                                        util::crc32(bytes.data(), 32));
  put_le(bytes, bytes.size() - 12, crc, 4);
}

TEST(Corpus, FormatV4StoresEachRecordOnce) {
  // Version 4 on disk: the header carries the version, the flags and the
  // bank count; a block is its lanes alone (18 bytes a record, with no
  // record region, header, codec or second checksum); the footer holds
  // a 24-byte head, one 24-byte entry per block and the keys; the
  // trailer is 16 bytes. The file is exactly that long, so no other
  // field can hide in it.
  TempFile file("layout");
  const auto records = make_records(333);  // blocks of 100, 100, 100, 33
  CorpusWriter writer(file.path(), 5, 100);
  writer.append(records.data(), records.size());
  writer.set_aggressors({1, 2, 3});
  writer.set_victims({9});
  const std::uint32_t identity = writer.close();
  const auto bytes = slurp(file.path());

  EXPECT_EQ(std::string(bytes.data(), 4), "TVPC");
  EXPECT_EQ(get_le(bytes, 4, 4), 4u);   // version
  EXPECT_EQ(get_le(bytes, 8, 4), 0u);   // flags: an oracle was given
  EXPECT_EQ(get_le(bytes, 12, 4), 5u);  // bank count
  std::uint64_t expected = 32;
  for (const std::uint64_t n : {100, 100, 100, 33}) {
    EXPECT_EQ(Layout(5, n).end, pad8(5 * 4) + pad8(n * 18));
    expected += Layout(5, n).end;
  }
  const std::uint64_t blocks_end = expected;
  expected += 24 + 4 * 24 + (3 + 1) * 8 + 16;
  EXPECT_EQ(bytes.size(), expected);

  // The first block starts right after the file header: the per-bank
  // counts, then bank 0's lane (records 0, 4, 8, ...) heads each column
  // and bank 1's lane follows it.
  const Layout first(5, 100);
  for (std::size_t b = 0; b < 5; ++b)
    EXPECT_EQ(get_le(bytes, 32 + b * 4, 4), b < 4 ? 25u : 0u) << "bank " << b;
  EXPECT_EQ(get_le(bytes, 32 + 20, 4), 0u);  // the counts' padding
  EXPECT_EQ(get_le(bytes, 32 + first.times + 8, 8), records[4].time_ps);
  EXPECT_EQ(get_le(bytes, 32 + first.times + 25 * 8, 8), records[1].time_ps);
  EXPECT_EQ(get_le(bytes, 32 + first.rows + 25 * 4, 4), records[1].row);
  EXPECT_EQ(get_le(bytes, 32 + first.serials + 26 * 4, 4), 5u);
  for (const std::size_t i : {0, 1, 3, 5, 10}) {
    const std::size_t k = (i % 4) * 25 + i / 4;  // lane element of record i
    EXPECT_EQ(get_le(bytes, 32 + first.flags + k, 1),
              (records[i].write ? 1u : 0u) | (records[i].is_attack ? 2u : 0u));
    EXPECT_EQ(get_le(bytes, 32 + first.sources + k, 1), records[i].source);
  }

  const CorpusInfo info = read_corpus_info(file.path());
  EXPECT_EQ(footer_at(bytes), blocks_end);
  EXPECT_EQ(info.footer_crc, identity);
  EXPECT_EQ(info.banks, 5u);
  EXPECT_EQ(info.total_records, records.size());
  ASSERT_EQ(info.blocks.size(), 4u);
  EXPECT_EQ(info.blocks[3].first_record, 300u);
  EXPECT_EQ(info.blocks[3].records, 33u);
  // Each block's CRC covers the whole block.
  EXPECT_EQ(info.blocks[3].crc,
            util::crc32(bytes.data() + info.blocks[3].offset,
                        static_cast<std::size_t>(Layout(5, 33).end)));
  EXPECT_EQ(verify_corpus(file.path()).total_records, records.size());
  EXPECT_EQ(read_corpus(file.path()), records);
}

TEST(Corpus, OlderVersionIsRejectedByNumber) {
  // A version-3 corpus (each record stored twice: a record region and
  // the lanes) is refused by its version number, not misread as
  // version 4.
  TempFile file("version");
  write_corpus(file.path(), make_records(64), 4);
  auto bytes = slurp(file.path());
  put_le(bytes, 4, 3, 4);
  spit(file.path(), bytes);
  for (const auto& open : {std::function<void()>([&] { read_corpus_info(file.path()); }),
                           std::function<void()>([&] { MmapSource{file.path()}; })}) {
    try {
      open();
      ADD_FAILURE() << "a version-3 corpus was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "unsupported corpus version 3 (this reader reads version 4)"),
                std::string::npos)
          << e.what();
    }
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

/// Every ControllerStats field of @p a equals @p b's.
void expect_same_stats(const mem::ControllerStats& a, const mem::ControllerStats& b) {
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
}

/// Every flip of @p a equals @p b's, in order.
void expect_same_flips(const std::vector<dram::FlipEvent>& a,
                       const std::vector<dram::FlipEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bank, b[i].bank) << "flip " << i;
    EXPECT_EQ(a[i].row, b[i].row) << "flip " << i;
    EXPECT_EQ(a[i].at_activation, b[i].at_activation) << "flip " << i;
    EXPECT_EQ(a[i].interval, b[i].interval) << "flip " << i;
  }
}

void expect_identical_runs(const exp::RunResult& gen, const exp::RunResult& rep) {
  EXPECT_EQ(gen.records, rep.records);
  expect_same_stats(gen.stats, rep.stats);
  EXPECT_EQ(gen.flips, rep.flips);
  EXPECT_EQ(gen.victim_flips, rep.victim_flips);
  EXPECT_EQ(gen.peak_disturbance, rep.peak_disturbance);
  expect_same_flips(gen.flip_events, rep.flip_events);
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

// ------------------------------------------------------------------ lanes

TEST(Corpus, PartitionedSpanLanesReconstructTheSpan) {
  TempFile file("lanes");
  const auto records = make_records(500);  // banks cycle 0..3
  write_corpus(file.path(), records, 4, 100);
  EXPECT_EQ(read_corpus_info(file.path()).banks, 4u);

  MmapSource source(file.path());
  const AccessRecord* span = nullptr;
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  std::size_t at_block = 0;
  while (const std::size_t n = source.span_lanes(&span, &lanes, &lane_banks)) {
    ASSERT_EQ(span, nullptr);  // a block is its lanes alone
    ASSERT_NE(lanes, nullptr);
    ASSERT_EQ(lane_banks, 4u);
    ASSERT_LE(at_block + n, records.size());
    // Scatter the lanes back through their serials: the rebuilt span
    // must equal the written records field for field.
    std::vector<AccessRecord> rebuilt(n);
    std::vector<bool> covered(n, false);
    for (std::size_t b = 0; b < lane_banks; ++b) {
      const BankLaneView& lane = lanes[b];
      dram::RowId max_row = 0;
      for (std::size_t k = 0; k < lane.count; ++k) {
        const std::size_t at = lane.serials[k];
        ASSERT_LT(at, n);
        ASSERT_FALSE(covered[at]);
        if (k > 0) {
          EXPECT_GT(lane.serials[k], lane.serials[k - 1]);
        }
        covered[at] = true;
        rebuilt[at].time_ps = lane.times[k];
        rebuilt[at].bank = static_cast<dram::BankId>(b);
        rebuilt[at].row = lane.rows[k];
        rebuilt[at].write = (lane.flags[k] & kLaneWrite) != 0;
        rebuilt[at].is_attack = (lane.flags[k] & kLaneAttack) != 0;
        rebuilt[at].source = lane.sources[k];
        max_row = std::max(max_row, lane.rows[k]);
      }
      EXPECT_EQ(lane.max_row, max_row);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(covered[i]);
      EXPECT_EQ(rebuilt[i], records[at_block + i]) << "record " << at_block + i;
    }
    at_block += n;
  }
  EXPECT_EQ(at_block, records.size());
}

TEST(Corpus, PartitionedWriterIsDeterministic) {
  TempFile a("pdet_a");
  TempFile b("pdet_b");
  const auto records = make_records(257);
  // Five banks (one empty lane, padded counts) over several blocks.
  EXPECT_EQ(write_corpus(a.path(), records, 5, 64),
            write_corpus(b.path(), records, 5, 64));
  EXPECT_EQ(slurp(a.path()), slurp(b.path()));
}

TEST(Corpus, PartitionedWriterRejectsOutOfRangeBank) {
  TempFile file("pbank");
  EXPECT_THROW(CorpusWriter(file.path(), 0), std::invalid_argument);
  CorpusWriter writer(file.path(), 2);
  AccessRecord r;
  r.bank = 2;  // lanes cover banks [0, 2)
  EXPECT_THROW(writer.append(r), std::invalid_argument);
}

/// Both read paths must reject @p path on the first touch of its bad
/// block with an error that contains @p what (which names the block):
/// span_lanes and next_batch. The blocks before it replay.
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

TEST(Corpus, CorruptedPartitionSectionIsRejectedPrecisely) {
  // A block is its lanes, under one CRC: a flipped byte anywhere in
  // them is corruption, reported as such and naming the block, on every
  // read path. Nothing falls back to a second copy.
  const auto records = make_records(400);
  const Layout layout(4, 100);
  for (const std::uint64_t column :
       {std::uint64_t{0}, layout.times, layout.rows, layout.serials,
        layout.flags, layout.sources}) {
    SCOPED_TRACE("column at " + std::to_string(column));
    TempFile file("corrupt_lanes_" + std::to_string(column));
    write_corpus(file.path(), records, 4, 100);
    const CorpusInfo info = read_corpus_info(file.path());
    ASSERT_EQ(info.blocks.size(), 4u);
    auto bytes = slurp(file.path());
    const std::size_t victim =
        static_cast<std::size_t>(info.blocks[1].offset + column) + 2;
    bytes[victim] = static_cast<char>(bytes[victim] ^ 0x20);
    spit(file.path(), bytes);
    expect_rejected_on_first_touch(file.path(), "block 1 CRC mismatch", 100);
  }
}

/// A controller run over a corpus, fed one of three ways.
enum class Feed {
  kLanes,    ///< span_lanes, as a replay run steps it
  kRecords,  ///< next_batch into on_records
  kMixed,    ///< a few records by next_batch, then span_lanes, in turn
};

struct Replayed {
  mem::ControllerStats stats;
  mem::StageProfile profile;
  std::vector<dram::FlipEvent> flips;
  std::uint64_t activations = 0;
  std::string error;  ///< what the controller threw, if it did
};

/// Replays @p path on a fresh controller of @p cfg running TRR with
/// RFM (so actions land in the middle of lanes too), fed as @p feed,
/// then advances to @p end_ps. A controller throw ends the feed and is
/// kept in the result.
Replayed replay(const std::string& path, const mem::ControllerConfig& cfg, Feed feed,
           std::uint64_t end_ps) {
  dram::DisturbanceParams disturbance_params;
  disturbance_params.flip_threshold = 40;  // the hot rows' victims flip
  mitigation::TrrConfig trr;
  trr.rows_per_bank = cfg.geometry.rows_per_bank;
  trr.rfm_enabled = true;
  trr.raaimt = 8;
  util::Rng rng{9};
  mem::MitigationEngine engine(cfg.geometry.total_banks(),
                               mitigation::make_trr_factory(trr), rng);
  dram::DisturbanceModel disturbance(cfg.geometry.total_banks(),
                                     cfg.geometry.rows_per_bank,
                                     disturbance_params);
  mem::MemoryController controller(cfg, engine, disturbance, rng);
  MmapSource source(path);
  std::vector<AccessRecord> batch(feed == Feed::kMixed ? 5 : 4096);
  Replayed run;
  try {
    for (bool lanes_next = feed == Feed::kLanes;;) {
      if (lanes_next) {
        const AccessRecord* data = nullptr;
        const BankLaneView* lanes = nullptr;
        std::size_t lane_banks = 0;
        const std::size_t n = source.span_lanes(&data, &lanes, &lane_banks);
        if (n == 0) break;
        controller.on_records_partitioned(data, n, lanes, lane_banks);
      } else {
        const std::size_t n = source.next_batch(batch.data(), batch.size());
        if (n == 0) break;
        controller.on_records(batch.data(), n);
      }
      if (feed == Feed::kMixed) lanes_next = !lanes_next;
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  controller.advance_to(end_ps);
  run.stats = controller.stats();
  run.profile = controller.stage_profile();
  run.flips = disturbance.flips();
  run.activations = disturbance.activations();
  return run;
}

void expect_same_run(const Replayed& a, const Replayed& b) {
  EXPECT_EQ(a.error, b.error);
  expect_same_stats(a.stats, b.stats);
  EXPECT_EQ(a.activations, b.activations);
  expect_same_flips(a.flips, b.flips);
}

TEST(Corpus, PartitionedReplayFeedsLanesWithoutScatter) {
  // The point of storing the lanes: a replayed corpus feeds the
  // controller's per-bank lanes zero-copy. The always-on profile
  // counters are the proof — every ACT arrives partitioned, none are
  // scattered — and the stats must equal the scatter path's.
  TempFile file("lane_feed");
  const auto records = make_records(600);
  write_corpus(file.path(), records, 4, 128);

  mem::ControllerConfig cfg;
  cfg.geometry.banks_per_rank = 4;
  cfg.geometry.rows_per_bank = 8192;
  const Replayed lanes = replay(file.path(), cfg, Feed::kLanes, records.back().time_ps);
  const Replayed scatter = replay(file.path(), cfg, Feed::kRecords, records.back().time_ps);
  expect_same_run(lanes, scatter);
  EXPECT_EQ(lanes.stats.demand_acts, records.size());
  EXPECT_EQ(lanes.profile.partitioned_acts, records.size());
  EXPECT_EQ(lanes.profile.scattered_acts, 0u);
  EXPECT_EQ(scatter.profile.partitioned_acts, 0u);
  EXPECT_EQ(scatter.profile.scattered_acts, records.size());
}

TEST(CorpusReplay, RewritingARecordedCorpusReproducesItsBlocks) {
  // A recorded corpus read back and written again with the same bank
  // count and block size must lay out the same blocks: the layout is a
  // function of the record stream, the bank count and the block size.
  exp::SimConfig cfg = small_attacked_config();
  cfg.geometry.banks_per_rank = 2;
  cfg.finalize();

  TempFile recorded("rewrite_recorded");
  exp::record_corpus(cfg, recorded.path(), 512);
  TempFile rewritten("rewrite_again");
  write_corpus(rewritten.path(), read_corpus(recorded.path()),
               cfg.geometry.total_banks(), 512);

  const CorpusInfo a = read_corpus_info(recorded.path());
  const CorpusInfo b = read_corpus_info(rewritten.path());
  ASSERT_EQ(a.banks, 2u);
  ASSERT_GT(a.blocks.size(), 1u);
  EXPECT_EQ(b.banks, a.banks);
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
  // The blocks are the same bytes.
  const auto a_bytes = slurp(recorded.path());
  const auto b_bytes = slurp(rewritten.path());
  ASSERT_EQ(footer_at(a_bytes), footer_at(b_bytes));
  EXPECT_TRUE(std::equal(a_bytes.begin() + 32, a_bytes.begin() + footer_at(a_bytes),
                         b_bytes.begin() + 32));
}

// ------------------------------------------- the order proof on first touch

/// One lane element as a block stores it.
struct Element {
  std::uint64_t time = 0;
  dram::RowId row = 0;
  std::uint32_t serial = 0;
  std::uint8_t flags = 0;
  SourceId source = 0;
};
/// A block's lanes, one element list per bank.
using Lanes = std::vector<std::vector<Element>>;

/// The lanes the writer stores for @p records, record i holding serial i.
Lanes lanes_of(const std::vector<AccessRecord>& records, std::uint32_t banks) {
  Lanes lanes(banks);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const AccessRecord& r = records[i];
    lanes.at(r.bank).push_back(
        {r.time_ps, r.row, static_cast<std::uint32_t>(i),
         static_cast<std::uint8_t>((r.write ? kLaneWrite : 0) |
                                   (r.is_attack ? kLaneAttack : 0)),
         r.source});
  }
  return lanes;
}

/// Rewrites block @p k of the corpus image @p bytes (described by
/// @p info) to hold @p lanes (as many elements as the block's count)
/// under the footer time range [@p min_ps, @p max_ps], lets @p tamper
/// alter the block's bytes, then re-stamps the CRCs over what changed
/// (the block's CRC in its index entry, the footer). Every checksum
/// then checks out; only the lanes' structure or the index's time range
/// can be wrong.
void restamp_block(std::vector<char>& bytes, const CorpusInfo& info,
                   std::size_t k, const Lanes& lanes, std::uint64_t min_ps,
                   std::uint64_t max_ps,
                   const std::function<void(char* block)>& tamper = {}) {
  const CorpusBlockInfo& block = info.blocks[k];
  const std::size_t n = block.records;
  const Layout layout(info.banks, n);
  const std::size_t at = static_cast<std::size_t>(block.offset);
  std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(at),
            bytes.begin() + static_cast<std::ptrdiff_t>(at + layout.end), 0);
  std::size_t e = 0;
  for (std::uint32_t b = 0; b < info.banks; ++b) {
    put_le(bytes, at + b * 4, lanes[b].size(), 4);
    for (const Element& el : lanes[b]) {
      ASSERT_LT(e, n);
      put_le(bytes, at + layout.times + e * 8, el.time, 8);
      put_le(bytes, at + layout.rows + e * 4, el.row, 4);
      put_le(bytes, at + layout.serials + e * 4, el.serial, 4);
      put_le(bytes, at + layout.flags + e, el.flags, 1);
      put_le(bytes, at + layout.sources + e, el.source, 1);
      ++e;
    }
  }
  ASSERT_EQ(e, n);
  if (tamper) tamper(bytes.data() + at);
  const std::size_t entry = footer_at(bytes) + 24 + k * 24;
  put_le(bytes, entry + 4,
         util::crc32(bytes.data() + at, static_cast<std::size_t>(layout.end)), 4);
  put_le(bytes, entry + 8, min_ps, 8);
  put_le(bytes, entry + 16, max_ps, 8);
  restamp_footer_crc(bytes);
}

/// Writes four blocks of @p per_block records over @p banks banks, then
/// lets @p corrupt rewrite block 2 (given its records) through
/// restamp_block.
template <typename Corrupt>
void write_and_corrupt(const std::string& path, std::uint32_t banks,
                       Corrupt&& corrupt, std::size_t per_block = 100) {
  const auto records = make_records(4 * per_block);
  write_corpus(path, records, banks, per_block);
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
  for (const std::size_t per_block : {std::size_t{100}, std::size_t{4096}})
    for (const std::uint32_t banks : {4u, 5u}) {
      SCOPED_TRACE(std::to_string(banks) + " banks, " +
                   std::to_string(per_block) + " records per block");
      TempFile file("order_swap_" + std::to_string(banks) + "_" +
                    std::to_string(per_block));
      const std::size_t at = per_block == 100 ? 40 : 2047;
      write_and_corrupt(
          file.path(), banks,
          [at, banks](std::vector<char>& bytes, const CorpusInfo& info,
                      std::vector<AccessRecord>& block) {
            // Two records in the middle trade places in the block's time
            // order; its first and last stay, so the footer's time range
            // still holds.
            std::swap(block[at], block[at + 1]);
            restamp_block(bytes, info, 2, lanes_of(block, banks),
                          info.blocks[2].min_time_ps, info.blocks[2].max_time_ps);
          },
          per_block);
      expect_rejected_on_first_touch(
          file.path(), "block 2 records are not time-ordered", 2 * per_block);
    }
}

TEST(Corpus, BlockStartingBeforeThePreviousBlockEndsIsRejectedOnFirstTouch) {
  for (const std::uint32_t banks : {4u, 5u}) {
    SCOPED_TRACE(std::to_string(banks) + " banks");
    TempFile file("order_overlap_" + std::to_string(banks));
    write_and_corrupt(file.path(), banks,
                      [banks](std::vector<char>& bytes, const CorpusInfo& info,
                              std::vector<AccessRecord>& block) {
                        // Block 2's first record moves just before block
                        // 1's last; the block still ascends and the
                        // footer's min follows it.
                        block[0].time_ps = info.blocks[1].max_time_ps - 1;
                        restamp_block(bytes, info, 2, lanes_of(block, banks),
                                      block[0].time_ps, info.blocks[2].max_time_ps);
                      });
    expect_rejected_on_first_touch(
        file.path(), "block 2 records are not time-ordered across blocks", 200);
  }
}

TEST(Corpus, FooterTimeRangeDisagreeingWithTheRecordsIsRejectedOnFirstTouch) {
  for (const std::uint32_t banks : {4u, 5u})
    for (const bool at_min : {true, false}) {
      SCOPED_TRACE(std::to_string(banks) + " banks" + (at_min ? ", min" : ", max"));
      TempFile file("order_range_" + std::to_string(banks) +
                    (at_min ? "_min" : "_max"));
      write_and_corrupt(file.path(), banks,
                        [at_min, banks](std::vector<char>& bytes,
                                        const CorpusInfo& info,
                                        std::vector<AccessRecord>& block) {
                          // Records untouched; the index claims a range
                          // one picosecond narrower than they span.
                          const CorpusBlockInfo& b = info.blocks[2];
                          restamp_block(bytes, info, 2, lanes_of(block, banks),
                                        b.min_time_ps + (at_min ? 1 : 0),
                                        b.max_time_ps - (at_min ? 0 : 1));
                        });
      expect_rejected_on_first_touch(
          file.path(), "block 2 time range disagrees with the footer index", 200);
    }
}

/// Records that sit exactly on refresh boundaries, in equal-time runs
/// whose banks (of @p banks) are drawn independently (so a run straddles
/// banks, and at small block sizes blocks too), mostly on a few hot rows.
std::vector<AccessRecord> boundary_records(std::uint64_t refi_ps,
                                           std::uint32_t banks = 4) {
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
      r.bank = static_cast<dram::BankId>(rng.below(banks));
      r.row = rng.below(4) != 0 ? static_cast<dram::RowId>(100 + 2 * rng.below(3))
                                : static_cast<dram::RowId>(rng.below(8192));
      r.write = rng.below(2) != 0;
      r.is_attack = rng.below(3) == 0;
      r.source = static_cast<SourceId>(rng.below(256));
      out.push_back(r);
    }
  }
  return out;
}

TEST(CorpusReplay, PartitionedReplayEqualsOnRecordsAtRefreshBoundaries) {
  // Lane-only replay equals feeding the same records to on_records, and
  // so does a run that mixes next_batch and span_lanes, in every
  // ControllerStats field and every flip: at every block size, for a
  // corpus whose bank count is the controller's (lanes taken zero-copy)
  // and for one of 5 banks on 8 (lanes the controller cannot take, so
  // it rebuilds their records).
  for (const std::uint32_t banks : {1u, 5u, 8u})
    for (const std::size_t per_block :
         {std::size_t{1}, std::size_t{7}, std::size_t{128},
          CorpusWriter::kDefaultBlockRecords}) {
      SCOPED_TRACE(std::to_string(banks) + " banks, records_per_block " +
                   std::to_string(per_block));
      mem::ControllerConfig cfg;
      cfg.geometry.banks_per_rank = std::bit_ceil(banks);
      cfg.geometry.rows_per_bank = 8192;
      const std::uint64_t refi = cfg.timing.t_refi_ps();
      const auto records = boundary_records(refi, banks);
      TempFile file("boundaries_" + std::to_string(banks) + "_" +
                    std::to_string(per_block));
      write_corpus(file.path(), records, banks, per_block);

      const std::uint64_t end = records.back().time_ps + 2 * refi;
      const Replayed lanes = replay(file.path(), cfg, Feed::kLanes, end);
      const Replayed scatter = replay(file.path(), cfg, Feed::kRecords, end);
      const Replayed mixed = replay(file.path(), cfg, Feed::kMixed, end);
      EXPECT_EQ(lanes.error, "");
      EXPECT_EQ(lanes.stats.demand_acts, records.size());
      EXPECT_GT(lanes.stats.extra_acts, 0u);
      EXPECT_FALSE(lanes.flips.empty());
      {
        SCOPED_TRACE("lanes against records");
        expect_same_run(lanes, scatter);
      }
      {
        SCOPED_TRACE("mixed against records");
        expect_same_run(mixed, scatter);
      }
      const bool usable = banks == cfg.geometry.total_banks();
      EXPECT_EQ(lanes.profile.partitioned_acts, usable ? records.size() : 0u);
      EXPECT_EQ(lanes.profile.scattered_acts, usable ? 0u : records.size());
      EXPECT_EQ(scatter.profile.partitioned_acts, 0u);
      EXPECT_EQ(scatter.profile.scattered_acts, records.size());
    }
}

TEST(CorpusReplay, UnusableLanesGiveOnRecordsValidPrefixAndMessage) {
  // Lanes the controller cannot take zero-copy are rebuilt into records
  // and fed to on_records, so the run stops after the same valid prefix
  // with the same message, whichever way the corpus is pulled: a lane
  // row out of range (rows up to 8191 on 4096 rows a bank), and a bank
  // count that is not the controller's (5 banks on 4).
  struct Case {
    std::string name;
    std::uint32_t banks;
    dram::RowId rows_per_bank;
    std::string error;
  };
  const Case cases[] = {
      {"row out of range", 4, 4096,
       "MemoryController: row 4107 out of range (4096 rows per bank)"},
      {"bank count mismatch", 5, 8192,
       "MemoryController: bank 4 out of range (4 banks)"},
  };
  for (const Case& c : cases)
    for (const std::size_t per_block :
         {std::size_t{1}, std::size_t{7}, std::size_t{128},
          CorpusWriter::kDefaultBlockRecords}) {
      SCOPED_TRACE(c.name + ", records_per_block " + std::to_string(per_block));
      const auto records = make_records(1000, 50'000, c.banks);
      TempFile file("unusable_" + std::to_string(c.banks) + "_" +
                    std::to_string(per_block));
      write_corpus(file.path(), records, c.banks, per_block);
      mem::ControllerConfig cfg;
      cfg.geometry.banks_per_rank = 4;
      cfg.geometry.rows_per_bank = c.rows_per_bank;
      cfg.timing.refresh_intervals = 4096;  // a divisor of both row counts
      const std::uint64_t end = records.back().time_ps;
      const Replayed lanes = replay(file.path(), cfg, Feed::kLanes, end);
      const Replayed scatter = replay(file.path(), cfg, Feed::kRecords, end);
      const Replayed mixed = replay(file.path(), cfg, Feed::kMixed, end);
      EXPECT_EQ(scatter.error, c.error);
      EXPECT_GT(scatter.stats.demand_acts, 0u);  // the valid prefix
      EXPECT_LT(scatter.stats.demand_acts, records.size());
      {
        SCOPED_TRACE("lanes against records");
        expect_same_run(lanes, scatter);
      }
      {
        SCOPED_TRACE("mixed against records");
        expect_same_run(mixed, scatter);
      }
    }
}

TEST(CorpusReplay, ReplayOverFewerWindowsKeepsItsLanesThroughTheCut) {
  // A corpus of two windows replayed over one: LimitSource cuts the
  // block that straddles the horizon lane by lane, so every replayed ACT
  // still arrives through the lanes, and the run equals the generated
  // one-window run.
  exp::SimConfig cfg = small_attacked_config();
  exp::SimConfig two = cfg;
  two.windows = 2;
  two.finalize();
  TempFile file("fewer_windows");
  exp::record_corpus(two, file.path(), 1000);
  ASSERT_GT(read_corpus_info(file.path()).blocks.size(), 2u);

  exp::SimConfig replay_cfg = cfg;
  replay_cfg.workload.model = exp::BenignModel::kReplay;
  replay_cfg.workload.trace_path = file.path();
  replay_cfg.workload.attacks.clear();
  replay_cfg.finalize();
  const auto run = [](const mem::BankMitigationFactory& factory,
                      const exp::SimConfig& config, mem::StageProfile* profile) {
    exp::Simulation sim(factory, config);
    while (sim.step() != 0) {
    }
    sim.advance();
    if (profile != nullptr) *profile = sim.controller().stage_profile();
    return sim.result();
  };
  for (const auto technique : {hw::Technique::kPara, hw::Technique::kTwice,
                               hw::Technique::kLoLiPRoMi}) {
    SCOPED_TRACE(std::string(hw::to_string(technique)));
    const auto factory = [&](const exp::SimConfig& c) {
      return exp::make_factory(technique, c.technique);
    };
    mem::StageProfile profile;
    const exp::RunResult gen = run(factory(cfg), cfg, nullptr);
    const exp::RunResult rep = run(factory(replay_cfg), replay_cfg, &profile);
    ASSERT_LT(rep.records, read_corpus_info(file.path()).total_records);
    expect_identical_runs(gen, rep);
    EXPECT_EQ(profile.scattered_acts, 0u);
    EXPECT_EQ(profile.partitioned_acts, rep.records);
  }
}

TEST(CorpusReplay, TvpSimRejectsACorpusWhoseBankCountIsNotAPowerOfTwo) {
  // Only write_corpus can make such a corpus (tvp_trace record and
  // import take a config's geometry): tvp_sim --trace names the file
  // and its bank count and exits 2, as for any unusable configuration.
#ifndef TVP_SIM
  GTEST_SKIP() << "built without the examples";
#else
  TempFile file("five_banks");
  write_corpus(file.path(), make_records(1000, 100, 5), 5);
  const std::string out = file.path() + ".out";
  const int status = std::system((std::string(TVP_SIM) + " --trace=" + file.path() +
                                  " --technique=PARA > " + out + " 2>&1")
                                     .c_str());
  std::ifstream is(out);
  const std::string printed{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
  std::remove(out.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << printed;
  EXPECT_NE(printed.find("trace " + file.path() +
                         " holds 5 banks, which is not a power of two"),
            std::string::npos)
      << printed;
#endif
}

TEST(CorpusReplay, ImportedTraceSweepReportsNoFalsePositiveRate) {
  // An imported address trace carries no oracle, so a sweep over it
  // cannot tell a false positive from a true one: every cell says so,
  // and its CSV reads n/a where an oracle's FPR would stand.
  std::ifstream is(std::string(TVP_SOURCE_DIR) + "/configs/dramsim_sample.trace");
  ASSERT_TRUE(is);
  const exp::SimConfig cfg;  // DDR4, 4 banks: tvp_trace import's default
  AddressTraceSource source(
      is, dram::AddressMapper(cfg.geometry, dram::AddressMapPolicy::kRowColBank),
      cfg.timing.t_ck_ps());
  TempFile file("imported");
  write_corpus(file.path(), drain(source), cfg.geometry.total_banks());

  util::KeyValueFile base = util::KeyValueFile::parse(exp::to_config_text(cfg));
  base.set("workload.model", "replay");
  base.set("workload.trace", file.path());
  const exp::SweepResult sweep =
      exp::run_param_sweep(base, "technique.pbase_exp", {"14", "15"},
                           {hw::Technique::kPara, hw::Technique::kLoLiPRoMi});
  ASSERT_EQ(sweep.cells.size(), 4u);
  for (const exp::SweepCell& cell : sweep.cells) {
    EXPECT_FALSE(cell.result.oracle) << cell.technique << " @ " << cell.value;
    EXPECT_GT(cell.result.stats.extra_acts, 0u) << cell.technique << " @ " << cell.value;
  }
  const std::string csv = exp::sweep_to_csv(sweep);
  std::size_t rows = 0;
  for (std::size_t at = csv.find('\n'); at + 1 < csv.size(); at = csv.find('\n', at + 1)) {
    const std::size_t next = csv.find('\n', at + 1);
    const std::string row = csv.substr(at + 1, next - at - 1);
    // param,value,technique,overhead_pct,fpr_pct,...
    std::size_t field = 0;
    for (int comma = 0; comma < 4; ++comma) field = row.find(',', field) + 1;
    EXPECT_EQ(row.substr(field, 4), "n/a,") << row;
    ++rows;
  }
  EXPECT_EQ(rows, sweep.cells.size());
}

// ------------------------------------------------------------- residency

/// This process's resident file-backed memory in kB (RssFile in
/// /proc/self/status); nothing where the kernel does not report it.
std::optional<std::uint64_t> rss_file_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("RssFile:", 0) == 0) return std::stoull(line.substr(8));
  return std::nullopt;
}

/// Every byte of a lent block's lanes, folded, so that replay touches
/// each page of the block.
std::uint64_t touch_lanes(const BankLaneView* lanes, std::size_t lane_banks) {
  std::uint64_t sum = 0;
  for (std::size_t b = 0; b < lane_banks; ++b)
    for (std::size_t k = 0; k < lanes[b].count; ++k)
      sum += lanes[b].times[k] + lanes[b].rows[k] + lanes[b].serials[k] +
             lanes[b].flags[k] + lanes[b].sources[k];
  return sum;
}

// A replay keeps about one block of its corpus resident, not the corpus:
// a source releases the pages before each block it moves on to, and the
// rest at its end. Both read paths read every record of a ~40 MB corpus
// in 4,096-record (72 KB) blocks, and the process's resident file pages
// may grow by eight blocks at any point, where keeping every touched
// page would grow them by the corpus.
TEST(CorpusReplay, ResidentSetStaysWithinAFewBlocks) {
  if (!rss_file_kb()) GTEST_SKIP() << "no RssFile in /proc/self/status";
  constexpr std::size_t kBlockRecords = 4096;
  exp::SimConfig cfg;
  exp::install_standard_campaign(cfg);
  cfg.seed = 5;
  cfg.finalize();
  TempFile file("resident");
  exp::record_corpus(cfg, file.path(), kBlockRecords);
  const std::uint64_t corpus_kb = fs::file_size(file.path()) / 1024;
  ASSERT_GT(corpus_kb, 32u * 1024) << "the corpus must dwarf the bound";
  const std::uint64_t bound_kb = 8 * kBlockRecords * 18 / 1024;

  // A small corpus's replay first faults in the code both paths run, so
  // that the baseline holds it.
  TempFile warm("resident_warm");
  write_corpus(warm.path(), make_records(4 * kBlockRecords), 4, kBlockRecords);
  {
    MmapSource spans(warm.path());
    EXPECT_EQ(drain_spans(spans).size(), 4 * kBlockRecords);
    EXPECT_EQ(read_corpus(warm.path()).size(), 4 * kBlockRecords);
  }
  const std::uint64_t baseline_kb = *rss_file_kb();
  std::uint64_t peak_kb = baseline_kb;
  std::uint64_t records = 0;
  std::uint64_t folded = 0;

  MmapSource spans(file.path());
  const AccessRecord* data = nullptr;
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  while (const std::size_t n = spans.span_lanes(&data, &lanes, &lane_banks)) {
    ASSERT_NE(lanes, nullptr);
    folded += touch_lanes(lanes, lane_banks);
    records += n;
    peak_kb = std::max(peak_kb, *rss_file_kb());
  }
  EXPECT_EQ(records, spans.info().total_records);
  EXPECT_NE(folded, 0u);

  MmapSource batches(file.path());
  std::vector<AccessRecord> batch(kBlockRecords / 3);  // straddles blocks
  records = 0;
  while (const std::size_t n = batches.next_batch(batch.data(), batch.size())) {
    records += n;
    peak_kb = std::max(peak_kb, *rss_file_kb());
  }
  EXPECT_EQ(records, batches.info().total_records);
  EXPECT_LE(peak_kb - baseline_kb, bound_kb)
      << "replaying a " << corpus_kb << " kB corpus grew the resident file pages from "
      << baseline_kb << " to " << peak_kb << " kB";
  EXPECT_LE(*rss_file_kb(), baseline_kb + bound_kb) << "a drained source keeps its pages";
}

// Two sources over one corpus share its mapping, and each releases the
// pages behind its own block, which may be the block the other is still
// reading. A released page refaults with the same bytes, so each source
// replays exactly: one runs several blocks ahead and lends its lanes
// while the other reads the block that the first one's pull released.
TEST(CorpusReplay, SourcesSharingAMappingReplayIdentically) {
  TempFile file("shared_mapping");
  // 1,000-record blocks span several pages each.
  const auto records = make_records(60'000);
  write_corpus(file.path(), records, 4, 1'000);
  ASSERT_EQ(read_corpus(file.path()), records);

  for (const bool behind_by_batches : {false, true}) {
    SCOPED_TRACE(behind_by_batches ? "behind by next_batch" : "both by span_lanes");
    MmapSource ahead(file.path());
    MmapSource behind(file.path());
    std::vector<AccessRecord> from_ahead;
    std::vector<AccessRecord> from_behind;
    const AccessRecord* data = nullptr;
    const BankLaneView* lanes = nullptr;
    std::size_t banks = 0;
    const std::uint64_t* first_times = nullptr;
    const auto pull_ahead = [&] {
      const std::size_t n = ahead.span_lanes(&data, &lanes, &banks);
      if (first_times == nullptr) first_times = lanes[0].times;
      const auto span = span_records(data, lanes, banks, n);
      from_ahead.insert(from_ahead.end(), span.begin(), span.end());
      return n;
    };
    for (int block = 0; block < 5; ++block) ASSERT_EQ(pull_ahead(), 1'000u);
    bool more = true;
    while (more) {
      std::size_t n = 0;
      if (behind_by_batches) {
        std::vector<AccessRecord> batch(777);
        n = behind.next_batch(batch.data(), batch.size());
        pull_ahead();
        from_behind.insert(from_behind.end(), batch.begin(), batch.begin() + n);
      } else {
        const AccessRecord* behind_data = nullptr;
        const BankLaneView* behind_lanes = nullptr;
        std::size_t behind_banks = 0;
        n = behind.span_lanes(&behind_data, &behind_lanes, &behind_banks);
        if (from_behind.empty()) {
          EXPECT_EQ(behind_lanes[0].times, first_times) << "the sources share one mapping";
        }
        // The other source's pull releases the pages of the block lent
        // here; reading its lanes afterwards refaults them.
        pull_ahead();
        const auto span = span_records(behind_data, behind_lanes, behind_banks, n);
        from_behind.insert(from_behind.end(), span.begin(), span.end());
      }
      more = n != 0;
    }
    EXPECT_EQ(from_ahead, records);
    EXPECT_EQ(from_behind, records);
  }
}

// ------------------------------------------------- deterministic mutation

/// A directory of mutants, removed when the test ends. Every mutant is a
/// file of its own, kept until then: the process-wide mapping cache keys
/// on (device, inode, size, mtime, identity), and a payload flip leaves
/// the identity alone, so a file rewritten in place (or a recycled
/// inode) could be served a clean mapping's verified bits.
class MutantDir {
 public:
  explicit MutantDir(const std::string& name)
      : dir_(fs::temp_directory_path() /
             ("tvp_corpus_" + name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~MutantDir() { fs::remove_all(dir_); }
  std::string path(const std::string& name) const {
    return (dir_ / (name + ".tvpc")).string();
  }
  std::string write(const std::string& name, const std::vector<char>& bytes) const {
    spit(path(name), bytes);
    return path(name);
  }

 private:
  fs::path dir_;
};

/// The mutation corpus: four blocks of 12 records and a tail block of 5
/// over an odd bank count, so both padding areas hold bytes (the
/// counts', and the tail block's after its source column), with
/// aggressor and victim keys.
std::vector<AccessRecord> write_mutation_corpus(const std::string& path) {
  const auto records = make_records(4 * 12 + 5);
  CorpusWriter writer(path, 5, 12);
  writer.append(records.data(), records.size());
  writer.set_aggressors({3, (std::uint64_t{1} << 32) | 7, (std::uint64_t{2} << 32) | 9});
  writer.set_victims({4, (std::uint64_t{1} << 32) | 8});
  writer.close();
  return records;
}

/// verify_corpus must reject @p path with a runtime_error naming it.
void expect_verify_rejects(const std::string& path) {
  try {
    verify_corpus(path);
    ADD_FAILURE() << "verify_corpus accepted the mutant";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(CorpusMutation, EverySingleBitFlipIsRejected) {
  // One seeded bit flipped at every byte offset — lane counts, columns
  // and padding, footer and trailer — and every bit of the file header,
  // whose flag word gives single bits their own meaning. Each byte is
  // covered by the footer CRC or a block CRC, so full verification
  // rejects every mutant. next_batch may only throw or return the
  // original records.
  const MutantDir dir("bitflip");
  const std::string clean = dir.path("clean");
  const auto records = write_mutation_corpus(clean);
  const auto bytes = slurp(clean);
  ASSERT_EQ(bytes.size(), 32u + 4 * 240 + 120 + 24 + 5 * 24 + 5 * 8 + 16);
  util::Rng rng(23);
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    const unsigned seeded = static_cast<unsigned>(rng.below(8));
    for (unsigned bit = 0; bit < 8; ++bit) {
      if (at >= 32 && bit != seeded) continue;
      auto mutant = bytes;
      mutant[at] = static_cast<char>(mutant[at] ^ (1u << bit));
      const std::string name = std::to_string(at) + "_" + std::to_string(bit);
      SCOPED_TRACE("byte " + std::to_string(at) + " bit " + std::to_string(bit));
      const std::string path = dir.write("flip_" + name, mutant);
      expect_verify_rejects(path);
      try {
        MmapSource source(path);
        EXPECT_EQ(drain(source), records) << "next_batch returned other records";
      } catch (const std::runtime_error&) {
      }
    }
  }
}

TEST(CorpusMutation, SeededTruncationsAreRejected) {
  const MutantDir dir("truncation");
  const std::string clean = dir.path("clean");
  write_mutation_corpus(clean);
  const auto bytes = slurp(clean);
  std::vector<std::size_t> lengths = {0, 31, 32, bytes.size() - 16, bytes.size() - 1};
  util::Rng rng(29);
  for (int i = 0; i < 64; ++i) lengths.push_back(rng.below(bytes.size()));
  for (const std::size_t length : lengths) {
    SCOPED_TRACE("truncated to " + std::to_string(length) + " bytes");
    expect_verify_rejects(dir.write("cut_" + std::to_string(length),
                                    {bytes.begin(), bytes.begin() + length}));
  }
}

TEST(CorpusMutation, LyingCountsAreRejected) {
  // Each count lies under a re-stamped footer CRC, so only the structure
  // can give it away: the blocks no longer tile the file, the footer is
  // not as long as its counts say, or the trailer frames no footer.
  const MutantDir dir("lies");
  const std::string clean = dir.path("clean");
  write_mutation_corpus(clean);
  const auto bytes = slurp(clean);
  const std::size_t footer = footer_at(bytes);
  const std::size_t trailer = bytes.size() - 16;
  struct Lie {
    std::string name;
    std::size_t at;
    int width;
    std::uint64_t value;
    const char* expect;
  };
  const std::uint64_t total = get_le(bytes, footer + 24 + 4 * 24, 4);
  const std::vector<Lie> lies = {
      {"first block's records + 1", footer + 24, 4, 13, "runs into the footer"},
      {"first block's records - 1", footer + 24, 4, 11, "not at the footer"},
      {"tail block's records + 1", footer + 24 + 4 * 24, 4, total + 1, "runs into the footer"},
      {"tail block's records 0", footer + 24 + 4 * 24, 4, 0, "block 4 is empty"},
      // 5 banks pad their counts to 24 bytes, as 6 would: 4 and 7 do not.
      {"banks 4", 12, 4, 4, "footer"},
      {"banks 7", 12, 4, 7, "runs into the footer"},
      {"banks 0", 12, 4, 0, "header declares zero banks"},
      {"banks 2^32 - 1", 12, 4, 0xFFFFFFFFu, "runs into the footer"},
      {"aggressors + 1", footer + 8, 8, 4, "footer size does not match its counts"},
      {"victims - 1", footer + 16, 8, 1, "footer size does not match its counts"},
      {"aggressors 2^61", footer + 8, 8, std::uint64_t{1} << 61,
       "footer size does not match its counts"},
      {"footer size + 8", trailer, 4, bytes.size() - 16 - footer + 8, "footer"},
      {"footer size - 8", trailer, 4, bytes.size() - 16 - footer - 8, "footer"},
      {"footer size 0", trailer, 4, 0, "trailer does not frame a footer"},
      {"footer size 2^32 - 1", trailer, 4, 0xFFFFFFFFu, "trailer does not frame a footer"},
  };
  for (std::size_t i = 0; i < lies.size(); ++i) {
    const Lie& lie = lies[i];
    SCOPED_TRACE(lie.name);
    auto mutant = bytes;
    put_le(mutant, lie.at, lie.value, lie.width);
    const std::uint64_t framed = get_le(mutant, trailer, 4);
    if (framed >= 24 && framed <= mutant.size() - 48) restamp_footer_crc(mutant);
    const std::string path = dir.write("lie_" + std::to_string(i), mutant);
    try {
      read_corpus_info(path);
      ADD_FAILURE() << "the lie was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(lie.expect), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
  }
}

TEST(CorpusMutation, LyingLanesAreRejected) {
  // Each lie rewrites one block's lanes and re-stamps its CRC and the
  // footer CRC, so only the first-touch proof can give it away: counts
  // that do not sum to the block, padding that is not zero, a flag bit
  // above bit 1, a lane's serials out of order, a serial claimed twice
  // or past the block, and times out of order across lanes (each lane
  // still ascending). verify_corpus must reject each naming the file
  // and the block; next_batch may only throw or return the original
  // records.
  const MutantDir dir("lying_lanes");
  const std::string clean = dir.path("clean");
  const auto records = write_mutation_corpus(clean);
  const auto bytes = slurp(clean);
  const CorpusInfo info = read_corpus_info(clean);
  ASSERT_EQ(info.blocks.size(), 5u);
  // Block 1 holds records 12..23: bank b's lane is serials b, b + 4,
  // b + 8 (records 12 + b, ...), and bank 4's lane is empty.
  const std::vector<AccessRecord> block1(records.begin() + 12, records.begin() + 24);
  const std::vector<AccessRecord> tail(records.begin() + 48, records.end());
  struct Lie {
    std::string name;
    std::size_t block;
    std::function<void(Lanes&)> lanes;
    std::function<void(char*)> bytes;
    std::string expect;
  };
  const std::vector<Lie> lies = {
      {"bank 4's count 1", 1, {},
       [](char* b) { b[16] = 1; }, "block 1 lanes do not cover the block"},
      {"counts' padding", 1, {},
       [](char* b) { b[20] = 1; }, "block 1 lane padding is not zero"},
      {"source column's padding", 4, {},
       [](char* b) { b[Layout(5, 5).end - 1] = 1; }, "block 4 lane padding is not zero"},
      {"a high flag bit", 1, [](Lanes& l) { l[0][1].flags |= 4; }, {},
       "block 1 has a flag byte with bits above bit 1"},
      {"a serial out of order in a lane", 1,
       [](Lanes& l) { std::swap(l[2][0].serial, l[2][1].serial); }, {},
       "block 1 lane serials do not ascend"},
      {"a duplicate serial", 1, [](Lanes& l) { l[1][0].serial = 0; }, {},
       "block 1 lane serials are not a permutation of the block"},
      {"a serial past the block", 1, [](Lanes& l) { l[3][2].serial = 12; }, {},
       "block 1 lane serials are not a permutation of the block"},
      {"times out of order across lanes", 1,
       [](Lanes& l) { std::swap(l[0][1].time, l[1][1].time); }, {},
       "block 1 records are not time-ordered"},
  };
  for (std::size_t i = 0; i < lies.size(); ++i) {
    const Lie& lie = lies[i];
    SCOPED_TRACE(lie.name);
    Lanes lanes = lanes_of(lie.block == 1 ? block1 : tail, 5);
    if (lie.lanes) lie.lanes(lanes);
    auto mutant = bytes;
    const CorpusBlockInfo& b = info.blocks[lie.block];
    restamp_block(mutant, info, lie.block, lanes, b.min_time_ps, b.max_time_ps,
                  lie.bytes);
    const std::string path = dir.write("lie_" + std::to_string(i), mutant);
    try {
      verify_corpus(path);
      ADD_FAILURE() << "the lie was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(lie.expect), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
    try {
      MmapSource source(path);
      EXPECT_EQ(drain(source), records) << "next_batch returned other records";
    } catch (const std::runtime_error&) {
    }
  }
}

}  // namespace
}  // namespace tvp::trace
