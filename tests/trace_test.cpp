// Unit tests for tvp::trace — sources, synthetic workloads, attacker
// models, address-trace import and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <sstream>

#include "tvp/dram/timing.hpp"
#include "tvp/trace/attack.hpp"
#include "tvp/trace/fuzzer.hpp"
#include "tvp/trace/io.hpp"
#include "tvp/trace/source.hpp"
#include "tvp/trace/stats.hpp"
#include "tvp/trace/synthetic.hpp"

namespace tvp::trace {
namespace {

AccessRecord rec(std::uint64_t t, std::uint32_t bank = 0, std::uint32_t row = 0) {
  AccessRecord r;
  r.time_ps = t;
  r.bank = bank;
  r.row = row;
  return r;
}

// ------------------------------------------------------------------ sources

TEST(VectorSource, ReplaysInOrder) {
  VectorSource src({rec(1), rec(2), rec(2), rec(5)});
  EXPECT_EQ(src.next()->time_ps, 1u);
  EXPECT_EQ(src.next()->time_ps, 2u);
  EXPECT_EQ(src.next()->time_ps, 2u);
  EXPECT_EQ(src.next()->time_ps, 5u);
  EXPECT_FALSE(src.next().has_value());
}

TEST(VectorSource, RejectsUnsorted) {
  EXPECT_THROW(VectorSource({rec(5), rec(1)}), std::invalid_argument);
}

TEST(MergedSource, ProducesGlobalTimeOrder) {
  std::vector<std::unique_ptr<TraceSource>> sources;
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(4), rec(9)}));
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(2), rec(3), rec(10)}));
  MergedSource merged(std::move(sources));
  std::uint64_t last = 0;
  int count = 0;
  while (auto r = merged.next()) {
    EXPECT_GE(r->time_ps, last);
    last = r->time_ps;
    ++count;
  }
  EXPECT_EQ(count, 6);
}

TEST(MergedSource, TieBreaksByRegistrationOrder) {
  std::vector<std::unique_ptr<TraceSource>> sources;
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(5, 0)}));
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(5, 1)}));
  MergedSource merged(std::move(sources));
  EXPECT_EQ(merged.next()->bank, 0u);
  EXPECT_EQ(merged.next()->bank, 1u);
}

TEST(MergedSource, ThreeWayTieKeepsRegistrationOrderThroughout) {
  // Replay determinism leans on this: when several sources agree on a
  // timestamp — including runs of equal times within one source — the
  // merged order is registration order, every time.
  std::vector<std::unique_ptr<TraceSource>> sources;
  for (std::uint32_t s = 0; s < 3; ++s)
    sources.push_back(std::make_unique<VectorSource>(
        std::vector<AccessRecord>{rec(5, s), rec(5, s), rec(7, s)}));
  MergedSource merged(std::move(sources));
  std::vector<std::uint32_t> banks;
  while (auto r = merged.next()) banks.push_back(r->bank);
  EXPECT_EQ(banks,
            (std::vector<std::uint32_t>{0, 0, 1, 1, 2, 2, 0, 1, 2}));
}

TEST(LimitSource, CutsByCountAndTime) {
  auto inner = std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(2), rec(3), rec(100)});
  LimitSource by_count(std::move(inner), 2, ~0ull);
  EXPECT_TRUE(by_count.next().has_value());
  EXPECT_TRUE(by_count.next().has_value());
  EXPECT_FALSE(by_count.next().has_value());

  auto inner2 = std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(2), rec(50)});
  LimitSource by_time(std::move(inner2), ~0ull, 10);
  EXPECT_TRUE(by_time.next().has_value());
  EXPECT_TRUE(by_time.next().has_value());
  EXPECT_FALSE(by_time.next().has_value());  // 50 >= 10
}

TEST(Drain, CollectsEverything) {
  VectorSource src({rec(1), rec(2)});
  EXPECT_EQ(drain(src).size(), 2u);
}

// -------------------------------------------------------------- next_batch

// Drains @p a via next() and @p b via next_batch(chunk) and requires the
// two record sequences to be identical.
void expect_batch_equals_next(TraceSource& a, TraceSource& b,
                              std::size_t chunk) {
  std::vector<AccessRecord> via_next;
  while (auto r = a.next()) via_next.push_back(*r);

  std::vector<AccessRecord> via_batch;
  std::vector<AccessRecord> buf(chunk);
  for (;;) {
    const std::size_t n = b.next_batch(buf.data(), buf.size());
    if (n == 0) break;
    ASSERT_LE(n, buf.size());
    via_batch.insert(via_batch.end(), buf.begin(), buf.begin() + n);
  }
  ASSERT_EQ(via_next.size(), via_batch.size()) << "chunk " << chunk;
  for (std::size_t i = 0; i < via_next.size(); ++i)
    EXPECT_TRUE(via_next[i] == via_batch[i]) << "record " << i;
}

TEST(NextBatch, VectorSourceMatchesNext) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(2, 1, 7), rec(5),
                                       rec(9, 3, 4)};
  for (const std::size_t chunk : {1u, 2u, 3u, 16u}) {
    VectorSource a(data), b(data);
    expect_batch_equals_next(a, b, chunk);
  }
}

std::unique_ptr<MergedSource> make_merged() {
  std::vector<std::unique_ptr<TraceSource>> sources;
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(1), rec(4), rec(5, 0), rec(9)}));
  sources.push_back(std::make_unique<VectorSource>(
      std::vector<AccessRecord>{rec(2), rec(3), rec(5, 1), rec(10)}));
  return std::make_unique<MergedSource>(std::move(sources));
}

TEST(NextBatch, MergedSourceMatchesNextIncludingTieBreaks) {
  for (const std::size_t chunk : {1u, 3u, 7u, 64u, 256u, 4096u}) {
    auto a = make_merged();
    auto b = make_merged();
    expect_batch_equals_next(*a, *b, chunk);
  }
}

TEST(NextBatch, LimitSourceHonoursCountAndTimeCuts) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(3), rec(4),
                                       rec(50), rec(60)};
  for (const std::size_t chunk : {1u, 2u, 4u, 16u}) {
    LimitSource a(std::make_unique<VectorSource>(data), 3, ~0ull);
    LimitSource b(std::make_unique<VectorSource>(data), 3, ~0ull);
    expect_batch_equals_next(a, b, chunk);

    LimitSource at(std::make_unique<VectorSource>(data), ~0ull, 10);
    LimitSource bt(std::make_unique<VectorSource>(data), ~0ull, 10);
    expect_batch_equals_next(at, bt, chunk);
  }
}

TEST(NextBatch, DeadSourceKeepsReturningZero) {
  LimitSource src(std::make_unique<VectorSource>(
                      std::vector<AccessRecord>{rec(1), rec(2)}),
                  1, ~0ull);
  AccessRecord buf[4];
  EXPECT_EQ(src.next_batch(buf, 4), 1u);
  EXPECT_EQ(src.next_batch(buf, 4), 0u);
  EXPECT_EQ(src.next_batch(buf, 4), 0u);
  EXPECT_FALSE(src.next().has_value());
}

// ------------------------------------------------- batched generation/merge

// Batch sizes below, at and above MergedSource's 256-record lanes.
constexpr std::size_t kBatchedChunks[] = {1, 7, 256, 4096};

// Pulls up to @p limit records from @p src with next_batch(chunk) calls
// (the last call asks only for what is left of the limit).
std::vector<AccessRecord> pull_batched(TraceSource& src, std::size_t chunk,
                                       std::size_t limit = ~std::size_t{0}) {
  std::vector<AccessRecord> out;
  std::vector<AccessRecord> buf(chunk);
  while (out.size() < limit) {
    const std::size_t want = std::min(chunk, limit - out.size());
    const std::size_t n = src.next_batch(buf.data(), want);
    if (n == 0) break;
    EXPECT_LE(n, want);
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

// Alternates next() with next_batch() calls cycling through
// kBatchedChunks until the source runs dry or @p limit records.
std::vector<AccessRecord> pull_interleaved(TraceSource& src,
                                           std::size_t limit = ~std::size_t{0}) {
  std::vector<AccessRecord> out;
  std::vector<AccessRecord> buf(4096);
  for (std::size_t call = 0; out.size() < limit; ++call) {
    if (call % 2 == 0) {
      const auto r = src.next();
      if (!r) break;
      out.push_back(*r);
      continue;
    }
    const std::size_t want =
        std::min(kBatchedChunks[(call / 2) % 4], limit - out.size());
    const std::size_t n = src.next_batch(buf.data(), want);
    if (n == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  return out;
}

void expect_exhausted(TraceSource& src) {
  AccessRecord buf[8];
  EXPECT_EQ(src.next_batch(buf, 8), 0u);
  EXPECT_FALSE(src.next().has_value());
  EXPECT_EQ(src.next_batch(buf, 8), 0u);
}

constexpr AccessProfile kAllProfiles[] = {
    AccessProfile::kStreaming, AccessProfile::kStrided, AccessProfile::kRandom,
    AccessProfile::kHotspot, AccessProfile::kPointerChase};

// Small bank and row counts so every cursor wraps many times.
SyntheticConfig batched_synthetic(AccessProfile profile) {
  SyntheticConfig cfg;
  cfg.profile = profile;
  cfg.banks = 5;
  cfg.rows_per_bank = 300;
  cfg.mean_interarrival_ps = 1000;
  cfg.stride = 7;
  cfg.hotspot_rows = 8;
  cfg.chase_jump = 4;
  return cfg;
}

TEST(Batched, SyntheticNextBatchEqualsNextForEveryProfile) {
  constexpr std::size_t kRecords = 10'000;
  for (const auto profile : kAllProfiles) {
    SyntheticSource ref(batched_synthetic(profile), util::Rng(17));
    const auto expected = drain(ref, kRecords);
    for (const std::size_t chunk : kBatchedChunks) {
      SyntheticSource src(batched_synthetic(profile), util::Rng(17));
      EXPECT_EQ(pull_batched(src, chunk, kRecords), expected)
          << to_string(profile) << " chunk " << chunk;
    }
    SyntheticSource mixed(batched_synthetic(profile), util::Rng(17));
    EXPECT_EQ(pull_interleaved(mixed, kRecords), expected) << to_string(profile);
  }
}

TEST(Batched, SyntheticBankCursorWrapsLikeModulo) {
  // Reference model of the kRandom draws (row, bank skip, write) with the
  // wrap spelled as a modulo; banks < 3 wrap more than once per step.
  for (const std::uint32_t banks : {1u, 2u, 3u, 16u}) {
    SyntheticConfig cfg = batched_synthetic(AccessProfile::kRandom);
    cfg.banks = banks;
    SyntheticSource src(cfg, util::Rng(29));
    util::Rng rng(29);
    (void)rng.below(cfg.rows_per_bank);  // the constructor's cursor draw
    double now = 0;
    std::uint32_t bank = 0;
    for (int i = 0; i < 2000; ++i) {
      now += rng.exponential(cfg.mean_interarrival_ps);
      const auto row = static_cast<dram::RowId>(rng.below(cfg.rows_per_bank));
      bank = (bank + 1 + static_cast<std::uint32_t>(rng.below(3))) % banks;
      const bool write = rng.bernoulli(cfg.write_fraction);
      const auto r = src.next();
      ASSERT_TRUE(r.has_value());
      ASSERT_EQ(r->time_ps, static_cast<std::uint64_t>(now)) << i;
      ASSERT_EQ(r->row, row) << i;
      ASSERT_EQ(r->bank, bank) << "banks " << banks << " record " << i;
      ASSERT_EQ(r->write, write) << i;
    }
  }
}

// One config per AttackPattern, each cut by end_ps after exactly
// kBatchedAttackRecords records (inside a batch for every chunk size).
constexpr std::size_t kBatchedAttackRecords = 1000;

std::vector<AttackConfig> batched_attacks() {
  AttackConfig base;
  base.bank = 2;
  base.victims = {40, 80};
  base.rows_per_bank = 1024;
  base.interarrival_ps = 45'000;
  base.start_ps = 1000;
  base.end_ps = base.start_ps + base.interarrival_ps * kBatchedAttackRecords + 1;
  base.sides = 3;
  base.far_per_near = 5;

  std::vector<AttackConfig> configs;
  for (const auto pattern :
       {AttackPattern::kSingleSided, AttackPattern::kDoubleSided,
        AttackPattern::kMultiAggressor, AttackPattern::kFlood,
        AttackPattern::kManySided, AttackPattern::kHalfDouble}) {
    AttackConfig c = base;
    c.pattern = pattern;
    configs.push_back(c);
  }
  FuzzParams params;
  params.rows_per_bank = base.rows_per_bank;
  const PatternFuzzer fuzzer(params);
  AttackConfig fuzzed =
      fuzzer.make_attack(fuzzer.pattern(3), base.bank, base.interarrival_ps, 240);
  fuzzed.start_ps = base.start_ps;
  fuzzed.end_ps = base.end_ps;
  configs.push_back(fuzzed);
  return configs;
}

TEST(Batched, AttackNextBatchEqualsNextForEveryPattern) {
  for (const auto& cfg : batched_attacks()) {
    AttackSource ref(cfg);
    std::vector<AccessRecord> expected;
    while (const auto r = ref.next()) expected.push_back(*r);
    ASSERT_EQ(expected.size(), kBatchedAttackRecords) << to_string(cfg.pattern);
    expect_exhausted(ref);
    for (const std::size_t chunk : kBatchedChunks) {
      AttackSource src(cfg);
      EXPECT_EQ(pull_batched(src, chunk), expected)
          << to_string(cfg.pattern) << " chunk " << chunk;
      expect_exhausted(src);
    }
    AttackSource mixed(cfg);
    EXPECT_EQ(pull_interleaved(mixed), expected) << to_string(cfg.pattern);
    expect_exhausted(mixed);
  }
}

TEST(Batched, HalfDoubleDribblesEveryFarPerNearPlusOne) {
  for (const auto& cfg : batched_attacks()) {
    if (cfg.pattern != AttackPattern::kHalfDouble) continue;
    AttackSource src(cfg);
    const auto& near_rows = src.dribble_rows();
    ASSERT_EQ(near_rows.size(), 4u);
    const auto records = pull_batched(src, 256);
    ASSERT_EQ(records.size(), kBatchedAttackRecords);
    std::size_t dribbles = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const bool is_near = std::find(near_rows.begin(), near_rows.end(),
                                     records[i].row) != near_rows.end();
      EXPECT_EQ(is_near, (i + 1) % (cfg.far_per_near + 1) == 0) << i;
      // Near rows rotate in order across dribbles.
      if (is_near) {
        EXPECT_EQ(records[i].row, near_rows[dribbles++ % near_rows.size()]);
      }
    }
    EXPECT_EQ(dribbles, kBatchedAttackRecords / (cfg.far_per_near + 1));
  }
}

// Children for a merge test plus the offline reference: the children's
// records concatenated in registration order, stably sorted by time.
struct MergeCase {
  const char* name;
  std::vector<std::vector<AccessRecord>> children;

  std::unique_ptr<MergedSource> merged() const {
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (const auto& c : children) sources.push_back(std::make_unique<VectorSource>(c));
    return std::make_unique<MergedSource>(std::move(sources));
  }
  std::vector<AccessRecord> expected() const {
    std::vector<AccessRecord> all;
    for (const auto& c : children) all.insert(all.end(), c.begin(), c.end());
    std::stable_sort(all.begin(), all.end(),
                     [](const AccessRecord& a, const AccessRecord& b) {
                       return a.time_ps < b.time_ps;
                     });
    return all;
  }
};

// @p n records of child @p s at times k / 3: runs of three equal times,
// one of which (k = 255..257) straddles the first lane refill, and the
// same times in every child, so ties are 3 x children wide.
std::vector<AccessRecord> tie_run(std::size_t n, std::uint32_t s) {
  std::vector<AccessRecord> out;
  for (std::size_t k = 0; k < n; ++k)
    out.push_back(rec(k / 3, s, static_cast<std::uint32_t>(k)));
  return out;
}

std::vector<MergeCase> merge_cases() {
  return {
      {"empty children at construction",
       {{}, tie_run(300, 1), {}, tie_run(5, 3)}},
      {"staggered exhaustion, ties across a refill",
       {tie_run(700, 0), tie_run(513, 1), tie_run(256, 2)}},
      {"one child", {tie_run(600, 0)}},
      {"all empty", {{}, {}}},
  };
}

TEST(Batched, MergeEqualsOfflineStableSort) {
  for (const auto& c : merge_cases()) {
    const auto expected = c.expected();
    for (const std::size_t chunk : kBatchedChunks) {
      const auto merged = c.merged();
      EXPECT_EQ(pull_batched(*merged, chunk), expected)
          << c.name << " chunk " << chunk;
      expect_exhausted(*merged);
    }
    const auto by_next = c.merged();
    EXPECT_EQ(drain(*by_next), expected) << c.name;
    expect_exhausted(*by_next);
  }
}

TEST(Batched, MergeInterleavedNextAndNextBatch) {
  for (const auto& c : merge_cases()) {
    const auto merged = c.merged();
    EXPECT_EQ(pull_interleaved(*merged), c.expected()) << c.name;
    expect_exhausted(*merged);
  }
}

TEST(Batched, MergeMatchesStableSortForEveryChildCount) {
  // Counts that are not powers of two leave padding leaves in the
  // merge's tree. Each tie run crosses the first lane refill inside a
  // run of equal times, and the runs differ in length, so children run
  // out at different points; children 2, 6, 10, ... get no tie run, so
  // most of them are empty; and every third child ends in records at
  // the largest time (child 0 in a run longer than a lane).
  constexpr std::uint64_t kLast = ~std::uint64_t{0};
  for (const std::size_t count : {1, 2, 3, 5, 7, 8, 9, 16, 17, 33}) {
    MergeCase c{"", {}};
    for (std::uint32_t s = 0; s < count; ++s) {
      std::vector<AccessRecord> child;
      if (s % 4 != 2) child = tie_run(257 + (s * 131) % 500, s);
      if (s % 3 == 0)
        for (std::size_t k = 0; k < (s == 0 ? 300u : 2u); ++k)
          child.push_back(rec(kLast, s, static_cast<std::uint32_t>(k)));
      c.children.push_back(std::move(child));
    }
    const auto expected = c.expected();
    for (const std::size_t chunk : kBatchedChunks) {
      const auto merged = c.merged();
      EXPECT_EQ(pull_batched(*merged, chunk), expected)
          << count << " children, chunk " << chunk;
      expect_exhausted(*merged);
    }
    const auto mixed = c.merged();
    EXPECT_EQ(pull_interleaved(*mixed), expected) << count << " children";
    expect_exhausted(*mixed);
  }
}

// The table3 shape: four synthetic streams and three attackers (one of
// them half-double, one fuzzed), each child with its own RNG fork.
std::vector<std::unique_ptr<TraceSource>> generated_mix() {
  std::vector<std::unique_ptr<TraceSource>> sources;
  util::Rng rng(41);
  for (const auto& c : mixed_workload(4, 1024, 7'812'500, 40.0))
    sources.push_back(std::make_unique<SyntheticSource>(c, rng.fork()));
  for (auto cfg : batched_attacks()) {
    if (cfg.pattern != AttackPattern::kDoubleSided &&
        cfg.pattern != AttackPattern::kHalfDouble &&
        cfg.pattern != AttackPattern::kFuzzed)
      continue;
    cfg.end_ps = ~0ull;
    sources.push_back(std::make_unique<AttackSource>(cfg));
  }
  return sources;
}

TEST(Batched, GeneratedMixMergeEqualsOfflineSortUpToHorizon) {
  // The horizon cuts every child mid-lane; the merge's read-ahead past
  // it must be discarded without disturbing anything before it.
  constexpr std::uint64_t kHorizonPs = 300'000'000;
  std::vector<AccessRecord> expected;
  for (auto& child : generated_mix()) {
    LimitSource cut(std::move(child), ~0ull, kHorizonPs);
    const auto records = drain(cut);
    expected.insert(expected.end(), records.begin(), records.end());
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const AccessRecord& a, const AccessRecord& b) {
                     return a.time_ps < b.time_ps;
                   });
  ASSERT_GT(expected.size(), 4 * MergedSource::kLaneRecords);

  for (const std::size_t chunk : kBatchedChunks) {
    LimitSource src(std::make_unique<MergedSource>(generated_mix()), ~0ull,
                    kHorizonPs);
    EXPECT_EQ(pull_batched(src, chunk), expected) << "chunk " << chunk;
    expect_exhausted(src);
  }
  LimitSource by_next(std::make_unique<MergedSource>(generated_mix()), ~0ull,
                      kHorizonPs);
  EXPECT_EQ(drain(by_next), expected);
  LimitSource mixed(std::make_unique<MergedSource>(generated_mix()), ~0ull,
                    kHorizonPs);
  EXPECT_EQ(pull_interleaved(mixed), expected);
}

// --------------------------------------------------------------- next_span

// span_lanes() for a source that lends record spans (no lanes).
std::size_t next_span(TraceSource& source, const AccessRecord** data) {
  const BankLaneView* lanes = nullptr;
  std::size_t lane_banks = 0;
  const std::size_t n = source.span_lanes(data, &lanes, &lane_banks);
  EXPECT_EQ(lanes, nullptr);
  return n;
}

// Drains @p a via next() and @p b via span_lanes() and requires the two
// record sequences to be identical.
void expect_span_equals_next(TraceSource& a, TraceSource& b) {
  std::vector<AccessRecord> via_next;
  while (auto r = a.next()) via_next.push_back(*r);

  std::vector<AccessRecord> via_span;
  const AccessRecord* span = nullptr;
  while (const std::size_t n = next_span(b, &span))
    via_span.insert(via_span.end(), span, span + n);

  ASSERT_EQ(via_next.size(), via_span.size());
  for (std::size_t i = 0; i < via_next.size(); ++i)
    EXPECT_TRUE(via_next[i] == via_span[i]) << "record " << i;
}

TEST(NextSpan, VectorSourceHandsOutItsUnconsumedTail) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(5)};
  VectorSource a(data), b(data);
  EXPECT_TRUE(b.supports_spans());
  expect_span_equals_next(a, b);

  VectorSource mixed(data);
  EXPECT_EQ(mixed.next()->time_ps, 1u);  // consume one via next()...
  const AccessRecord* span = nullptr;
  ASSERT_EQ(next_span(mixed, &span), 2u);  // ...the span is the tail
  EXPECT_EQ(span[0].time_ps, 2u);
  EXPECT_EQ(span[1].time_ps, 5u);
  EXPECT_EQ(next_span(mixed, &span), 0u);
  EXPECT_EQ(span, nullptr);
}

TEST(NextSpan, LimitSourceTrimsSpansByCountAndTime) {
  const std::vector<AccessRecord> data{rec(1), rec(2), rec(3), rec(4),
                                       rec(50), rec(60)};
  {
    LimitSource a(std::make_unique<VectorSource>(data), 3, ~0ull);
    LimitSource b(std::make_unique<VectorSource>(data), 3, ~0ull);
    EXPECT_TRUE(b.supports_spans());
    expect_span_equals_next(a, b);
  }
  {
    LimitSource a(std::make_unique<VectorSource>(data), ~0ull, 10);
    LimitSource b(std::make_unique<VectorSource>(data), ~0ull, 10);
    expect_span_equals_next(a, b);
  }
  {
    // Both cuts at once: the record limit must bind inside a span the
    // time cut already shortened.
    LimitSource a(std::make_unique<VectorSource>(data), 2, 10);
    LimitSource b(std::make_unique<VectorSource>(data), 2, 10);
    expect_span_equals_next(a, b);
  }
}

TEST(NextSpan, MergedSourceDeclinesSpansButStreamsNormally) {
  // A k-way merge interleaves records and cannot hand out borrowed
  // contiguous spans; the base contract is "unsupported": span_lanes
  // returns 0 without consuming anything.
  auto merged = make_merged();
  EXPECT_FALSE(merged->supports_spans());
  const AccessRecord* span = nullptr;
  EXPECT_EQ(next_span(*merged, &span), 0u);
  EXPECT_EQ(span, nullptr);
  EXPECT_EQ(merged->next()->time_ps, 1u);  // the stream itself is intact
}

// ---------------------------------------------------------------- synthetic

class SyntheticProfile : public ::testing::TestWithParam<AccessProfile> {};

TEST_P(SyntheticProfile, TimeMonotoneAndInRange) {
  SyntheticConfig cfg;
  cfg.profile = GetParam();
  cfg.banks = 4;
  cfg.rows_per_bank = 4096;
  cfg.mean_interarrival_ps = 1000;
  SyntheticSource src(cfg, util::Rng(3));
  std::uint64_t last = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto r = src.next();
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->time_ps, last);
    last = r->time_ps;
    EXPECT_LT(r->bank, 4u);
    EXPECT_LT(r->row, 4096u);
    EXPECT_FALSE(r->is_attack);
  }
}

TEST_P(SyntheticProfile, RateMatchesConfiguration) {
  SyntheticConfig cfg;
  cfg.profile = GetParam();
  cfg.mean_interarrival_ps = 500;
  SyntheticSource src(cfg, util::Rng(5));
  const int n = 20000;
  std::uint64_t last = 0;
  for (int i = 0; i < n; ++i) last = src.next()->time_ps;
  const double mean = static_cast<double>(last) / n;
  EXPECT_NEAR(mean, 500, 25);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SyntheticProfile,
    ::testing::Values(AccessProfile::kStreaming, AccessProfile::kStrided,
                      AccessProfile::kRandom, AccessProfile::kHotspot,
                      AccessProfile::kPointerChase));

TEST(Synthetic, HotspotConcentratesOnWorkingSet) {
  SyntheticConfig cfg;
  cfg.profile = AccessProfile::kHotspot;
  cfg.hotspot_rows = 8;
  cfg.hotspot_bias = 0.95;
  cfg.rows_per_bank = 1 << 16;
  SyntheticSource src(cfg, util::Rng(7));
  std::map<dram::RowId, int> counts;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ++counts[src.next()->row];
  // The top 8 rows should hold ~95% of accesses.
  std::vector<int> sorted;
  for (const auto& [row, c] : counts) sorted.push_back(c);
  std::sort(sorted.rbegin(), sorted.rend());
  int top8 = 0;
  for (int i = 0; i < 8 && i < static_cast<int>(sorted.size()); ++i)
    top8 += sorted[i];
  EXPECT_GT(top8, n * 0.90);
}

TEST(Synthetic, StreamingWalksSequentially) {
  SyntheticConfig cfg;
  cfg.profile = AccessProfile::kStreaming;
  cfg.rows_per_bank = 1024;
  SyntheticSource src(cfg, util::Rng(9));
  dram::RowId prev = src.next()->row;
  for (int i = 0; i < 2000; ++i) {  // crosses the bank end at least once
    const dram::RowId cur = src.next()->row;
    EXPECT_EQ(cur, (prev + 1) % 1024);
    prev = cur;
  }
}

TEST(Synthetic, InvalidConfigThrows) {
  SyntheticConfig cfg;
  cfg.banks = 0;
  EXPECT_THROW(SyntheticSource(cfg, util::Rng(1)), std::invalid_argument);
  cfg = SyntheticConfig{};
  cfg.mean_interarrival_ps = 0;
  EXPECT_THROW(SyntheticSource(cfg, util::Rng(1)), std::invalid_argument);
}

TEST(MixedWorkload, HitsTargetRate) {
  const auto configs = mixed_workload(4, 131072, 7'812'500, 20.0);
  ASSERT_EQ(configs.size(), 4u);
  // Aggregate rate: sum of 1/interarrival == banks * target / tREFI.
  double rate = 0;
  for (const auto& c : configs) rate += 1.0 / c.mean_interarrival_ps;
  EXPECT_NEAR(rate, 4 * 20.0 / 7'812'500, rate * 0.01);
  EXPECT_THROW(mixed_workload(4, 131072, 7'812'500, 0.0), std::invalid_argument);
}

// ------------------------------------------------------------------- attack

TEST(Attack, DoubleSidedDerivesBothAggressors) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kDoubleSided;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  AttackSource src(cfg);
  ASSERT_EQ(src.aggressors().size(), 2u);
  EXPECT_EQ(src.aggressors()[0], 99u);
  EXPECT_EQ(src.aggressors()[1], 101u);
}

TEST(Attack, SingleSidedAndFlood) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kSingleSided;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  EXPECT_EQ(AttackSource(cfg).aggressors(), std::vector<dram::RowId>{101});
  cfg.pattern = AttackPattern::kFlood;
  EXPECT_EQ(AttackSource(cfg).aggressors(), std::vector<dram::RowId>{100});
}

TEST(Attack, EdgeVictimHasOneAggressor) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kDoubleSided;
  cfg.victims = {0};
  cfg.rows_per_bank = 1024;
  EXPECT_EQ(AttackSource(cfg).aggressors(), std::vector<dram::RowId>{1});
}

TEST(Attack, MultiAggressorDeduplicatesOverlap) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kMultiAggressor;
  cfg.victims = {10, 12};  // share aggressor row 11
  cfg.rows_per_bank = 1024;
  const AttackSource src(cfg);
  EXPECT_EQ(src.aggressors().size(), 3u);  // 9, 11, 13
}

TEST(Attack, RoundRobinAtConfiguredRate) {
  AttackConfig cfg;
  cfg.pattern = AttackPattern::kDoubleSided;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  cfg.interarrival_ps = 45'000;
  cfg.bank = 3;
  AttackSource src(cfg);
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const auto r = src.next();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->time_ps - prev, 45'000u);
    prev = r->time_ps;
    EXPECT_EQ(r->bank, 3u);
    EXPECT_TRUE(r->is_attack);
    EXPECT_EQ(r->row, i % 2 == 0 ? 99u : 101u);
  }
}

TEST(Attack, EndsAtConfiguredTime) {
  AttackConfig cfg;
  cfg.victims = {100};
  cfg.rows_per_bank = 1024;
  cfg.interarrival_ps = 10;
  cfg.end_ps = 100;
  AttackSource src(cfg);
  int n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 9);
}

TEST(Attack, InvalidConfigThrows) {
  AttackConfig cfg;
  EXPECT_THROW(AttackSource{cfg}, std::invalid_argument);  // no victims
  cfg.victims = {5000};
  cfg.rows_per_bank = 1024;
  EXPECT_THROW(AttackSource{cfg}, std::invalid_argument);  // out of range
}

TEST(Attack, MakeMultiAggressorSeparatesVictims) {
  util::Rng rng(13);
  const auto cfg = make_multi_aggressor_attack(0, 131072, 20, rng);
  EXPECT_EQ(cfg.victims.size(), 20u);
  for (std::size_t i = 1; i < cfg.victims.size(); ++i)
    EXPECT_GE(cfg.victims[i] - cfg.victims[i - 1], 8u);
  EXPECT_THROW(make_multi_aggressor_attack(0, 64, 20, rng),
               std::invalid_argument);
}

// ----------------------------------------------------------------------- io

// The streaming importer drained into a vector, as these tests read it.
std::vector<AccessRecord> import_address_trace(std::istream& is,
                                               const dram::AddressMapper& mapper,
                                               double t_ck_ps) {
  AddressTraceSource source(is, mapper, t_ck_ps);
  return drain(source);
}

TEST(TraceIo, ImportAddressTrace) {
  dram::Geometry g;
  g.banks_per_rank = 4;
  g.rows_per_bank = 4096;
  g.cols_per_row = 64;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  std::stringstream ss(
      "# DRAMSim-style trace\n"
      "0x00001000 READ 100\n"
      "0x00002040 WRITE 250\n"
      "4096 R 400\n"
      "; trailing comment line\n");
  const auto records = import_address_trace(ss, mapper, 1000.0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].time_ps, 100'000u);
  EXPECT_FALSE(records[0].write);
  EXPECT_TRUE(records[1].write);
  EXPECT_EQ(records[2].time_ps, 400'000u);
  // 0x1000 and 4096 are the same address -> same coordinates.
  EXPECT_EQ(records[0].bank, records[2].bank);
  EXPECT_EQ(records[0].row, records[2].row);
  for (const auto& r : records) {
    EXPECT_LT(r.bank, g.total_banks());
    EXPECT_LT(r.row, g.rows_per_bank);
    EXPECT_FALSE(r.is_attack);
  }
}

TEST(TraceIo, ImportWithoutCyclesSpacesByClock) {
  dram::Geometry g;
  g.banks_per_rank = 2;
  g.rows_per_bank = 1024;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowBankCol);
  std::stringstream ss("0x100 R\n0x200 W\n0x300 R\n");
  const auto records = import_address_trace(ss, mapper, 500.0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].time_ps, 500u);
  EXPECT_EQ(records[1].time_ps, 1000u);
  EXPECT_EQ(records[2].time_ps, 1500u);
}

TEST(TraceIo, ImportRejectsMalformed) {
  dram::Geometry g;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  const double t_ck = dram::ddr4_timing().t_ck_ps();
  // Each bad line follows a good one, so the error must name line 2.
  for (const char* bad : {
           "0x1000",                          // no op
           "0x1000 X",                        // unknown op
           "zzz R",                           // not a number
           "0x40zz R 10",                     // address with a stray tail
           "08 R 10",                         // not an octal digit
           "-64 R 10",                        // a sign
           "0x R 10",                         // a prefix without digits
           "0x10000000000000000 R 10",        // an address past 64 bits
           "0x80 W 12abc",                    // cycle with a stray tail
           "0x80 W abc",                      // cycle that is no number
           "0x100 R -5",                      // a negative cycle
           "0x100 R +5",                      // a sign
           "0xc0 R 18446744073709551615",     // a time past 64 bits
           "0xc0 R 18446744073709551616",     // a cycle past 64 bits
           "0x100 R 5 extra",                 // a token after the cycle
       }) {
    SCOPED_TRACE(bad);
    std::stringstream ss(std::string("0x40 R 1\n") + bad + "\n");
    try {
      import_address_trace(ss, mapper, t_ck);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("address trace line 2: ", 0), 0u)
          << e.what();
    }
  }
  std::stringstream bad_clock("0x1000 R\n");
  EXPECT_THROW(import_address_trace(bad_clock, mapper, 0.0),
               std::runtime_error);
  EXPECT_THROW(import_address_trace(bad_clock, mapper, -833.0),
               std::runtime_error);
}

// The importer's grammar restated independently, byte by byte: a line is
// cut at its first '#' or ';' and split on C-locale whitespace into
// ADDRESS OP [CYCLE], nothing after. Returns the records, or the number
// of the first line it rejects.
struct ReferenceImport {
  std::vector<AccessRecord> records;
  std::size_t bad_line = 0;  // 0: accepted
};

bool reference_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// All of @p text as digits in @p base, below 2^64.
std::optional<std::uint64_t> reference_digits(const std::string& text,
                                              std::uint64_t base) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    std::uint64_t d = 99;
    if (c >= '0' && c <= '9') d = static_cast<std::uint64_t>(c - '0');
    if (c >= 'a' && c <= 'f') d = static_cast<std::uint64_t>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') d = static_cast<std::uint64_t>(c - 'A' + 10);
    if (d >= base || value > (UINT64_MAX - d) / base) return std::nullopt;
    value = value * base + d;
  }
  return value;
}

ReferenceImport reference_import(const std::string& text,
                                 const dram::AddressMapper& mapper,
                                 double t_ck) {
  ReferenceImport out;
  std::uint64_t fallback = 0;
  std::uint64_t last = 0;
  std::size_t lineno = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++lineno;
    line = line.substr(0, std::min(line.find('#'), line.find(';')));
    std::vector<std::string> tokens;
    for (std::size_t i = 0; i < line.size();) {
      if (reference_space(line[i])) {
        ++i;
        continue;
      }
      std::size_t j = i;
      while (j < line.size() && !reference_space(line[j])) ++j;
      tokens.push_back(line.substr(i, j - i));
      i = j;
    }
    if (tokens.empty()) continue;
    const std::string& a = tokens[0];
    std::optional<std::uint64_t> addr;
    if (a.size() > 2 && a[0] == '0' && (a[1] == 'x' || a[1] == 'X'))
      addr = reference_digits(a.substr(2), 16);
    else if (a.size() > 1 && a[0] == '0')
      addr = reference_digits(a.substr(1), 8);
    else
      addr = reference_digits(a, 10);
    const std::set<std::string> reads = {"R", "READ", "read", "P_MEM_RD", "P_FETCH"};
    const std::set<std::string> writes = {"W", "WRITE", "write", "P_MEM_WR"};
    const bool op_ok = tokens.size() >= 2 &&
                       (reads.count(tokens[1]) != 0 || writes.count(tokens[1]) != 0);
    std::optional<std::uint64_t> cycle;
    if (tokens.size() >= 3) cycle = reference_digits(tokens[2], 10);
    const bool time_ok =
        tokens.size() < 3 ||
        (cycle && static_cast<double>(*cycle) * t_ck < 18446744073709551616.0);
    if (!addr || !op_ok || !time_ok || tokens.size() > 3) {
      out.bad_line = lineno;
      return out;
    }
    AccessRecord r;
    if (tokens.size() == 3) {
      r.time_ps = static_cast<std::uint64_t>(static_cast<double>(*cycle) * t_ck);
    } else {
      fallback += static_cast<std::uint64_t>(t_ck);
      r.time_ps = fallback;
    }
    r.time_ps = std::max(r.time_ps, last);
    last = r.time_ps;
    const dram::Address coords = mapper.decode(*addr);
    r.bank = mapper.flat_bank(coords);
    r.row = coords.row;
    r.write = writes.count(tokens[1]) != 0;
    out.records.push_back(r);
  }
  return out;
}

TEST(TraceIo, ImportMatchesAStrictReferenceUnderMutation) {
  // Seeded mutations of a valid trace (byte flips, truncations, line
  // splices): the importer either accepts with the reference's records
  // or throws naming the reference's first bad line, never anything
  // else.
  dram::Geometry g;
  g.banks_per_rank = 4;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  const double t_ck = dram::ddr4_timing().t_ck_ps();
  const std::string base =
      "# DRAMSim2-style sample\n"
      "0x1000 R 10\n"
      "0x2040 W 12\n"
      "4096 READ 15\n"
      "0755 WRITE\n"
      "; comment line\n"
      "\n"
      "0x7FFF40 P_MEM_RD 22136092888451\n"
      "0x80 P_MEM_WR 30 # trailing comment\n"
      "\t0XABCDEF01  P_FETCH\t40\r\n"
      "12345 read 7\n"
      "0x10 write\n";
  const std::string alphabet = "0123456789abcdefxXRWP_ \t\n\r#;-+z";
  util::Rng rng(2022);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = base;
    for (std::uint64_t m = 1 + rng.below(3); m > 0; --m) {
      const std::size_t at = rng.below(text.size() + 1);
      switch (rng.below(4)) {
        case 0:  // a byte flipped to a grammar-relevant one
          if (at < text.size()) text[at] = alphabet[rng.below(alphabet.size())];
          break;
        case 1:  // a byte flipped to anything
          if (at < text.size()) text[at] = static_cast<char>(rng.below(256));
          break;
        case 2:  // truncation
          text.resize(at);
          break;
        default: {  // splice: a slice of the base inserted anywhere
          const std::size_t from = rng.below(base.size());
          const std::size_t len = rng.below(base.size() - from + 1);
          text.insert(at, base, from, len);
        }
      }
    }
    SCOPED_TRACE(::testing::Message() << "iteration " << iter << ": " << text);
    const ReferenceImport expected = reference_import(text, mapper, t_ck);
    std::stringstream ss(text);
    try {
      const auto records = import_address_trace(ss, mapper, t_ck);
      EXPECT_EQ(expected.bad_line, 0u) << "accepted a line the reference rejects";
      EXPECT_EQ(records, expected.records);
      ++accepted;
    } catch (const std::runtime_error& e) {
      const std::string line =
          "address trace line " + std::to_string(expected.bad_line) + ": ";
      EXPECT_EQ(std::string(e.what()).rfind(line, 0), 0u) << e.what();
      ++rejected;
    }
  }
  // Both outcomes must be well represented, or the mutations say little.
  EXPECT_GT(accepted, 400u);
  EXPECT_GT(rejected, 400u);
}

TEST(TraceIo, ImportErrorsCarryTheFailingLineNumber) {
  dram::Geometry g;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  std::stringstream ss("0x100 R 1\n0x200 W 2\n0x300\n");
  try {
    import_address_trace(ss, mapper, 1000.0);
    FAIL() << "missing op accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, ImportClampsUnsortedTimes) {
  dram::Geometry g;
  const dram::AddressMapper mapper(g, dram::AddressMapPolicy::kRowColBank);
  std::stringstream ss("0x100 R 100\n0x200 R 50\n");
  const auto records = import_address_trace(ss, mapper, 1.0);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_GE(records[1].time_ps, records[0].time_ps);
}

// -------------------------------------------------------------------- stats

TEST(TraceStats, CountsAndRates) {
  TraceStats stats(1000, 2);  // tREFI=1000ps, 2 banks
  for (int i = 0; i < 10; ++i) {
    AccessRecord r = rec(i * 100, i % 2, 5);
    r.is_attack = i < 3;
    r.write = i % 5 == 0;
    stats.add(r);
  }
  EXPECT_EQ(stats.records(), 10u);
  EXPECT_EQ(stats.attack_records(), 3u);
  EXPECT_DOUBLE_EQ(stats.attack_fraction(), 0.3);
  EXPECT_EQ(stats.writes(), 2u);
  EXPECT_EQ(stats.unique_rows(), 2u);  // row 5 in banks 0 and 1
  EXPECT_EQ(stats.hottest_row_count(), 5u);
  const auto per_interval = stats.acts_per_interval_per_bank();
  EXPECT_EQ(per_interval.count(), 2u);  // (interval 0, banks 0 and 1)
  EXPECT_DOUBLE_EQ(per_interval.mean(), 5.0);
}

TEST(TraceStats, HistogramCountsEachIntervalBankOnceAcrossInterleavedBanks) {
  // Banks interleave in a time-ordered trace: bank 0 and bank 1 take
  // turns through interval 0 (five ACTs each), then bank 0 alone takes
  // three in interval 1. Each (interval, bank) total is one sample.
  TraceStats stats(1000, 2);  // tREFI=1000ps, 2 banks
  for (int i = 0; i < 10; ++i) stats.add(rec(i * 10, i % 2, 5));
  for (int i = 0; i < 3; ++i) stats.add(rec(1000 + i * 10, 0, 5));

  const util::Histogram hist = stats.acts_per_interval_histogram(0, 10, 10);
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.count(5), 2u);
  EXPECT_EQ(hist.count(3), 1u);
  EXPECT_EQ(hist.underflow() + hist.overflow(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), stats.acts_per_interval_per_bank().mean());
}

TEST(TraceStats, InvalidConfigThrows) {
  EXPECT_THROW(TraceStats(0, 2), std::invalid_argument);
  EXPECT_THROW(TraceStats(1000, 0), std::invalid_argument);
}

TEST(TraceStats, BankOutsideTheConfiguredCountThrows) {
  // With 2 banks, bank 2 in interval 0 would share a key with bank 0 in
  // interval 1 and merge two samples into one.
  TraceStats stats(1000, 2);
  stats.add(rec(0, 1, 5));
  try {
    stats.add(rec(0, 2, 5));
    ADD_FAILURE() << "bank 2 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bank 2"), std::string::npos) << e.what();
  }
  stats.add(rec(1000, 0, 5));
  EXPECT_EQ(stats.records(), 2u);
  EXPECT_EQ(stats.acts_per_interval_per_bank().count(), 2u);
}

}  // namespace
}  // namespace tvp::trace
