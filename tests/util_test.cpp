// Unit tests for tvp::util — RNG, fixed-point probability, statistics,
// histogram, tables, bit utilities.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "tvp/util/bitutil.hpp"
#include "tvp/util/cli.hpp"
#include "tvp/util/config.hpp"
#include "tvp/util/crc32.hpp"
#include "tvp/util/csv.hpp"
#include "tvp/util/failpoint.hpp"
#include "tvp/util/fixed_prob.hpp"
#include "tvp/util/histogram.hpp"
#include "tvp/util/json.hpp"
#include "tvp/util/log.hpp"
#include "tvp/util/parallel.hpp"
#include "tvp/util/rng.hpp"
#include "tvp/util/scan.hpp"
#include "tvp/util/stats.hpp"
#include "tvp/util/table.hpp"

namespace tvp::util {
namespace {

// ------------------------------------------------------------------ crc32

// CRC-32 from its definition: reflected polynomial 0xEDB88320, register
// preset to and final value xored with 0xFFFFFFFF, one bit at a time.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseDefinition) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);

  Rng rng(0xC3C32);
  std::vector<unsigned char> buf(16 + 320);
  for (auto& byte : buf) byte = static_cast<unsigned char>(rng.next());
  // Every length at every offset: the fold's 64-byte blocks, the table
  // tail and the loads at every alignment.
  for (const std::uint32_t seed : {0u, 0x12345678u, 0xFFFFFFFFu})
    for (std::size_t offset = 0; offset < 16; ++offset)
      for (std::size_t n = 0; n <= 320; ++n)
        ASSERT_EQ(crc32(buf.data() + offset, n, seed),
                  crc32_bitwise(buf.data() + offset, n, seed))
            << "seed " << seed << " offset " << offset << " n " << n;

  // Chaining through the seed equals the one-shot sum at every split.
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split)
    ASSERT_EQ(crc32(buf.data() + split, buf.size() - split,
                    crc32(buf.data(), split)),
              whole)
        << "split " << split;

  std::vector<unsigned char> big((4u << 20) + 37);
  for (auto& byte : big) byte = static_cast<unsigned char>(rng.next() >> 56);
  EXPECT_EQ(crc32(big.data(), big.size()),
            crc32_bitwise(big.data(), big.size(), 0));
}

// ---------------------------------------------------------------- bitutil

TEST(BitUtil, IsPow2) {
  EXPECT_FALSE(is_pow2(0u));
  EXPECT_TRUE(is_pow2(1u));
  EXPECT_TRUE(is_pow2(2u));
  EXPECT_FALSE(is_pow2(3u));
  EXPECT_TRUE(is_pow2(1024u));
  EXPECT_FALSE(is_pow2(1023u));
}

TEST(BitUtil, FloorCeilLog2) {
  EXPECT_EQ(floor_log2(1u), 0u);
  EXPECT_EQ(floor_log2(2u), 1u);
  EXPECT_EQ(floor_log2(3u), 1u);
  EXPECT_EQ(floor_log2(1024u), 10u);
  EXPECT_EQ(ceil_log2(1u), 0u);
  EXPECT_EQ(ceil_log2(2u), 1u);
  EXPECT_EQ(ceil_log2(3u), 2u);
  EXPECT_EQ(ceil_log2(1024u), 10u);
  EXPECT_EQ(ceil_log2(1025u), 11u);
}

TEST(BitUtil, NextPow2) {
  EXPECT_EQ(next_pow2(1u), 1u);
  EXPECT_EQ(next_pow2(3u), 4u);
  EXPECT_EQ(next_pow2(17u), 32u);
  EXPECT_EQ(next_pow2(64u), 64u);
}

TEST(BitUtil, BitsFor) {
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(131072), 17u);  // the paper's row address width
  EXPECT_EQ(bits_for(8192), 13u);    // the refresh interval width
}

// Property: for every v, 2^ceil_log2(v) >= v and 2^floor_log2(v) <= v.
class Log2Property : public ::testing::TestWithParam<std::uint64_t> {};
TEST_P(Log2Property, Bounds) {
  const std::uint64_t v = GetParam();
  EXPECT_GE(std::uint64_t{1} << ceil_log2(v), v);
  EXPECT_LE(std::uint64_t{1} << floor_log2(v), v);
  EXPECT_LE(ceil_log2(v) - floor_log2(v), 1u);
}
INSTANTIATE_TEST_SUITE_P(Sweep, Log2Property,
                         ::testing::Values(1, 2, 3, 5, 16, 17, 100, 1023, 1024,
                                           1025, 139000, 1u << 31));

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 165ull, 131072ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.between(10, 12);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 12u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(13);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.1);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.1, 0.01);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
}

TEST(Rng, BernoulliQ32MatchesFixedProb) {
  Rng rng(17);
  const auto p = FixedProb::from_double(0.01);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli_q32(p.raw());
  EXPECT_NEAR(hits / static_cast<double>(n), 0.01, 0.002);
  EXPECT_FALSE(rng.bernoulli_q32(0));
  EXPECT_TRUE(rng.bernoulli_q32(FixedProb::kOne));
}

TEST(Rng, BelowPassesChiSquare) {
  // Uniformity of below(16): chi-square against the 0.1% critical value
  // (df = 15 -> 37.7; we allow 45 for slack). Deterministic seed.
  Rng rng(777);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 64000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 45.0) << "chi2 = " << chi2;
}

TEST(Rng, ExponentialQuantilesMatchTheory) {
  Rng rng(888);
  PercentileTracker samples;
  for (int i = 0; i < 50000; ++i) samples.add(rng.exponential(100.0));
  // Exponential(mean 100): median = 69.3, p90 = 230.3.
  EXPECT_NEAR(samples.percentile(0.5), 69.3, 3.0);
  EXPECT_NEAR(samples.percentile(0.9), 230.3, 8.0);
}

TEST(Rng, Bits64AreBalanced) {
  Rng rng(999);
  int ones[64] = {};
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    std::uint64_t v = rng.next();
    for (int b = 0; b < 64; ++b) ones[b] += (v >> b) & 1;
  }
  for (int b = 0; b < 64; ++b)
    EXPECT_NEAR(ones[b], kDraws / 2, 350) << "bit " << b;  // ~5 sigma
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == child.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

// -------------------------------------------------------------- FixedProb

TEST(FixedProb, Pow2Values) {
  EXPECT_DOUBLE_EQ(FixedProb::pow2(0).value(), 1.0);
  EXPECT_DOUBLE_EQ(FixedProb::pow2(1).value(), 0.5);
  EXPECT_DOUBLE_EQ(FixedProb::pow2(23).value(), std::ldexp(1.0, -23));
  EXPECT_EQ(FixedProb::pow2(32).raw(), 1u);
  EXPECT_EQ(FixedProb::pow2(40).raw(), 0u);
}

TEST(FixedProb, PaperPbaseTimesRefInt) {
  // RefInt * Pbase = 8192 * 2^-23 = 2^-10 ~ 9.8e-4 (Table I).
  const auto p = FixedProb::pow2(23).scaled(8192);
  EXPECT_NEAR(p.value(), 9.765625e-4, 1e-9);
}

TEST(FixedProb, ScaledSaturates) {
  const auto p = FixedProb::pow2(4);  // 1/16
  EXPECT_DOUBLE_EQ(p.scaled(8).value(), 0.5);
  EXPECT_DOUBLE_EQ(p.scaled(16).value(), 1.0);
  EXPECT_DOUBLE_EQ(p.scaled(1000).value(), 1.0);  // saturated
}

TEST(FixedProb, FromDoubleRoundTrip) {
  for (const double v : {0.0, 1e-6, 0.001, 0.25, 0.999, 1.0}) {
    EXPECT_NEAR(FixedProb::from_double(v).value(), v, 1e-9);
  }
  EXPECT_EQ(FixedProb::from_double(-0.5).raw(), 0u);
  EXPECT_EQ(FixedProb::from_double(2.0).raw(), FixedProb::kOne);
}

TEST(FixedProb, Ordering) {
  EXPECT_LT(FixedProb::pow2(23), FixedProb::pow2(22));
  EXPECT_EQ(FixedProb::pow2(5), FixedProb::pow2(5));
}

// ------------------------------------------------------------ RunningStat

TEST(RunningStat, MeanAndStddev) {
  RunningStat s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, MergeEqualsSequential) {
  Rng rng(3);
  RunningStat all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform() * 100;
    all.add(v);
    (i % 2 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeEmptyCases) {
  RunningStat empty_a, empty_b;
  empty_a.merge(empty_b);  // empty + empty stays empty
  EXPECT_EQ(empty_a.count(), 0u);
  EXPECT_EQ(empty_a.mean(), 0.0);

  RunningStat filled;
  filled.add(3.0);
  filled.add(5.0);
  RunningStat lhs = filled;
  lhs.merge(empty_b);  // merging an empty accumulator is a no-op
  EXPECT_EQ(lhs.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs.mean(), 4.0);

  RunningStat rhs;
  rhs.merge(filled);  // empty lhs adopts the other side verbatim
  EXPECT_EQ(rhs.count(), 2u);
  EXPECT_DOUBLE_EQ(rhs.mean(), filled.mean());
  EXPECT_DOUBLE_EQ(rhs.variance(), filled.variance());
  EXPECT_DOUBLE_EQ(rhs.min(), 3.0);
  EXPECT_DOUBLE_EQ(rhs.max(), 5.0);
}

TEST(RunningStat, MergeSingletonsMatchesOneShot) {
  // The harness's deterministic reduction: per-run singleton stats
  // merged in grid order must agree with one-shot accumulation.
  const double samples[] = {0.11, 0.25, 0.07, 0.42, 0.19};
  RunningStat one_shot, merged;
  for (const double v : samples) {
    one_shot.add(v);
    RunningStat single;
    single.add(v);
    merged.merge(single);
  }
  EXPECT_EQ(merged.count(), one_shot.count());
  EXPECT_NEAR(merged.mean(), one_shot.mean(), 1e-15);
  EXPECT_NEAR(merged.variance(), one_shot.variance(), 1e-15);
  EXPECT_DOUBLE_EQ(merged.min(), one_shot.min());
  EXPECT_DOUBLE_EQ(merged.max(), one_shot.max());
  EXPECT_NEAR(merged.sum(), one_shot.sum(), 1e-15);
}

TEST(RunningStat, MergeIsAssociative) {
  Rng rng(11);
  RunningStat a, b, c, all;
  for (int i = 0; i < 300; ++i) {
    const double v = rng.uniform() * 10 - 5;
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
    all.add(v);
  }
  RunningStat left = a;   // (a + b) + c
  left.merge(b);
  left.merge(c);
  RunningStat bc = b;     // a + (b + c)
  bc.merge(c);
  RunningStat right = a;
  right.merge(bc);
  EXPECT_EQ(left.count(), right.count());
  EXPECT_NEAR(left.mean(), right.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), right.variance(), 1e-9);
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
}

// ---------------------------------------------------------------- parallel

TEST(Parallel, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t = 0;
  parallel_for_indexed(touched.size(), 4,
                       [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(Parallel, SequentialPathAndEmptyRange) {
  std::vector<int> order;
  parallel_for_indexed(4, 1, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // jobs=1: inline, in order
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  parallel_for_indexed(0, 8, [&](std::size_t) { FAIL(); });
}

TEST(Parallel, MoreJobsThanWork) {
  std::atomic<int> sum{0};
  parallel_for_indexed(3, 64,
                       [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 3);
}

TEST(Parallel, PropagatesTheFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(parallel_for_indexed(16, 4,
                                    [&](std::size_t i) {
                                      if (i == 5)
                                        throw std::runtime_error("boom");
                                      completed.fetch_add(1);
                                    }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the pool drains before rethrowing
}

TEST(Parallel, JobCountReadsEnvironment) {
  setenv("TVP_JOBS", "3", 1);
  EXPECT_EQ(job_count(), 3u);
  setenv("TVP_JOBS", "not-a-number", 1);
  EXPECT_GE(job_count(), 1u);  // falls back to hardware_concurrency
  setenv("TVP_JOBS", "0", 1);
  EXPECT_GE(job_count(), 1u);
  unsetenv("TVP_JOBS");
  EXPECT_GE(job_count(), 1u);
}

TEST(PercentileTracker, Percentiles) {
  PercentileTracker t;
  for (int i = 1; i <= 100; ++i) t.add(i);
  EXPECT_NEAR(t.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(t.percentile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(t.percentile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(t.percentile(0.9), 90.1, 1e-9);
}

TEST(PercentileTracker, AddAfterQueryResorts) {
  PercentileTracker t;
  t.add(10);
  EXPECT_DOUBLE_EQ(t.percentile(0.5), 10.0);
  t.add(0);
  EXPECT_DOUBLE_EQ(t.percentile(0.0), 0.0);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BinsAndClamping) {
  Histogram h(0, 10, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-1);   // underflow: counted in underflow()/total() only
  h.add(100);  // overflow: counted in overflow()/total() only
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);
  // Bins and the flow counters partition the samples exactly.
  std::uint64_t binned = 0;
  for (std::size_t b = 0; b < h.bins(); ++b) binned += h.count(b);
  EXPECT_EQ(binned + h.underflow() + h.overflow(), h.total());
}

TEST(Histogram, MeanIgnoresOutOfRangeSamples) {
  Histogram h(0, 10, 10);
  h.add(2);
  h.add(4);
  h.add(-50);   // must not drag the mean down
  h.add(1000);  // must not drag the mean up
  // Mean is over in-range samples only.
  EXPECT_DOUBLE_EQ(h.mean(), (2.0 + 4.0) / 2.0);
}

TEST(Histogram, EdgesAndMean) {
  Histogram h(0, 100, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 25.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 75.0);
  h.add(10, 3);
  h.add(50);
  EXPECT_DOUBLE_EQ(h.mean(), (30.0 + 50.0) / 4.0);
}

TEST(Histogram, InvalidConfigThrows) {
  EXPECT_THROW(Histogram(0, 10, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(10, 10, 4), std::invalid_argument);
  Histogram h(0, 1, 2);
  EXPECT_THROW(h.bin_lo(5), std::out_of_range);
}

TEST(Histogram, RenderNonEmpty) {
  Histogram h(0, 10, 5);
  h.add(1);
  h.add(1);
  h.add(7);
  const std::string out = h.render(20);
  EXPECT_NE(out.find('#'), std::string::npos);
}

// -------------------------------------------------------------- TextTable

TEST(TextTable, RendersAllCells) {
  TextTable t({"a", "b"});
  t.add_row({"hello", "world"});
  t.row(42, 2.5);
  const std::string out = t.render();
  EXPECT_NE(out.find("hello"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, CsvEscapes) {
  TextTable t({"name", "note"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(strfmt("%.2f", 1.234), "1.23");
}

TEST(CsvWriter, WritesRowsToFile) {
  const std::string path = ::testing::TempDir() + "/tvp_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.write_row({"1", "2"});
    w.write_row({"x,y", "z"});
    EXPECT_EQ(w.rows_written(), 2u);
    EXPECT_THROW(w.write_row({"too", "many", "cells"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",z");
}

TEST(CsvWriter, CloseIsExplicitAndIdempotent) {
  const std::string path = ::testing::TempDir() + "/tvp_csv_close.csv";
  CsvWriter w(path, {"a"});
  w.write_row({"1"});
  w.close();
  w.close();  // second close is a no-op
  EXPECT_THROW(w.write_row({"2"}), std::logic_error);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a");
  std::getline(in, line);
  EXPECT_EQ(line, "1");
}

TEST(CsvWriter, ReportsWriteFailureInsteadOfSilentTruncation) {
  // Regression: write_row never checked the stream, so a full disk (or
  // a closed descriptor) produced a truncated CSV that parsed fine.
  // /dev/full fails every write at flush time; buffering means the
  // error may surface on a later write_row or only at close(), so drive
  // until something throws.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  CsvWriter w("/dev/full", {"col"});
  const std::string cell(1024, 'x');
  EXPECT_THROW(
      {
        for (int i = 0; i < 1024; ++i) w.write_row({cell});
        w.close();
      },
      std::runtime_error);
}

// ------------------------------------------------------------------- json

TEST(JsonWriter, NestedDocument) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("PARA");
  json.key("overhead").value(0.25);
  json.key("safe").value(true);
  json.key("flips").value(std::uint64_t{0});
  json.key("runs").begin_array();
  json.value(std::int64_t{1}).value(std::int64_t{2});
  json.end_array();
  json.key("nested").begin_object();
  json.key("x").value(std::int64_t{-3});
  json.end_object();
  json.end_object();
  EXPECT_EQ(json.str(),
            "{\"name\":\"PARA\",\"overhead\":0.25,\"safe\":true,"
            "\"flips\":0,\"runs\":[1,2],\"nested\":{\"x\":-3}}");
}

TEST(JsonWriter, EscapesStrings) {
  JsonWriter json;
  json.value(std::string("a\"b\\c\nd\te"));
  EXPECT_EQ(json.str(), "\"a\\\"b\\\\c\\nd\\te\"");
  EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::numeric_limits<double>::infinity());
  json.value(std::nan(""));
  json.end_array();
  EXPECT_EQ(json.str(), "[null,null]");
}

TEST(JsonWriter, MisuseThrows) {
  JsonWriter json;
  json.begin_object();
  EXPECT_THROW(json.value(std::int64_t{1}), std::logic_error);  // no key
  EXPECT_THROW(json.end_array(), std::logic_error);
  EXPECT_THROW(json.str(), std::logic_error);  // unclosed
  json.key("k");
  EXPECT_THROW(json.key("again"), std::logic_error);
  json.value(std::int64_t{1});
  json.end_object();
  EXPECT_NO_THROW(json.str());
  EXPECT_THROW(json.begin_object(), std::logic_error);  // already complete
}

// --------------------------------------------------------------------- log

TEST(Log, LevelGateAndRestore) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Emitting below the gate must be a no-op (no crash, nothing checked
  // beyond not aborting; the sink is stderr).
  TVP_LOG_DEBUG("invisible %d", 1);
  TVP_LOG_INFO("invisible %s", "too");
  set_log_level(LogLevel::kOff);
  TVP_LOG_ERROR("also swallowed %d", 2);
  set_log_level(before);
}

// ------------------------------------------------------------------ config

TEST(KeyValueFile, ParsesAndTypes) {
  const auto cfg = KeyValueFile::parse(
      "# comment\n"
      "geometry.banks = 8\n"
      "rate=2.5   # trailing comment\n"
      "name = hello world\n"
      "flag = true\n"
      "\n");
  EXPECT_EQ(cfg.size(), 4u);
  EXPECT_EQ(cfg.get_int("geometry.banks", 0), 8);
  EXPECT_DOUBLE_EQ(cfg.get_double("rate", 0), 2.5);
  EXPECT_EQ(cfg.get("name", ""), "hello world");
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_EQ(cfg.get_int("missing", 42), 42);
  EXPECT_FALSE(cfg.has("missing"));
}

TEST(KeyValueFile, LastDuplicateWins) {
  const auto cfg = KeyValueFile::parse("a = 1\na = 2\n");
  EXPECT_EQ(cfg.get_int("a", 0), 2);
}

TEST(KeyValueFile, RejectsMalformed) {
  EXPECT_THROW(KeyValueFile::parse("no equals sign\n"), std::runtime_error);
  EXPECT_THROW(KeyValueFile::parse("= value\n"), std::runtime_error);
  const auto cfg = KeyValueFile::parse("n = xyz\n");
  EXPECT_THROW(cfg.get_int("n", 0), std::runtime_error);
  EXPECT_THROW(KeyValueFile::load("/nonexistent/file.cfg"), std::runtime_error);
}

TEST(KeyValueFile, RoundTripsThroughText) {
  KeyValueFile cfg;
  cfg.set("b.key", "2");
  cfg.set("a.key", "hello");
  const auto reparsed = KeyValueFile::parse(cfg.to_text());
  EXPECT_EQ(reparsed.get("a.key", ""), "hello");
  EXPECT_EQ(reparsed.get_int("b.key", 0), 2);
  EXPECT_EQ(reparsed.keys(), cfg.keys());
}

// -------------------------------------------------------------------- cli

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=5", "--gamma", "positional",
                        "--delta=hello"};
  Flags flags(5, argv, {"alpha", "gamma", "delta"});
  EXPECT_EQ(flags.get_int("alpha", 0), 5);
  EXPECT_TRUE(flags.get_bool("gamma"));
  EXPECT_EQ(flags.get("delta", ""), "hello");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, DefaultsAndTypes) {
  const char* argv[] = {"prog", "--rate=2.5"};
  Flags flags(2, argv, {"rate", "missing"});
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(flags.get_int("missing", 42), 42);
  EXPECT_FALSE(flags.get_bool("missing"));
  EXPECT_FALSE(flags.has("missing"));
}

TEST(Flags, RejectsUnknownAndMalformed) {
  const char* bad[] = {"prog", "--nope=1"};
  EXPECT_THROW(Flags(2, bad, {"known"}), FlagError);
  const char* not_int[] = {"prog", "--n=xyz"};
  Flags flags(2, not_int, {"n"});
  EXPECT_THROW(flags.get_int("n", 0), FlagError);
  EXPECT_THROW(flags.get_double("n", 0), FlagError);
}

TEST(Flags, IntegersAreWholeDecimalNumbersOfTheirType) {
  const char* argv[] = {"prog",         "--windows=4294967297", "--seeds=010",
                        "--hex=0x10",   "--tail=8x",            "--plus=+5",
                        "--blank= 5",   "--empty=",             "--workers=-1",
                        "--queue=-1",   "--big=18446744073709551615",
                        "--port=-1",    "--low=-9223372036854775808",
                        "--over=9223372036854775808"};
  const Flags flags(14, argv,
                    {"windows", "seeds", "hex", "tail", "plus", "blank", "empty",
                     "workers", "queue", "big", "port", "low", "over"});
  // Accepted: decimal digits, a leading zero read as decimal, a sign only
  // on a signed type, each type's whole range.
  EXPECT_EQ(flags.get_integer<std::uint32_t>("seeds", 1, 1), 10u);
  EXPECT_EQ(flags.get_integer<std::uint64_t>("big", 0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(flags.get_integer<int>("port", 7, -1, 65535), -1);
  EXPECT_EQ(flags.get_int("low", 0), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(flags.get_integer<std::uint64_t>("windows", 0), 4294967297u);
  // Rejected: past the destination type, a base prefix, trailing text, a
  // '+', blanks, nothing, a sign on an unsigned type, past the range.
  EXPECT_THROW(flags.get_integer<std::uint32_t>("windows", 2), FlagError);
  EXPECT_THROW(flags.get_int("hex", 0), FlagError);
  EXPECT_THROW(flags.get_int("tail", 0), FlagError);
  EXPECT_THROW(flags.get_int("plus", 0), FlagError);
  EXPECT_THROW(flags.get_int("blank", 0), FlagError);
  EXPECT_THROW(flags.get_int("empty", 0), FlagError);
  EXPECT_THROW(flags.get_integer<std::size_t>("workers", 0), FlagError);
  EXPECT_THROW(flags.get_integer<std::size_t>("queue", 64, 1), FlagError);
  EXPECT_THROW(flags.get_int("over", 0), FlagError);
  EXPECT_THROW(flags.get_integer<std::uint32_t>("seeds", 1, 11), FlagError);
  EXPECT_THROW(flags.get_integer<int>("port", 7, 0, 65535), FlagError);
  // The message names the flag, the range and the value.
  try {
    flags.get_integer<std::uint32_t>("windows", 2, 1);
    ADD_FAILURE() << "no throw";
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(),
                 "--windows must be a count in [1, 4294967295], got '4294967297'");
  }
  try {
    flags.get_integer<int>("port", 7, 0, 65535);
    ADD_FAILURE() << "no throw";
  } catch (const FlagError& e) {
    EXPECT_STREQ(e.what(), "--port must be an integer in [0, 65535], got '-1'");
  }
  EXPECT_EQ(parse_decimal<unsigned>("17", 1, 32), 17u);
  EXPECT_FALSE(parse_decimal<unsigned>("33", 1, 32));
  EXPECT_FALSE(parse_decimal<unsigned>("", 1, 32));
}

TEST(Flags, BooleanBeforeAnotherFlag) {
  const char* argv[] = {"prog", "--verbose", "--n=3"};
  Flags flags(3, argv, {"verbose", "n"});
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_int("n", 0), 3);
}

// -------------------------------------------------------------- json parse

TEST(JsonValue, RoundTripsJsonWriterDocument) {
  JsonWriter json;
  json.begin_object();
  json.key("text").value("quote \" slash \\ newline \n tab \t ctrl \x01\x1f end");
  json.key("max_uint").value(std::numeric_limits<std::uint64_t>::max());
  json.key("min_int").value(std::numeric_limits<std::int64_t>::min());
  json.key("yes").value(true);
  json.key("no").value(false);
  json.key("runs").begin_array();
  json.value(1).value(2.5).value("three");
  json.end_array();
  json.key("nested").begin_object();
  json.key("empty_array").begin_array().end_array();
  json.key("empty_object").begin_object().end_object();
  json.end_object();
  json.end_object();

  const JsonValue doc = JsonValue::parse(json.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("text").as_string(),
            "quote \" slash \\ newline \n tab \t ctrl \x01\x1f end");
  EXPECT_EQ(doc.at("max_uint").as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(doc.at("min_int").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(doc.at("yes").as_bool());
  EXPECT_FALSE(doc.at("no").as_bool());
  const auto& runs = doc.at("runs").items();
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(runs[1].as_double(), 2.5);
  EXPECT_EQ(runs[2].as_string(), "three");
  EXPECT_TRUE(doc.at("nested").at("empty_array").items().empty());
  EXPECT_TRUE(doc.at("nested").at("empty_object").members().empty());
  EXPECT_EQ(doc.find("absent"), nullptr);
  EXPECT_THROW(doc.at("absent"), std::runtime_error);
}

TEST(JsonValue, ValueExactDoublesAreBitIdentical) {
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          6.02214076e23,
                          -5e-324,  // smallest subnormal
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::epsilon()};
  for (const double v : cases) {
    JsonWriter json;
    json.begin_array();
    json.value_exact(v);
    json.end_array();
    const double back = JsonValue::parse(json.str()).items()[0].as_double();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0)
        << v << " did not round-trip exactly";
  }
}

TEST(JsonValue, ParsesUnicodeEscapes) {
  // \u00XX control escapes (what JsonWriter::escape emits), BMP
  // characters, and a surrogate pair, all decoded to UTF-8.
  const JsonValue doc =
      JsonValue::parse("\"\\u0001\\u001f\\u0041\\u00e9\\u20ac\\ud83d\\ude00\"");
  EXPECT_EQ(doc.as_string(), "\x01\x1f"
                             "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_THROW(JsonValue::parse("\"\\ud83d\""), std::runtime_error)
      << "lone high surrogate must be rejected";
  EXPECT_THROW(JsonValue::parse("\"\\uZZZZ\""), std::runtime_error);
}

TEST(JsonValue, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1] trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("nul"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("'single'"), std::runtime_error);
  // The reported byte offset is part of the contract.
  try {
    JsonValue::parse("[1, oops]");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte 4"), std::string::npos)
        << e.what();
  }
}

TEST(JsonValue, DepthLimitGuardsAgainstRunaway) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(JsonValue::parse(deep), std::runtime_error);
  // A modest depth is fine.
  std::string ok(64, '[');
  ok += std::string(64, ']');
  EXPECT_NO_THROW(JsonValue::parse(ok));
}

TEST(JsonValue, TypeMismatchesThrow) {
  const JsonValue doc = JsonValue::parse("{\"n\":1.5,\"s\":\"x\",\"neg\":-1}");
  EXPECT_THROW(doc.at("n").as_int(), std::runtime_error)
      << "1.5 is not integral";
  EXPECT_THROW(doc.at("neg").as_uint(), std::runtime_error);
  EXPECT_THROW(doc.at("s").as_double(), std::runtime_error);
  EXPECT_THROW(doc.at("n").as_string(), std::runtime_error);
  EXPECT_THROW(doc.at("n").items(), std::runtime_error);
  EXPECT_THROW(doc.items(), std::runtime_error);
  EXPECT_EQ(doc.get("s", "fallback"), "x");
  EXPECT_EQ(doc.get("missing", "fallback"), "fallback");
  EXPECT_EQ(doc.get_uint("missing", 7), 7u);
  EXPECT_DOUBLE_EQ(doc.get_double("n", 0.0), 1.5);
  EXPECT_TRUE(doc.get_bool("missing", true));
}

// ------------------------------------------------------------ threaded log

TEST(Log, ConcurrentEmissionsNeverInterleaveMidLine) {
  // Redirect stderr to a file, hammer the logger from several threads,
  // then verify every captured line is exactly one intact message —
  // the single-write guarantee the campaign service relies on.
  const LogLevel before = log_level();
  set_log_level(LogLevel::kInfo);
  const std::string path = ::testing::TempDir() + "/tvp_log_capture.txt";

  std::fflush(stderr);
  const int saved_fd = ::dup(::fileno(stderr));
  ASSERT_GE(saved_fd, 0);
  ASSERT_NE(std::freopen(path.c_str(), "w", stderr), nullptr);

  constexpr int kThreads = 4;
  constexpr int kLines = 250;
  // One message crosses the 512-byte stack buffer to cover the heap path.
  const std::string long_tail(600, 'x');
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t, &long_tail] {
        for (int i = 0; i < kLines; ++i) {
          if (i == 100) {
            TVP_LOG_INFO("thread %d long %s", t, long_tail.c_str());
          } else {
            TVP_LOG_INFO("thread %d line %d end", t, i);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  std::fflush(stderr);
  ::dup2(saved_fd, ::fileno(stderr));
  ::close(saved_fd);
  set_log_level(before);

  std::set<std::string> expected;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kLines; ++i) {
      expected.insert(i == 100
                          ? "[tvp:INFO] thread " + std::to_string(t) +
                                " long " + long_tail
                          : "[tvp:INFO] thread " + std::to_string(t) +
                                " line " + std::to_string(i) + " end");
    }
  }

  std::ifstream in(path);
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    ++count;
    EXPECT_EQ(expected.count(line), 1u) << "interleaved line: " << line;
  }
  EXPECT_EQ(count, kThreads * kLines);
  std::remove(path.c_str());
}

// --------------------------------------------------------- stats raw state

TEST(RunningStat, RawStateRoundTripsBitIdentically) {
  RunningStat stat;
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) stat.add(rng.exponential(3.7));

  const RunningStat::Raw raw = stat.raw();
  const RunningStat back = RunningStat::from_raw(raw);
  EXPECT_EQ(back.count(), stat.count());
  const auto bits_equal = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  EXPECT_TRUE(bits_equal(back.mean(), stat.mean()));
  EXPECT_TRUE(bits_equal(back.stddev(), stat.stddev()));
  EXPECT_TRUE(bits_equal(back.min(), stat.min()));
  EXPECT_TRUE(bits_equal(back.max(), stat.max()));
  EXPECT_TRUE(bits_equal(back.sum(), stat.sum()));
  // Continuing to add samples after restore matches the original stream.
  RunningStat original_continued = stat;
  RunningStat restored_continued = back;
  original_continued.add(1.25);
  restored_continued.add(1.25);
  EXPECT_TRUE(bits_equal(original_continued.mean(), restored_continued.mean()));
  EXPECT_TRUE(
      bits_equal(original_continued.stddev(), restored_continued.stddev()));
}

// ---------------------------------------------------------------------------
// Failpoint registry. The registry (spec parsing, policies, hit
// counters) is always compiled — these tests run in both the default
// and the -DTVP_ENABLE_FAILPOINTS=ON build, so they must not assume
// either value of failpoint::compiled_in(). Only eval() is exercised
// here; the armed syscall shims are covered by torture_test.
// ---------------------------------------------------------------------------

class Failpoint : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::reset(); }
  void TearDown() override { failpoint::reset(); }
};

TEST_F(Failpoint, OffSiteEvaluatesToZeroButCounts) {
  EXPECT_EQ(failpoint::eval("util.test.noop"), 0);
  EXPECT_EQ(failpoint::eval("util.test.noop"), 0);
  EXPECT_EQ(failpoint::hits("util.test.noop"), 2u);
  EXPECT_EQ(failpoint::hits("util.test.never_hit"), 0u);
}

TEST_F(Failpoint, ReturnErrnoFiresOnEveryHit) {
  failpoint::Policy policy;
  policy.action = failpoint::Policy::Action::kReturnErrno;
  policy.error = EIO;
  failpoint::set("util.test.every", policy);
  EXPECT_EQ(failpoint::eval("util.test.every"), EIO);
  EXPECT_EQ(failpoint::eval("util.test.every"), EIO);
}

TEST_F(Failpoint, NthPolicyFiresExactlyOnce) {
  failpoint::Policy policy;
  policy.action = failpoint::Policy::Action::kReturnErrno;
  policy.error = ENOSPC;
  policy.nth = 3;
  failpoint::set("util.test.nth", policy);
  EXPECT_EQ(failpoint::eval("util.test.nth"), 0);
  EXPECT_EQ(failpoint::eval("util.test.nth"), 0);
  EXPECT_EQ(failpoint::eval("util.test.nth"), ENOSPC);
  EXPECT_EQ(failpoint::eval("util.test.nth"), 0) << "@N is one-shot";
  EXPECT_EQ(failpoint::hits("util.test.nth"), 4u);
}

TEST_F(Failpoint, ClearDisarmsOneSiteResetDisarmsAll) {
  failpoint::Policy policy;
  policy.action = failpoint::Policy::Action::kReturnErrno;
  policy.error = EIO;
  failpoint::set("util.test.a", policy);
  failpoint::set("util.test.b", policy);
  failpoint::clear("util.test.a");
  EXPECT_EQ(failpoint::eval("util.test.a"), 0);
  EXPECT_EQ(failpoint::eval("util.test.b"), EIO);
  EXPECT_EQ(failpoint::hits("util.test.a"), 1u)
      << "clear() keeps the hit counter";
  failpoint::reset();
  EXPECT_EQ(failpoint::eval("util.test.b"), 0);
  EXPECT_EQ(failpoint::hits("util.test.a"), 0u);
}

TEST_F(Failpoint, ConfigureParsesSpecStrings) {
  failpoint::configure(
      "journal.append.write=return(ENOSPC)@2;journal.append.fsync=return(5)");
  EXPECT_EQ(failpoint::eval("journal.append.write"), 0);
  EXPECT_EQ(failpoint::eval("journal.append.write"), ENOSPC);
  EXPECT_EQ(failpoint::eval("journal.append.fsync"), 5)
      << "numeric errnos pass through";
}

TEST_F(Failpoint, ConfigureRejectsMalformedSpecsAtomically) {
  EXPECT_THROW(failpoint::configure("журнал"), std::invalid_argument);
  EXPECT_THROW(failpoint::configure("site=explode"), std::invalid_argument);
  EXPECT_THROW(failpoint::configure("site=return(EIO)@0"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::configure("site=return(EWHAT)"),
               std::invalid_argument);
  // A bad entry anywhere must leave the whole spec unapplied — a
  // half-armed torture run would silently test less than it claims.
  EXPECT_THROW(failpoint::configure("good.site=return(EIO);bad="),
               std::invalid_argument);
  EXPECT_EQ(failpoint::eval("good.site"), 0);
}

TEST_F(Failpoint, CountersSnapshotsEveryTouchedSite) {
  failpoint::eval("util.test.x");
  failpoint::eval("util.test.y");
  failpoint::eval("util.test.y");
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [site, count] : failpoint::counters())
    counters[site] = count;
  EXPECT_EQ(counters.at("util.test.x"), 1u);
  EXPECT_EQ(counters.at("util.test.y"), 2u);
}

TEST_F(Failpoint, AbortAndKillSpecsParse) {
  // Only parsing — firing them would take the test process down.
  failpoint::configure("util.test.boom=abort;util.test.kaboom=kill@7");
  EXPECT_EQ(failpoint::eval("util.test.kaboom"), 0)
      << "kill@7 must stay quiet before the 7th hit";
}

// ------------------------------------------------------------------- scan

TEST(Scan, FindU32MatchesScalarReference) {
  const auto reference = [](const std::uint32_t* data, std::size_t n,
                            std::uint32_t needle) {
    for (std::size_t i = 0; i < n; ++i)
      if (data[i] == needle) return i;
    return n;
  };
  // 0xFFFFFFFF is the history table's empty-slot sentinel.
  for (const std::uint32_t needle : {7u, 0xFFFFFFFFu}) {
    // Offsets 0-3 put the base at every 4-byte position inside a
    // 16-byte line, whatever the allocator's alignment.
    for (std::size_t offset = 0; offset < 4; ++offset) {
      for (std::size_t n = 0; n <= 80; ++n) {
        // Exactly offset + n elements, so a load past the end leaves the
        // allocation (caught under ASan). The elements before the base
        // hold the needle, so a read before it would match.
        std::vector<std::uint32_t> buf(offset + n, needle);
        for (std::size_t i = 0; i < n; ++i)
          buf[offset + i] = needle ^ static_cast<std::uint32_t>(i + 1);
        const std::uint32_t* data = buf.data() + offset;
        ASSERT_EQ(find_u32(data, n, needle), n) << "no match, n=" << n;
        for (std::size_t first = 0; first < n; ++first) {
          const std::uint32_t saved = buf[offset + first];
          buf[offset + first] = needle;
          ASSERT_EQ(find_u32(data, n, needle), first) << "n=" << n;
          for (std::size_t second = first + 1; second < n; ++second) {
            const std::uint32_t kept = buf[offset + second];
            buf[offset + second] = needle;
            ASSERT_EQ(find_u32(data, n, needle), reference(data, n, needle))
                << "n=" << n << " first=" << first << " second=" << second;
            buf[offset + second] = kept;
          }
          buf[offset + first] = saved;
        }
      }
    }
  }
}

}  // namespace
}  // namespace tvp::util
