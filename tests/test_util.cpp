// util substrate tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/bits.h"
#include "util/checksum.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace gm {
namespace {

TEST(Bits, CeilPow2) {
  EXPECT_EQ(util::ceil_pow2(0), 1u);
  EXPECT_EQ(util::ceil_pow2(1), 1u);
  EXPECT_EQ(util::ceil_pow2(2), 2u);
  EXPECT_EQ(util::ceil_pow2(3), 4u);
  EXPECT_EQ(util::ceil_pow2(1025), 2048u);
}

TEST(Bits, Logs) {
  EXPECT_EQ(util::floor_log2(1), 0u);
  EXPECT_EQ(util::floor_log2(255), 7u);
  EXPECT_EQ(util::floor_log2(256), 8u);
  EXPECT_EQ(util::ceil_log2(1), 0u);
  EXPECT_EQ(util::ceil_log2(2), 1u);
  EXPECT_EQ(util::ceil_log2(3), 2u);
  EXPECT_EQ(util::ceil_log2(256), 8u);
}

TEST(Bits, CeilDivRoundUp) {
  EXPECT_EQ(util::ceil_div(10, 3), 4);
  EXPECT_EQ(util::ceil_div(9, 3), 3);
  EXPECT_EQ(util::round_up(10, 4), 12);
  EXPECT_EQ(util::round_up(12, 4), 12);
  EXPECT_TRUE(util::is_pow2(64));
  EXPECT_FALSE(util::is_pow2(65));
  EXPECT_FALSE(util::is_pow2(0));
}

TEST(Rng, DeterministicAndDistributed) {
  util::Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
  }
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= a() != c();
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedStaysInRange) {
  util::Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.bounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  util::Xoshiro256 rng(8);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ForkDecorrelates) {
  util::Xoshiro256 rng(9);
  auto f1 = rng.fork(1);
  auto f2 = rng.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += f1() == f2();
  EXPECT_LT(equal, 3);
}

TEST(ThreadPool, ExecutesAllTasks) {
  util::ThreadPool pool(3);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, PropagatesExceptions) {
  util::ThreadPool pool(1);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(Parallel, ForCoversRangeOnce) {
  std::vector<std::atomic<int>> hits(1000);
  util::parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunkedPropagatesFirstError) {
  EXPECT_THROW(util::parallel_for_chunked(
                   0, 100, 4,
                   [](std::size_t b, std::size_t) {
                     if (b == 0) throw std::invalid_argument("x");
                   }),
               std::invalid_argument);
}

TEST(Parallel, ChunkedEmptyRangeNeverInvokesBody) {
  int calls = 0;
  util::parallel_for_chunked(5, 5, 4,
                             [&](std::size_t, std::size_t) { ++calls; });
  util::parallel_for_chunked(7, 3, 4,  // first > last: also empty
                             [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Parallel, ChunkedZeroChunksStillCoversRange) {
  std::vector<std::atomic<int>> hits(64);
  util::parallel_for_chunked(0, hits.size(), 0,
                             [&](std::size_t b, std::size_t e) {
                               for (std::size_t i = b; i < e; ++i) ++hits[i];
                             });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ChunkedMoreChunksThanElementsCoversOnceNoEmptyCalls) {
  std::vector<std::atomic<int>> hits(3);
  std::atomic<int> calls{0};
  util::parallel_for_chunked(0, hits.size(), 16,
                             [&](std::size_t b, std::size_t e) {
                               ++calls;
                               EXPECT_LT(b, e);  // no degenerate chunks
                               for (std::size_t i = b; i < e; ++i) ++hits[i];
                             });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_LE(calls.load(), 3);
}

TEST(Parallel, ChunkedExceptionStillCompletesOtherChunks) {
  // The thrown chunk must not strand the range: every other chunk still
  // runs to completion before the rethrow (futures are all drained).
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(util::parallel_for_chunked(
                   0, hits.size(), 4,
                   [&](std::size_t b, std::size_t e) {
                     if (b == 0) throw std::runtime_error("x");
                     for (std::size_t i = b; i < e; ++i) ++hits[i];
                   }),
               std::runtime_error);
  int covered = 0;
  for (const auto& h : hits) covered += h.load();
  EXPECT_GE(covered, 1);  // the non-throwing chunks ran
}

TEST(ThreadPool, ConfigureGlobalAfterCreationRules) {
  const std::size_t n = util::ThreadPool::global().size();  // force creation
  ASSERT_GE(n, 1u);
  // Re-requesting the current size (or 0 = "don't care") is a no-op...
  EXPECT_NO_THROW(util::ThreadPool::configure_global(n));
  EXPECT_NO_THROW(util::ThreadPool::configure_global(0));
  // ...but resizing an existing pool is a programming error.
  EXPECT_THROW(util::ThreadPool::configure_global(n + 1), std::logic_error);
  EXPECT_EQ(util::ThreadPool::global().size(), n);
}

TEST(Parallel, ExclusiveScan) {
  std::vector<int> v{3, 1, 4, 1, 5};
  const int total = util::exclusive_scan_inplace(v);
  EXPECT_EQ(total, 14);
  EXPECT_EQ(v, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(ShardedExecutor, ReportsPerShardTimes) {
  const util::ShardedExecutor exec(util::ShardedExecutor::Policy::kSequential);
  std::vector<int> order;
  const util::ShardReport report = exec.run(4, [&](std::size_t s) {
    order.push_back(static_cast<int>(s));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(report.shard_seconds.size(), 4u);
  EXPECT_GE(report.modeled_parallel_seconds(), 0.0);
  EXPECT_LE(report.modeled_parallel_seconds(), report.wall_seconds + 1e-9);
}

TEST(ShardedExecutor, ConcurrentAlsoRuns) {
  const util::ShardedExecutor exec(util::ShardedExecutor::Policy::kConcurrent);
  std::atomic<int> n{0};
  exec.run(5, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 5);
}

TEST(ShardedExecutor, OneShardRunsOnTheCallingThread) {
  // A one-shard run never makes a pool round trip, whatever the policy, and
  // still reports its shard's time.
  for (const auto policy : {util::ShardedExecutor::Policy::kAuto,
                            util::ShardedExecutor::Policy::kConcurrent}) {
    std::thread::id ran_on;
    const util::ShardReport report = util::ShardedExecutor(policy).run(
        1, [&](std::size_t) { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    ASSERT_EQ(report.shard_seconds.size(), 1u);
    EXPECT_GE(report.shard_seconds[0], 0.0);
  }
}

TEST(Histogram, CapAndTotals) {
  util::Histogram h;
  h.add(1, 10);
  h.add(2, 5);
  h.add(100, 1);
  EXPECT_EQ(h.total(), 16u);
  EXPECT_EQ(h.max_key(), 100u);
  const auto capped = h.capped(10);
  EXPECT_EQ(capped.max_key(), 10u);
  EXPECT_EQ(capped.total(), 16u);
  EXPECT_NE(h.to_tsv().find("100\t1"), std::string::npos);
}

TEST(Summary, Moments) {
  util::Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Summary, EmptyContractIsNaNNotZero) {
  // An empty summary has no data: the documented sentinel is NaN, never a
  // fabricated 0.0 a report could mistake for a measurement.
  const util::Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.variance()));
}

TEST(Summary, VarianceNeedsTwoSamples) {
  util::Summary s;
  s.add(7.5);
  EXPECT_TRUE(std::isnan(s.variance()));  // n < 2: undefined
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, NegativeOnlySamplesKeepTrueExtrema) {
  util::Summary s;
  s.add(-3.0);
  s.add(-9.0);
  EXPECT_DOUBLE_EQ(s.min(), -9.0);
  EXPECT_DOUBLE_EQ(s.max(), -3.0);
}

TEST(Table, RendersAlignedAndCsv) {
  util::Table t({"tool", "seconds"});
  t.add_row({"gpumem", util::Table::num(1.5)});
  t.add_row({"essamem", util::Table::num(12.25)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("gpumem"), std::string::npos);
  EXPECT_NE(s.find("12.25"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("tool,seconds"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvEscaping) {
  util::Table t({"a"});
  t.add_row({"x,y\"z"});
  EXPECT_NE(t.to_csv().find("\"x,y\"\"z\""), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositional) {
  // Note: "--flag value" consumes the next token, so bare booleans must be
  // last or use the --flag=true form (documented parser semantics).
  const char* argv[] = {"prog", "pos1", "--alpha", "3", "--beta=0.5",
                        "--gamma", "hello", "--flag"};
  util::Cli cli(8, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0), 0.5);
  EXPECT_TRUE(cli.get_bool("flag", false));
  EXPECT_EQ(cli.get("gamma", ""), "hello");
  EXPECT_EQ(cli.get("missing", "dflt"), "dflt");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos1");
}

TEST(Cli, BoolFalseSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no", "--d=yes"};
  util::Cli cli(5, const_cast<char**>(argv));
  EXPECT_FALSE(cli.get_bool("a", true));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_FALSE(cli.get_bool("c", true));
  EXPECT_TRUE(cli.get_bool("d", false));
}

TEST(Cli, ReportsUndescribedFlags) {
  const char* argv[] = {"prog", "--min-lenn", "30", "--tau", "64", "--help"};
  util::Cli cli(6, const_cast<char**>(argv));
  cli.describe("tau", "threads per block");
  cli.describe("min-len", "minimum length");
  // --help is always known; the misspelt flag is reported, not ignored.
  EXPECT_EQ(cli.unknown_flags(), std::vector<std::string>{"min-lenn"});
}

TEST(Cli, GarbledNumbersThrowNamingTheFlag) {
  const char* argv[] = {"prog",         "--a=abc", "--b=12x", "--c=",
                        "--d=0.5x",     "--e=-7",  "--f=2.5", "--g",
                        "--h=1e3"};
  util::Cli cli(9, const_cast<char**>(argv));
  for (const char* name : {"a", "b", "c", "f", "g"}) {
    try {
      (void)cli.get_int(name, 0);
      ADD_FAILURE() << "--" << name << " parsed as an integer";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + name),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)cli.get_double("d", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("a", 0.0), std::invalid_argument);
  EXPECT_EQ(cli.get_int("e", 0), -7);
  EXPECT_DOUBLE_EQ(cli.get_double("f", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(cli.get_double("h", 0.0), 1000.0);
  EXPECT_EQ(cli.get_int("missing", 9), 9);
}

// Known FNV-1a 64 vectors (from the reference implementation's test suite).
TEST(Checksum, Fnv1a64KnownVectors) {
  EXPECT_EQ(util::fnv1a64("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64(std::string_view("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(util::fnv1a64(std::string_view("foobar")), 0x85944171f73967e8ull);
  EXPECT_EQ(util::fnv1a64(std::string_view("chongo was here!\n")),
            0x46810940eff5f915ull);
}

TEST(Checksum, StreamingMatchesOneShotAcrossAnySplit) {
  const std::string data = "GATTACA-GATTACA-GATTACA";
  const std::uint64_t want = util::fnv1a64(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    util::Fnv1a64 h;
    h.update(data.data(), split);
    h.update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.digest(), want) << "split at " << split;
    EXPECT_EQ(h.bytes_consumed(), data.size());
  }
}

TEST(Checksum, DigestIsCheckpointNotTerminal) {
  util::Fnv1a64 h;
  h.update(std::string_view("foo"));
  const std::uint64_t mid = h.digest();
  EXPECT_EQ(mid, util::fnv1a64(std::string_view("foo")));
  h.update(std::string_view("bar"));
  EXPECT_EQ(h.digest(), util::fnv1a64(std::string_view("foobar")));
  h.reset();
  EXPECT_EQ(h.digest(), util::kFnv1a64Seed);
  EXPECT_EQ(h.bytes_consumed(), 0u);
}

TEST(Checksum, SingleBitFlipChangesDigest) {
  std::string data(256, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i);
  }
  const std::uint64_t clean = util::fnv1a64(data);
  for (std::size_t i = 0; i < data.size(); i += 17) {
    std::string bad = data;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    EXPECT_NE(util::fnv1a64(bad), clean) << "flip at " << i;
  }
}

// The striped variant is a distinct, deterministic digest: stable values,
// not the plain digest, and a flip of any single byte — whichever lane it
// lands in, including the sub-8-byte tail — changes it.
TEST(Checksum, StripedIsDeterministicAndDistinctFromPlain) {
  const std::string data = "GATTACA-GATTACA-GATTACA";
  const std::uint64_t a = util::fnv1a64_striped(data.data(), data.size());
  EXPECT_EQ(a, util::fnv1a64_striped(data.data(), data.size()));
  EXPECT_NE(a, util::fnv1a64(data));
  // Empty input folds eight untouched lanes — still well-defined.
  EXPECT_EQ(util::fnv1a64_striped(nullptr, 0),
            util::fnv1a64_striped(nullptr, 0));
}

TEST(Checksum, StripedDetectsEverySingleByteFlip) {
  std::string data(259, '\0');  // deliberately not a multiple of 8
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 31);
  }
  const std::uint64_t clean =
      util::fnv1a64_striped(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::string bad = data;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_NE(util::fnv1a64_striped(bad.data(), bad.size()), clean)
        << "flip at " << i;
  }
}

TEST(Checksum, StripedLengthIsPartOfTheDigest) {
  const std::string data(64, 'A');
  EXPECT_NE(util::fnv1a64_striped(data.data(), 64),
            util::fnv1a64_striped(data.data(), 63));
  EXPECT_NE(util::fnv1a64_striped(data.data(), 64),
            util::fnv1a64_striped(data.data(), 56));
}

}  // namespace
}  // namespace gm
