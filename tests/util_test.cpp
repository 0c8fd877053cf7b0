// Tests for src/util: rng, table formatting, cache, cli parsing, thread pool,
// logging.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/cache.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace nshd::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float x = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(x, -2.0f);
    EXPECT_LT(x, 3.0f);
  }
}

TEST(Rng, NextBelowIsBounded) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(2, 5);
    EXPECT_GE(x, 2);
    EXPECT_LE(x, 5);
    saw_lo |= x == 2;
    saw_hi |= x == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, BipolarIsBalanced) {
  Rng rng(19);
  int pos = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i)
    if (rng.bipolar() > 0) ++pos;
  EXPECT_NEAR(static_cast<double>(pos) / n, 0.5, 0.03);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(29);
  auto perm = random_permutation(100, rng);
  std::sort(perm.begin(), perm.end());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(perm[i], i);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.fork(0);
  // The fork must not replay the parent's stream.
  int equal = 0;
  Rng parent_copy(31);
  for (int i = 0; i < 64; ++i)
    if (child.next_u64() == parent_copy.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Table, RendersAllRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"3", "4"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| 1"), std::string::npos);
  EXPECT_NE(s.find("| 3"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvFormat) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(Table, MarkdownHasSeparator) {
  Table t({"x"});
  t.add_row({"1"});
  EXPECT_NE(t.to_markdown().find("---|"), std::string::npos);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(0.63871, 2), "0.64");
  EXPECT_EQ(cell(std::size_t{42}), "42");
  EXPECT_EQ(cell(-3), "-3");
}

TEST(Table, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(2048), "2.00KB");
  EXPECT_EQ(format_bytes(69.61 * 1024 * 1024), "69.61MB");
}

TEST(Table, FormatCount) {
  EXPECT_EQ(format_count(500), "500");
  EXPECT_EQ(format_count(2500), "2.50K");
  EXPECT_EQ(format_count(3.1e6), "3.10M");
  EXPECT_EQ(format_count(2.5e9), "2.50G");
}

TEST(Fnv1a, StableKnownValue) {
  // FNV-1a of empty string is the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("nshd_cache_test_" + std::to_string(::getpid()));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(DiskCacheTest, RoundTrip) {
  DiskCache cache(dir_.string());
  const std::vector<float> blob{1.0f, 2.5f, -3.0f};
  EXPECT_FALSE(cache.contains("key"));
  cache.put("key", blob);
  EXPECT_TRUE(cache.contains("key"));
  auto loaded = cache.get("key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, blob);
}

TEST_F(DiskCacheTest, MissingKeyReturnsNullopt) {
  DiskCache cache(dir_.string());
  EXPECT_FALSE(cache.get("missing").has_value());
}

TEST_F(DiskCacheTest, EraseRemovesEntry) {
  DiskCache cache(dir_.string());
  cache.put("key", {1.0f});
  cache.erase("key");
  EXPECT_FALSE(cache.contains("key"));
}

TEST_F(DiskCacheTest, DistinctKeysDistinctEntries) {
  DiskCache cache(dir_.string());
  cache.put("a", {1.0f});
  cache.put("b", {2.0f});
  EXPECT_EQ((*cache.get("a"))[0], 1.0f);
  EXPECT_EQ((*cache.get("b"))[0], 2.0f);
}

namespace {
/// The on-disk slot a key hashes to (mirrors DiskCache::path_for).
std::filesystem::path slot_path(const std::filesystem::path& dir, const std::string& key) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(key)));
  return dir / (std::string(buf) + ".bin");
}
}  // namespace

TEST_F(DiskCacheTest, HashCollisionIsAMissNotTheWrongBlob) {
  DiskCache cache(dir_.string());
  cache.put("stored-key", {1.0f, 2.0f, 3.0f});
  // Simulate an fnv1a64 collision: drop the entry written for "stored-key"
  // into the slot "victim-key" hashes to.  Before the keyed header, get()
  // would happily return stored-key's blob for victim-key.
  std::filesystem::copy_file(slot_path(dir_, "stored-key"), slot_path(dir_, "victim-key"));
  EXPECT_FALSE(cache.get("victim-key").has_value());
  EXPECT_FALSE(cache.contains("victim-key"));
  // The real key still round-trips.
  auto loaded = cache.get("stored-key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST_F(DiskCacheTest, LegacyHeaderlessEntryIsAMiss) {
  DiskCache cache(dir_.string());
  // Pre-header format: raw floats, no magic/key.  Must read as a miss, and
  // a fresh put() must repair the slot.
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(slot_path(dir_, "key"), std::ios::binary);
    const float legacy[2] = {9.0f, 8.0f};
    out.write(reinterpret_cast<const char*>(legacy), sizeof legacy);
  }
  EXPECT_FALSE(cache.get("key").has_value());
  EXPECT_FALSE(cache.contains("key"));
  cache.put("key", {4.0f});
  auto loaded = cache.get("key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, std::vector<float>{4.0f});
}

TEST_F(DiskCacheTest, ConcurrentPutsDoNotCorrupt) {
  DiskCache cache(dir_.string());
  // Writers hammer one shared key (same value) and one private key each;
  // unique staging names keep half-written temp files from colliding.
  const std::vector<float> shared_blob{3.25f, -1.5f};
  constexpr int kWriters = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      const std::vector<float> mine{static_cast<float>(w), static_cast<float>(w) + 0.5f};
      for (int round = 0; round < kRounds; ++round) {
        cache.put("shared", shared_blob);
        cache.put("private-" + std::to_string(w), mine);
      }
    });
  }
  for (auto& t : writers) t.join();
  auto shared = cache.get("shared");
  ASSERT_TRUE(shared.has_value());
  EXPECT_EQ(*shared, shared_blob);
  for (int w = 0; w < kWriters; ++w) {
    auto mine = cache.get("private-" + std::to_string(w));
    ASSERT_TRUE(mine.has_value());
    EXPECT_EQ(*mine,
              (std::vector<float>{static_cast<float>(w), static_cast<float>(w) + 0.5f}));
  }
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  set_thread_count(4);
  std::vector<std::atomic<int>> hits(1001);
  for (auto& h : hits) h.store(0);
  parallel_for(0, 1001, 7, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkBoundariesIgnoreThreadCount) {
  // The fixed partitioning contract: chunk index/begin/end depend only on
  // (range, grain), so float reductions over per-chunk partials are
  // bitwise identical for any pool size.
  auto chunks_at = [](int threads) {
    set_thread_count(threads);
    const std::int64_t n = 103, grain = 9;
    std::vector<std::array<std::int64_t, 3>> seen(
        static_cast<std::size_t>(chunk_count(0, n, grain)));
    parallel_for_chunks(0, n, grain,
                        [&](std::int64_t c, std::int64_t b, std::int64_t e) {
                          seen[static_cast<std::size_t>(c)] = {c, b, e};
                        });
    return seen;
  };
  EXPECT_EQ(chunks_at(1), chunks_at(8));
}

TEST(ThreadPool, PartialSumReductionIsDeterministic) {
  // Awkward float magnitudes; per-chunk partials reduced in index order
  // must match bitwise across thread counts.
  const std::int64_t n = 4099, grain = 16;
  std::vector<float> values(static_cast<std::size_t>(n));
  Rng rng(99);
  for (auto& v : values) v = rng.uniform(-1e6f, 1e6f);
  auto sum_at = [&](int threads) {
    set_thread_count(threads);
    std::vector<float> partial(static_cast<std::size_t>(chunk_count(0, n, grain)), 0.0f);
    parallel_for_chunks(0, n, grain,
                        [&](std::int64_t c, std::int64_t b, std::int64_t e) {
                          float local = 0.0f;
                          for (std::int64_t i = b; i < e; ++i)
                            local += values[static_cast<std::size_t>(i)];
                          partial[static_cast<std::size_t>(c)] = local;
                        });
    float total = 0.0f;
    for (const float p : partial) total += p;
    return total;
  };
  const float serial = sum_at(1);
  EXPECT_EQ(serial, sum_at(2));
  EXPECT_EQ(serial, sum_at(8));
}

TEST(ThreadPool, NestedCallsRunInline) {
  set_thread_count(4);
  std::atomic<int> total{0};
  parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      // Nested parallel_for must not deadlock on the outer job's pool.
      parallel_for(0, 10, 2, [&](std::int64_t nb, std::int64_t ne) {
        total.fetch_add(static_cast<int>(ne - nb));
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
}

TEST(ThreadPool, ContendedCallersBothMakeProgress) {
  // Regression: a second external caller used to block on caller_mutex_
  // behind an unrelated job.  Here caller A's chunks cannot finish until
  // caller B's parallel_for completes — with head-of-line blocking this
  // deadlocks; with the contended-inline fallback B completes on its own
  // thread and unblocks A.
  set_thread_count(4);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_done{false};
  std::atomic<int> a_total{0}, b_total{0};

  std::thread a([&] {
    parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
      a_started.store(true);
      while (!b_done.load()) std::this_thread::yield();
      a_total.fetch_add(static_cast<int>(e - b));
    });
  });
  std::thread b([&] {
    while (!a_started.load()) std::this_thread::yield();
    parallel_for(0, 100, 3, [&](std::int64_t nb, std::int64_t ne) {
      b_total.fetch_add(static_cast<int>(ne - nb));
    });
    b_done.store(true);
  });
  a.join();
  b.join();
  EXPECT_EQ(a_total.load(), 8);
  EXPECT_EQ(b_total.load(), 100);
}

TEST(ThreadPool, ContendedCallerKeepsChunkBoundaries) {
  // The inline fallback must preserve the fixed chunk partitioning, so a
  // contended caller's reduction stays bitwise identical.
  set_thread_count(4);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_done{false};
  std::vector<std::array<std::int64_t, 3>> seen(
      static_cast<std::size_t>(chunk_count(0, 103, 9)));

  std::thread a([&] {
    parallel_for(0, 8, 1, [&](std::int64_t, std::int64_t) {
      a_started.store(true);
      while (!b_done.load()) std::this_thread::yield();
    });
  });
  std::thread b([&] {
    while (!a_started.load()) std::this_thread::yield();
    parallel_for_chunks(0, 103, 9,
                        [&](std::int64_t c, std::int64_t cb, std::int64_t ce) {
                          seen[static_cast<std::size_t>(c)] = {c, cb, ce};
                        });
    b_done.store(true);
  });
  a.join();
  b.join();
  for (std::size_t c = 0; c < seen.size(); ++c) {
    const std::int64_t b0 = static_cast<std::int64_t>(c) * 9;
    EXPECT_EQ(seen[c][0], static_cast<std::int64_t>(c));
    EXPECT_EQ(seen[c][1], b0);
    EXPECT_EQ(seen[c][2], std::min<std::int64_t>(b0 + 9, 103));
  }
}

TEST(ThreadPool, ParseThreadCountAcceptsPlainIntegers) {
  EXPECT_EQ(parse_thread_count("1", 8), 1);
  EXPECT_EQ(parse_thread_count("16", 8), 16);
  EXPECT_EQ(parse_thread_count("  12  ", 8), 12);  // strtol skips leading ws
  EXPECT_EQ(parse_thread_count("256", 8), 256);
}

TEST(ThreadPool, ParseThreadCountRejectsGarbage) {
  // Trailing garbage must not half-parse ("8x" used to read as 8).
  EXPECT_EQ(parse_thread_count("8x", 3), 3);
  EXPECT_EQ(parse_thread_count("fast", 3), 3);
  EXPECT_EQ(parse_thread_count("3.5", 3), 3);
  EXPECT_EQ(parse_thread_count("", 3), 3);
  EXPECT_EQ(parse_thread_count(nullptr, 3), 3);
}

TEST(ThreadPool, ParseThreadCountRangeChecks) {
  EXPECT_EQ(parse_thread_count("0", 5), 5);
  EXPECT_EQ(parse_thread_count("-4", 5), 5);
  EXPECT_EQ(parse_thread_count("1000000", 5), kMaxThreads);
}

TEST(ThreadPool, EmptyAndSingleChunkRanges) {
  set_thread_count(4);
  int calls = 0;
  parallel_for(5, 5, 4, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(0, 3, 100, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(CliArgs, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--alpha=0.5", "--name=test"};
  CliArgs args(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(args.get("name", ""), "test");
}

TEST(CliArgs, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--epochs", "12"};
  CliArgs args(3, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("epochs", 0), 12);
}

TEST(CliArgs, BooleanFlag) {
  const char* argv[] = {"prog", "--verbose"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
}

TEST(CliArgs, PositionalPreserved) {
  const char* argv[] = {"prog", "input.bin", "--x=1", "output.bin"};
  CliArgs args(4, const_cast<char**>(argv));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.bin");
  EXPECT_EQ(args.positional()[1], "output.bin");
}

TEST(CliArgs, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(Log, ConcurrentLinesStayWholeWhileLevelToggles) {
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  const std::string payload(40, 'x');
  const LogLevel saved = log_level();
  testing::internal::CaptureStderr();
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    while (!stop.load()) {
      set_log_level(LogLevel::kError);
      set_log_level(LogLevel::kDebug);
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kLines; ++i) {
        NSHD_LOG_WARN("worker=%d line=%d %s", t, i, payload.c_str());
        NSHD_LOG_ERROR("worker=%d line=%d %s", t, i, payload.c_str());
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  toggler.join();
  set_log_level(saved);
  const std::string out = testing::internal::GetCapturedStderr();

  // Every line is one whole message: no fragments of another thread's line.
  std::istringstream lines(out);
  std::string line;
  int errors = 0, warnings = 0;
  while (std::getline(lines, line)) {
    int t = -1, i = -1;
    char tag[8] = {};
    char body[64] = {};
    ASSERT_EQ(std::sscanf(line.c_str(), "[nshd %5[A-Z ]] worker=%d line=%d %63s",
                          tag, &t, &i, body),
              4)
        << line;
    EXPECT_TRUE(t >= 0 && t < kThreads && i >= 0 && i < kLines) << line;
    EXPECT_EQ(std::string(body), payload) << line;
    (std::string(tag) == "ERROR" ? errors : warnings) += 1;
  }
  // kError passes at both levels the toggler sets; kWarn only at one.
  EXPECT_EQ(errors, kThreads * kLines);
  EXPECT_LE(warnings, kThreads * kLines);
}

TEST(Log, LongLinesArriveWhole) {
  // Past the formatter's stack buffer the line moves to the heap; it must
  // still arrive complete, newline included, at every length around 1 KiB.
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  for (std::size_t n : {1000u, 1010u, 1011u, 1012u, 5000u}) {
    std::string body(n, 'y');
    body.back() = 'z';
    testing::internal::CaptureStderr();
    NSHD_LOG_WARN("%s", body.c_str());
    const std::string out = testing::internal::GetCapturedStderr();
    EXPECT_EQ(out, "[nshd WARN ] " + body + "\n") << "n=" << n;
  }
  set_log_level(saved);
}

}  // namespace
}  // namespace nshd::util
