// Unit tests for the common substrate: RNG, timers, thread pool, strings,
// CSV round-trips, and logging.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace imrdmd {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsAreSane) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, UniformIndexCoversDomainWithoutBias) {
  Rng rng(3);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), InvalidArgument);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(5);
  for (double mean : {0.5, 4.0, 50.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(sum / n, mean, 0.1 * mean + 0.05);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, SplitProducesDecorrelatedStream) {
  Rng parent(123);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child());
  EXPECT_LT(same, 3);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(77);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(timer.seconds(), 0.015);
  timer.reset();
  EXPECT_LT(timer.seconds(), 0.015);
}

TEST(RunStats, ComputesSummary) {
  const RunStats stats = RunStats::from_samples({1.0, 2.0, 3.0});
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.min, 1.0);
  EXPECT_DOUBLE_EQ(stats.max, 3.0);
  EXPECT_NEAR(stats.stddev, 1.0, 1e-12);
}

TEST(RunStats, EmptyInputYieldsZeros) {
  const RunStats stats = RunStats::from_samples({});
  EXPECT_EQ(stats.runs, 0u);
  EXPECT_EQ(stats.mean, 0.0);
}

TEST(RunStats, TimeRepeatedRunsCorrectCount) {
  std::size_t calls = 0;
  const RunStats stats =
      time_repeated([&](std::size_t) { ++calls; }, 5, 2);
  EXPECT_EQ(calls, 7u);  // 2 warmup + 5 measured
  EXPECT_EQ(stats.runs, 5u);
}

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RunsInlineOnAPoolWorker) {
  // A worker never waits on pool tasks: a task on a 1-worker pool that
  // fanned out onto that pool would wait on work only it could run.
  ThreadPool pool(1);
  std::vector<std::size_t> visited;
  std::atomic<int> off_worker{0};
  const auto task = [&] {
    parallel_for(0, 8, [&](std::size_t i) { visited.push_back(i); }, &pool);
    // Any pool's worker: the global pool's range stays on this thread too.
    const std::thread::id self = std::this_thread::get_id();
    parallel_for(0, 64, [&](std::size_t) {
      if (std::this_thread::get_id() != self) off_worker.fetch_add(1);
    });
  };
  pool.submit(task).get();
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(off_worker.load(), 0);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 50) throw std::runtime_error("bad index");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ExceptionWaitsForPendingChunks) {
  // Regression: rethrowing on the first failed chunk used to unwind while
  // later chunks were still queued holding a reference to the caller's
  // function object — an intermittent use-after-free segfault. Repeating
  // the throwing-first-chunk path makes the old flake near-certain.
  for (int repeat = 0; repeat < 50; ++repeat) {
    EXPECT_THROW(
        parallel_for(0, 100,
                     [](std::size_t i) {
                       if (i == 0) throw std::runtime_error("first chunk");
                     }),
        std::runtime_error);
  }
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  alpha \t beta\ngamma  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(Strings, TrimRemovesEdges) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(Strings, ParseLongValidatesInput) {
  EXPECT_EQ(parse_long("-42", "test"), -42);
  EXPECT_THROW(parse_long("4x", "test"), ParseError);
  EXPECT_THROW(parse_long("", "test"), ParseError);
}

TEST(Strings, ParseDoubleValidatesInput) {
  EXPECT_DOUBLE_EQ(parse_double("2.5e3", "test"), 2500.0);
  EXPECT_THROW(parse_double("abc", "test"), ParseError);
}

TEST(Strings, JoinConcatenates) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(Csv, RoundTripsQuotedFields) {
  const std::string path = ::testing::TempDir() + "/round_trip.csv";
  {
    CsvWriter writer(path, {"name", "value"});
    writer.write_row({"plain", "1"});
    writer.write_row({"with,comma", "2"});
    writer.write_row({"with\"quote", "3"});
    writer.write_row({"with\nnewline", "4"});
    writer.close();
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.header.size(), 2u);
  ASSERT_EQ(table.rows.size(), 4u);
  EXPECT_EQ(table.rows[1][0], "with,comma");
  EXPECT_EQ(table.rows[2][0], "with\"quote");
  EXPECT_EQ(table.rows[3][0], "with\nnewline");
  EXPECT_EQ(table.column("value"), 1u);
  EXPECT_THROW(table.column("missing"), ParseError);
  std::remove(path.c_str());
}

TEST(Csv, NumericRowsRoundTripExactly) {
  const std::string path = ::testing::TempDir() + "/numeric.csv";
  {
    CsvWriter writer(path, {"x", "y"});
    writer.write_row_numeric({0.1, 1e-300});
    writer.close();
  }
  const CsvTable table = read_csv(path);
  EXPECT_DOUBLE_EQ(parse_double(table.rows[0][0], "x"), 0.1);
  EXPECT_DOUBLE_EQ(parse_double(table.rows[0][1], "y"), 1e-300);
  std::remove(path.c_str());
}

TEST(Csv, RejectsRaggedRows) {
  const std::string path = ::testing::TempDir() + "/ragged.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2,3\n";
  }
  EXPECT_THROW(read_csv(path), ParseError);
  std::remove(path.c_str());
}

TEST(Csv, ArityMismatchThrows) {
  const std::string path = ::testing::TempDir() + "/arity.csv";
  CsvWriter writer(path, {"a", "b"});
  EXPECT_THROW(writer.write_row({"only-one"}), DimensionError);
  writer.close();
  std::remove(path.c_str());
}

TEST(Csv, SkipsBlankLinesIncludingDoubledTrailingNewline) {
  // Regression: a blank line set row_started before the character was
  // inspected and flowed into end_row() as a one-empty-field row, throwing
  // a spurious "ragged CSV row" — a doubled trailing newline (common from
  // editors and shell heredocs) broke every multi-column file.
  const std::string path = ::testing::TempDir() + "/blank_lines.csv";
  {
    std::ofstream out(path);
    out << "a,b\n1,2\n\n3,4\n\n";
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(table.rows[1], (std::vector<std::string>{"3", "4"}));
  std::remove(path.c_str());
}

TEST(Csv, SkipsBlankCrlfLinesAndParsesCrlfRows) {
  const std::string path = ::testing::TempDir() + "/crlf.csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a,b\r\n1,2\r\n\r\n3,4\r\n";
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.header.size(), 2u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0], (std::vector<std::string>{"1", "2"}));
  EXPECT_EQ(table.rows[1], (std::vector<std::string>{"3", "4"}));
  std::remove(path.c_str());
}

TEST(Csv, QuotedEmptyAndSeparatorOnlyRowsAreKept) {
  // Rows that merely *look* empty must not be skipped: a quoted empty
  // field and a bare separator both start a row.
  const std::string path = ::testing::TempDir() + "/almost_blank.csv";
  {
    std::ofstream out(path);
    out << "a,b\n\"\",x\n,\n";
  }
  const CsvTable table = read_csv(path);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0], (std::vector<std::string>{"", "x"}));
  EXPECT_EQ(table.rows[1], (std::vector<std::string>{"", ""}));
  std::remove(path.c_str());
}

TEST(Csv, WriterSurfacesDiskFullInsteadOfDroppingRows) {
  // /dev/full accepts the open and fails every flush with ENOSPC (Linux);
  // the writer must surface that instead of silently dropping telemetry.
  {
    std::ofstream probe("/dev/full");
    if (!probe.is_open()) GTEST_SKIP() << "/dev/full not available";
  }
  EXPECT_THROW(
      {
        CsvWriter writer("/dev/full", {"x"});
        // Enough rows to overflow the stream buffer and force a flush.
        for (int i = 0; i < 100000; ++i) writer.write_row({"0"});
        writer.close();
      },
      Error);
}

/// Counts directory entries whose filename begins with `prefix` (leftover
/// temps carry a writer-unique suffix, so a plain existence check misses
/// them).
std::size_t files_with_prefix(const std::string& dir,
                              const std::string& prefix) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(AtomicFile, WritesThroughTempAndLeavesNoTemp) {
  const std::string path = ::testing::TempDir() + "/atomic.txt";
  write_file_atomic(path, [](std::ostream& out) { out << "first"; });
  {
    std::ifstream in(path);
    std::string content;
    std::getline(in, content);
    EXPECT_EQ(content, "first");
  }
  EXPECT_EQ(files_with_prefix(::testing::TempDir(), "atomic.txt.tmp"), 0u);
  std::remove(path.c_str());
}

TEST(AtomicFile, FailedWriteLeavesPreviousFileUntouched) {
  const std::string path = ::testing::TempDir() + "/atomic_keep.txt";
  write_file_atomic(path, [](std::ostream& out) { out << "complete"; });
  // The writer crashes mid-stream; the final path must keep the old
  // complete content and the torn temp must be cleaned up.
  EXPECT_THROW(write_file_atomic(path,
                                 [](std::ostream& out) {
                                   out << "torn";
                                   throw std::runtime_error("crash");
                                 }),
               std::runtime_error);
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "complete");
  EXPECT_EQ(files_with_prefix(::testing::TempDir(), "atomic_keep.txt.tmp"),
            0u);
  std::remove(path.c_str());
}

TEST(AtomicFile, ConcurrentWritersNeverPublishATornFile) {
  // Each writer uses its own temp, so the final path only ever holds one
  // writer's complete payload — never an interleaving of two.
  const std::string path = ::testing::TempDir() + "/atomic_race.txt";
  const std::string a(4096, 'a');
  const std::string b(4096, 'b');
  std::thread writer_a([&] {
    for (int i = 0; i < 50; ++i) {
      write_file_atomic(path, [&](std::ostream& out) { out << a; });
    }
  });
  std::thread writer_b([&] {
    for (int i = 0; i < 50; ++i) {
      write_file_atomic(path, [&](std::ostream& out) { out << b; });
    }
  });
  writer_a.join();
  writer_b.join();
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_TRUE(content.str() == a || content.str() == b);
  std::remove(path.c_str());
}

TEST(AtomicFile, UnwritableTargetThrows) {
  EXPECT_THROW(write_file_atomic("/no-such-dir-imrdmd/x.txt",
                                 [](std::ostream& out) { out << "x"; }),
               Error);
}

TEST(Json, DoublesRoundTripBitExactly) {
  // Regression: %.9g formatting did not round-trip, so BENCH_*.json timing
  // fields silently lost precision. The writer now emits the shortest form
  // that parses back to the identical double.
  Rng rng(11);
  std::vector<double> values{0.1,
                             1.0 / 3.0,
                             6.02214076e23,
                             -2.2250738585072014e-308,
                             5e-324,  // smallest denormal
                             1.7976931348623157e308,
                             123456789.123456789,
                             0.0,
                             -0.0,
                             1.5};
  for (int i = 0; i < 100; ++i) {
    values.push_back(rng.normal() * std::pow(10.0, rng.uniform(-12.0, 12.0)));
  }
  for (double value : values) {
    JsonWriter json;
    json.begin_array();
    json.value(value);
    json.end_array();
    const std::string& text = json.str();
    ASSERT_GE(text.size(), 3u);
    const std::string number = text.substr(1, text.size() - 2);
    const double parsed = std::strtod(number.c_str(), nullptr);
    EXPECT_EQ(parsed, value) << "emitted " << number;
    // Bit-level check distinguishes -0.0 from 0.0 too.
    EXPECT_EQ(std::signbit(parsed), std::signbit(value)) << number;
  }
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter json;
  json.begin_array();
  json.value(std::nan(""));
  json.value(std::numeric_limits<double>::infinity());
  json.value(-std::numeric_limits<double>::infinity());
  json.end_array();
  EXPECT_EQ(json.str(), "[null,null,null]");
}

TEST(Log, LevelFiltering) {
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::Off);
  IMRDMD_WARN << "this must not crash while disabled";
  set_log_level(old_level);
}

TEST(Errors, MacroThrowsWithContext) {
  try {
    IMRDMD_REQUIRE_DIMS(1 == 2, "shapes disagree");
    FAIL() << "expected DimensionError";
  } catch (const DimensionError& e) {
    EXPECT_NE(std::string(e.what()).find("shapes disagree"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace imrdmd
