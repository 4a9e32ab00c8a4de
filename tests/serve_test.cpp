// Serving-layer tests: the multi-tenant AssessorService bitwise gate
// (every tenant's stream through the service + AsyncSink chain is
// identical to its solo single-Assessor run, N in {1, 4, 8}), tenant
// error isolation, stop/checkpoint/resume, the AsyncSink
// ordering/backpressure/overflow/error contract, the MetricsRegistry
// OpenMetrics rendering, the HTTP exporter, the RingBufferSink window,
// the LatestOnlySink poll-while-delivering race regression (run under
// TSan in CI), and the global_pool exit-while-task-in-flight regression.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/sinks.hpp"
#include "dist/communicator.hpp"
#include "serve/async_sink.hpp"
#include "serve/http_exporter.hpp"
#include "serve/metrics.hpp"
#include "serve/ring_sink.hpp"
#include "serve/service.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::ChunkSource;
using core::CollectingSink;
using core::Mat;
using core::MatrixChunkSource;
using core::PipelineOptions;
using serve::AssessorService;
using serve::AsyncSink;
using serve::HttpExporter;
using serve::MetricsRegistry;
using serve::RingBufferSink;
using serve::TenantOptions;
using serve::TenantState;
using imrdmd::testing::expect_snapshot_equal;
using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

PipelineOptions serve_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 3;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

/// One tenant's scenario: its own planted stream (distinct seed/width) and
/// its own sharded config, so the multi-tenant matrix mixes topologies.
struct TenantScenario {
  Mat data;
  std::size_t initial = 96;
  std::size_t chunk = 32;
  AssessorConfig config;
};

TenantScenario make_scenario(std::size_t stride, std::size_t index) {
  TenantScenario scenario;
  const std::size_t sensors = 9 + index;
  Rng rng(100 + index);
  scenario.data = planted_multiscale(sensors, 224, 0.02, rng);
  scenario.config.pipeline(serve_pipeline_options())
      .sensors(sensors)
      .sharded(core::contiguous_groups(sensors, 2 + index % 3),
               1 + index % 2)
      .hierarchy(stride);
  scenario.config.ingest_options.prefetch_depth = index % 3;
  return scenario;
}

std::vector<AssessmentSnapshot> solo_run(const TenantScenario& scenario) {
  Assessor assessor(scenario.config);
  MatrixChunkSource source(scenario.data, scenario.initial, scenario.chunk);
  CollectingSink sink;
  assessor.run(source, sink);
  return sink.take();
}

AssessmentSnapshot make_snapshot(std::size_t index) {
  AssessmentSnapshot snapshot;
  snapshot.chunk_index = index;
  snapshot.chunk_snapshots = 1;
  snapshot.total_snapshots = index + 1;
  snapshot.magnitudes = {static_cast<double>(index)};
  return snapshot;
}

/// Inner sink for the AsyncSink contract tests: records order, optionally
/// sleeps per delivery, blocks on a gate, throws once, or requests a stop.
class ProbeSink final : public core::SnapshotSink {
 public:
  using core::SnapshotSink::on_snapshot;
  bool on_snapshot(const AssessmentSnapshot& snapshot) override {
    if (gate_enabled_) {
      std::unique_lock<std::mutex> lock(gate_mutex_);
      gate_cv_.wait(lock, [this] { return gate_open_; });
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    if (throw_on_index_ >= 0 &&
        snapshot.chunk_index == static_cast<std::size_t>(throw_on_index_)) {
      throw_on_index_ = -1;
      throw Error("probe sink rejects this snapshot");
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      indices_.push_back(snapshot.chunk_index);
    }
    return !request_stop_;
  }
  void on_end(const core::RunSummary&) override { ends_.fetch_add(1); }

  std::vector<std::size_t> indices() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return indices_;
  }
  std::size_t ends() const { return ends_.load(); }

  void enable_gate() { gate_enabled_ = true; }
  void open_gate() {
    {
      std::lock_guard<std::mutex> lock(gate_mutex_);
      gate_open_ = true;
    }
    gate_cv_.notify_all();
  }
  void set_delay(std::chrono::milliseconds delay) { delay_ = delay; }
  void throw_on(int index) { throw_on_index_ = index; }
  void request_stop() { request_stop_ = true; }

 private:
  mutable std::mutex mutex_;
  std::vector<std::size_t> indices_;
  std::atomic<std::size_t> ends_{0};
  bool gate_enabled_ = false;
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  bool gate_open_ = false;
  std::chrono::milliseconds delay_{0};
  std::atomic<int> throw_on_index_{-1};
  std::atomic<bool> request_stop_{false};
};

// --- AssessorService: the multi-tenant bitwise gate ----------------------

void bitwise_identical_to_solo_runs_across_tenant_counts(std::size_t stride) {
  for (const std::size_t tenant_count : {1u, 4u, 8u}) {
    std::vector<TenantScenario> scenarios;
    std::vector<std::vector<AssessmentSnapshot>> reference;
    for (std::size_t i = 0; i < tenant_count; ++i) {
      scenarios.push_back(make_scenario(stride, i));
      reference.push_back(solo_run(scenarios.back()));
      ASSERT_EQ(reference.back().size(), 5u) << "tenant " << i;
    }

    AssessorService service;
    std::vector<std::unique_ptr<MatrixChunkSource>> sources;
    std::vector<std::unique_ptr<CollectingSink>> sinks;
    for (std::size_t i = 0; i < tenant_count; ++i) {
      sources.push_back(std::make_unique<MatrixChunkSource>(
          scenarios[i].data, scenarios[i].initial, scenarios[i].chunk));
      sinks.push_back(std::make_unique<CollectingSink>());
      TenantOptions options;
      options.config = scenarios[i].config;
      options.source = sources.back().get();
      options.sink = sinks.back().get();
      options.async_capacity = 4;  // AsyncSink (Block) in every chain
      options.ring_capacity = 2;
      service.add_tenant("tenant-" + std::to_string(i), options);
    }
    service.start_all();
    service.drain_all();

    for (std::size_t i = 0; i < tenant_count; ++i) {
      const std::string name = "tenant-" + std::to_string(i);
      const auto status = service.status(name);
      EXPECT_EQ(status.state, TenantState::Completed) << status.error;
      EXPECT_EQ(status.summary.reason, core::StopReason::EndOfStream);
      const auto& streamed = sinks[i]->snapshots();
      ASSERT_EQ(streamed.size(), reference[i].size()) << name;
      for (std::size_t c = 0; c < streamed.size(); ++c) {
        expect_snapshot_equal(streamed[c], reference[i][c]);
      }
      // The ring holds the tail of the same stream.
      auto* ring = service.ring(name);
      ASSERT_NE(ring, nullptr);
      const auto window = ring->window();
      ASSERT_EQ(window.size(), 2u);
      expect_snapshot_equal(window.back(), reference[i].back());
      // Per-tenant metrics saw every chunk.
      EXPECT_EQ(service.metrics().value("imrdmd_tenant_chunks_total",
                                        {{"tenant", name}}),
                static_cast<double>(reference[i].size()));
      EXPECT_EQ(service.metrics().value("imrdmd_tenant_up",
                                        {{"tenant", name}}),
                0.0);
    }
  }
}

TEST(ServeMultiTenant, BitwiseIdenticalToSoloRunsAcrossTenantCounts) {
  for_each_stride(bitwise_identical_to_solo_runs_across_tenant_counts);
}

/// Source that throws mid-stream — the "killed tenant".
class FailingSource final : public ChunkSource {
 public:
  FailingSource(const Mat& data, std::size_t initial, std::size_t chunk,
                std::size_t fail_after)
      : inner_(data, initial, chunk), fail_after_(fail_after) {}
  std::optional<Mat> next_chunk() override {
    if (pulls_++ >= fail_after_) throw Error("telemetry shipper died");
    return inner_.next_chunk();
  }
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override { inner_.seek(snapshot); }

 private:
  MatrixChunkSource inner_;
  std::size_t fail_after_;
  std::size_t pulls_ = 0;
};

void one_tenant_failure_is_isolated(std::size_t stride) {
  const auto healthy_a = make_scenario(stride, 0);
  const auto healthy_b = make_scenario(stride, 1);
  const auto doomed = make_scenario(stride, 2);
  const auto reference_a = solo_run(healthy_a);
  const auto reference_b = solo_run(healthy_b);

  AssessorService service;
  MatrixChunkSource source_a(healthy_a.data, healthy_a.initial,
                             healthy_a.chunk);
  MatrixChunkSource source_b(healthy_b.data, healthy_b.initial,
                             healthy_b.chunk);
  FailingSource source_c(doomed.data, doomed.initial, doomed.chunk, 2);
  CollectingSink sink_a;
  CollectingSink sink_b;
  CollectingSink sink_c;
  TenantOptions options_a{healthy_a.config, &source_a, &sink_a};
  TenantOptions options_b{healthy_b.config, &source_b, &sink_b};
  TenantOptions options_c{doomed.config, &source_c, &sink_c};
  service.add_tenant("healthy-a", options_a);
  service.add_tenant("healthy-b", options_b);
  service.add_tenant("doomed", options_c);
  service.start_all();
  service.drain_all();

  const auto failed = service.status("doomed");
  EXPECT_EQ(failed.state, TenantState::Failed);
  EXPECT_NE(failed.error.find("telemetry shipper died"), std::string::npos)
      << failed.error;
  EXPECT_EQ(service.metrics().value("imrdmd_tenant_failures_total",
                                    {{"tenant", "doomed"}}),
            1.0);

  // The neighbors never noticed: complete, and bitwise identical to solo.
  const auto expect_untouched =
      [&](const std::string& name, const CollectingSink& sink,
          const std::vector<AssessmentSnapshot>& reference) {
        EXPECT_EQ(service.status(name).state, TenantState::Completed);
        ASSERT_EQ(sink.snapshots().size(), reference.size()) << name;
        for (std::size_t c = 0; c < reference.size(); ++c) {
          expect_snapshot_equal(sink.snapshots()[c], reference[c]);
        }
      };
  expect_untouched("healthy-a", sink_a, reference_a);
  expect_untouched("healthy-b", sink_b, reference_b);
}

TEST(ServeMultiTenant, OneTenantFailureIsIsolated) {
  for_each_stride(one_tenant_failure_is_isolated);
}

/// MatrixChunkSource with a per-chunk delay: paces a long stream so a
/// stop() lands mid-stream deterministically (not after completion).
class PacedSource final : public ChunkSource {
 public:
  PacedSource(const Mat& data, std::size_t initial, std::size_t chunk,
              std::chrono::milliseconds delay)
      : inner_(data, initial, chunk), delay_(delay) {}
  std::optional<Mat> next_chunk() override {
    std::this_thread::sleep_for(delay_);
    return inner_.next_chunk();
  }
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override { inner_.seek(snapshot); }

 private:
  MatrixChunkSource inner_;
  std::chrono::milliseconds delay_;
};

void stop_checkpoints_and_resume_continues_bitwise(std::size_t stride) {
  // A long stream the service will NOT finish: stop() mid-way, then resume
  // a fresh engine from the stop checkpoint and run to the end; the two
  // delivered streams concatenate to exactly the uninterrupted solo run.
  Rng rng(42);
  const Mat data = planted_multiscale(10, 64 + 60 * 16, 0.02, rng);
  TenantScenario scenario;
  scenario.data = data;
  scenario.initial = 64;
  scenario.chunk = 16;
  scenario.config.pipeline(serve_pipeline_options())
      .sensors(10)
      .sharded(core::contiguous_groups(10, 2), 2)
      .hierarchy(stride);
  const auto reference = solo_run(scenario);
  ASSERT_EQ(reference.size(), 61u);

  const std::string checkpoint_path =
      ::testing::TempDir() + "serve_stop_checkpoint.bin";
  AssessorService service;
  PacedSource source(data, 64, 16, std::chrono::milliseconds(5));
  CollectingSink sink;
  TenantOptions options;
  options.config = scenario.config;
  options.config.checkpoint_policy.path = checkpoint_path;  // stop-only
  options.source = &source;
  options.sink = &sink;
  service.add_tenant("paced", options);
  service.start("paced");
  // Let a few chunks through, then stop.
  while (service.metrics().value("imrdmd_tenant_chunks_total",
                                 {{"tenant", "paced"}}) < 3.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  service.stop("paced");
  const auto status = service.status("paced");
  ASSERT_EQ(status.state, TenantState::Stopped) << status.error;
  const std::size_t delivered = sink.snapshots().size();
  ASSERT_GE(delivered, 3u);
  ASSERT_LT(delivered, reference.size());
  EXPECT_GT(service.metrics().value("imrdmd_tenant_checkpoints_total",
                                    {{"tenant", "paced"}}),
            0.0);
  EXPECT_GT(service.metrics().value("imrdmd_tenant_checkpoint_bytes_total",
                                    {{"tenant", "paced"}}),
            0.0);

  // Resume in a "successor process": restore, seek, run to end of stream.
  auto restored = core::load_assessor_checkpoint_file(checkpoint_path);
  MatrixChunkSource remainder(data, 64, 16);
  remainder.seek(restored.stream_position);
  CollectingSink rest;
  restored.assessor.run(remainder, rest);

  ASSERT_EQ(delivered + rest.snapshots().size(), reference.size());
  for (std::size_t c = 0; c < delivered; ++c) {
    expect_snapshot_equal(sink.snapshots()[c], reference[c]);
  }
  for (std::size_t c = 0; c < rest.snapshots().size(); ++c) {
    expect_snapshot_equal(rest.snapshots()[c], reference[delivered + c]);
  }
  std::remove(checkpoint_path.c_str());
}

TEST(ServeService, StopCheckpointsAndResumeContinuesBitwise) {
  for_each_stride(stop_checkpoints_and_resume_continues_bitwise);
}

void validates_registrations(std::size_t stride) {
  AssessorService service;
  Rng rng(1);
  const Mat data = planted_multiscale(6, 64, 0.0, rng);
  MatrixChunkSource source(data, 32, 16);
  TenantOptions options;
  options.config.pipeline(serve_pipeline_options())
      .monolithic()
      .hierarchy(stride);
  options.source = &source;

  EXPECT_THROW(service.add_tenant("", options), InvalidArgument);
  TenantOptions no_source = options;
  no_source.source = nullptr;
  EXPECT_THROW(service.add_tenant("a", no_source), InvalidArgument);
  service.add_tenant("a", options);
  EXPECT_THROW(service.add_tenant("a", options), InvalidArgument);
  EXPECT_THROW(service.status("nope"), InvalidArgument);
  EXPECT_THROW(service.start("nope"), InvalidArgument);
  EXPECT_EQ(service.status("a").state, TenantState::Idle);
  // Distributed configs are rejected at registration.
  TenantOptions distributed = options;
  dist::World world(1);
  world.run([&](dist::Communicator& comm) {
    distributed.config.distributed(comm);
    EXPECT_THROW(service.add_tenant("b", distributed), InvalidArgument);
  });
}

TEST(ServeService, ValidatesRegistrations) {
  for_each_stride(validates_registrations);
}

// --- AsyncSink contract ---------------------------------------------------

TEST(AsyncSink, ForwardsInOrderExactlyOnce) {
  ProbeSink inner;
  AsyncSink sink(inner);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_TRUE(sink.on_snapshot(make_snapshot(i)));
  }
  sink.on_end(core::RunSummary{});
  sink.flush();
  const auto indices = inner.indices();
  ASSERT_EQ(indices.size(), 32u);
  for (std::size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
  EXPECT_EQ(inner.ends(), 1u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(AsyncSink, BlockPolicyIsLosslessUnderSlowConsumer) {
  ProbeSink inner;
  inner.set_delay(std::chrono::milliseconds(1));
  AsyncSink::Options options;
  options.capacity = 2;
  options.overflow = AsyncSink::Overflow::Block;
  AsyncSink sink(inner, options);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(sink.on_snapshot(make_snapshot(i)));
  }
  sink.flush();
  EXPECT_EQ(inner.indices().size(), 40u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(AsyncSink, DropOldestNeverBlocksAndCountsDrops) {
  ProbeSink inner;
  inner.enable_gate();  // consumer wedged: nothing drains
  AsyncSink::Options options;
  options.capacity = 4;
  options.overflow = AsyncSink::Overflow::DropOldest;
  AsyncSink sink(inner, options);
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_TRUE(sink.on_snapshot(make_snapshot(i)));
  }
  // A wedged consumer never stalled the producer.
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(5));
  inner.open_gate();
  sink.flush();
  const auto indices = inner.indices();
  EXPECT_EQ(indices.size() + sink.dropped(), 30u);
  EXPECT_GT(sink.dropped(), 0u);
  // Order is preserved among the survivors, and the newest snapshot wins.
  for (std::size_t i = 1; i < indices.size(); ++i) {
    EXPECT_LT(indices[i - 1], indices[i]);
  }
  EXPECT_EQ(indices.back(), 29u);
}

TEST(AsyncSink, InnerFailureSurfacesOnNextDelivery) {
  ProbeSink inner;
  inner.throw_on(0);
  AsyncSink sink(inner);
  EXPECT_TRUE(sink.on_snapshot(make_snapshot(0)));
  EXPECT_THROW(
      {
        // The worker fails asynchronously; some later delivery (or the
        // flush) rethrows.
        for (std::size_t i = 1; i < 1000; ++i) {
          if (!sink.on_snapshot(make_snapshot(i))) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        sink.flush();
      },
      Error);
}

TEST(AsyncSink, InnerStopVerdictPropagates) {
  ProbeSink inner;
  inner.request_stop();
  AsyncSink sink(inner);
  bool saw_false = false;
  for (std::size_t i = 0; i < 1000 && !saw_false; ++i) {
    saw_false = !sink.on_snapshot(make_snapshot(i));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_false);
}

TEST(AsyncSink, RejectsZeroCapacity) {
  ProbeSink inner;
  AsyncSink::Options options;
  options.capacity = 0;
  EXPECT_THROW(AsyncSink(inner, options), InvalidArgument);
}

// --- MetricsRegistry / OpenMetrics ---------------------------------------

TEST(ServeMetrics, RendersDeterministicOpenMetricsText) {
  MetricsRegistry registry;
  registry.counter_add("imrdmd_tenant_chunks_total", {{"tenant", "b"}}, 3,
                       "Chunks processed.");
  registry.counter_add("imrdmd_tenant_chunks_total", {{"tenant", "a"}}, 2);
  registry.gauge_set("imrdmd_tenant_hot_sensors", {{"tenant", "a"}}, 5);
  const std::string text = registry.render_openmetrics();
  EXPECT_EQ(text,
            "# TYPE imrdmd_tenant_chunks_total counter\n"
            "# HELP imrdmd_tenant_chunks_total Chunks processed.\n"
            "imrdmd_tenant_chunks_total{tenant=\"a\"} 2\n"
            "imrdmd_tenant_chunks_total{tenant=\"b\"} 3\n"
            "# TYPE imrdmd_tenant_hot_sensors gauge\n"
            "imrdmd_tenant_hot_sensors{tenant=\"a\"} 5\n"
            "# EOF\n");
  // Unchanged state renders byte-identically.
  EXPECT_EQ(registry.render_openmetrics(), text);
  EXPECT_EQ(registry.value("imrdmd_tenant_chunks_total", {{"tenant", "a"}}),
            2.0);
  EXPECT_EQ(registry.value("no_such_family", {}), 0.0);
}

TEST(ServeMetrics, EscapesLabelValuesAndSortsLabels) {
  MetricsRegistry registry;
  registry.gauge_set("g", {{"z", "with\"quote"}, {"a", "back\\slash\n"}}, 1);
  const std::string text = registry.render_openmetrics();
  EXPECT_NE(text.find("g{a=\"back\\\\slash\\n\",z=\"with\\\"quote\"} 1\n"),
            std::string::npos)
      << text;
}

TEST(ServeMetrics, RejectsNegativeCounterAndTypeConflicts) {
  MetricsRegistry registry;
  registry.counter_add("c_total", {}, 1);
  EXPECT_THROW(registry.counter_add("c_total", {}, -1), InvalidArgument);
  EXPECT_THROW(registry.gauge_set("c_total", {}, 0), InvalidArgument);
}

/// Minimal OpenMetrics parse: every line is a comment directive or
/// `name[{labels}] value`, and the text ends with "# EOF".
void expect_parses_as_openmetrics(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    last = line;
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# TYPE ", 0) == 0 ||
                  line.rfind("# HELP ", 0) == 0 || line == "# EOF")
          << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << line;
    const std::string series = line.substr(0, space);
    const std::size_t brace = series.find('{');
    if (brace != std::string::npos) EXPECT_EQ(series.back(), '}') << line;
  }
  EXPECT_EQ(last, "# EOF");
}

void service_registry_parses_as_open_metrics(std::size_t stride) {
  const auto scenario = make_scenario(stride, 3);
  AssessorService service;
  MatrixChunkSource source(scenario.data, scenario.initial, scenario.chunk);
  core::LatestOnlySink sink;
  TenantOptions options;
  options.config = scenario.config;
  options.source = &source;
  options.sink = &sink;
  service.add_tenant("parse-me", options);
  service.start("parse-me");
  service.drain("parse-me");
  ASSERT_EQ(service.status("parse-me").state, TenantState::Completed);
  expect_parses_as_openmetrics(service.metrics().render_openmetrics());
}

TEST(ServeMetrics, ServiceRegistryParsesAsOpenMetrics) {
  for_each_stride(service_registry_parses_as_open_metrics);
}

// --- HttpExporter ---------------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpExporter, ServesOpenMetricsAtMetricsPath) {
  MetricsRegistry registry;
  registry.counter_add("imrdmd_tenant_chunks_total", {{"tenant", "t0"}}, 7,
                       "Chunks processed.");
  HttpExporter exporter(registry, 0);  // ephemeral port
  ASSERT_GT(exporter.port(), 0);

  const std::string response = http_get(exporter.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/openmetrics-text"), std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  EXPECT_NE(body.find("imrdmd_tenant_chunks_total{tenant=\"t0\"} 7"),
            std::string::npos)
      << body;
  expect_parses_as_openmetrics(body);

  EXPECT_NE(http_get(exporter.port(), "/nope").find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(http_get(exporter.port(), "/").find("200 OK"),
            std::string::npos);
  exporter.stop();  // idempotent with the destructor
}

TEST(HttpExporter, SurvivesConcurrentScrapes) {
  MetricsRegistry registry;
  registry.gauge_set("g", {}, 1);
  HttpExporter exporter(registry, 0);
  std::vector<std::thread> scrapers;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    scrapers.emplace_back([&] {
      for (int j = 0; j < 8; ++j) {
        if (http_get(exporter.port(), "/metrics").find("# EOF") !=
            std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& scraper : scrapers) scraper.join();
  EXPECT_EQ(ok.load(), 32);
}

// --- RingBufferSink -------------------------------------------------------

TEST(RingBuffer, KeepsTheNewestWindowAndCountsEvictions) {
  RingBufferSink sink(3);
  EXPECT_FALSE(sink.latest().has_value());
  for (std::size_t i = 0; i < 10; ++i) sink.on_snapshot(make_snapshot(i));
  EXPECT_EQ(sink.delivered(), 10u);
  EXPECT_EQ(sink.evicted(), 7u);
  const auto window = sink.window();
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].chunk_index, 7u);
  EXPECT_EQ(window[2].chunk_index, 9u);
  ASSERT_TRUE(sink.latest().has_value());
  EXPECT_EQ(sink.latest()->chunk_index, 9u);
  EXPECT_THROW(RingBufferSink(0), InvalidArgument);
}

TEST(RingBuffer, PollWhileDeliveringIsRaceFree) {
  RingBufferSink sink(4);
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 0; i < 500; ++i) sink.on_snapshot(make_snapshot(i));
    done.store(true);
  });
  std::size_t polls = 0;
  while (!done.load()) {
    const auto latest = sink.latest();
    if (latest.has_value()) {
      EXPECT_LT(latest->chunk_index, 500u);
      ++polls;
    }
    (void)sink.window();
  }
  writer.join();
  EXPECT_EQ(sink.delivered(), 500u);
  (void)polls;
}

// --- LatestOnlySink: the poll-while-delivering regression (TSan) ---------

TEST(ServeLatestOnlySink, PollWhileDeliveringIsRaceFree) {
  core::LatestOnlySink sink;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 0; i < 500; ++i) {
      AssessmentSnapshot snapshot = make_snapshot(i);
      snapshot.magnitudes.assign(16, static_cast<double>(i));
      sink.on_snapshot(std::move(snapshot));
    }
    done.store(true);
  });
  while (!done.load()) {
    // Copy-out: reading while the writer replaces the stored snapshot must
    // be race-free (the pre-fix sink handed back a reference into state
    // the writer was concurrently overwriting).
    const auto latest = sink.latest();
    if (latest.has_value()) {
      for (double m : latest->magnitudes) {
        EXPECT_EQ(m, latest->magnitudes.front());
      }
    }
  }
  writer.join();
  EXPECT_EQ(sink.delivered(), 500u);
  ASSERT_TRUE(sink.latest().has_value());
  EXPECT_EQ(sink.latest()->chunk_index, 499u);
}

// --- global_pool: exit while a task is in flight -------------------------

TEST(ThreadPoolExit, ExitWithTaskInFlightDoesNotJoinOrHang) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // The leaked global pool lets the process exit immediately: the in-flight
  // task never finishes, so its _exit(7) never fires. The pre-fix static
  // pool's destructor joined the workers at exit — the task completed and
  // the process exited 7 (or, with a submit racing static destruction,
  // crashed outright).
  EXPECT_EXIT(
      {
        global_pool().submit([] {
          std::this_thread::sleep_for(std::chrono::seconds(2));
          std::_Exit(7);
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace imrdmd
