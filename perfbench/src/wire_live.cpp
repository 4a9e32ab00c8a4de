// wire_live — open loop, three socket-fed tenants behind one listener.
//
// Each tenant covers three Polaris racks with its own seed. A generator per
// tenant releases chunk i at a fixed time on a schedule well below
// capacity, whatever the system is doing, into that tenant's own
// ChunkShipper connection: IngestListener -> journaled TcpChunkSource ->
// tenant -> AsyncSink -> the benchmark's sink. A fourth connection scrapes
// /metrics from an HttpExporter at a fixed interval. At the end of a pass
// every tenant is stopped (checkpoint-on-stop), its journal reopened and
// its checkpoint restored, and the restored engine drains the journal: the
// whole stream must equal an in-memory run of the same config bitwise.
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/checkpoint.hpp"
#include "net/listener.hpp"
#include "net/shipper.hpp"
#include "net/socket.hpp"
#include "net/tcp_source.hpp"
#include "polaris.hpp"
#include "serve/http_exporter.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace imrdmd;

constexpr std::size_t kTenants = 3;
constexpr std::size_t kRacks = 3;  // racks per tenant
constexpr std::size_t kFirstRack = 20;
constexpr std::size_t kInitial = 256;
constexpr std::size_t kWidth = 16;
constexpr std::size_t kChunks = 100;  // timed chunks per tenant per pass
constexpr std::size_t kTail = 8;      // released after the stop request
constexpr double kPeriodS = 0.040;    // one chunk per tenant every 40 ms
constexpr double kScrapeS = 0.100;
constexpr std::size_t kStride = 4;
constexpr std::size_t kPoolWorkers = 2;
constexpr double kWaitLimitS = 60.0;
constexpr std::array<const char*, kTenants> kNames = {"a", "b", "c"};

Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// The open-loop generator: chunk i becomes available at its scheduled
/// release time, however far behind the system is. Chunk 0, the initial
/// window, is due at `origin`; timed chunk i at origin + offset + i periods.
/// Chunks past the timed ones wait for open_tail(), then follow on the same
/// period.
class ScheduledSource final : public core::ChunkSource {
 public:
  ScheduledSource(const linalg::Mat& data, Clock::time_point origin,
                  Clock::duration offset)
      : inner_(data, kInitial, kWidth), origin_(origin), offset_(offset) {}

  std::optional<core::Mat> next_chunk() override {
    const std::size_t i = released_;
    Clock::time_point due =
        i == 0 ? origin_
               : origin_ + offset_ + from_seconds(kPeriodS * static_cast<double>(i));
    if (i > kChunks) {
      std::unique_lock<std::mutex> lock(mutex_);
      tail_cv_.wait(lock, [this] { return tail_open_.has_value(); });
      due = *tail_open_ + from_seconds(kPeriodS * static_cast<double>(i - kChunks - 1));
    }
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    auto chunk = inner_.next_chunk();
    if (chunk.has_value()) {
      if (i <= kChunks) {
        scheduled_[i] = due;
        lag_ms_[i] = 1e3 * seconds_between(due, now);
      }
      ++released_;
    }
    return chunk;
  }
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override {
    // The shipper seeks to the listener's resume point on every connect;
    // the schedule follows the chunk index.
    inner_.seek(snapshot);
    released_ = snapshot < kInitial ? 0 : 1 + (snapshot - kInitial) / kWidth;
  }

  void open_tail() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!tail_open_) tail_open_ = Clock::now();
    tail_cv_.notify_all();
  }
  /// Scheduled release of timed chunk i (read after the shipper finished).
  Clock::time_point scheduled(std::size_t i) const { return scheduled_[i]; }
  const std::array<double, kChunks + 1>& lag_ms() const { return lag_ms_; }

 private:
  core::MatrixChunkSource inner_;
  Clock::time_point origin_;
  Clock::duration offset_;
  std::size_t released_ = 0;
  std::array<Clock::time_point, kChunks + 1> scheduled_{};
  std::array<double, kChunks + 1> lag_ms_{};
  std::mutex mutex_;
  std::condition_variable tail_cv_;
  std::optional<Clock::time_point> tail_open_;
};

/// One blocking GET of /metrics; returns the body, empty on failure.
std::string scrape(std::uint16_t port) {
  net::Socket socket = net::connect_loopback(port, 5.0);
  socket.set_timeouts(5.0, 5.0);
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  socket.send_all(request.data(), request.size());
  std::string response;
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::recv(socket.fd(), buffer, sizeof buffer, 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  return response;
}

class WireLive final : public Workload {
 public:
  explicit WireLive(const Args& args) : pool_(kPoolWorkers) {
    for (std::size_t k = 0; k < kTenants; ++k) {
      streams_.push_back(make_tenant_stream(
          derive_seed(args.seed, 20 + k), kFirstRack + k * kRacks, kRacks,
          kInitial + (kChunks + kTail) * kWidth));
      journals_.push_back(args.workdir + "/wire_live-" + kNames[k] + ".journal");
      checkpoints_.push_back(args.workdir + "/wire_live-" + kNames[k] + ".ckpt");
    }
    std::vector<core::AssessorConfig> configs;
    for (std::size_t k = 0; k < kTenants; ++k) {
      configs.push_back(config(k, kPinnedBackend));
    }
    reference_ = reference_digests(std::move(configs), streams_, kInitial, kWidth);
  }

  void describe(Settings& s) const override {
    s.set("loop", "open");
    s.set("tenants", static_cast<double>(kTenants));
    s.set("clients", static_cast<double>(kTenants + 1));
    s.set("sensors_per_tenant", static_cast<double>(streams_.front().data.rows()));
    s.set("groups_per_tenant", static_cast<double>(kRacks));
    s.set("initial_snapshots", static_cast<double>(kInitial));
    s.set("chunk_snapshots", static_cast<double>(kWidth));
    s.set("chunks_per_pass", static_cast<double>(kChunks));
    s.set("tail_chunks", static_cast<double>(kTail));
    s.set("release_period_s", kPeriodS);
    s.set("offered_snapshots_per_s",
          static_cast<double>(kTenants * kWidth) / kPeriodS);
    s.set("scrape_interval_s", kScrapeS);
    s.set("lanes", 1.0);
    s.set("pool_workers", static_cast<double>(kPoolWorkers));
    s.set("compute_threads", static_cast<double>(kTenants));
    s.set("hierarchy_stride", static_cast<double>(kStride));
    s.set("parallel_bins", 0.0);
    s.set("ingest", "broadcast, prefetch_depth 1");
    s.set("checkpoint_container", "full, on stop only");
    s.set("async_sink", "block, capacity 64");
  }

  PassResult run_pass(PassKind kind, Outcome& outcome) override {
    const bool traced = kind == PassKind::Traced;
    const std::string backend = traced ? trace::kTracedBackend : kPinnedBackend;
    for (std::size_t k = 0; k < kTenants; ++k) {
      std::filesystem::remove(journals_[k]);
      remove_with_parts(checkpoints_[k]);
    }
    PassResult result;
    const std::uint64_t pass_span = trace::open_id();
    std::vector<std::unique_ptr<RecordingSink>> sinks;
    for (std::size_t k = 0; k < kTenants; ++k) {
      sinks.push_back(std::make_unique<RecordingSink>());
    }

    const Clock::time_point t0 = Clock::now();
    serve::MetricsRegistry metrics;
    std::vector<std::unique_ptr<net::TcpChunkSource>> sources;
    std::vector<std::unique_ptr<trace::TracedSource>> pulled;
    for (std::size_t k = 0; k < kTenants; ++k) {
      net::TcpChunkSource::Options options;
      options.journal_path = journals_[k];
      options.idle_timeout_seconds = 10.0;  // a stalled wire fails, not hangs
      sources.push_back(std::make_unique<net::TcpChunkSource>(
          streams_[k].data.rows(), options));
      pulled.push_back(std::make_unique<trace::TracedSource>(*sources[k]));
    }
    auto service = std::make_unique<serve::AssessorService>(
        serve::AssessorService::Options{&pool_, &metrics});
    net::IngestListenerOptions listener_options;
    listener_options.metrics = &metrics;
    net::IngestListener listener(listener_options);
    serve::HttpExporter exporter(metrics, 0);
    for (std::size_t k = 0; k < kTenants; ++k) {
      listener.register_stream(kNames[k], sources[k].get());
      serve::TenantOptions tenant;
      tenant.config = config(k, backend);
      tenant.source = pulled[k].get();
      tenant.sink = sinks[k].get();
      tenant.async_capacity = 64;
      tenant.overflow = serve::AsyncSink::Overflow::Block;
      service->add_tenant(kNames[k], tenant);
    }
    service->start_all();

    // Every generator releases its initial window at once; the timed
    // chunks are staggered across one period. Shippers and the scraper
    // each get their own connection.
    const Clock::time_point origin = Clock::now();
    std::vector<std::unique_ptr<ScheduledSource>> generators;
    std::vector<net::ShipSummary> shipped(kTenants);
    std::vector<std::string> ship_errors(kTenants);
    std::vector<std::thread> shippers;
    for (std::size_t k = 0; k < kTenants; ++k) {
      generators.push_back(std::make_unique<ScheduledSource>(
          streams_[k].data, origin,
          from_seconds(kPeriodS * static_cast<double>(k) / kTenants)));
      ScheduledSource* generator = generators.back().get();
      shippers.emplace_back([&, k, generator] {
        try {
          net::ShipperOptions options;
          options.port = listener.port();
          options.stream_id = kNames[k];
          shipped[k] = net::ChunkShipper(options).ship(*generator);
        } catch (const std::exception& e) {
          ship_errors[k] = e.what();
        }
      });
    }
    std::atomic<bool> scraping{true};
    std::vector<double> scrape_ms;
    std::size_t bad_scrapes = 0;
    double lag_chunks_max = 0.0;
    std::thread scraper([&] {
      Clock::time_point next = Clock::now();
      while (scraping.load(std::memory_order_relaxed)) {
        next += from_seconds(kScrapeS);
        std::this_thread::sleep_until(next);
        const Clock::time_point a = Clock::now();
        std::string body;
        try {
          body = scrape(exporter.port());
        } catch (const std::exception&) {
        }
        const Clock::time_point b = Clock::now();
        trace::record("serve.scrape", a, b, pass_span);
        scrape_ms.push_back(1e3 * seconds_between(a, b));
        if (body.rfind("HTTP/1.1 200", 0) != 0 ||
            body.find("# EOF") == std::string::npos) {
          ++bad_scrapes;
        }
        for (std::size_t k = 0; k < kTenants; ++k) {
          const double lag = static_cast<double>(sources[k]->acked_seq()) -
                             static_cast<double>(sinks[k]->delivered());
          lag_chunks_max = std::max(lag_chunks_max, lag);
        }
      }
    });

    // Stop each tenant once its timed chunks are delivered: the stop lands
    // on a tail chunk, and the tenant checkpoints on stop.
    bool timed_out = false;
    for (std::size_t k = 0; k < kTenants; ++k) {
      const Clock::time_point limit = Clock::now() + from_seconds(kWaitLimitS);
      while (sinks[k]->delivered() < 1 + kChunks && Clock::now() < limit &&
             service->status(kNames[k]).state == serve::TenantState::Running) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      timed_out = timed_out || sinks[k]->delivered() < 1 + kChunks;
      generators[k]->open_tail();
      service->stop(kNames[k]);
    }
    for (std::thread& shipper : shippers) shipper.join();
    scraping.store(false, std::memory_order_relaxed);
    scraper.join();
    listener.stop();
    exporter.stop();

    outcome.attempted += kTenants * (1 + kChunks + kTail);
    bool stopped = !timed_out;
    if (timed_out) {
      outcome.fail(kChunks, "wire_live: a tenant did not deliver its timed "
                            "chunks within " + std::to_string(kWaitLimitS) + " s");
    }
    double tenant_fit = 0.0;
    for (std::size_t k = 0; k < kTenants; ++k) {
      const serve::TenantStatus status = service->status(kNames[k]);
      if (status.state != serve::TenantState::Stopped || !ship_errors[k].empty()) {
        outcome.fail(1 + kChunks + kTail,
                     std::string("wire_live: tenant ") + kNames[k] + " ended " +
                         serve::tenant_state_name(status.state) + " " +
                         status.error + ship_errors[k]);
        stopped = false;
      }
      tenant_fit += metrics.value("imrdmd_tenant_fit_seconds_total",
                                  {{"tenant", kNames[k]}});
    }
    service.reset();
    pulled.clear();
    sources.clear();  // closes the journals
    if (!stopped) return result;

    // Restore: checkpoint load, journal reopen, seek; then drain the rest.
    std::vector<double> loads;
    std::vector<core::RestoredAssessor> restored;
    double journal_bytes = 0.0;
    for (std::size_t k = 0; k < kTenants; ++k) {
      const Clock::time_point r0 = Clock::now();
      restored.push_back(core::load_assessor_checkpoint_file(
          checkpoints_[k],
          pinned_resume(1, &pool_, config(k, backend).checkpoint_policy)));
      const Clock::time_point r1 = Clock::now();
      net::TcpChunkSource::Options options;
      options.journal_path = journals_[k];
      net::TcpChunkSource successor(streams_[k].data.rows(), options);
      successor.seek(restored.back().stream_position);
      const Clock::time_point r2 = Clock::now();
      trace::record("checkpoint.load", r0, r1, pass_span);
      trace::record("restore", r0, r2, pass_span);
      loads.push_back(seconds_between(r0, r1));
      result.times.restore_s.push_back(seconds_between(r0, r2));
      sinks[k]->begin_segment();
      restored.back().assessor.run(successor, *sinks[k]);
      journal_bytes += static_cast<double>(std::filesystem::file_size(journals_[k]));
    }
    outcome.attempted += kTenants;

    // Checks and timings.
    // Percentiles per tenant, then the median over tenants: each tenant's
    // chunks run on one thread, and a vCPU slowed by its neighbours should
    // move one tenant's tail, not the whole pooled tail.
    std::vector<double> p50s, p90s;
    std::vector<double> lags;
    Clock::time_point ready = t0;
    Clock::time_point last = t0;
    std::size_t snapshots = 0;
    double frames = 0.0, bytes = 0.0, reconnects = 0.0, digest_failures = 0.0;
    double fit = 0.0, coarse = 0.0, busy = 0.0;
    for (std::size_t k = 0; k < kTenants; ++k) {
      const auto d = sinks[k]->deliveries();
      const std::size_t missing =
          1 + kChunks + kTail - std::min(d.size(), 1 + kChunks + kTail);
      const std::size_t wrong =
          count_digest_mismatches(d, reference_[k]) + sinks[k]->order_errors();
      if (missing + wrong > 0) {
        outcome.fail(missing + wrong, std::string("wire_live: tenant ") +
                                          kNames[k] +
                                          " stream differs from its in-memory run");
        return result;
      }
      const serve::MetricLabels stream = {{"stream", kNames[k]}};
      frames += metrics.value("imrdmd_net_frames_total", stream);
      bytes += metrics.value("imrdmd_net_bytes_total", stream);
      digest_failures += metrics.value("imrdmd_net_digest_failures_total", stream);
      reconnects += static_cast<double>(shipped[k].reconnects);
      ready = std::max(ready, d.front().at);
      last = std::max(last, d[kChunks].at);
      std::vector<double> latency;
      for (std::size_t i = 1; i <= kChunks; ++i) {
        snapshots += d[i].chunk_snapshots;
        const Clock::time_point due = generators[k]->scheduled(i);
        latency.push_back(1e3 * seconds_between(due, d[i].at));
        busy += seconds_between(std::max(due, d[i - 1].at), d[i].at);
        fit += d[i].fit_seconds;
        coarse += d[i].coarse_fit_seconds;
        if (traced) {
          const std::uint64_t span = trace::record("chunk", due, d[i].at, pass_span, i);
          trace::record("assessor.fit",
                        d[i].at - from_seconds(d[i].fit_seconds), d[i].at, span, i);
        }
      }
      p50s.push_back(quantile(latency, 0.5));
      p90s.push_back(quantile(latency, 0.9));
      lags.insert(lags.end(), generators[k]->lag_ms().begin(),
                  generators[k]->lag_ms().end());
    }
    digest_failures += metrics.value("imrdmd_net_digest_failures_total",
                                     {{"stream", ""}});
    if (reconnects != 0.0 || digest_failures != 0.0) {
      outcome.fail(1, "wire_live: the wire reconnected or failed a digest");
    }
    if (bad_scrapes != 0) {
      outcome.fail(bad_scrapes, "wire_live: a /metrics scrape failed");
    }
    result.times.setup_s = seconds_between(t0, ready);
    result.times.snapshots_per_s =
        static_cast<double>(snapshots) / seconds_between(ready, last);
    result.times.latency_p50_ms = median(p50s);
    result.times.latency_p90_ms = median(p90s);
    result.times.latency_samples = kChunks;  // per tenant

    if (traced) {
      trace::record_as(pass_span, "pass", t0, Clock::now());
      LayerValues& layer = result.layer;
      layer["net.frames"] = frames;
      layer["net.bytes"] = bytes;
      layer["net.reconnects"] = reconnects;
      layer["net.digest_failures"] = digest_failures;
      layer["gen.lag_p90_ms"] = quantile(lags, 0.9);
      layer["journal.bytes"] = journal_bytes;
      layer["journal.lag_chunks_max"] = lag_chunks_max;
      layer["serve.tenant_fit_s"] = tenant_fit;
      layer["serve.scrape_p50_ms"] = quantile(scrape_ms, 0.5);
      layer["serve.scrape_p90_ms"] = quantile(scrape_ms, 0.9);
      layer["assessor.fit_s"] = fit;
      layer["assessor.chunk_s"] = busy;
      layer["assessor.other_s"] = busy - fit;
      layer["model_stack.coarse_s"] = coarse;
      layer["model_stack.coarse_share"] = coarse / busy;
      set_checkpoint_layers(sinks, loads, layer);
      for (const core::RestoredAssessor& r : restored) {
        add_model_layers(r.assessor, layer);
      }
    }
    return result;
  }

  void probe_layers(LayerValues& layer, Outcome& outcome) override {
    (void)outcome;
    probe_compute_layers(streams_.front().data, streams_.front().groups,
                         kStride, kInitial, kWidth, kChunks, layer);
  }

 private:
  core::AssessorConfig config(std::size_t k, const std::string& backend) {
    core::CheckpointPolicy policy;  // no periodic hook: checkpoint on stop
    policy.path = checkpoints_[k];
    core::AssessorConfig config;
    config.pipeline(polaris_pipeline_options())
        .sensors(streams_[k].data.rows())
        .sharded(streams_[k].groups, 1)
        .pool(&pool_)
        .hierarchy(kStride)
        .linalg(backend)
        .ingest(pinned_ingest())
        .checkpoint(policy.with_delta(false));
    return config;
  }

  ThreadPool pool_;
  std::vector<TenantStream> streams_;
  std::vector<std::string> journals_;
  std::vector<std::string> checkpoints_;
  std::vector<std::vector<std::uint64_t>> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_wire_live(const Args& args) {
  return std::make_unique<WireLive>(args);
}

}  // namespace perfbench
