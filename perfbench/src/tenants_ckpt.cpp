// tenants_ckpt — closed loop, three in-memory tenants checkpointing every
// chunk.
//
// Three sharded, hierarchical tenants (four Polaris racks each, their own
// seeds) run on one AssessorService with the periodic checkpoint hook armed
// at every chunk: tenants a and c write the delta container, tenant b the
// full one. Each pass stops every tenant twice (at fixed chunks),
// restores it from its checkpoint and resumes it; every tenant's stream
// must equal its uninterrupted run bitwise. Checkpoint serialization and
// restore are a large share of the work; there is no network.
#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/checkpoint.hpp"
#include "polaris.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace imrdmd;

constexpr std::size_t kTenants = 3;
constexpr std::size_t kRacks = 4;  // racks per tenant
constexpr std::size_t kInitial = 256;
constexpr std::size_t kWidth = 16;
constexpr std::size_t kChunks = 120;  // streamed chunks per tenant per pass
// Each tenant is stopped after these chunk indices and restored.
constexpr std::array<std::size_t, 2> kStops = {40, 80};
constexpr std::size_t kStride = 4;
constexpr std::size_t kPoolWorkers = 2;
constexpr std::array<const char*, kTenants> kNames = {"a", "b", "c"};
constexpr std::array<bool, kTenants> kDelta = {true, false, true};

class TenantsCkpt final : public Workload {
 public:
  explicit TenantsCkpt(const Args& args) : pool_(kPoolWorkers) {
    for (std::size_t k = 0; k < kTenants; ++k) {
      streams_.push_back(make_tenant_stream(derive_seed(args.seed, 10 + k),
                                            k * kRacks, kRacks,
                                            kInitial + kChunks * kWidth));
      paths_.push_back(args.workdir + "/tenants_ckpt-" + kNames[k] + ".ckpt");
    }
    std::vector<core::AssessorConfig> configs;
    for (std::size_t k = 0; k < kTenants; ++k) {
      configs.push_back(config(k, kPinnedBackend));
    }
    reference_ = reference_digests(std::move(configs), streams_, kInitial, kWidth);
  }

  void describe(Settings& s) const override {
    s.set("loop", "closed");
    s.set("clients", static_cast<double>(kTenants));
    s.set("tenants", static_cast<double>(kTenants));
    s.set("sensors_per_tenant",
          static_cast<double>(streams_.front().data.rows()));
    s.set("groups_per_tenant", static_cast<double>(kRacks));
    s.set("initial_snapshots", static_cast<double>(kInitial));
    s.set("chunk_snapshots", static_cast<double>(kWidth));
    s.set("chunks_per_pass", static_cast<double>(kChunks));
    s.set("lanes", 1.0);
    s.set("pool_workers", static_cast<double>(kPoolWorkers));
    s.set("compute_threads", static_cast<double>(kTenants));
    s.set("hierarchy_stride", static_cast<double>(kStride));
    s.set("parallel_bins", 0.0);
    s.set("ingest", "broadcast, prefetch_depth 1");
    s.set("checkpoint_every_n", 1.0);
    s.set("checkpoint_container", "a: delta, b: full, c: delta");
    s.set("stops_per_tenant", static_cast<double>(kStops.size()));
    s.set("async_sink", "off (sink on the tenant thread)");
  }

  double setup_trial(Outcome& outcome) override {
    const Clock::time_point t0 = Clock::now();
    serve::AssessorService service(serve::AssessorService::Options{&pool_});
    std::vector<std::unique_ptr<core::MatrixChunkSource>> sources;
    std::vector<std::unique_ptr<RecordingSink>> sinks;
    for (std::size_t k = 0; k < kTenants; ++k) {
      sources.push_back(std::make_unique<core::MatrixChunkSource>(
          streams_[k].data, kInitial, kWidth));
      sinks.push_back(std::make_unique<RecordingSink>());
      serve::TenantOptions tenant;
      tenant.config = config(k, kPinnedBackend);
      tenant.config.checkpoint(core::CheckpointPolicy{}.with_delta(kDelta[k]));
      tenant.source = sources.back().get();
      tenant.sink = sinks.back().get();
      tenant.stop = core::StopCondition{1, 0, 0.0};
      tenant.async_capacity = 0;
      service.add_tenant(kNames[k], tenant);
    }
    service.start_all();
    service.drain_all();
    Clock::time_point ready = t0;
    for (std::size_t k = 0; k < kTenants; ++k) {
      const auto d = sinks[k]->deliveries();
      outcome.attempted += 1;
      if (d.size() != 1) {
        outcome.fail(1, "tenants_ckpt: set-up trial missed a first snapshot");
        return 0.0;
      }
      ready = std::max(ready, d.front().at);
    }
    return seconds_between(t0, ready);
  }

  PassResult run_pass(PassKind kind, Outcome& outcome) override {
    const bool traced = kind == PassKind::Traced;
    const std::string backend =
        traced ? trace::kTracedBackend : kPinnedBackend;
    for (const std::string& path : paths_) remove_with_parts(path);
    std::vector<std::unique_ptr<RecordingSink>> sinks;
    std::vector<std::unique_ptr<core::MatrixChunkSource>> matrices;
    std::vector<std::unique_ptr<trace::TracedSource>> sources;
    for (std::size_t k = 0; k < kTenants; ++k) {
      sinks.push_back(std::make_unique<RecordingSink>());
      matrices.push_back(std::make_unique<core::MatrixChunkSource>(
          streams_[k].data, kInitial, kWidth));
      sources.push_back(std::make_unique<trace::TracedSource>(*matrices[k]));
    }
    PassResult result;
    const std::uint64_t pass_span = trace::open_id();
    const Clock::time_point t0 = Clock::now();

    // Segment 1: the service runs every tenant up to the first stop.
    double tenant_fit = 0.0;
    {
      serve::AssessorService service(serve::AssessorService::Options{&pool_});
      for (std::size_t k = 0; k < kTenants; ++k) {
        serve::TenantOptions tenant;
        tenant.config = config(k, backend);
        tenant.source = sources[k].get();
        tenant.sink = sinks[k].get();
        tenant.stop = core::StopCondition{kStops[0] + 1, 0, 0.0};
        tenant.async_capacity = 0;  // deliveries time the engine itself
        service.add_tenant(kNames[k], tenant);
      }
      service.start_all();
      service.drain_all();
      for (std::size_t k = 0; k < kTenants; ++k) {
        const serve::TenantStatus status = service.status(kNames[k]);
        if (status.state != serve::TenantState::Completed) {
          outcome.fail(kStops[0] + 1, std::string("tenants_ckpt: tenant ") +
                                          kNames[k] + " ended " +
                                          serve::tenant_state_name(status.state) +
                                          ": " + status.error);
          return result;
        }
        tenant_fit += service.metrics().value(
            "imrdmd_tenant_fit_seconds_total", {{"tenant", kNames[k]}});
      }
    }

    // Stop -> restore -> resume, twice per tenant; each tenant restores and
    // resumes on its own thread, independently of its neighbours.
    std::vector<std::vector<double>> loads(kTenants);
    std::vector<std::vector<double>> restores(kTenants);
    std::vector<std::string> errors(kTenants);
    std::vector<std::optional<core::RestoredAssessor>> engines(kTenants);
    std::vector<std::thread> runners;
    for (std::size_t k = 0; k < kTenants; ++k) {
      runners.emplace_back([&, k] {
        try {
          resume_cycles(k, backend, pass_span, *sources[k], *sinks[k],
                        engines[k], loads[k], restores[k]);
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
    for (std::thread& runner : runners) runner.join();
    for (std::size_t k = 0; k < kTenants; ++k) {
      outcome.attempted += kStops.size();
      if (!errors[k].empty()) {
        outcome.fail(1, std::string("tenants_ckpt: tenant ") + kNames[k] +
                            " failed to resume: " + errors[k]);
        return result;
      }
      result.times.restore_s.insert(result.times.restore_s.end(),
                                    restores[k].begin(), restores[k].end());
    }
    const Clock::time_point t_end = Clock::now();

    // Checks: every chunk once, in order, bitwise equal to the reference.
    Clock::time_point ready = t0;
    std::size_t snapshots = 0;
    std::vector<double> gaps;
    for (std::size_t k = 0; k < kTenants; ++k) {
      const auto d = sinks[k]->deliveries();
      outcome.attempted += 1 + kChunks;
      const std::size_t missing = 1 + kChunks - std::min(d.size(), 1 + kChunks);
      const std::size_t wrong =
          count_digest_mismatches(d, reference_[k]) + sinks[k]->order_errors();
      if (missing + wrong > 0) {
        outcome.fail(missing + wrong,
                     std::string("tenants_ckpt: tenant ") + kNames[k] +
                         " stream differs from its uninterrupted run");
      }
      if (d.empty()) return result;
      ready = std::max(ready, d.front().at);
      for (std::size_t i = 1; i < d.size(); ++i) snapshots += d[i].chunk_snapshots;
      const std::vector<double> g = delivery_gaps_ms(d);
      gaps.insert(gaps.end(), g.begin(), g.end());
    }
    result.times.setup_s = seconds_between(t0, ready);
    result.times.snapshots_per_s =
        static_cast<double>(snapshots) / seconds_between(ready, t_end);
    result.times.latency_p50_ms = quantile(gaps, 0.5);
    result.times.latency_p90_ms = quantile(gaps, 0.9);
    result.times.latency_samples = gaps.size();

    if (traced) {
      trace::record_as(pass_span, "pass", t0, t_end);
      LayerValues& layer = result.layer;
      double fit = 0.0, coarse = 0.0, chunk = 0.0;
      for (std::size_t k = 0; k < kTenants; ++k) {
        const auto d = sinks[k]->deliveries();
        trace::record_chunk_spans(d, pass_span);
        for (std::size_t i = 1; i < d.size(); ++i) {
          if (d[i].segment != d[i - 1].segment) continue;
          fit += d[i].fit_seconds;
          coarse += d[i].coarse_fit_seconds;
          chunk += seconds_between(d[i - 1].at, d[i].at);
        }
        add_model_layers(engines[k]->assessor, layer);
      }
      layer["assessor.fit_s"] = fit;
      layer["assessor.chunk_s"] = chunk;
      layer["assessor.other_s"] = chunk - fit;
      layer["model_stack.coarse_s"] = coarse;
      layer["model_stack.coarse_share"] = coarse / chunk;
      std::vector<double> all_loads;
      for (const auto& l : loads) all_loads.insert(all_loads.end(), l.begin(), l.end());
      set_checkpoint_layers(sinks, all_loads, layer);
      layer["serve.tenant_fit_s"] = tenant_fit;
    }
    return result;
  }

  void probe_layers(LayerValues& layer, Outcome& outcome) override {
    (void)outcome;
    probe_compute_layers(streams_.front().data, streams_.front().groups,
                         kStride, kInitial, kWidth, kChunks, layer);
  }

 private:
  // Restores tenant `k` from its checkpoint at each stop and resumes it to
  // the next stop (or the end of the pass).
  void resume_cycles(std::size_t k, const std::string& backend,
                     std::uint64_t pass_span, core::ChunkSource& source,
                     RecordingSink& sink,
                     std::optional<core::RestoredAssessor>& engine,
                     std::vector<double>& loads,
                     std::vector<double>& restores) {
    for (std::size_t cycle = 0; cycle < kStops.size(); ++cycle) {
      const std::size_t stop = kStops[cycle];
      const std::size_t next =
          cycle + 1 < kStops.size() ? kStops[cycle + 1] : kChunks;
      engine.reset();
      sink.begin_segment();
      const Clock::time_point r0 = Clock::now();
      engine.emplace(core::load_assessor_checkpoint_file(
          paths_[k],
          pinned_resume(1, &pool_, config(k, backend).checkpoint_policy)));
      const Clock::time_point r1 = Clock::now();
      source.seek(engine->stream_position);
      const Clock::time_point r2 = Clock::now();
      trace::record("checkpoint.load", r0, r1, pass_span, stop);
      trace::record("restore", r0, r2, pass_span, stop);
      loads.push_back(seconds_between(r0, r1));
      restores.push_back(seconds_between(r0, r2));
      if (engine->stream_position != kInitial + stop * kWidth) {
        throw std::runtime_error("restored at the wrong stream position");
      }
      engine->assessor.run_until(source, sink,
                                 core::StopCondition{next - stop, 0, 0.0});
    }
  }

  core::AssessorConfig config(std::size_t k, const std::string& backend) {
    core::CheckpointPolicy policy;
    policy.every_n = 1;
    policy.path = paths_[k];
    core::AssessorConfig config;
    config.pipeline(polaris_pipeline_options())
        .sensors(streams_[k].data.rows())
        .sharded(streams_[k].groups, 1)
        .pool(&pool_)
        .hierarchy(kStride)
        .linalg(backend)
        .ingest(pinned_ingest())
        .checkpoint(policy.with_delta(kDelta[k]));
    return config;
  }

  ThreadPool pool_;
  std::vector<TenantStream> streams_;
  std::vector<std::string> paths_;
  std::vector<std::vector<std::uint64_t>> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_tenants_ckpt(const Args& args) {
  return std::make_unique<TenantsCkpt>(args);
}

}  // namespace perfbench
