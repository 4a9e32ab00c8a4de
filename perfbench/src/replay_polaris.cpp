// replay_polaris — closed loop, one engine pulling as fast as it can.
//
// A Polaris-shaped stream (2,240 GPU channels in 40 rack groups) with a few
// planted Overheat nodes, replayed from memory into a hierarchical
// (stride 4) sharded engine on 2 lanes over a benchmark-owned 2-worker
// pool. After the stream the engine is checkpointed once and restored
// several times; the restored engine must then continue bitwise identically
// to the uninterrupted one, and every pass must repeat the first pass's
// stream bitwise. The compute stack does nearly all the work.
//
// How the final snapshot ranks the planted nodes is reported, not gated:
// on some seeds the stride-4 hierarchy scores a planted node near the
// baseline where the flat engine scores it far above (perfbench/README.md,
// Output checks).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "polaris.hpp"
#include "telemetry/machine.hpp"
#include "telemetry/sensor_model.hpp"
#include "telemetry/sharded_env.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace imrdmd;

constexpr std::size_t kInitial = 256;  // initial-fit window (snapshots)
constexpr std::size_t kWidth = 16;     // snapshots per streamed chunk
constexpr std::size_t kChunks = 100;   // streamed chunks per pass
constexpr std::size_t kVerify = 2;     // chunks replayed after a restore
constexpr std::size_t kRestores = 3;   // restores per pass
constexpr std::size_t kLanes = 2;
constexpr std::size_t kPoolWorkers = 2;
constexpr std::size_t kStride = 4;  // coarse facility grid stride
constexpr std::size_t kPlanted = 3;
constexpr double kOverheatC = 12.0;

class ReplayPolaris final : public Workload {
 public:
  explicit ReplayPolaris(const Args& args)
      : spec_(telemetry::MachineSpec::polaris()),
        groups_(telemetry::rack_groups(spec_)),
        pool_(kPoolWorkers),
        checkpoint_path_(args.workdir + "/replay_polaris.ckpt"),
        options_(polaris_pipeline_options()) {
    telemetry::SensorModel model(
        spec_, polaris_sensor_options(derive_seed(args.seed, 1)));
    // Planted faults in distinct racks, from the run seed.
    Rng rng(derive_seed(args.seed, 2));
    const std::size_t nodes_per_rack = spec_.node_count / spec_.racks;
    std::vector<std::size_t> racks(spec_.racks);
    std::iota(racks.begin(), racks.end(), std::size_t{0});
    for (std::size_t i = 0; i < kPlanted; ++i) {
      const std::size_t pick = i + rng.uniform_index(racks.size() - i);
      std::swap(racks[i], racks[pick]);
      const std::size_t node =
          racks[i] * nodes_per_rack + rng.uniform_index(nodes_per_rack);
      planted_.push_back(node);
      model.add_fault({telemetry::FaultSpec::Kind::Overheat, node,
                       kInitial / 2, kInitial + (kChunks + kVerify) * kWidth,
                       kOverheatC});
    }
    data_ = model.window(0, kInitial + (kChunks + kVerify) * kWidth);
  }

  void describe(Settings& s) const override {
    s.set("loop", "closed");
    s.set("clients", 1.0);
    s.set("machine", spec_.name);
    s.set("sensors", static_cast<double>(spec_.sensor_count()));
    s.set("groups", static_cast<double>(groups_.size()));
    s.set("initial_snapshots", static_cast<double>(kInitial));
    s.set("chunk_snapshots", static_cast<double>(kWidth));
    s.set("chunks_per_pass", static_cast<double>(kChunks));
    s.set("lanes", static_cast<double>(kLanes));
    s.set("pool_workers", static_cast<double>(kPoolWorkers));
    s.set("compute_threads", static_cast<double>(kLanes));
    s.set("hierarchy_stride", static_cast<double>(kStride));
    s.set("mrdmd_max_levels", static_cast<double>(options_.imrdmd.mrdmd.max_levels));
    s.set("parallel_bins", 0.0);
    s.set("ingest", "broadcast, prefetch_depth 1");
    s.set("checkpoint_container", "full (one save after the stream)");
    s.set("restores_per_pass", static_cast<double>(kRestores));
    s.set("planted_overheat_nodes", static_cast<double>(kPlanted));
    s.set("planted_overheat_c", kOverheatC);
  }

  bool has_single_lane_baseline() const override { return true; }

  double setup_trial(Outcome& outcome) override {
    const Clock::time_point t0 = Clock::now();
    core::Assessor engine(config(kLanes, kPinnedBackend));
    core::MatrixChunkSource source(data_, kInitial, kWidth);
    RecordingSink sink;
    engine.run_until(source, sink, core::StopCondition{1, 0, 0.0});
    const auto deliveries = sink.deliveries();
    outcome.attempted += 1;
    if (deliveries.size() != 1) {
      outcome.fail(1, "replay_polaris: set-up trial delivered no snapshot");
      return 0.0;
    }
    return seconds_between(t0, deliveries.front().at);
  }

  PassResult run_pass(PassKind kind, Outcome& outcome) override {
    const bool traced = kind == PassKind::Traced;
    const std::size_t lanes = kind == PassKind::SingleLane ? 1 : kLanes;
    const std::uint64_t pass_span = trace::open_id();
    const Clock::time_point t0 = Clock::now();
    core::Assessor engine(
        config(lanes, traced ? trace::kTracedBackend : kPinnedBackend));
    core::MatrixChunkSource matrix(data_, kInitial, kWidth);
    trace::TracedSource source(matrix);
    RecordingSink sink;
    sink.keep_last(true);
    engine.run_until(source, sink, core::StopCondition{1 + kChunks, 0, 0.0});
    const Clock::time_point t_end = Clock::now();
    const auto deliveries = sink.deliveries();

    PassResult result;
    outcome.attempted += 1 + kChunks;
    if (deliveries.size() != 1 + kChunks || sink.order_errors() != 0) {
      outcome.fail(1 + kChunks - std::min(deliveries.size(), 1 + kChunks) +
                       sink.order_errors(),
                   "replay_polaris: chunks missing or out of order");
      return result;
    }
    check_repeats_first_pass(deliveries, outcome);
    rank_planted(sink.last(), result.layer);
    fill_times(deliveries, t0, result);
    if (traced) {
      trace::record_as(pass_span, "pass", t0, t_end);
      trace::record_chunk_spans(deliveries, pass_span);
      fill_layers(engine, deliveries, result.layer);
    }
    if (kind == PassKind::SingleLane) return result;

    // One full save, then repeated restores; the last restored engine and
    // the uninterrupted one then take the same held-out chunks.
    remove_with_parts(checkpoint_path_);
    const Clock::time_point s0 = Clock::now();
    core::save_assessor_checkpoint_file(checkpoint_path_, engine);
    const Clock::time_point s1 = Clock::now();
    trace::record("checkpoint.save", s0, s1, pass_span);
    result.layer["checkpoint.saves"] = 1.0;
    result.layer["checkpoint.save_s"] = seconds_between(s0, s1);
    result.layer["checkpoint.bytes_written"] =
        static_cast<double>(bytes_with_parts(checkpoint_path_));

    std::vector<double> loads;
    std::optional<core::RestoredAssessor> restored;
    std::optional<core::MatrixChunkSource> resumed_source;
    for (std::size_t r = 0; r < kRestores; ++r) {
      restored.reset();
      resumed_source.reset();
      const Clock::time_point r0 = Clock::now();
      restored.emplace(core::load_assessor_checkpoint_file(
          checkpoint_path_, pinned_resume(lanes, &pool_, checkpoint_policy())));
      const Clock::time_point r1 = Clock::now();
      resumed_source.emplace(data_, kInitial, kWidth);
      resumed_source->seek(restored->stream_position);
      const Clock::time_point r2 = Clock::now();
      trace::record("checkpoint.load", r0, r1, pass_span);
      trace::record("restore", r0, r2, pass_span);
      loads.push_back(seconds_between(r0, r1));
      result.times.restore_s.push_back(seconds_between(r0, r2));
    }
    result.layer["checkpoint.load_s"] = median(loads);
    outcome.attempted += kRestores;

    RecordingSink tail_a(1 + kChunks);
    RecordingSink tail_b(1 + kChunks);
    engine.run_until(source, tail_a, core::StopCondition{kVerify, 0, 0.0});
    restored->assessor.run_until(*resumed_source, tail_b,
                                 core::StopCondition{kVerify, 0, 0.0});
    const auto a = tail_a.deliveries();
    const auto b = tail_b.deliveries();
    outcome.attempted += 2 * kVerify;
    bool same = a.size() == kVerify && b.size() == kVerify &&
                tail_a.order_errors() == 0 && tail_b.order_errors() == 0;
    for (std::size_t i = 0; same && i < kVerify; ++i) {
      same = a[i].digest == b[i].digest;
    }
    if (!same) {
      outcome.fail(kVerify, "replay_polaris: restored engine diverged from "
                            "the uninterrupted engine");
    }
    return result;
  }

  void probe_layers(LayerValues& layer, Outcome& outcome) override {
    (void)outcome;
    probe_compute_layers(data_, groups_, kStride, kInitial, kWidth, kChunks,
                         layer);
  }

  void observe(Settings& observed) const override {
    observed.set("planted_not_hot", static_cast<double>(planted_not_hot_));
    for (std::size_t i = 0; i < planted_seen_.size(); ++i) {
      const PlantedNode& p = planted_seen_[i];
      char text[96];
      std::snprintf(text, sizeof text, "node %zu: rank %zu of %zu, z %.3f",
                    p.node, p.rank, node_count_, p.z);
      observed.set("planted_" + std::to_string(i), text);
    }
  }

 private:
  core::CheckpointPolicy checkpoint_policy() const {
    core::CheckpointPolicy policy;  // no periodic hook
    return policy.with_delta(false);
  }

  core::AssessorConfig config(std::size_t lanes,
                              const std::string& backend) {
    core::AssessorConfig config;
    config.pipeline(options_)
        .sensors(spec_.sensor_count())
        .sharded(groups_, lanes)
        .pool(&pool_)
        .hierarchy(kStride)
        .linalg(backend)
        .ingest(pinned_ingest())
        .checkpoint(checkpoint_policy());
    return config;
  }

  // Every pass replays the same inputs, and the engine's snapshots depend
  // neither on its lane count nor on the traced backend, so each pass must
  // repeat the first pass's stream bitwise.
  void check_repeats_first_pass(const std::vector<RecordingSink::Delivery>& d,
                                Outcome& outcome) {
    if (first_pass_.empty()) {
      first_pass_.resize(d.size());
      for (const auto& delivery : d) {
        first_pass_.at(delivery.chunk_index) = delivery.digest;
      }
      return;
    }
    const std::size_t diverged = count_digest_mismatches(d, first_pass_);
    if (diverged != 0) {
      outcome.fail(diverged, "replay_polaris: " + std::to_string(diverged) +
                                 " snapshots differ from the first pass's");
    }
  }

  // Ranks every node by its hottest channel's z in the final snapshot,
  // keeps each planted node's rank and z for observe(), and reports how
  // many planted nodes are not flagged Hot and the lowest planted z as
  // model_stack.planted_*. Neither is gated: on this code the stride-4
  // hierarchy misses planted nodes on some seeds (seed 42: node 461 at
  // z 0.51, rank 416), so a gate would fail on the program, not on a
  // change to it.
  void rank_planted(const core::AssessmentSnapshot& last, LayerValues& layer) {
    const std::vector<double>& z = last.zscores.zscores;
    const std::size_t per_node = spec_.sensors_per_node;
    std::vector<std::pair<double, std::size_t>> hottest;
    for (std::size_t node = 0; node * per_node < z.size(); ++node) {
      double peak = -1e300;
      for (std::size_t c = 0; c < per_node; ++c) {
        const double value = z[node * per_node + c];
        if (std::isfinite(value)) peak = std::max(peak, value);
      }
      hottest.emplace_back(peak, node);
    }
    std::sort(hottest.begin(), hottest.end(), std::greater<>());
    node_count_ = hottest.size();
    planted_seen_.clear();
    planted_not_hot_ = 0;
    double z_min = 1e300;
    for (std::size_t node : planted_) {
      const auto it = std::find_if(
          hottest.begin(), hottest.end(),
          [node](const auto& entry) { return entry.second == node; });
      const auto rank = static_cast<std::size_t>(it - hottest.begin()) + 1;
      planted_seen_.push_back({node, rank, it->first});
      if (!(it->first > last.zscores.options.hot_threshold)) ++planted_not_hot_;
      z_min = std::min(z_min, it->first);
    }
    layer["model_stack.planted_not_hot"] = static_cast<double>(planted_not_hot_);
    layer["model_stack.planted_z_min"] = z_min;
  }

  static void fill_times(const std::vector<RecordingSink::Delivery>& d,
                         Clock::time_point t0, PassResult& result) {
    PassTimes& times = result.times;
    times.setup_s = seconds_between(t0, d.front().at);
    std::size_t snapshots = 0;
    for (std::size_t i = 1; i < d.size(); ++i) snapshots += d[i].chunk_snapshots;
    times.snapshots_per_s =
        static_cast<double>(snapshots) / seconds_between(d.front().at, d.back().at);
    const std::vector<double> gaps = delivery_gaps_ms(d);
    times.latency_p50_ms = quantile(gaps, 0.5);
    times.latency_p90_ms = quantile(gaps, 0.9);
    times.latency_samples = gaps.size();
  }

  void fill_layers(const core::Assessor& engine,
                   const std::vector<RecordingSink::Delivery>& d,
                   LayerValues& layer) const {
    add_model_layers(engine, layer);
    double fit = 0.0;
    double coarse = 0.0;
    for (std::size_t i = 1; i < d.size(); ++i) {
      fit += d[i].fit_seconds;
      coarse += d[i].coarse_fit_seconds;
    }
    const double chunk = seconds_between(d.front().at, d.back().at);
    layer["assessor.fit_s"] = fit;
    layer["assessor.chunk_s"] = chunk;
    layer["assessor.other_s"] = chunk - fit;
    layer["model_stack.coarse_s"] = coarse;
    layer["model_stack.coarse_share"] = coarse / chunk;
  }

  telemetry::MachineSpec spec_;
  std::vector<std::vector<std::size_t>> groups_;
  ThreadPool pool_;
  std::string checkpoint_path_;
  core::PipelineOptions options_;
  linalg::Mat data_;
  std::vector<std::size_t> planted_;
  // Planted nodes as the last checked pass ranked them.
  struct PlantedNode {
    std::size_t node;
    std::size_t rank;  // 1 = hottest node
    double z;
  };
  std::vector<PlantedNode> planted_seen_;
  std::size_t planted_not_hot_ = 0;  // planted nodes not flagged Hot
  std::size_t node_count_ = 0;
  std::vector<std::uint64_t> first_pass_;  // snapshot digests by chunk
};

}  // namespace

std::unique_ptr<Workload> make_replay_polaris(const Args& args) {
  return std::make_unique<ReplayPolaris>(args);
}

}  // namespace perfbench
