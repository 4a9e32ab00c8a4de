// Unified Assessor engine tests: prefetch-depth invariance of the bounded
// ingestion queue, topology invariance (monolithic / sharded / distributed
// produce one bitwise-identical stream), the run_until stop-condition
// surface, the fail-fast unresumable-checkpoint and armed-policy-without-
// path validations, and the assessor checkpoint API.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::ChunkSource;
using core::CollectingSink;
using core::Mat;
using core::PipelineOptions;
using core::StopCondition;
using core::StopReason;
using imrdmd::testing::expect_snapshot_equal;
using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

using MatChunkSource = core::MatrixChunkSource;

PipelineOptions assessor_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

Mat assessor_data() {
  Rng rng(7);
  return planted_multiscale(15, 384, 0.02, rng);
}

std::vector<AssessmentSnapshot> collect_run(Assessor& assessor,
                                            ChunkSource& source) {
  CollectingSink sink;
  assessor.run(source, sink);
  return sink.take();
}

/// Source that counts next_chunk() calls, for over-consumption checks.
class CountingSource final : public ChunkSource {
 public:
  CountingSource(const Mat& data, std::size_t initial, std::size_t chunk)
      : inner_(data, initial, chunk) {}
  std::optional<Mat> next_chunk() override {
    ++pulls_;
    return inner_.next_chunk();
  }
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override { inner_.seek(snapshot); }
  std::size_t pulls() const { return pulls_; }

 private:
  MatChunkSource inner_;
  std::size_t pulls_ = 0;
};

void monolithic_is_prefetch_depth_invariant_bitwise(std::size_t stride) {
  const Mat data = assessor_data();
  // Reference: fully synchronous ingestion (depth 0).
  MatChunkSource source(data, 256, 64);
  AssessorConfig reference_config;
  reference_config.pipeline(assessor_pipeline_options())
      .monolithic()
      .hierarchy(stride);
  reference_config.ingest_options.prefetch_depth = 0;
  Assessor reference_engine(reference_config);
  const auto reference = collect_run(reference_engine, source);
  ASSERT_EQ(reference.size(), 3u);

  for (const std::size_t depth : {1u, 2u, 4u}) {
    AssessorConfig config;
    config.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
    config.ingest_options.prefetch_depth = depth;
    Assessor assessor(config);
    // The monolithic topology infers the sensor count from the stream.
    EXPECT_EQ(assessor.sensors(), 0u);
    MatChunkSource replay(data, 256, 64);
    const auto snapshots = collect_run(assessor, replay);
    EXPECT_EQ(assessor.sensors(), data.rows());
    ASSERT_EQ(snapshots.size(), reference.size());
    for (std::size_t c = 0; c < snapshots.size(); ++c) {
      expect_snapshot_equal(snapshots[c], reference[c]);
      ASSERT_EQ(snapshots[c].reports.size(), 1u);
      EXPECT_EQ(snapshots[c].reports[0].drift_estimate,
                reference[c].reports[0].drift_estimate);
    }
  }
}

TEST(Assessor, MonolithicIsPrefetchDepthInvariantBitwise) {
  for_each_stride(monolithic_is_prefetch_depth_invariant_bitwise);
}

void sharded_matches_monolithic_bitwise_across_lanes_and_depths(
    std::size_t stride) {
  // The scatter/merge seam is invisible: a sharded engine over any lane
  // count and prefetch depth reproduces the monolithic engine's stream
  // bitwise (the trivial one-group partition and a real partition both run
  // through the same merge). Holds at every stride — the coarse model is
  // replicated identically either way.
  const Mat data = assessor_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);

  AssessorConfig reference_config;
  reference_config.pipeline(assessor_pipeline_options())
      .sharded(groups, 1)
      .sensors(data.rows())
      .hierarchy(stride);
  reference_config.ingest_options.prefetch_depth = 0;
  Assessor reference_engine(reference_config);
  MatChunkSource source(data, 256, 64);
  const auto reference = collect_run(reference_engine, source);
  ASSERT_EQ(reference.size(), 3u);

  for (const std::size_t lanes : {1u, 2u, 5u}) {
    for (const std::size_t depth : {0u, 1u, 4u}) {
      AssessorConfig config;
      config.pipeline(assessor_pipeline_options())
          .sharded(groups, lanes)
          .sensors(data.rows())
          .hierarchy(stride);
      config.ingest_options.prefetch_depth = depth;
      Assessor assessor(config);
      MatChunkSource replay(data, 256, 64);
      const auto snapshots = collect_run(assessor, replay);
      ASSERT_EQ(snapshots.size(), reference.size());
      for (std::size_t c = 0; c < snapshots.size(); ++c) {
        expect_snapshot_equal(snapshots[c], reference[c]);
      }
    }
  }
}

TEST(Assessor, ShardedMatchesMonolithicBitwiseAcrossLanesAndDepths) {
  for_each_stride(sharded_matches_monolithic_bitwise_across_lanes_and_depths);
}

void matches_single_process_bitwise_across_ranks(std::size_t stride) {
  const Mat data = assessor_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);

  AssessorConfig reference_config;
  reference_config.pipeline(assessor_pipeline_options())
      .sharded(groups)
      .sensors(data.rows())
      .hierarchy(stride);
  Assessor reference_engine(reference_config);
  MatChunkSource reference_source(data, 256, 64);
  const auto reference = collect_run(reference_engine, reference_source);
  ASSERT_EQ(reference.size(), 3u);

  for (const int ranks : {1, 2, 4}) {
    dist::World world(ranks);
    world.run([&](dist::Communicator& comm) {
      AssessorConfig config;
      config.pipeline(assessor_pipeline_options())
          .sharded(groups, 1)
          .sensors(data.rows())
          .distributed(comm)
          .hierarchy(stride);
      Assessor assessor(config);
      std::optional<MatChunkSource> source;
      if (comm.rank() == 0) source.emplace(data, 256, 64);
      CollectingSink sink;
      assessor.run_until(comm.rank() == 0 ? &*source : nullptr, sink,
                         StopCondition{});
      const auto& snapshots = sink.snapshots();
      ASSERT_EQ(snapshots.size(), reference.size());
      for (std::size_t c = 0; c < snapshots.size(); ++c) {
        expect_snapshot_equal(snapshots[c], reference[c]);
      }
    });
  }
}

TEST(DistributedAssessor, MatchesSingleProcessBitwiseAcrossRanks) {
  for_each_stride(matches_single_process_bitwise_across_ranks);
}

void run_until_max_chunks_stops_without_over_consuming_the_source(
    std::size_t stride) {
  const Mat data = assessor_data();
  for (const std::size_t depth : {1u, 4u}) {
    AssessorConfig config;
    config.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
    config.ingest_options.prefetch_depth = depth;
    Assessor assessor(config);
    CountingSource source(data, 256, 64);
    CollectingSink sink;
    StopCondition stop;
    stop.max_chunks = 1;
    const auto summary = assessor.run_until(source, sink, stop);
    EXPECT_EQ(summary.reason, StopReason::MaxChunks);
    EXPECT_EQ(summary.chunks, 1u);
    ASSERT_EQ(sink.snapshots().size(), 1u);
    // The pull budget caps the prefetcher: exactly one chunk was pulled,
    // whatever the queue depth.
    EXPECT_EQ(source.pulls(), 1u) << "depth " << depth;
  }
}

TEST(Assessor, RunUntilMaxChunksStopsWithoutOverConsumingTheSource) {
  for_each_stride(run_until_max_chunks_stops_without_over_consuming_the_source);
}

void run_until_snapshot_budget_parks_over_pulled_chunks(std::size_t stride) {
  const Mat data = assessor_data();
  AssessorConfig config;
  config.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
  config.ingest_options.prefetch_depth = 4;
  Assessor assessor(config);
  MatChunkSource source(data, 256, 64);
  CollectingSink sink;
  StopCondition stop;
  stop.max_snapshots = 256;  // satisfied by the initial chunk alone
  const auto summary = assessor.run_until(source, sink, stop);
  EXPECT_EQ(summary.reason, StopReason::MaxSnapshots);
  EXPECT_EQ(summary.snapshots, 256u);
  ASSERT_EQ(sink.snapshots().size(), 1u);
  // Chunks the deep prefetch pulled past the stop are parked, not lost:
  // the next run continues the stream with no gap.
  CollectingSink rest;
  assessor.run(source, rest);
  ASSERT_EQ(rest.snapshots().size(), 2u);
  EXPECT_EQ(rest.snapshots().front().total_snapshots, 256u + 64u);
  EXPECT_EQ(rest.snapshots().back().total_snapshots, data.cols());
}

TEST(Assessor, RunUntilSnapshotBudgetParksOverPulledChunks) {
  for_each_stride(run_until_snapshot_budget_parks_over_pulled_chunks);
}

void run_until_deadline_stops_between_chunks(std::size_t stride) {
  const Mat data = assessor_data();
  AssessorConfig config;
  config.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
  Assessor assessor(config);
  MatChunkSource source(data, 256, 64);
  CollectingSink sink;
  StopCondition stop;
  stop.max_seconds = 1e-9;  // elapses before the first pull
  const auto summary = assessor.run_until(source, sink, stop);
  EXPECT_EQ(summary.reason, StopReason::Deadline);
  EXPECT_EQ(summary.chunks, 0u);
  // Nothing consumed: a later unbounded run sees the whole stream.
  CollectingSink rest;
  assessor.run(source, rest);
  ASSERT_EQ(rest.snapshots().size(), 3u);
  EXPECT_EQ(rest.snapshots().back().total_snapshots, data.cols());
}

TEST(Assessor, RunUntilDeadlineStopsBetweenChunks) {
  for_each_stride(run_until_deadline_stops_between_chunks);
}

void sink_requested_stop_ends_the_run_without_data_loss(std::size_t stride) {
  const Mat data = assessor_data();
  AssessorConfig config;
  config.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
  config.ingest_options.prefetch_depth = 2;
  Assessor assessor(config);
  MatChunkSource source(data, 256, 64);

  class StopAfterFirst final : public core::SnapshotSink {
   public:
    using core::SnapshotSink::on_snapshot;
    bool on_snapshot(const AssessmentSnapshot& snapshot) override {
      delivered.push_back(snapshot);
      return false;  // stop after the first snapshot
    }
    std::vector<AssessmentSnapshot> delivered;
  };
  StopAfterFirst sink;
  const auto summary = assessor.run(source, sink);
  EXPECT_EQ(summary.reason, StopReason::SinkRequest);
  ASSERT_EQ(sink.delivered.size(), 1u);
  // The prefetched chunks are parked; the stream continues seamlessly.
  CollectingSink rest;
  assessor.run(source, rest);
  ASSERT_EQ(rest.snapshots().size(), 2u);
  EXPECT_EQ(rest.snapshots().back().total_snapshots, data.cols());
}

TEST(Assessor, SinkRequestedStopEndsTheRunWithoutDataLoss) {
  for_each_stride(sink_requested_stop_ends_the_run_without_data_loss);
}

void fails_fast_when_checkpoint_policy_is_unresumable(std::size_t stride) {
  // Arming a checkpoint policy over a source that cannot report a position
  // would write checkpoints that can never be seek'd on resume: typed
  // rejection at run() start, before anything is pulled from the source.
  const Mat data = assessor_data();
  class PositionlessSource final : public ChunkSource {
   public:
    explicit PositionlessSource(const Mat& data) : data_(data) {}
    std::optional<Mat> next_chunk() override {
      ++pulls_;
      if (done_) return std::nullopt;
      done_ = true;
      return data_;
    }
    std::size_t sensors() const override { return data_.rows(); }
    // No position()/seek() overrides: kUnknownPosition.
    std::size_t pulls_ = 0;

   private:
    const Mat& data_;
    bool done_ = false;
  };

  AssessorConfig config;
  config.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
  config.checkpoint_policy.every_n = 1;
  config.checkpoint_policy.path = ::testing::TempDir() + "/assessor.ckpt";
  Assessor assessor(config);
  PositionlessSource source(data);
  CollectingSink sink;
  EXPECT_THROW(assessor.run(source, sink), InvalidArgument);
  EXPECT_EQ(source.pulls_, 0u) << "the failed run consumed the source";
  // The same source runs fine with the policy disarmed.
  AssessorConfig ok;
  ok.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
  Assessor unarmed(ok);
  EXPECT_EQ(collect_run(unarmed, source).size(), 1u);
}

TEST(Assessor, FailsFastWhenCheckpointPolicyIsUnresumable) {
  for_each_stride(fails_fast_when_checkpoint_policy_is_unresumable);
}

void armed_checkpoint_policy_without_path_rejected(std::size_t stride) {
  // every_n > 0 with an empty path used to silently disarm the periodic
  // hook; it is a typed configuration error.
  AssessorConfig config;
  config.pipeline(assessor_pipeline_options()).monolithic().hierarchy(stride);
  config.checkpoint_policy.every_n = 2;
  EXPECT_THROW(Assessor{config}, InvalidArgument);
}

TEST(Assessor, ArmedCheckpointPolicyWithoutPathRejected) {
  for_each_stride(armed_checkpoint_policy_without_path_rejected);
}

void sensor_count_required_outside_monolithic_topology(std::size_t stride) {
  AssessorConfig config;
  config.pipeline(assessor_pipeline_options())
      .sharded(core::contiguous_groups(8, 2))
      .hierarchy(stride);
  EXPECT_THROW(Assessor{config}, InvalidArgument);
}

TEST(Assessor, SensorCountRequiredOutsideMonolithicTopology) {
  for_each_stride(sensor_count_required_outside_monolithic_topology);
}

void checkpoint_round_trips_and_resaves_byte_identically(std::size_t stride) {
  // Serialization is a pure function of the engine's resumable state: a
  // load-then-resave reproduces the container byte for byte, and the
  // restored engine continues the stream bitwise-identically. The
  // hierarchical stride exercises the coarse section and the hierarchy map
  // through the same assertions.
  const Mat data = assessor_data();
  const auto groups = core::contiguous_groups(data.rows(), 3);

  AssessorConfig config;
  config.pipeline(assessor_pipeline_options())
      .sharded(groups)
      .sensors(data.rows())
      .hierarchy(stride);
  Assessor assessor(config);
  MatChunkSource replay(data, 256, 64);
  CollectingSink sink;
  StopCondition stop;
  stop.max_chunks = 2;
  assessor.run_until(replay, sink, stop);
  std::stringstream engine_bytes;
  core::save_assessor_checkpoint(engine_bytes, assessor);

  core::RestoredAssessor restored =
      core::load_assessor_checkpoint(engine_bytes);
  EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
  EXPECT_EQ(restored.stream_position, 256u + 64u);
  EXPECT_EQ(restored.assessor.hierarchical(), assessor.hierarchical());
  EXPECT_EQ(restored.assessor.coarse_stride(), assessor.coarse_stride());
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(resaved.str(), engine_bytes.str());

  const Mat chunk = data.block(0, 320, data.rows(), 64);
  expect_snapshot_equal(restored.assessor.process(chunk),
                        assessor.process(chunk));
}

TEST(Assessor, CheckpointRoundTripsAndResavesByteIdentically) {
  for_each_stride(checkpoint_round_trips_and_resaves_byte_identically);
}

void zero_column_chunk_mid_stream_fails_instead_of_truncating(
    std::size_t stride) {
  // Regression: a 0-column chunk's width is the handshake's end-of-stream
  // sentinel — it must raise the same InvalidArgument process() raises
  // everywhere else, not silently end the run and drop the rest of the
  // stream on every rank.
  const Mat data = assessor_data();
  class GapSource final : public ChunkSource {
   public:
    explicit GapSource(const Mat& data) : data_(data) {}
    std::optional<Mat> next_chunk() override {
      ++pulls_;
      if (pulls_ == 1) return data_.block(0, 0, data_.rows(), 256);
      if (pulls_ == 2) return Mat(data_.rows(), 0);  // telemetry gap
      if (pulls_ == 3) return data_.block(0, 256, data_.rows(), 64);
      return std::nullopt;
    }
    std::size_t sensors() const override { return data_.rows(); }
    std::size_t pulls_ = 0;

   private:
    const Mat& data_;
  };

  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config;
        config.pipeline(assessor_pipeline_options())
            .sharded(core::contiguous_groups(data.rows(), 3), 1)
            .sensors(data.rows())
            .distributed(comm)
            .hierarchy(stride);
        Assessor assessor(config);
        std::optional<GapSource> source;
        if (comm.rank() == 0) source.emplace(data);
        CollectingSink sink;
        assessor.run_until(comm.rank() == 0 ? &*source : nullptr, sink,
                           core::StopCondition{});
      }),
      InvalidArgument);
}

TEST(DistributedAssessor, ZeroColumnChunkMidStreamFailsInsteadOfTruncating) {
  for_each_stride(zero_column_chunk_mid_stream_fails_instead_of_truncating);
}

void periodic_checkpoint_hook_writes_portable_bytes(std::size_t stride) {
  // The engine's own periodic hook, driven through the distributed
  // topology, writes the same container the single-process hook writes —
  // and a single-process engine resumes it bitwise.
  //
  // Byte-identity across rank counts is a claim about the *full* save, so
  // delta is pinned off here (the delta manifest names one rank-local part
  // per writer by design; its portability claim — resume at any rank
  // count — is covered by the delta fleet tests).
  const Mat data = assessor_data();
  const auto groups = core::contiguous_groups(data.rows(), 3);
  const std::string dist_path = ::testing::TempDir() + "/dist_assessor.ckpt";
  const std::string single_path =
      ::testing::TempDir() + "/single_assessor.ckpt";

  AssessorConfig single;
  single.pipeline(assessor_pipeline_options())
      .sharded(groups)
      .sensors(data.rows())
      .checkpoint(core::CheckpointPolicy{1, single_path}.with_delta(false))
      .hierarchy(stride);
  Assessor single_engine(single);
  MatChunkSource single_source(data, 256, 64);
  CollectingSink single_sink;
  StopCondition two;
  two.max_chunks = 2;
  single_engine.run_until(single_source, single_sink, two);

  dist::World world(2);
  world.run([&](dist::Communicator& comm) {
    AssessorConfig config;
    config.pipeline(assessor_pipeline_options())
        .sharded(groups, 1)
        .sensors(data.rows())
        .distributed(comm)
        .checkpoint(core::CheckpointPolicy{1, dist_path}.with_delta(false))
        .hierarchy(stride);
    Assessor assessor(config);
    std::optional<MatChunkSource> source;
    if (comm.rank() == 0) source.emplace(data, 256, 64);
    CollectingSink sink;
    assessor.run_until(comm.rank() == 0 ? &*source : nullptr, sink, two);
  });

  std::ifstream a(single_path, std::ios::binary);
  std::ifstream b(dist_path, std::ios::binary);
  std::stringstream sa, sb;
  sa << a.rdbuf();
  sb << b.rdbuf();
  ASSERT_FALSE(sa.str().empty());
  EXPECT_EQ(sa.str(), sb.str());

  // Resume the distributed-written bytes single-process and continue.
  core::RestoredAssessor restored =
      core::load_assessor_checkpoint_file(dist_path);
  MatChunkSource rest(data, 256, 64);
  rest.seek(static_cast<std::size_t>(restored.stream_position));
  CollectingSink rest_sink;
  restored.assessor.run(rest, rest_sink);
  ASSERT_EQ(rest_sink.snapshots().size(), 1u);
  EXPECT_EQ(rest_sink.snapshots().back().total_snapshots, data.cols());
  std::remove(dist_path.c_str());
  std::remove(single_path.c_str());
}

TEST(DistributedAssessor, PeriodicCheckpointHookWritesPortableBytes) {
  for_each_stride(periodic_checkpoint_hook_writes_portable_bytes);
}

}  // namespace
}  // namespace imrdmd
