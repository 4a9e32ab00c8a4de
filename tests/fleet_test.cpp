// Sharded engine tests: lane-count invariance (sharded results are
// bitwise-identical to the monolithic engine / the serial per-group
// reference for any lane count, sync or async-prefetch), group validation,
// and the topology-derived grouping adapter.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "core/assessor.hpp"
#include "telemetry/sharded_env.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::Assessor;
using core::AssessorConfig;
using core::AssessmentSnapshot;
using core::BaselineZscoreStage;
using core::ChunkSource;
using core::CollectingSink;
using core::IngestOptions;
using core::Mat;
using core::PipelineOptions;
using imrdmd::testing::expect_snapshots_equal;
using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

using MatChunkSource = core::MatrixChunkSource;

PipelineOptions fleet_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

Mat fleet_data() {
  Rng rng(7);
  return planted_multiscale(15, 384, 0.02, rng);
}

IngestOptions prefetch(bool async) {
  IngestOptions ingest;
  ingest.prefetch_depth = async ? 1 : 0;
  return ingest;
}

std::vector<AssessmentSnapshot> run_collect(Assessor& engine,
                                            ChunkSource& stream) {
  CollectingSink sink;
  engine.run(stream, sink);
  return sink.take();
}

/// Element-wise equality of two double vectors, bitwise.
void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

TEST(Fleet, ContiguousGroupsPartitionEvenly) {
  const auto groups = core::contiguous_groups(10, 3);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(groups[1], (std::vector<std::size_t>{4, 5, 6}));
  EXPECT_EQ(groups[2], (std::vector<std::size_t>{7, 8, 9}));
  EXPECT_THROW(core::contiguous_groups(4, 5), InvalidArgument);
  EXPECT_THROW(core::contiguous_groups(4, 0), InvalidArgument);
}

void trivial_group_matches_monolithic_engine_for_any_lane_count(
    std::size_t stride) {
  const Mat data = fleet_data();

  // Reference: the monolithic engine over the same chunk boundaries, at the
  // same stride as the sharded side — the invariance holds in either mode.
  MatChunkSource source(data, 256, 64);
  Assessor reference_engine(
      AssessorConfig{}.pipeline(fleet_pipeline_options()).hierarchy(stride));
  const auto reference = run_collect(reference_engine, source);
  ASSERT_EQ(reference.size(), 3u);

  for (const std::size_t lanes : {1u, 2u, 5u}) {
    for (const bool async : {false, true}) {
      Assessor engine(AssessorConfig{}
                          .pipeline(fleet_pipeline_options())
                          .sharded({}, lanes)
                          .ingest(prefetch(async))
                          .hierarchy(stride));
      MatChunkSource replay(data, 256, 64);
      const auto snapshots = run_collect(engine, replay);
      ASSERT_EQ(snapshots.size(), reference.size());
      expect_snapshots_equal(snapshots, reference);
    }
  }
}

TEST(Fleet, TrivialGroupMatchesMonolithicEngineForAnyLaneCount) {
  for_each_stride(trivial_group_matches_monolithic_engine_for_any_lane_count);
}

TEST(Fleet, LaneCountInvarianceAcrossLanesAndPrefetch) {
  const Mat data = fleet_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);

  // The serial reference below models the flat engine, so every engine in
  // this test pins hierarchy(0); hierarchy-mode invariance is covered by
  // tests/hierarchy_test.cpp.
  std::optional<std::vector<AssessmentSnapshot>> reference;
  for (const std::size_t lanes : {1u, 2u, 5u}) {
    for (const bool async : {false, true}) {
      Assessor engine(AssessorConfig{}
                          .pipeline(fleet_pipeline_options())
                          .sharded(groups, lanes)
                          .sensors(data.rows())
                          .ingest(prefetch(async))
                          .hierarchy(0));
      MatChunkSource replay(data, 256, 64);
      auto snapshots = run_collect(engine, replay);
      ASSERT_EQ(snapshots.size(), 3u);
      if (!reference.has_value()) {
        reference = std::move(snapshots);
      } else {
        expect_snapshots_equal(snapshots, *reference);
      }
    }
  }

  // The sharded engine also matches a hand-rolled serial per-group
  // reference: one model per group run in order, magnitudes scattered to
  // machine order, then the shared global baseline/z-score stage.
  const PipelineOptions pipeline_options = fleet_pipeline_options();
  core::ImrdmdOptions model_options = pipeline_options.imrdmd;
  model_options.mrdmd.parallel_bins = false;
  std::vector<core::IncrementalMrdmd> models;
  models.reserve(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    models.emplace_back(model_options);
  }
  BaselineZscoreStage stage(pipeline_options.baseline,
                            pipeline_options.zscore,
                            pipeline_options.reselect_baseline_per_chunk);
  MatChunkSource replay(data, 256, 64);
  std::size_t chunk_index = 0;
  while (auto chunk = replay.next_chunk()) {
    std::vector<double> magnitudes(data.rows(), 0.0);
    std::vector<double> means(data.rows(), 0.0);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      Mat slice(groups[g].size(), chunk->cols());
      for (std::size_t i = 0; i < groups[g].size(); ++i) {
        for (std::size_t t = 0; t < chunk->cols(); ++t) {
          slice(i, t) = (*chunk)(groups[g][i], t);
        }
      }
      const core::MagnitudeUpdate update =
          core::update_magnitudes(models[g], slice, pipeline_options.band);
      for (std::size_t i = 0; i < groups[g].size(); ++i) {
        magnitudes[groups[g][i]] = update.magnitudes[i];
        means[groups[g][i]] = update.sensor_means[i];
      }
    }
    const core::ZscoreAnalysis zscores = stage.apply(
        std::span<const double>(magnitudes.data(), magnitudes.size()),
        std::span<const double>(means.data(), means.size()));
    expect_bitwise_equal(magnitudes, (*reference)[chunk_index].magnitudes);
    expect_bitwise_equal(zscores.zscores,
                         (*reference)[chunk_index].zscores.zscores);
    ++chunk_index;
  }
  EXPECT_EQ(chunk_index, 3u);
}

void async_prefetch_path_is_stable_under_repetition(std::size_t stride) {
  // Exercised repeatedly so the ASan/TSan lanes see many interleavings of
  // the prefetch task against the shard lanes.
  const Mat data = fleet_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);
  std::optional<std::vector<AssessmentSnapshot>> first;
  for (int repeat = 0; repeat < 5; ++repeat) {
    Assessor engine(AssessorConfig{}
                        .pipeline(fleet_pipeline_options())
                        .sharded(groups, 5)
                        .sensors(data.rows())
                        .ingest(prefetch(true))
                        .hierarchy(stride));
    MatChunkSource replay(data, 256, 64);
    auto snapshots = run_collect(engine, replay);
    if (!first.has_value()) {
      first = std::move(snapshots);
    } else {
      expect_snapshots_equal(snapshots, *first);
    }
  }
}

TEST(Fleet, AsyncPrefetchPathIsStableUnderRepetition) {
  for_each_stride(async_prefetch_path_is_stable_under_repetition);
}

void rejects_malformed_group_partitions(std::size_t stride) {
  const PipelineOptions options = fleet_pipeline_options();
  auto config = [&](std::vector<std::vector<std::size_t>> groups,
                    std::size_t sensors) {
    return AssessorConfig{}
        .pipeline(options)
        .sharded(std::move(groups), 1)
        .sensors(sensors)
        .hierarchy(stride);
  };

  EXPECT_THROW(Assessor(config({{0, 1}, {1, 2, 3}}, 4)),  // overlap
               InvalidArgument);
  EXPECT_THROW(Assessor(config({{0, 1}}, 4)),  // sensors 2, 3 uncovered
               InvalidArgument);
  EXPECT_THROW(Assessor(config({{0, 1, 2, 7}}, 4)),  // out of range
               InvalidArgument);
  EXPECT_THROW(Assessor(config({{0, 1, 2, 3}, {}}, 4)),  // empty group
               InvalidArgument);
  // A sharded partition needs the sensor count up front — only the
  // monolithic topology may infer it from the first chunk.
  EXPECT_THROW(Assessor(config({{0}}, 0)), InvalidArgument);
}

TEST(Fleet, RejectsMalformedGroupPartitions) {
  for_each_stride(rejects_malformed_group_partitions);
}

void rejects_malformed_chunks(std::size_t stride) {
  const Mat data = fleet_data();
  Assessor engine(AssessorConfig{}
                      .pipeline(fleet_pipeline_options())
                      .sensors(data.rows())
                      .hierarchy(stride));

  EXPECT_THROW(engine.process(Mat(data.rows(), 0)), InvalidArgument);
  EXPECT_THROW(engine.process(Mat(data.rows() + 1, 64)), InvalidArgument);
  engine.process(data.block(0, 0, data.rows(), 256));
  EXPECT_THROW(engine.process(Mat(data.rows() - 1, 64)), InvalidArgument);
}

TEST(Fleet, RejectsMalformedChunks) {
  for_each_stride(rejects_malformed_chunks);
}

void async_run_parks_prefetched_chunk_when_processing_fails(
    std::size_t stride) {
  // A mid-stream failure must not swallow the chunk the async prefetch
  // already pulled from the source: the next run() resumes with it.
  class ScriptedSource final : public ChunkSource {
   public:
    explicit ScriptedSource(std::vector<Mat> chunks)
        : chunks_(std::move(chunks)) {}
    std::optional<Mat> next_chunk() override {
      if (next_ >= chunks_.size()) return std::nullopt;
      return chunks_[next_++];
    }
    std::size_t sensors() const override { return chunks_.front().rows(); }

   private:
    std::vector<Mat> chunks_;
    std::size_t next_ = 0;
  };

  const Mat data = fleet_data();
  std::vector<Mat> chunks;
  chunks.push_back(data.block(0, 0, data.rows(), 256));
  chunks.push_back(Mat(data.rows() + 1, 64));  // malformed: extra row
  chunks.push_back(data.block(0, 256, data.rows(), 64));
  ScriptedSource source(std::move(chunks));

  Assessor engine(AssessorConfig{}
                      .pipeline(fleet_pipeline_options())
                      .ingest(prefetch(true))
                      .hierarchy(stride));
  // The first chunk's snapshot is delivered before the malformed second
  // chunk fails the run — delivery happens as snapshots are produced.
  CollectingSink failed;
  EXPECT_THROW(engine.run(source, failed), InvalidArgument);
  ASSERT_EQ(failed.snapshots().size(), 1u);
  EXPECT_EQ(failed.snapshots().front().chunk_index, 0u);
  EXPECT_EQ(failed.snapshots().front().total_snapshots, 256u);

  // The good third chunk was prefetched while the malformed one failed;
  // resuming processes it instead of hitting the drained source's end.
  CollectingSink sink;
  engine.run(source, sink);
  const auto& resumed = sink.snapshots();
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed.front().chunk_index, 1u);
  EXPECT_EQ(resumed.front().total_snapshots, 256u + 64u);
}

TEST(Fleet, AsyncRunParksPrefetchedChunkWhenProcessingFails) {
  for_each_stride(async_run_parks_prefetched_chunk_when_processing_fails);
}

TEST(Fleet, RackGroupsFollowMachineTopology) {
  const telemetry::MachineSpec spec = telemetry::MachineSpec::testbed();
  const auto groups = telemetry::rack_groups(spec);
  ASSERT_EQ(groups.size(), spec.racks);
  std::size_t total = 0;
  for (std::size_t r = 0; r < groups.size(); ++r) {
    for (std::size_t sensor : groups[r]) {
      const std::size_t node = sensor / spec.sensors_per_node;
      EXPECT_EQ(telemetry::place_of(spec, node).rack, r);
    }
    total += groups[r].size();
  }
  EXPECT_EQ(total, spec.sensor_count());
}

TEST(Fleet, ShardedEnvSourceSlicesMatchTheFullStream) {
  const telemetry::MachineSpec spec = telemetry::MachineSpec::testbed();
  telemetry::SensorModel model(spec);

  telemetry::ShardedEnvOptions options;
  options.stream.initial_snapshots = 64;
  options.stream.chunk_snapshots = 32;
  options.stream.total_snapshots = 96;
  telemetry::ShardedEnvSource source(model, options);
  EXPECT_EQ(source.sensors(), spec.sensor_count());
  ASSERT_EQ(source.groups().size(), spec.racks);

  const auto chunk = source.next_chunk();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->rows(), spec.sensor_count());
  EXPECT_EQ(chunk->cols(), 64u);
  // A group window replays exactly the group's rows of the full chunk.
  const Mat window = source.group_window(1, 0, 64);
  const auto& group = source.groups()[1];
  ASSERT_EQ(window.rows(), group.size());
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t t = 0; t < 64; ++t) {
      EXPECT_EQ(window(i, t), (*chunk)(group[i], t));
    }
  }
}

void runs_over_rack_sharded_telemetry(std::size_t stride) {
  const telemetry::MachineSpec spec = telemetry::MachineSpec::testbed();
  telemetry::SensorModel model(spec);
  telemetry::FaultSpec fault;
  fault.kind = telemetry::FaultSpec::Kind::Overheat;
  fault.node = 5;
  fault.t_begin = 0;
  fault.t_end = 160;
  fault.magnitude = 12.0;
  model.add_fault(fault);

  telemetry::ShardedEnvOptions source_options;
  source_options.stream.initial_snapshots = 96;
  source_options.stream.chunk_snapshots = 32;
  source_options.stream.total_snapshots = 160;
  telemetry::ShardedEnvSource source(model, source_options);

  PipelineOptions pipeline_options;
  pipeline_options.imrdmd.mrdmd.max_levels = 3;
  pipeline_options.imrdmd.mrdmd.dt = spec.dt_seconds;
  pipeline_options.baseline = {40.0, 60.0};
  Assessor engine(AssessorConfig{}
                      .pipeline(pipeline_options)
                      .sharded(source.groups(), 1)
                      .sensors(spec.sensor_count())
                      .hierarchy(stride));
  const auto snapshots = run_collect(engine, source);
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(engine.group_count(), spec.racks);
  const AssessmentSnapshot& last = snapshots.back();
  EXPECT_EQ(last.zscores.zscores.size(), spec.sensor_count());
  EXPECT_EQ(last.reports.size(), spec.racks);
  // The overheating node carries one of the fleet's largest z-scores.
  std::size_t above = 0;
  for (double z : last.zscores.zscores) {
    if (z >= last.zscores.zscores[5]) ++above;
  }
  EXPECT_LE(above, spec.sensor_count() / 8);
}

TEST(Fleet, RunsOverRackShardedTelemetry) {
  for_each_stride(runs_over_rack_sharded_telemetry);
}

}  // namespace
}  // namespace imrdmd
