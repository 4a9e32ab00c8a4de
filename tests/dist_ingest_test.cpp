// Ingestion-mode and elasticity tests for the distributed engine: the
// chunk-delivery modes (scatterv, per-rank sources) are bitwise
// interchangeable across rank counts, lanes, and hierarchy modes; scatterv
// ships exactly the peers' owned rows and per-rank ingestion no payload at
// all; a desynced per-rank replica fails every rank together with
// StreamDesync; and add_sensors grows groups mid-stream identically in
// every topology.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/stream.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::CollectingSink;
using core::IngestMode;
using core::IngestOptions;
using core::Mat;
using core::MatrixChunkSource;
using core::PipelineOptions;
using core::RowSliceSource;
using core::StopCondition;
using imrdmd::testing::expect_snapshots_equal;
using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

PipelineOptions ingest_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};
  return options;
}

Mat ingest_data() {
  Rng rng(11);
  return planted_multiscale(15, 384, 0.02, rng);
}

AssessorConfig ingest_config(std::size_t sensors, std::size_t stride,
                             std::size_t lanes, IngestMode mode) {
  AssessorConfig config;
  config.pipeline(ingest_pipeline_options())
      .sharded(core::contiguous_groups(sensors, 5), lanes)
      .sensors(sensors)
      .hierarchy(stride)
      .ingest(IngestOptions{}.with_mode(mode));
  return config;
}

/// One distributed run at `ranks` under `mode`; per-rank sources are
/// RowSliceSource slices over a full per-rank replica of the stream.
/// Asserts every rank's sink saw the identical stream; returns rank 0's
/// snapshots plus the final checkpoint bytes (rank 0's).
struct DistRun {
  std::vector<AssessmentSnapshot> snapshots;
  std::string checkpoint_bytes;
};

DistRun run_distributed(const Mat& data, std::size_t stride,
                        std::size_t lanes, IngestMode mode, int ranks) {
  dist::World world(ranks);
  std::vector<std::vector<AssessmentSnapshot>> per_rank(
      static_cast<std::size_t>(ranks));
  std::string bytes;
  world.run([&](dist::Communicator& comm) {
    AssessorConfig config = ingest_config(data.rows(), stride, lanes, mode);
    Assessor assessor(config.distributed(comm));
    std::optional<MatrixChunkSource> replica;
    std::optional<RowSliceSource> slice;
    core::ChunkSource* source = nullptr;
    if (mode == IngestMode::PerRank) {
      replica.emplace(data, 256, 64);
      slice.emplace(*replica, assessor.owned_sensor_rows());
      source = &*slice;
    } else if (comm.rank() == 0) {
      replica.emplace(data, 256, 64);
      source = &*replica;
    }
    CollectingSink sink;
    assessor.run_until(source, sink, StopCondition{});
    per_rank[static_cast<std::size_t>(comm.rank())] = sink.take();
    std::ostringstream buffer;
    core::save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                   assessor);
    if (comm.rank() == 0) bytes = std::move(buffer).str();
  });
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    expect_snapshots_equal(per_rank[r], per_rank[0]);
  }
  return {per_rank[0], std::move(bytes)};
}

TEST(DistributedFleetIngest, AllModesMatchTheSingleProcessEngineBitwise) {
  const Mat data = ingest_data();
  for (const std::size_t stride : {std::size_t{0}, std::size_t{2}}) {
    AssessorConfig reference_config =
        ingest_config(data.rows(), stride, 1, IngestMode::Scatterv);
    Assessor reference_engine(reference_config);
    MatrixChunkSource reference_source(data, 256, 64);
    CollectingSink reference_sink;
    reference_engine.run(reference_source, reference_sink);
    const auto reference = reference_sink.take();
    ASSERT_EQ(reference.size(), 3u);
    std::ostringstream reference_buffer;
    core::save_assessor_checkpoint(reference_buffer, reference_engine);
    const std::string reference_bytes = reference_buffer.str();

    for (const int ranks : {2, 4}) {
      for (const IngestMode mode :
           {IngestMode::Scatterv, IngestMode::PerRank}) {
        const DistRun run =
            run_distributed(data, stride, /*lanes=*/2, mode, ranks);
        expect_snapshots_equal(run.snapshots, reference);
        // The checkpoint container carries no delivery-mode provenance:
        // identical state means identical bytes.
        EXPECT_EQ(run.checkpoint_bytes, reference_bytes)
            << "stride=" << stride << " ranks=" << ranks;
      }
    }
  }
}

TEST(DistributedFleetIngest, ScattervShipsOwnedRowsAndPerRankShipsNoPayload) {
  const Mat data = ingest_data();
  const std::size_t ranks = 4;
  const std::size_t chunks = 3;  // 256 + 64 + 64 columns
  const auto groups = core::contiguous_groups(data.rows(), 5);
  std::uint64_t measured[2] = {0, 0};
  const IngestMode modes[2] = {IngestMode::Scatterv, IngestMode::PerRank};
  for (int i = 0; i < 2; ++i) {
    dist::World world(static_cast<int>(ranks));
    std::vector<std::uint64_t> per_rank(ranks, 0);
    world.run([&](dist::Communicator& comm) {
      AssessorConfig config = ingest_config(data.rows(), 0, 1, modes[i]);
      Assessor assessor(config.distributed(comm));
      std::optional<MatrixChunkSource> replica;
      std::optional<RowSliceSource> slice;
      core::ChunkSource* source = nullptr;
      if (modes[i] == IngestMode::PerRank) {
        replica.emplace(data, 256, 64);
        slice.emplace(*replica, assessor.owned_sensor_rows());
        source = &*slice;
      } else if (comm.rank() == 0) {
        replica.emplace(data, 256, 64);
        source = &*replica;
      }
      comm.reset_wire_bytes();
      CollectingSink sink;
      assessor.run_until(source, sink, StopCondition{});
      per_rank[static_cast<std::size_t>(comm.rank())] = comm.wire_bytes();
    });
    for (const std::uint64_t bytes : per_rank) measured[i] += bytes;
  }
  // Traffic both modes share: per chunk, every rank receives each peer's
  // merge contribution — per group, its magnitudes and means (2 doubles
  // per sensor) and an 8-double fit report.
  const std::uint64_t merge =
      chunks * (ranks - 1) * (2 * data.rows() + 8 * groups.size()) * 8;
  // The per-chunk agreement (one more round announces the end of the
  // stream): rank 0 broadcasts 3 doubles under scatterv; every rank
  // allgathers 3 doubles under per_rank.
  const std::uint64_t rounds = chunks + 1;
  const std::uint64_t scatterv_control = rounds * (ranks - 1) * 3 * 8;
  const std::uint64_t per_rank_control = rounds * ranks * (ranks - 1) * 3 * 8;
  // Scatterv's payload is exactly the rows rank 0 does not own, every
  // column once; per-rank ingestion ships no chunk payload at all.
  const auto root_groups = core::rank_group_range(groups.size(), ranks, 0);
  std::uint64_t root_rows = 0;
  for (std::size_t g = root_groups.first; g < root_groups.second; ++g) {
    root_rows += groups[g].size();
  }
  const std::uint64_t owned_payload =
      (data.rows() - root_rows) * data.cols() * sizeof(double);
  ASSERT_GT(owned_payload, 0u);
  EXPECT_EQ(measured[0] - merge - scatterv_control, owned_payload);
  EXPECT_EQ(measured[1] - merge - per_rank_control, 0u);
}

TEST(DistributedFleetIngest, DesyncedPerRankReplicaFailsEveryRankTogether) {
  const Mat data = ingest_data();
  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config =
            ingest_config(data.rows(), 0, 1, IngestMode::PerRank);
        Assessor assessor(config.distributed(comm));
        MatrixChunkSource replica(data, 256, 64);
        // Rank 1's replica starts one chunk ahead: the per-chunk agreement
        // sees disagreeing stream positions and fails both ranks together
        // (no deadlock, no divergent replicated state).
        if (comm.rank() == 1) replica.seek(256);
        RowSliceSource slice(replica, assessor.owned_sensor_rows());
        CollectingSink sink;
        assessor.run_until(&slice, sink, StopCondition{});
      }),
      StreamDesync);
}

TEST(DistributedFleetIngest, PerRankSourceWithWrongRowCountIsRejected) {
  const Mat data = ingest_data();
  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config =
            ingest_config(data.rows(), 0, 1, IngestMode::PerRank);
        Assessor assessor(config.distributed(comm));
        // A full replica is NOT a per-rank source: it yields every row,
        // not this rank's owned slice.
        MatrixChunkSource replica(data, 256, 64);
        CollectingSink sink;
        assessor.run_until(&replica, sink, StopCondition{});
      }),
      InvalidArgument);
}

TEST(DistributedFleetIngest, ResumedSourceLeftUnseekedRaisesStreamDesync) {
  const Mat data = ingest_data();
  AssessorConfig config =
      ingest_config(data.rows(), 0, 1, IngestMode::Scatterv);
  Assessor assessor(config);
  MatrixChunkSource source(data, 256, 64);
  CollectingSink sink;
  StopCondition one;
  one.max_chunks = 1;
  assessor.run_until(source, sink, one);
  std::ostringstream buffer;
  core::save_assessor_checkpoint(buffer, assessor);
  const std::string bytes = buffer.str();

  {
    std::istringstream in(bytes);
    core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
    // The checkpoint recorded stream position 256; feeding the restored
    // engine a source still at snapshot 0 would silently re-fold the first
    // chunk. The engine refuses with a typed error instead.
    MatrixChunkSource unseeked(data, 256, 64);
    EXPECT_THROW(
        restored.assessor.run_until(unseeked, sink, StopCondition{}),
        StreamDesync);
  }
  // A fresh restore whose source IS seek'd to the recorded position runs
  // through to the end of the stream.
  std::istringstream in(bytes);
  core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
  MatrixChunkSource seeked(data, 256, 64);
  seeked.seek(static_cast<std::size_t>(restored.stream_position));
  CollectingSink resumed;
  restored.assessor.run_until(seeked, resumed, StopCondition{});
  EXPECT_EQ(restored.assessor.chunks_processed(), 3u);
}

// --- elastic growth -----------------------------------------------------

/// 18-sensor planted data; the first 15 rows stream normally, the last 3
/// join group 4 after chunk 1 with their raw history.
Mat elastic_data() {
  Rng rng(23);
  return planted_multiscale(18, 384, 0.02, rng);
}

PipelineOptions elastic_pipeline_options() {
  PipelineOptions options = ingest_pipeline_options();
  options.imrdmd.keep_history = true;
  return options;
}

std::vector<AssessmentSnapshot> run_elastic_single(const Mat& data,
                                                   std::size_t stride) {
  AssessorConfig config;
  config.pipeline(elastic_pipeline_options())
      .sharded(core::contiguous_groups(15, 5))
      .sensors(15)
      .hierarchy(stride);
  Assessor assessor(config);
  assessor.process(data.block(0, 0, 15, 256));
  assessor.add_sensors(4, data.block(15, 0, 3, 256));
  EXPECT_EQ(assessor.sensors(), 18u);
  EXPECT_EQ(assessor.groups()[4].size(), 6u);
  std::vector<AssessmentSnapshot> out;
  out.push_back(assessor.process(data.block(0, 256, 18, 64)));
  out.push_back(assessor.process(data.block(0, 320, 18, 64)));
  return out;
}

TEST(DistributedFleetElastic, AddSensorsGrowsAGroupMidStream) {
  const Mat data = elastic_data();
  for (const std::size_t stride : {std::size_t{0}, std::size_t{2}}) {
    const auto reference = run_elastic_single(data, stride);
    ASSERT_EQ(reference.size(), 2u);
    // The grown width shows up in the post-growth snapshots.
    EXPECT_EQ(reference[0].magnitudes.size(), 18u);
    EXPECT_EQ(reference[1].zscores.zscores.size(), 18u);

    // The same elastic run, distributed: identical bitwise.
    for (const int ranks : {2, 3}) {
      dist::World world(ranks);
      std::vector<std::vector<AssessmentSnapshot>> per_rank(
          static_cast<std::size_t>(ranks));
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config;
        config.pipeline(elastic_pipeline_options())
            .sharded(core::contiguous_groups(15, 5))
            .sensors(15)
            .hierarchy(stride)
            .distributed(comm);
        Assessor assessor(config);
        assessor.process(data.block(0, 0, 15, 256));
        assessor.add_sensors(4, data.block(15, 0, 3, 256));
        auto& mine = per_rank[static_cast<std::size_t>(comm.rank())];
        mine.push_back(assessor.process(data.block(0, 256, 18, 64)));
        mine.push_back(assessor.process(data.block(0, 320, 18, 64)));
      });
      for (const auto& snapshots : per_rank) {
        expect_snapshots_equal(snapshots, reference);
      }
    }
  }
}

void add_sensors_validates_its_arguments(std::size_t stride) {
  const Mat data = elastic_data();
  AssessorConfig config;
  config.pipeline(elastic_pipeline_options())
      .sharded(core::contiguous_groups(15, 5))
      .sensors(15)
      .hierarchy(stride);
  Assessor assessor(config);
  // Before any chunk there is no history to join against.
  EXPECT_THROW(assessor.add_sensors(0, Mat(2, 0)), InvalidArgument);
  assessor.process(data.block(0, 0, 15, 256));
  EXPECT_THROW(assessor.add_sensors(5, data.block(15, 0, 3, 256)),
               InvalidArgument);  // no such group
  EXPECT_THROW(assessor.add_sensors(4, data.block(15, 0, 3, 100)),
               DimensionError);  // history shorter than the stream
  assessor.add_sensors(4, data.block(15, 0, 3, 256));
  // Chunks must carry the grown width from now on.
  EXPECT_THROW(assessor.process(data.block(0, 256, 15, 64)),
               InvalidArgument);
}

TEST(DistributedFleetElastic, AddSensorsValidatesItsArguments) {
  for_each_stride(add_sensors_validates_its_arguments);
}

void argument_disagreement_fails_every_rank_together(std::size_t stride) {
  const Mat data = elastic_data();
  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config;
        config.pipeline(elastic_pipeline_options())
            .sharded(core::contiguous_groups(15, 5))
            .sensors(15)
            .distributed(comm)
            .hierarchy(stride);
        Assessor assessor(config);
        assessor.process(data.block(0, 0, 15, 256));
        Mat history = data.block(15, 0, 3, 256);
        if (comm.rank() == 1) history(0, 0) += 1e-9;
        assessor.add_sensors(4, history);
      }),
      InvalidArgument);
}

TEST(DistributedFleetElastic, ArgumentDisagreementFailsEveryRankTogether) {
  for_each_stride(argument_disagreement_fails_every_rank_together);
}

TEST(DistributedFleetElastic,
     GrownHierarchicalStackRoundTripsThroughTheFullSave) {
  const Mat data = elastic_data();
  AssessorConfig config;
  config.pipeline(elastic_pipeline_options())
      .sharded(core::contiguous_groups(15, 5))
      .sensors(15)
      .hierarchy(2);
  Assessor assessor(config);
  assessor.process(data.block(0, 0, 15, 256));
  assessor.add_sensors(4, data.block(15, 0, 3, 256));
  // The grown coarse grid is no longer the stride grid of the partition;
  // the container carries the grid and its interpolation map explicitly,
  // so the full save holds it like any other.
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, assessor);
  core::RestoredAssessor restored = core::load_assessor_checkpoint(buffer);
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(resaved.str(), buffer.str());
  const Mat chunk = data.block(0, 256, 18, 64);
  imrdmd::testing::expect_snapshot_equal(restored.assessor.process(chunk),
                                         assessor.process(chunk));
}

}  // namespace
}  // namespace imrdmd
