// Distributed engine tests: rank-count invariance (results are
// bitwise-identical to the single-process sharded Assessor for any rank
// count and any local lane count), rank-count-invariant checkpoint bytes,
// cross-rank-count resume, the ownership map, and the rank-failure paths
// (disagreeing chunks must fail every rank together, never deadlock).
#include <gtest/gtest.h>

#include <cstdio>
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
using core::CollectingSink;
using core::Mat;
using core::PipelineOptions;
using core::StopCondition;
using imrdmd::testing::expect_snapshots_equal;
using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

using MatChunkSource = core::MatrixChunkSource;

PipelineOptions dist_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

Mat dist_data() {
  Rng rng(7);
  return planted_multiscale(15, 384, 0.02, rng);
}

AssessorConfig dist_config(std::size_t stride, const PipelineOptions& pipeline,
                           const std::vector<std::vector<std::size_t>>& groups,
                           std::size_t sensors, std::size_t lanes = 1) {
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(groups, lanes)
      .sensors(sensors)
      .hierarchy(stride);
  return config;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

/// Drives one distributed run over `ranks`, asserting every rank returned
/// the identical snapshot stream; returns rank 0's.
std::vector<AssessmentSnapshot> run_distributed(const Mat& data,
                                                const AssessorConfig& config,
                                                int ranks,
                                                std::size_t max_chunks = 0) {
  dist::World world(ranks);
  std::vector<std::vector<AssessmentSnapshot>> per_rank(
      static_cast<std::size_t>(ranks));
  world.run([&](dist::Communicator& comm) {
    AssessorConfig local = config;
    Assessor assessor(local.distributed(comm));
    std::optional<MatChunkSource> source;
    if (comm.rank() == 0) source.emplace(data, 256, 64);
    CollectingSink sink;
    StopCondition stop;
    stop.max_chunks = max_chunks;
    assessor.run_until(comm.rank() == 0 ? &*source : nullptr, sink, stop);
    per_rank[static_cast<std::size_t>(comm.rank())] = sink.take();
  });
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    expect_snapshots_equal(per_rank[r], per_rank[0]);
  }
  return per_rank[0];
}

std::vector<AssessmentSnapshot> run_single(const Mat& data,
                                           const AssessorConfig& config) {
  AssessorConfig local = config;
  Assessor assessor(local);
  MatChunkSource source(data, 256, 64);
  CollectingSink sink;
  assessor.run(source, sink);
  return sink.take();
}

TEST(DistributedFleet, RankGroupRangeIsAContiguousBalancedPartition) {
  EXPECT_EQ(core::rank_group_range(5, 3, 0),
            (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(core::rank_group_range(5, 3, 1),
            (std::pair<std::size_t, std::size_t>{2, 4}));
  EXPECT_EQ(core::rank_group_range(5, 3, 2),
            (std::pair<std::size_t, std::size_t>{4, 5}));
  // More ranks than groups: the spare ranks own the empty range.
  EXPECT_EQ(core::rank_group_range(2, 4, 1),
            (std::pair<std::size_t, std::size_t>{1, 2}));
  EXPECT_EQ(core::rank_group_range(2, 4, 3),
            (std::pair<std::size_t, std::size_t>{2, 2}));
  // The ranges tile [0, groups) exactly for any rank count.
  for (std::size_t groups : {1u, 4u, 7u}) {
    for (std::size_t ranks : {1u, 2u, 5u}) {
      std::size_t expect_begin = 0;
      for (std::size_t r = 0; r < ranks; ++r) {
        const auto range = core::rank_group_range(groups, ranks, r);
        EXPECT_EQ(range.first, expect_begin);
        expect_begin = range.second;
      }
      EXPECT_EQ(expect_begin, groups);
    }
  }
  EXPECT_THROW(core::rank_group_range(4, 0, 0), InvalidArgument);
  EXPECT_THROW(core::rank_group_range(4, 2, 2), InvalidArgument);
}

void matches_single_process_engine_for_any_rank_and_lane_count(
    std::size_t stride) {
  const Mat data = dist_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);

  const auto reference =
      run_single(data, dist_config(stride, dist_pipeline_options(), groups,
                                   data.rows()));
  ASSERT_EQ(reference.size(), 3u);

  for (const int ranks : {1, 2, 4}) {
    for (const std::size_t lanes : {1u, 2u}) {
      const auto snapshots = run_distributed(
          data,
          dist_config(stride, dist_pipeline_options(), groups, data.rows(),
                      lanes),
          ranks);
      expect_snapshots_equal(snapshots, reference);
    }
  }
}

TEST(DistributedFleet, MatchesSingleProcessEngineForAnyRankAndLaneCount) {
  for_each_stride(matches_single_process_engine_for_any_rank_and_lane_count);
}

void uneven_group_sizes_exercise_the_ragged_gather(std::size_t stride) {
  // Deliberately lopsided partition: rank payload lengths differ, so the
  // merge runs through genuinely ragged allgatherv contributions.
  const Mat data = dist_data();
  std::vector<std::vector<std::size_t>> groups(3);
  for (std::size_t p = 0; p < 9; ++p) groups[0].push_back(p);
  for (std::size_t p = 9; p < 11; ++p) groups[1].push_back(p);
  for (std::size_t p = 11; p < 15; ++p) groups[2].push_back(p);

  const auto config = dist_config(stride, dist_pipeline_options(), groups,
                                  data.rows());
  const auto reference = run_single(data, config);

  for (const int ranks : {2, 3}) {
    expect_snapshots_equal(run_distributed(data, config, ranks), reference);
  }
}

TEST(DistributedFleet, UnevenGroupSizesExerciseTheRaggedGather) {
  for_each_stride(uneven_group_sizes_exercise_the_ragged_gather);
}

void spare_ranks_beyond_the_group_count_stay_in_the_collective(
    std::size_t stride) {
  const Mat data = dist_data();
  const auto config =
      dist_config(stride, dist_pipeline_options(),
                  core::contiguous_groups(data.rows(), 2), data.rows());

  const auto reference = run_single(data, config);

  // 5 ranks, 2 groups: ranks 2-4 own nothing but still participate in
  // every collective (empty contributions) and return the full stream.
  expect_snapshots_equal(run_distributed(data, config, 5), reference);
}

TEST(DistributedFleet, SpareRanksBeyondTheGroupCountStayInTheCollective) {
  for_each_stride(spare_ranks_beyond_the_group_count_stay_in_the_collective);
}

void checkpoint_bytes_are_rank_count_invariant(std::size_t stride) {
  const Mat data = dist_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);
  const auto config =
      dist_config(stride, dist_pipeline_options(), groups, data.rows());

  // Single-process reference bytes after two chunks.
  AssessorConfig reference_config = config;
  Assessor reference_engine(reference_config);
  MatChunkSource reference_source(data, 256, 64);
  CollectingSink reference_sink;
  StopCondition two;
  two.max_chunks = 2;
  reference_engine.run_until(reference_source, reference_sink, two);
  std::stringstream reference_buffer;
  core::save_assessor_checkpoint(reference_buffer, reference_engine);
  const std::string reference_bytes = reference_buffer.str();
  ASSERT_FALSE(reference_bytes.empty());

  for (const int ranks : {1, 2, 4}) {
    dist::World world(ranks);
    std::string bytes;
    world.run([&](dist::Communicator& comm) {
      AssessorConfig local = config;
      Assessor assessor(local.distributed(comm));
      std::optional<MatChunkSource> source;
      if (comm.rank() == 0) source.emplace(data, 256, 64);
      CollectingSink sink;
      assessor.run_until(comm.rank() == 0 ? &*source : nullptr, sink, two);
      std::ostringstream buffer;
      core::save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                     assessor);
      if (comm.rank() == 0) bytes = std::move(buffer).str();
    });
    EXPECT_EQ(bytes, reference_bytes) << "ranks=" << ranks;
  }
}

TEST(DistributedFleet, CheckpointBytesAreRankCountInvariant) {
  for_each_stride(checkpoint_bytes_are_rank_count_invariant);
}

void resumes_across_rank_counts(std::size_t stride) {
  const Mat data = dist_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);
  const auto config =
      dist_config(stride, dist_pipeline_options(), groups, data.rows());

  const auto reference = run_distributed(data, config, 1);
  ASSERT_EQ(reference.size(), 3u);

  // Kill after one chunk at 2 ranks, keeping the checkpoint bytes.
  std::string bytes;
  std::uint64_t position = 0;
  {
    dist::World world(2);
    world.run([&](dist::Communicator& comm) {
      AssessorConfig local = config;
      Assessor assessor(local.distributed(comm));
      std::optional<MatChunkSource> source;
      if (comm.rank() == 0) source.emplace(data, 256, 64);
      CollectingSink sink;
      StopCondition one;
      one.max_chunks = 1;
      assessor.run_until(comm.rank() == 0 ? &*source : nullptr, sink, one);
      std::ostringstream buffer;
      core::save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                     assessor);
      if (comm.rank() == 0) {
        bytes = std::move(buffer).str();
        position = assessor.snapshots_processed();
      }
    });
  }
  ASSERT_EQ(position, 256u);

  // Resume at 3 ranks (and at 1): the continued stream is bitwise
  // identical to the uninterrupted run.
  for (const int resume_ranks : {1, 3}) {
    dist::World world(resume_ranks);
    std::vector<std::vector<AssessmentSnapshot>> per_rank(
        static_cast<std::size_t>(resume_ranks));
    world.run([&](dist::Communicator& comm) {
      std::stringstream in(bytes);
      core::RestoredAssessor restored =
          core::load_assessor_checkpoint(in, comm);
      EXPECT_EQ(restored.assessor.chunks_processed(), 1u);
      EXPECT_EQ(restored.stream_position, position);
      std::optional<MatChunkSource> source;
      if (comm.rank() == 0) {
        source.emplace(data, 256, 64);
        source->seek(static_cast<std::size_t>(restored.stream_position));
      }
      CollectingSink sink;
      restored.assessor.run_until(comm.rank() == 0 ? &*source : nullptr,
                                  sink, StopCondition{});
      per_rank[static_cast<std::size_t>(comm.rank())] = sink.take();
    });
    for (const auto& snapshots : per_rank) {
      ASSERT_EQ(snapshots.size(), 2u);
      for (std::size_t i = 0; i < snapshots.size(); ++i) {
        expect_bitwise_equal(snapshots[i].zscores.zscores,
                             reference[1 + i].zscores.zscores);
        expect_bitwise_equal(snapshots[i].magnitudes,
                             reference[1 + i].magnitudes);
        EXPECT_EQ(snapshots[i].chunk_index, reference[1 + i].chunk_index);
      }
    }
  }
}

TEST(DistributedFleet, ResumesAcrossRankCounts) {
  for_each_stride(resumes_across_rank_counts);
}

void periodic_checkpoint_hook_writes_through_rank_zero(std::size_t stride) {
  const Mat data = dist_data();
  const std::string path = ::testing::TempDir() + "/dist_fleet.ckpt";
  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta container" : "full container");
    AssessorConfig config =
        dist_config(stride, dist_pipeline_options(),
                    core::contiguous_groups(data.rows(), 3), data.rows());
    config.checkpoint(core::CheckpointPolicy{1, path}.with_delta(delta));

    const auto reference = run_distributed(data, config, 2);
    ASSERT_EQ(reference.size(), 3u);

    // The file holds the final complete state and loads through the plain
    // single-process path too (the container bytes carry no provenance).
    core::RestoredAssessor restored =
        core::load_assessor_checkpoint_file(path);
    EXPECT_EQ(restored.assessor.chunks_processed(), 3u);
    EXPECT_EQ(restored.stream_position, 384u);
    std::remove(path.c_str());
    // The delta container's parts: one per rank, in the run's one epoch.
    for (const char* part : {".r0.e1", ".r1.e1"}) {
      std::remove((path + part).c_str());
    }
  }
}

TEST(DistributedFleet, PeriodicCheckpointHookWritesThroughRankZero) {
  for_each_stride(periodic_checkpoint_hook_writes_through_rank_zero);
}

void chunk_width_disagreement_fails_every_rank_together(std::size_t stride) {
  const Mat data = dist_data();
  const auto config =
      dist_config(stride, dist_pipeline_options(),
                  core::contiguous_groups(data.rows(), 3), data.rows());

  // Must complete (no deadlock) and surface InvalidArgument, not a
  // secondary CollectiveAborted: every rank sees the same min/max width
  // and unwinds from the same check.
  dist::World world(3);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig local = config;
        Assessor assessor(local.distributed(comm));
        const std::size_t width = comm.rank() == 1 ? 128u : 256u;
        assessor.process(data.block(0, 0, data.rows(), width));
      }),
      InvalidArgument);
}

TEST(DistributedFleet, ChunkWidthDisagreementFailsEveryRankTogether) {
  for_each_stride(chunk_width_disagreement_fails_every_rank_together);
}

void chunk_content_disagreement_fails_every_rank_together(std::size_t stride) {
  // Same width, different bytes: without the content digest in the
  // agreement check the ranks would fit different data and silently
  // desync their replicated z-score stages.
  const Mat data = dist_data();
  const auto config =
      dist_config(stride, dist_pipeline_options(),
                  core::contiguous_groups(data.rows(), 3), data.rows());

  dist::World world(3);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig local = config;
        Assessor assessor(local.distributed(comm));
        Mat chunk = data.block(0, 0, data.rows(), 256);
        if (comm.rank() == 2) chunk(3, 7) += 1e-9;
        assessor.process(chunk);
      }),
      InvalidArgument);
}

TEST(DistributedFleet, ChunkContentDisagreementFailsEveryRankTogether) {
  for_each_stride(chunk_content_disagreement_fails_every_rank_together);
}

void source_outside_rank_zero_is_rejected(std::size_t stride) {
  const Mat data = dist_data();

  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config;
        config.pipeline(dist_pipeline_options())
            .sensors(data.rows())
            .distributed(comm)
            .hierarchy(stride);
        Assessor assessor(config);
        // Both ranks pass a source; rank 1 must refuse before any
        // collective, and rank 0 unwinds via the poisoned broadcast.
        MatChunkSource source(data, 256, 64);
        CollectingSink sink;
        assessor.run_until(&source, sink, StopCondition{});
      }),
      InvalidArgument);
}

TEST(DistributedFleet, SourceOutsideRankZeroIsRejected) {
  for_each_stride(source_outside_rank_zero_is_rejected);
}

void rejects_malformed_partitions_and_chunks(std::size_t stride) {
  const Mat data = dist_data();
  dist::World world(2);
  world.run([&](dist::Communicator& comm) {
    AssessorConfig bad;
    bad.pipeline(dist_pipeline_options())
        .sharded({{0, 1}, {1, 2}})  // overlap
        .sensors(3)
        .distributed(comm)
        .hierarchy(stride);
    EXPECT_THROW(Assessor{bad}, InvalidArgument);

    AssessorConfig config;
    config.pipeline(dist_pipeline_options())
        .sensors(data.rows())
        .distributed(comm)
        .hierarchy(stride);
    Assessor assessor(config);
    // Local validation fires before any collective, so every rank throws
    // on its own copy of the malformed chunk.
    EXPECT_THROW(assessor.process(Mat(data.rows(), 0)), InvalidArgument);
    EXPECT_THROW(assessor.process(Mat(data.rows() + 1, 64)), InvalidArgument);
  });
}

TEST(DistributedFleet, RejectsMalformedPartitionsAndChunks) {
  for_each_stride(rejects_malformed_partitions_and_chunks);
}

}  // namespace
}  // namespace imrdmd
