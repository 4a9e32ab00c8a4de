// Determinism of the parallel I-mrDMD paths: with a fixed thread count,
// repeated runs and serial-vs-parallel runs must produce bitwise-identical
// results. Every parallel_for gathers per-bin results in worklist order and
// every OpenMP kernel assigns each output row to exactly one thread, so the
// floating-point evaluation order never depends on scheduling.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/imrdmd.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd::core {
namespace {

using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

ImrdmdOptions imrdmd_options(bool parallel) {
  ImrdmdOptions options;
  options.mrdmd.max_levels = 5;
  options.mrdmd.max_cycles = 2;
  options.mrdmd.dt = 1.0;
  options.mrdmd.parallel_bins = parallel;
  options.recompute_on_drift = true;
  options.drift_threshold = 0.0;  // force the descendant refit every update
  return options;
}

// Fits + streams the planted signal, returning every node's eigenvalues
// (the most scheduling-sensitive quantities: they sit at the end of the
// per-bin pipeline).
std::vector<Complex> run_model(const Mat& data, bool parallel) {
  IncrementalMrdmd model(imrdmd_options(parallel));
  const std::size_t split = 384;
  model.initial_fit(data.block(0, 0, data.rows(), split));
  for (std::size_t t0 = split; t0 < data.cols(); t0 += 64) {
    model.partial_fit(data.block(0, t0, data.rows(), 64));
  }
  std::vector<Complex> eigenvalues;
  for (const auto& node : model.nodes()) {
    eigenvalues.insert(eigenvalues.end(), node.eigenvalues.begin(),
                       node.eigenvalues.end());
  }
  return eigenvalues;
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreBitwiseIdentical) {
  Rng rng(21);
  const Mat data = planted_multiscale(16, 512, 0.01, rng);
  const auto first = run_model(data, true);
  const auto second = run_model(data, true);
  ASSERT_EQ(first.size(), second.size());
  ASSERT_FALSE(first.empty());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].real(), second[i].real());
    EXPECT_EQ(first[i].imag(), second[i].imag());
  }
}

TEST(ParallelDeterminism, ParallelMatchesSerialBitwise) {
  Rng rng(22);
  const Mat data = planted_multiscale(16, 512, 0.01, rng);
  const auto parallel = run_model(data, true);
  const auto serial = run_model(data, false);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel[i].real(), serial[i].real());
    EXPECT_EQ(parallel[i].imag(), serial[i].imag());
  }
}

// End-to-end: the full assessment engine (stream -> I-mrDMD -> band
// isolation -> z-scores) must emit identical snapshots whether the
// descendant bins were fitted serially or in parallel — at every level of
// the hierarchy (the coarse model runs with the same options).
void engine_snapshots_match_serial_bitwise(std::size_t stride) {
  Rng rng(23);
  const Mat data = planted_multiscale(12, 640, 0.02, rng);

  auto run_engine = [&](bool parallel) {
    PipelineOptions options;
    options.imrdmd = imrdmd_options(parallel);
    options.baseline = {-10.0, 10.0};
    std::vector<AssessmentSnapshot> snapshots;
    Assessor engine(AssessorConfig{}.pipeline(options).hierarchy(stride));
    for (std::size_t t0 = 0; t0 + 128 <= data.cols(); t0 += 128) {
      snapshots.push_back(
          engine.process(data.block(0, t0, data.rows(), 128)));
    }
    return snapshots;
  };

  const auto parallel = run_engine(true);
  const auto serial = run_engine(false);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t c = 0; c < parallel.size(); ++c) {
    ASSERT_EQ(parallel[c].magnitudes.size(), serial[c].magnitudes.size());
    for (std::size_t p = 0; p < parallel[c].magnitudes.size(); ++p) {
      EXPECT_EQ(parallel[c].magnitudes[p], serial[c].magnitudes[p]);
      EXPECT_EQ(parallel[c].zscores.zscores[p], serial[c].zscores.zscores[p]);
    }
    ASSERT_EQ(parallel[c].reports.size(), 1u);
    EXPECT_EQ(parallel[c].reports[0].drift_grid,
              serial[c].reports[0].drift_grid);
  }
}

TEST(ParallelDeterminism, EngineSnapshotsMatchSerialBitwise) {
  for_each_stride(engine_snapshots_match_serial_bitwise);
}

// Rank-count invariance of the distributed engine: for a fixed group
// partition, the z-score stream AND the checkpoint bytes are identical —
// compared at the byte level, stricter than value equality (0.0 vs -0.0
// or NaN payloads would slip through EXPECT_EQ on doubles) — across every
// rank x lane combination, flat and with the coarse level in play (and
// its hierarchy map and coarse section in the container).
void fleet_zscores_and_checkpoints_are_byte_identical(std::size_t stride) {
  Rng rng(24);
  const Mat data = planted_multiscale(12, 384, 0.02, rng);
  const auto groups = contiguous_groups(data.rows(), 4);

  auto z_bytes = [](const std::vector<double>& z) {
    return std::string(reinterpret_cast<const char*>(z.data()),
                       z.size() * sizeof(double));
  };

  std::optional<std::string> reference_z;
  std::optional<std::string> reference_ckpt;
  for (const int ranks : {1, 2, 4}) {
    for (const std::size_t lanes : {1u, 2u}) {
      dist::World world(ranks);
      std::string z;
      std::string ckpt;
      world.run([&](dist::Communicator& comm) {
        PipelineOptions pipeline;
        pipeline.imrdmd.mrdmd.max_levels = 4;
        pipeline.imrdmd.mrdmd.dt = 1.0;
        pipeline.baseline = {-10.0, 10.0};
        Assessor engine(AssessorConfig{}
                            .pipeline(pipeline)
                            .sharded(groups, lanes)
                            .sensors(data.rows())
                            .distributed(comm)
                            .hierarchy(stride));
        std::optional<MatrixChunkSource> source;
        if (comm.rank() == 0) source.emplace(data, 256, 64);
        CollectingSink sink;
        engine.run_until(comm.rank() == 0 ? &*source : nullptr, sink,
                         StopCondition{});
        std::ostringstream buffer;
        save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                 engine);
        if (comm.rank() == 0) {
          ASSERT_EQ(sink.snapshots().size(), 3u);
          for (const AssessmentSnapshot& snapshot : sink.snapshots()) {
            z += z_bytes(snapshot.zscores.zscores);
            z += z_bytes(snapshot.magnitudes);
          }
          ckpt = std::move(buffer).str();
        }
      });
      if (!reference_z.has_value()) {
        reference_z = std::move(z);
        reference_ckpt = std::move(ckpt);
        continue;
      }
      EXPECT_EQ(z, *reference_z) << "ranks=" << ranks << " lanes=" << lanes;
      EXPECT_EQ(ckpt, *reference_ckpt)
          << "ranks=" << ranks << " lanes=" << lanes;
    }
  }
}

TEST(RankCountDeterminism, FleetZscoresAndCheckpointsAreByteIdentical) {
  for_each_stride(fleet_zscores_and_checkpoints_are_byte_identical);
}

}  // namespace
}  // namespace imrdmd::core
