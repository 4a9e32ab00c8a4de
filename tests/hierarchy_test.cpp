// Two-level multifidelity hierarchy: the deterministic coarse grid, the
// two-level z-score reconciliation, flat-mode bitwise identity with the
// direct model composition, hierarchy bitwise invariance across lanes x
// prefetch depths x ranks, and the hierarchy in the engine checkpoint
// container (round-trip, rank-count byte invariance, and
// truncation/corruption fuzz through the hierarchy map and coarse section).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/model_stack.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::BaselineZscoreStage;
using core::CollectingSink;
using core::Mat;
using core::ModelStack;
using core::PipelineOptions;
using core::ReconciledZscores;
using core::StopCondition;
using imrdmd::testing::expect_snapshot_equal;
using imrdmd::testing::planted_multiscale;

using MatChunkSource = core::MatrixChunkSource;

PipelineOptions hierarchy_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

Mat hierarchy_data() {
  Rng rng(7);
  return planted_multiscale(15, 384, 0.02, rng);
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

std::vector<AssessmentSnapshot> run_collect(Assessor& engine,
                                            core::ChunkSource& stream,
                                            std::size_t max_chunks = 0) {
  CollectingSink sink;
  StopCondition stop;
  stop.max_chunks = max_chunks;
  engine.run_until(stream, sink, stop);
  return sink.take();
}

// --- coarse grid ---------------------------------------------------------

TEST(ModelStack, CoarseGridSubsamplesEveryGroupDeterministically) {
  std::vector<std::vector<std::size_t>> groups(3);
  for (std::size_t p = 0; p < 9; ++p) groups[0].push_back(p);
  for (std::size_t p = 9; p < 11; ++p) groups[1].push_back(p);
  for (std::size_t p = 11; p < 15; ++p) groups[2].push_back(p);

  // Every 4th sensor of each group's list, each group contributing at
  // least its first sensor.
  EXPECT_EQ(ModelStack::coarse_grid(groups, 4),
            (std::vector<std::size_t>{0, 4, 8, 9, 11}));
  // Stride 1 keeps the whole grid, in group order.
  EXPECT_EQ(ModelStack::coarse_grid(groups, 1),
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                      12, 13, 14}));
  // A stride past every group size degenerates to one sensor per group.
  EXPECT_EQ(ModelStack::coarse_grid(groups, 100),
            (std::vector<std::size_t>{0, 9, 11}));
  // Non-contiguous group sensor lists subsample the LIST, not the machine
  // indices: the grid follows each group's own ordering.
  const std::vector<std::vector<std::size_t>> scattered = {{5, 0, 7, 2}};
  EXPECT_EQ(ModelStack::coarse_grid(scattered, 2),
            (std::vector<std::size_t>{5, 7}));
}

TEST(ModelStack, EnableCoarseValidatesStrideAndPartition) {
  ModelStack stack;
  const PipelineOptions options = hierarchy_pipeline_options();
  const std::vector<std::vector<std::size_t>> groups = {{0, 1}, {2, 3}};
  EXPECT_THROW(stack.enable_coarse(groups, 4, 0, options.imrdmd),
               InvalidArgument);
  // Partition does not cover the sensor count.
  EXPECT_THROW(stack.enable_coarse(groups, 5, 2, options.imrdmd),
               InvalidArgument);
  stack.enable_coarse(groups, 4, 2, options.imrdmd);
  EXPECT_TRUE(stack.hierarchical());
  EXPECT_EQ(stack.coarse_stride(), 2u);
  EXPECT_EQ(stack.coarse_rows(), (std::vector<std::size_t>{0, 2}));
}

TEST(ModelStack, UpdateCoarseSubtractsInterpolatedReconstruction) {
  // Stride 1 makes the coarse grid the full sensor set and the
  // interpolation map the identity: the residual must then be exactly
  // chunk - coarse_reconstruction, and a parallel reference model fed the
  // same chunks must agree bitwise with the stack's coarse model.
  Rng rng(5);
  const Mat data = planted_multiscale(6, 192, 0.02, rng);
  const PipelineOptions options = hierarchy_pipeline_options();
  const auto groups = core::contiguous_groups(6, 2);

  ModelStack stack;
  stack.enable_coarse(groups, 6, 1, options.imrdmd);
  core::IncrementalMrdmd reference(options.imrdmd);

  // Stride 1: the grid rows are the whole chunk, and every sensor is owned.
  const std::vector<std::size_t> sensors = {0, 1, 2, 3, 4, 5};
  const Mat first = data.block(0, 0, 6, 128);
  Mat residual;
  const core::CoarseUpdate update =
      stack.update_coarse(first, options.band, sensors, first, residual);
  reference.initial_fit(first);
  ASSERT_EQ(residual.rows(), first.rows());
  ASSERT_EQ(residual.cols(), first.cols());
  const Mat recon = reference.reconstruct(0, first.cols());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    EXPECT_EQ(residual.data()[i], first.data()[i] - recon.data()[i]);
  }
  expect_bitwise_equal(update.magnitudes,
                       reference.magnitudes(&options.band));

  // Second chunk: incremental path, same contract over the new window.
  const Mat second = data.block(0, 128, 6, 64);
  const core::CoarseUpdate next =
      stack.update_coarse(second, options.band, sensors, second, residual);
  reference.partial_fit(second);
  const Mat recon2 = reference.reconstruct(128, 192);
  for (std::size_t i = 0; i < residual.size(); ++i) {
    EXPECT_EQ(residual.data()[i], second.data()[i] - recon2.data()[i]);
  }
  expect_bitwise_equal(next.magnitudes, reference.magnitudes(&options.band));
  EXPECT_EQ(next.report.new_snapshots, 64u);
}

// --- z-score reconciliation ----------------------------------------------

TEST(Reconciliation, CombinedPicksTheLargerMagnitudeZscorePerSensor) {
  BaselineZscoreStage stage({0.0, 100.0}, {}, true);
  // Baseline = all four sensors (means inside the range). The coarse level
  // spikes sensor 0 far beyond its own spread; the residual level's most
  // anomalous sensor is 3.
  const std::vector<double> means = {50.0, 50.0, 50.0, 50.0};
  const std::vector<double> residual = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> coarse = {100.0, 2.5, 2.5, 2.5};
  const ReconciledZscores out =
      stage.apply_reconciled(residual, coarse, means);
  ASSERT_EQ(out.combined.zscores.size(), 4u);
  // Each level is scored by the stateless zscore_from_baseline against the
  // SAME population the stage selected.
  const std::vector<std::size_t> population = {0, 1, 2, 3};
  expect_bitwise_equal(
      out.residual_zscores,
      core::zscore_from_baseline(residual, population).zscores);
  expect_bitwise_equal(
      out.coarse_zscores,
      core::zscore_from_baseline(coarse, population).zscores);
  // Combined = whichever level is more anomalous in |z| (strict >).
  for (std::size_t p = 0; p < 4; ++p) {
    const double expect = std::fabs(out.coarse_zscores[p]) >
                                  std::fabs(out.residual_zscores[p])
                              ? out.coarse_zscores[p]
                              : out.residual_zscores[p];
    EXPECT_EQ(out.combined.zscores[p], expect);
  }
  // And concretely: the facility-scale spike owns sensor 0, the residual
  // scale owns sensor 3 — anomalous at EITHER scale is flagged.
  EXPECT_EQ(out.combined.zscores[0], out.coarse_zscores[0]);
  EXPECT_GT(out.combined.zscores[0], 1.0);
  EXPECT_EQ(out.combined.zscores[3], out.residual_zscores[3]);
  EXPECT_GT(std::fabs(out.residual_zscores[3]),
            std::fabs(out.coarse_zscores[3]));
}

TEST(Reconciliation, TiesAndNonFiniteCoarseFallToTheResidualLevel) {
  BaselineZscoreStage stage({0.0, 100.0}, {}, true);
  const std::vector<double> means = {50.0, 50.0, 50.0, 50.0};
  const std::vector<double> residual = {1.0, 2.0, 3.0, 4.0};
  // Identical magnitudes: every comparison ties, the residual level wins
  // bitwise (the combined vector IS the residual vector).
  {
    const ReconciledZscores out =
        stage.apply_reconciled(residual, residual, means);
    expect_bitwise_equal(out.combined.zscores, out.residual_zscores);
  }
  // A NaN coarse magnitude poisons that level's baseline statistics, so
  // every coarse z-score goes non-finite — and none of them may propagate
  // into the combined view: it falls back to the residual level entirely.
  {
    std::vector<double> coarse = {100.0, 2.5, 2.5,
                                  std::numeric_limits<double>::quiet_NaN()};
    const ReconciledZscores out =
        stage.apply_reconciled(residual, coarse, means);
    EXPECT_TRUE(std::isnan(out.coarse_zscores[3]));
    expect_bitwise_equal(out.combined.zscores, out.residual_zscores);
    for (double z : out.combined.zscores) EXPECT_TRUE(std::isfinite(z));
  }
}

TEST(Reconciliation, SelectionStateMatchesTheFlatStageTransition) {
  // A sticky (!reselect_per_chunk) hierarchical stage and a flat stage fed
  // the same means must hold the same baseline population forever — the
  // reconciliation step reuses apply()'s selection transition exactly.
  const std::vector<double> first_means = {10.0, 50.0, 50.0, 90.0};
  const std::vector<double> later_means = {50.0, 10.0, 90.0, 50.0};
  const std::vector<double> mags = {1.0, 2.0, 3.0, 4.0};

  BaselineZscoreStage flat({40.0, 60.0}, {}, false);
  BaselineZscoreStage hierarchical({40.0, 60.0}, {}, false);
  flat.apply(mags, first_means);
  hierarchical.apply_reconciled(mags, mags, first_means);
  EXPECT_EQ(hierarchical.baseline_sensors(), flat.baseline_sensors());
  EXPECT_EQ(hierarchical.baseline_sensors(),
            (std::vector<std::size_t>{1, 2}));
  // Sticky: the changed means must NOT re-select on either stage.
  const auto flat_later = flat.apply(mags, later_means);
  const auto hier_later =
      hierarchical.apply_reconciled(mags, mags, later_means);
  EXPECT_EQ(hier_later.combined.baseline_sensors,
            flat_later.baseline_sensors);
  EXPECT_EQ(hier_later.combined.baseline_sensors,
            (std::vector<std::size_t>{1, 2}));
  expect_bitwise_equal(hier_later.residual_zscores, flat_later.zscores);
}

// --- engine semantics ----------------------------------------------------

TEST(Assessor, FlatModeMatchesDirectModelCompositionBitwise) {
  // The tentpole's non-regression bar: with the hierarchy disabled the
  // engine is exactly the old composition — one IncrementalMrdmd plus the
  // baseline/z-score stage — snapshot for snapshot, bit for bit.
  const Mat data = hierarchy_data();
  const PipelineOptions options = hierarchy_pipeline_options();
  Assessor engine(AssessorConfig{}.pipeline(options).hierarchy(0));
  ASSERT_FALSE(engine.hierarchical());

  core::IncrementalMrdmd model(options.imrdmd);
  BaselineZscoreStage stage(options.baseline, options.zscore,
                            options.reselect_baseline_per_chunk);
  MatChunkSource source(data, 256, 64);
  std::optional<Mat> chunk;
  while ((chunk = source.next_chunk()).has_value()) {
    const AssessmentSnapshot snapshot = engine.process(*chunk);
    if (model.fitted()) {
      model.partial_fit(*chunk);
    } else {
      model.initial_fit(*chunk);
    }
    const std::vector<double> magnitudes = model.magnitudes(&options.band);
    const auto analysis =
        stage.apply(magnitudes, core::row_means(*chunk));
    expect_bitwise_equal(snapshot.magnitudes, magnitudes);
    expect_bitwise_equal(snapshot.zscores.zscores, analysis.zscores);
    EXPECT_EQ(snapshot.zscores.baseline_sensors, analysis.baseline_sensors);
    // Flat snapshots carry no per-level fields at all.
    EXPECT_TRUE(snapshot.coarse_magnitudes.empty());
    EXPECT_TRUE(snapshot.coarse_zscores.empty());
    EXPECT_TRUE(snapshot.residual_zscores.empty());
  }
}

TEST(Assessor, HierarchySnapshotsCarryConsistentPerLevelFields) {
  const Mat data = hierarchy_data();
  AssessorConfig config;
  config.pipeline(hierarchy_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(3);
  Assessor engine(config);
  EXPECT_TRUE(engine.hierarchical());
  EXPECT_EQ(engine.coarse_stride(), 3u);
  MatChunkSource source(data, 256, 64);
  const auto snapshots = run_collect(engine, source);
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_TRUE(engine.coarse_model().fitted());
  for (const AssessmentSnapshot& snapshot : snapshots) {
    ASSERT_EQ(snapshot.coarse_magnitudes.size(), data.rows());
    ASSERT_EQ(snapshot.coarse_zscores.size(), data.rows());
    ASSERT_EQ(snapshot.residual_zscores.size(), data.rows());
    EXPECT_GT(snapshot.coarse_fit_seconds, 0.0);
    if (snapshot.chunk_index > 0) {
      // Incremental coarse fits report their window; the initial fit's
      // report stays default.
      EXPECT_EQ(snapshot.coarse_report.new_snapshots,
                snapshot.chunk_snapshots);
    }
    // The combined z-score is the reconciliation of the two levels:
    // per sensor, whichever level carries the larger |z| (ties and
    // non-finite coarse fall to the residual).
    for (std::size_t p = 0; p < data.rows(); ++p) {
      const double coarse = snapshot.coarse_zscores[p];
      const double residual = snapshot.residual_zscores[p];
      const double expect =
          std::isfinite(coarse) &&
                  std::fabs(coarse) > std::fabs(residual)
              ? coarse
              : residual;
      EXPECT_EQ(snapshot.zscores.zscores[p], expect) << "sensor " << p;
    }
    // sensor_means stay RAW chunk means — the baseline range rule reads
    // physical temperatures in both modes, so the planted-signal range
    // keeps every sensor in the population.
    EXPECT_EQ(snapshot.zscores.baseline_sensors.size(), data.rows());
  }
}

TEST(Assessor, HierarchyIsBitwiseInvariantAcrossLanesAndDepths) {
  const Mat data = hierarchy_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);

  AssessorConfig reference_config;
  reference_config.pipeline(hierarchy_pipeline_options())
      .sharded(groups, 1)
      .sensors(data.rows())
      .hierarchy(2);
  reference_config.ingest_options.prefetch_depth = 0;
  Assessor reference(reference_config);
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);
  ASSERT_EQ(expected.size(), 3u);

  for (const std::size_t lanes : {1u, 2u, 5u}) {
    for (const std::size_t depth : {0u, 2u}) {
      AssessorConfig config;
      config.pipeline(hierarchy_pipeline_options())
          .sharded(groups, lanes)
          .sensors(data.rows())
          .hierarchy(2);
      config.ingest_options.prefetch_depth = depth;
      Assessor engine(config);
      MatChunkSource replay(data, 256, 64);
      const auto snapshots = run_collect(engine, replay);
      ASSERT_EQ(snapshots.size(), expected.size());
      for (std::size_t c = 0; c < snapshots.size(); ++c) {
        expect_snapshot_equal(snapshots[c], expected[c]);
      }
    }
  }
}

TEST(DistributedAssessor, HierarchyIsBitwiseInvariantAcrossRanks) {
  // The coarse model runs replicated (once per rank, on the broadcast
  // chunk), so the distributed hierarchy must agree bitwise with the
  // single-process hierarchy at every rank count — including spare ranks.
  const Mat data = hierarchy_data();
  const auto groups = core::contiguous_groups(data.rows(), 3);

  AssessorConfig reference_config;
  reference_config.pipeline(hierarchy_pipeline_options())
      .sharded(groups)
      .sensors(data.rows())
      .hierarchy(2);
  Assessor reference(reference_config);
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);
  ASSERT_EQ(expected.size(), 3u);

  for (const int ranks : {1, 2, 4}) {
    dist::World world(ranks);
    world.run([&](dist::Communicator& comm) {
      AssessorConfig config;
      config.pipeline(hierarchy_pipeline_options())
          .sharded(groups, 1)
          .sensors(data.rows())
          .hierarchy(2)
          .distributed(comm);
      Assessor engine(config);
      std::optional<MatChunkSource> replay;
      if (comm.rank() == 0) replay.emplace(data, 256, 64);
      CollectingSink sink;
      engine.run_until(comm.rank() == 0 ? &*replay : nullptr, sink,
                       StopCondition{});
      const auto& snapshots = sink.snapshots();
      ASSERT_EQ(snapshots.size(), expected.size());
      for (std::size_t c = 0; c < snapshots.size(); ++c) {
        expect_snapshot_equal(snapshots[c], expected[c]);
      }
    });
  }
}

// --- versioned checkpoint container --------------------------------------

std::string small_hierarchy_bytes() {
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(2);
  Assessor engine(config);
  MatChunkSource source(data, 128, 64);
  run_collect(engine, source);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  return buffer.str();
}

TEST(FleetCheckpoint, HierarchyUsesTheVersionedContainerMagic) {
  const Mat data = hierarchy_data();
  // One container for flat and hierarchical engines alike: the stride word
  // and the hierarchy map, not the magic, tell them apart.
  AssessorConfig flat;
  flat.pipeline(hierarchy_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(0);
  Assessor flat_engine(flat);
  MatChunkSource source(data, 256, 64);
  run_collect(flat_engine, source, 1);
  std::stringstream flat_bytes;
  core::save_assessor_checkpoint(flat_bytes, flat_engine);
  EXPECT_EQ(flat_bytes.str().substr(0, 8), "IMRDFL4\n");
  EXPECT_EQ(small_hierarchy_bytes().substr(0, 8), "IMRDFL4\n");
}

TEST(FleetCheckpoint, HierarchyRoundTripsResavesAndResumesBitwise) {
  const Mat data = hierarchy_data();
  AssessorConfig config;
  config.pipeline(hierarchy_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(2);
  Assessor reference(config);
  MatChunkSource reference_source(data, 256, 64);
  const auto expected = run_collect(reference, reference_source);
  ASSERT_EQ(expected.size(), 3u);

  AssessorConfig doomed = config;
  Assessor engine(doomed);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 2);
  std::stringstream bytes;
  core::save_assessor_checkpoint(bytes, engine);

  core::RestoredAssessor restored = core::load_assessor_checkpoint(bytes);
  EXPECT_TRUE(restored.assessor.hierarchical());
  EXPECT_EQ(restored.assessor.coarse_stride(), 2u);
  EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(resaved.str(), bytes.str());

  MatChunkSource rest(data, 256, 64);
  rest.seek(static_cast<std::size_t>(restored.stream_position));
  const auto after = run_collect(restored.assessor, rest);
  ASSERT_EQ(after.size(), 1u);
  expect_snapshot_equal(after[0], expected[2]);
}

TEST(FleetCheckpoint, HierarchyEveryTruncationPointYieldsParseError) {
  // The dense truncation fuzz, through a hierarchical container: every
  // prefix — including cuts inside the hierarchy map and the coarse model
  // section —
  // must fail as ParseError, never a crash or a partial load.
  const std::string bytes = small_hierarchy_bytes();
  ASSERT_GT(bytes.size(), 64u);
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(core::load_assessor_checkpoint(truncated), ParseError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FleetCheckpoint, HierarchyCorruptWordsRejectedWithoutHugeAllocation) {
  // All-ones word flips at every u64 offset of a hierarchical container:
  // the coarse section's length prefix and the hierarchy map must be bounded
  // like every other section — throw a library Error or load, never OOM.
  const std::string bytes = small_hierarchy_bytes();
  for (std::size_t offset = 8; offset + 8 <= bytes.size(); offset += 8) {
    std::string corrupt = bytes;
    const std::uint64_t garbage = ~std::uint64_t{0};
    std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
    std::stringstream in(corrupt);
    try {
      core::load_assessor_checkpoint(in);
    } catch (const Error&) {
      // Expected for most offsets.
    }
  }
}

TEST(DistributedFleetCheckpoint, HierarchyBytesAreRankCountInvariant) {
  // Hierarchical bytes are a pure function of the engine state: a distributed
  // hierarchical run checkpoints byte-identically to the single-process
  // engine at any rank count, and the bytes resume at a different rank
  // count bitwise.
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  AssessorConfig base;
  base.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(2);

  const std::string reference = small_hierarchy_bytes();
  ASSERT_EQ(reference.substr(0, 8), "IMRDFL4\n");

  for (const int ranks : {2, 3}) {
    dist::World world(ranks);
    std::string bytes;
    world.run([&](dist::Communicator& comm) {
      AssessorConfig config = base;
      Assessor engine(config.distributed(comm));
      std::optional<MatChunkSource> source;
      if (comm.rank() == 0) source.emplace(data, 128, 64);
      CollectingSink sink;
      engine.run_until(comm.rank() == 0 ? &*source : nullptr, sink,
                       StopCondition{});
      std::ostringstream buffer;
      core::save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                     engine);
      if (comm.rank() == 0) bytes = std::move(buffer).str();
    });
    EXPECT_EQ(bytes, reference) << "ranks=" << ranks;
  }

  // Continue from the shared bytes at 2 ranks and single-process; both
  // continuations agree bitwise on a fresh chunk.
  const Mat extra = planted_multiscale(9, 64, 0.02, rng);
  std::stringstream in_single(reference);
  core::RestoredAssessor restored_single =
      core::load_assessor_checkpoint(in_single);
  const AssessmentSnapshot expected = restored_single.assessor.process(extra);
  dist::World world(2);
  world.run([&](dist::Communicator& comm) {
    std::stringstream in(reference);
    core::RestoredAssessor restored =
        core::load_assessor_checkpoint(in, comm);
    EXPECT_TRUE(restored.assessor.hierarchical());
    expect_snapshot_equal(restored.assessor.process(extra), expected);
  });
}

}  // namespace
}  // namespace imrdmd
