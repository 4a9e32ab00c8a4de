// Assessor checkpoint durability: mid-stream kill-and-resume bitwise
// identity (for any checkpoint index and any resume lane count, monolithic
// included), truncation/corruption fuzz on the engine container and its
// delta parts, epoch bookkeeping across engines sharing a path, and the
// atomic write-temp-then-rename discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::AssessorResumeOptions;
using core::CollectingSink;
using core::Mat;
using core::PipelineOptions;
using core::StopCondition;
using imrdmd::testing::expect_snapshot_equal;
using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;

using MatChunkSource = core::MatrixChunkSource;

PipelineOptions checkpoint_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

Mat checkpoint_data() {
  Rng rng(11);
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

/// One uninterrupted reference run over the shared 256+64+64 chunking (or
/// 256 + chunk + ...).
std::vector<AssessmentSnapshot> reference_run(const Mat& data,
                                              const AssessorConfig& config,
                                              std::size_t chunk = 64) {
  AssessorConfig local = config;
  Assessor engine(local);
  MatChunkSource source(data, 256, chunk);
  return run_collect(engine, source);
}

void killed_run_resumes_bitwise_identical_from_any_checkpoint(
    std::size_t stride) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 5), 5)
      .sensors(data.rows())
      .hierarchy(stride);
  const auto reference = reference_run(data, config);
  ASSERT_EQ(reference.size(), 3u);

  const std::string path = ::testing::TempDir() + "/fleet.ckpt";
  for (const std::size_t kill_after : {1u, 2u}) {
    // The doomed run checkpoints after every chunk; max_chunks stands in
    // for the kill — everything past the file is lost with the process.
    AssessorConfig doomed = config;
    doomed.checkpoint({1, path});
    Assessor engine(doomed);
    MatChunkSource source(data, 256, 64);
    const auto before = run_collect(engine, source, kill_after);
    ASSERT_EQ(before.size(), kill_after);

    // Resume from the latest checkpoint with a *different* lane count: the
    // restored stream must still be bitwise identical to the reference.
    AssessorResumeOptions resume;
    resume.lanes = kill_after == 1 ? 2 : 1;
    core::RestoredAssessor restored =
        core::load_assessor_checkpoint_file(path, resume);
    EXPECT_EQ(restored.assessor.chunks_processed(), kill_after);
    MatChunkSource rest(data, 256, 64);
    rest.seek(static_cast<std::size_t>(restored.stream_position));
    const auto after = run_collect(restored.assessor, rest);
    ASSERT_EQ(after.size(), reference.size() - kill_after);
    for (std::size_t i = 0; i < after.size(); ++i) {
      expect_snapshot_equal(after[i], reference[kill_after + i]);
    }
  }
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, KilledRunResumesBitwiseIdenticalFromAnyCheckpoint) {
  for_each_stride(killed_run_resumes_bitwise_identical_from_any_checkpoint);
}

void round_trips_through_memory_and_resaves(std::size_t stride) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(stride);
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 2);

  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  core::RestoredAssessor restored = core::load_assessor_checkpoint(buffer);
  EXPECT_EQ(restored.assessor.group_count(), 3u);
  EXPECT_EQ(restored.assessor.groups(), engine.groups());
  EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
  EXPECT_EQ(restored.stream_position, 256u + 64u);
  EXPECT_EQ(restored.assessor.hierarchical(), engine.hierarchical());
  EXPECT_EQ(restored.assessor.coarse_stride(), engine.coarse_stride());

  // Serialization is a pure function of the restored state: re-saving the
  // loaded engine reproduces the container byte for byte.
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(buffer.str(), resaved.str());

  // Both continue with the same chunk and stay bitwise identical.
  const Mat chunk = data.block(0, 320, data.rows(), 64);
  const AssessmentSnapshot a = engine.process(chunk);
  const AssessmentSnapshot b = restored.assessor.process(chunk);
  expect_snapshot_equal(a, b);
}

TEST(FleetCheckpoint, RoundTripsThroughMemoryAndResaves) {
  for_each_stride(round_trips_through_memory_and_resaves);
}

void resume_with_more_lanes_keeps_the_configured_options(std::size_t stride) {
  // A single-lane engine keeps parallel_bins on (its lane runs on the
  // caller thread, so the bins spread over the pool). Resumed at 3 lanes on
  // a 1-worker pool, the models keep the configured options: a lane task's
  // bin fits run inline because parallel_for never waits on a worker.
  const Mat data = checkpoint_data();
  PipelineOptions pipeline = checkpoint_pipeline_options();
  pipeline.imrdmd.mrdmd.parallel_bins = true;
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3), 1)
      .sensors(data.rows())
      .hierarchy(stride);
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 1);
  ASSERT_TRUE(engine.model(0).options().mrdmd.parallel_bins);

  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  ThreadPool pool(1);
  AssessorResumeOptions resume;
  resume.lanes = 3;
  resume.pool = &pool;
  core::RestoredAssessor restored =
      core::load_assessor_checkpoint(buffer, resume);
  ASSERT_EQ(restored.assessor.lanes(), 3u);
  for (std::size_t g = 0; g < restored.assessor.group_count(); ++g) {
    EXPECT_TRUE(restored.assessor.model(g).options().mrdmd.parallel_bins);
  }
  // And the resumed multi-lane engine still matches the single-lane
  // continuation bitwise.
  const Mat chunk = data.block(0, 320, data.rows(), 64);
  const AssessmentSnapshot a = engine.process(chunk);
  const AssessmentSnapshot b = restored.assessor.process(chunk);
  expect_snapshot_equal(a, b);
}

TEST(FleetCheckpoint, ResumeWithMoreLanesKeepsTheConfiguredOptions) {
  for_each_stride(resume_with_more_lanes_keeps_the_configured_options);
}

void unstarted_engine_rejected(std::size_t stride) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sensors(data.rows())
      .hierarchy(stride);
  Assessor engine(config);
  std::stringstream buffer;
  EXPECT_THROW(core::save_assessor_checkpoint(buffer, engine),
               InvalidArgument);
}

TEST(FleetCheckpoint, UnstartedEngineRejected) {
  for_each_stride(unstarted_engine_rejected);
}

TEST(PipelineCheckpoint, KilledRunResumesBitwiseIdentical) {
  // A flat monolithic engine (one identity group) resumes from the engine
  // container bitwise.
  const Mat data = checkpoint_data();
  Assessor reference(
      AssessorConfig{}.pipeline(checkpoint_pipeline_options()).hierarchy(0));
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);
  ASSERT_EQ(expected.size(), 3u);

  Assessor doomed(
      AssessorConfig{}.pipeline(checkpoint_pipeline_options()).hierarchy(0));
  MatChunkSource replay(data, 256, 64);
  run_collect(doomed, replay, 2);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, doomed);

  core::RestoredAssessor restored = core::load_assessor_checkpoint(buffer);
  EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
  MatChunkSource rest(data, 256, 64);
  rest.seek(static_cast<std::size_t>(restored.stream_position));
  const auto after = run_collect(restored.assessor, rest);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].chunk_index, expected[2].chunk_index);
  EXPECT_EQ(after[0].total_snapshots, expected[2].total_snapshots);
  expect_bitwise_equal(after[0].magnitudes, expected[2].magnitudes);
  expect_bitwise_equal(after[0].zscores.zscores, expected[2].zscores.zscores);
}

TEST(PipelineCheckpoint, StickyBaselineSurvivesResume) {
  // With reselect_baseline_per_chunk = false the stage's one-shot selection
  // is genuine mutable state: losing it across a resume would re-select on
  // the next chunk and silently change every z-score.
  const Mat data = checkpoint_data();
  PipelineOptions options = checkpoint_pipeline_options();
  options.reselect_baseline_per_chunk = false;
  Assessor reference(AssessorConfig{}.pipeline(options).hierarchy(0));
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);

  Assessor doomed(AssessorConfig{}.pipeline(options).hierarchy(0));
  MatChunkSource replay(data, 256, 64);
  run_collect(doomed, replay, 1);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, doomed);
  core::RestoredAssessor restored = core::load_assessor_checkpoint(buffer);
  MatChunkSource rest(data, 256, 64);
  rest.seek(static_cast<std::size_t>(restored.stream_position));
  const auto after = run_collect(restored.assessor, rest);
  ASSERT_EQ(after.size(), 2u);
  for (std::size_t i = 0; i < after.size(); ++i) {
    expect_bitwise_equal(after[i].zscores.zscores,
                         expected[1 + i].zscores.zscores);
    EXPECT_EQ(after[i].zscores.baseline_sensors,
              expected[1 + i].zscores.baseline_sensors);
  }
}

// --- truncation / corruption fuzz on the engine container ----------------

std::string small_fleet_bytes(std::size_t stride) {
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
      .hierarchy(stride);
  Assessor engine(config);
  MatChunkSource source(data, 128, 64);
  run_collect(engine, source);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  return buffer.str();
}

void every_truncation_point_yields_parse_error(std::size_t stride) {
  const std::string bytes = small_fleet_bytes(stride);
  ASSERT_GT(bytes.size(), 64u);
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(core::load_assessor_checkpoint(truncated), ParseError)
        << "prefix of " << cut << " bytes";
  }
  // The retired container generations have no reader: behind their magics
  // even a well-formed body is foreign input.
  for (const char* magic :
       {"IMRDPL1\n", "IMRDFL1\n", "IMRDFL2\n", "IMRDFL3\n"}) {
    std::stringstream retired(magic + bytes.substr(8));
    EXPECT_THROW(core::load_assessor_checkpoint(retired), ParseError)
        << magic;
  }
}

TEST(FleetCheckpoint, EveryTruncationPointYieldsParseError) {
  for_each_stride(every_truncation_point_yields_parse_error);
}

void corrupt_baseline_population_rejected_at_load(std::size_t stride) {
  // A flipped baseline sensor index must fail at load with ParseError, not
  // chunks later as a DimensionError inside the resumed stream's first
  // z-scoring. The first population index sits at a fixed offset: magic
  // (8) + 8 stage-option words (64) + chunk/position words (16) +
  // selected_once + count (16) = 104. (The hierarchy map follows the
  // groups section, so the offset holds flat and hierarchical.)
  const std::string bytes = small_fleet_bytes(stride);
  std::string corrupt = bytes;
  const std::uint64_t huge = std::uint64_t{1} << 20;
  std::memcpy(corrupt.data() + 104, &huge, sizeof huge);
  std::stringstream in(corrupt);
  EXPECT_THROW(core::load_assessor_checkpoint(in), ParseError);
}

TEST(FleetCheckpoint, CorruptBaselinePopulationRejectedAtLoad) {
  for_each_stride(corrupt_baseline_population_rejected_at_load);
}

void corrupt_words_rejected_without_huge_allocation(std::size_t stride) {
  // Fuzz every u64-aligned position with an all-ones word: loads must
  // either succeed or throw a library Error — never exhaust memory or
  // crash on a garbage length prefix, section size, or group index. A
  // container that loads must re-save to the very bytes it was read from:
  // a word that loads as another value does not round-trip.
  const std::string bytes = small_fleet_bytes(stride);
  for (std::size_t offset = 8; offset + 8 <= bytes.size(); offset += 8) {
    std::string corrupt = bytes;
    const std::uint64_t garbage = ~std::uint64_t{0};
    std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
    std::stringstream in(corrupt);
    std::optional<core::RestoredAssessor> restored;
    try {
      restored.emplace(core::load_assessor_checkpoint(in));
    } catch (const Error&) {
      continue;  // Expected for most offsets.
    }
    std::stringstream resaved;
    core::save_assessor_checkpoint(resaved, restored->assessor);
    EXPECT_TRUE(resaved.str() == corrupt) << "offset " << offset;
  }
}

TEST(FleetCheckpoint, CorruptWordsRejectedWithoutHugeAllocation) {
  for_each_stride(corrupt_words_rejected_without_huge_allocation);
}

std::uint64_t word_at(const std::string& bytes, std::size_t offset) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes.data() + offset, sizeof word);
  return word;
}

/// The byte offset of the first interpolation entry (lo, hi, w) of a
/// hierarchical container: past the baseline population (its count sits
/// at byte 96), the sensor and group counts, the groups, the coarse stride
/// and the coarse grid, and the interpolation map's count.
std::size_t interp_offset(const std::string& bytes) {
  std::size_t at = 104 + 8 * word_at(bytes, 96);
  const std::uint64_t sensors = word_at(bytes, at);
  const std::uint64_t groups = word_at(bytes, at + 8);
  at += 16;
  for (std::uint64_t g = 0; g < groups; ++g) at += 8 * (1 + word_at(bytes, at));
  EXPECT_EQ(word_at(bytes, at), 2u);  // the coarse stride
  at += 8;
  at += 8 * (1 + word_at(bytes, at));  // the coarse grid
  EXPECT_EQ(word_at(bytes, at), sensors);
  return at + 8;
}

void preamble_values_outside_their_domain_rejected(std::size_t stride) {
  // The preamble's bool words (reselect_baseline_per_chunk at byte 64,
  // selected_once at byte 88) are 0 or 1; its seven stage doubles (bytes 8
  // to 63) are never NaN, and the baseline range is ordered; each
  // interpolation entry has w in [0, 1) and hi == lo or lo + 1. Anything
  // else loads skewed state (a NaN hot_threshold scores every Elevated
  // sensor Hot) or fails chunks later, so it must fail the load.
  const std::string bytes = small_fleet_bytes(stride);
  const auto rejected = [&bytes](std::size_t offset, auto value) {
    static_assert(sizeof value == 8);
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + offset, &value, sizeof value);
    std::stringstream in(corrupt);
    EXPECT_THROW(core::load_assessor_checkpoint(in), ParseError)
        << "offset " << offset << " value " << value;
  };
  for (const std::size_t offset : {64u, 88u}) {
    rejected(offset, std::uint64_t{2});
    rejected(offset, ~std::uint64_t{0});
  }
  for (std::size_t offset = 8; offset < 64; offset += 8) {
    rejected(offset, std::numeric_limits<double>::quiet_NaN());
  }
  rejected(32, 20.0);  // value_min above value_max (10)
  // +inf is a meaningful bound (the band's default upper edge) and loads.
  double max_frequency = 0.0;
  std::memcpy(&max_frequency, bytes.data() + 16, sizeof max_frequency);
  ASSERT_EQ(max_frequency, std::numeric_limits<double>::infinity());

  if (stride == 0) return;
  // Sensors 0, 1 and 2 of the first group: an exact grid row (0, 0), the
  // midpoint of rows 0 and 1, and the exact row (1, 1).
  const std::size_t at = interp_offset(bytes);
  ASSERT_EQ(word_at(bytes, at), 0u);
  ASSERT_EQ(word_at(bytes, at + 8), 0u);
  ASSERT_EQ(word_at(bytes, at + 24), 0u);
  ASSERT_EQ(word_at(bytes, at + 32), 1u);
  ASSERT_EQ(word_at(bytes, at + 48), 1u);
  ASSERT_EQ(word_at(bytes, at + 56), 1u);
  for (const double w : {std::numeric_limits<double>::quiet_NaN(), 7.5, -3.0,
                         1.0, std::numeric_limits<double>::infinity()}) {
    rejected(at + 40, w);
  }
  rejected(at + 8, std::uint64_t{2});   // hi == lo + 2
  rejected(at + 56, std::uint64_t{0});  // hi == lo - 1
}

TEST(FleetCheckpoint, PreambleValuesOutsideTheirDomainRejected) {
  for_each_stride(preamble_values_outside_their_domain_rejected);
}

// --- mixed-provenance resume fuzz (saved at R ranks, resumed at R') -----

/// The same engine state as small_fleet_bytes, but driven (and
/// checkpointed) by a distributed run at `ranks` ranks.
std::string distributed_small_fleet_bytes(std::size_t stride, int ranks) {
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  dist::World world(ranks);
  std::string bytes;
  world.run([&](dist::Communicator& comm) {
    AssessorConfig config;
    config.pipeline(pipeline)
        .sharded(core::contiguous_groups(data.rows(), 3))
        .sensors(data.rows())
        .distributed(comm)
        .hierarchy(stride);
    Assessor engine(config);
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
  return bytes;
}

void provenance_is_invisible_in_the_bytes(std::size_t stride) {
  // A checkpoint written at any rank count is byte-for-byte the container
  // the single-process engine writes — which is what makes every resume
  // combination below a pure parser problem, fuzzed once for all writers.
  const std::string reference = small_fleet_bytes(stride);
  EXPECT_EQ(distributed_small_fleet_bytes(stride, 2), reference);
  EXPECT_EQ(distributed_small_fleet_bytes(stride, 3), reference);
}

TEST(DistributedFleetCheckpoint, ProvenanceIsInvisibleInTheBytes) {
  for_each_stride(provenance_is_invisible_in_the_bytes);
}

void resumes_at_any_rank_count_from_any_provenance(std::size_t stride) {
  // Saved at 3 ranks; resumed single-process and at 2 ranks — both must
  // continue the stream bitwise-identically to the uninterrupted engine.
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
      .hierarchy(stride);

  // Uninterrupted reference, one extra chunk past the checkpoint state.
  const Mat extra = planted_multiscale(9, 64, 0.02, rng);
  Assessor reference(config);
  MatChunkSource reference_source(data, 128, 64);
  run_collect(reference, reference_source);
  const AssessmentSnapshot expected = reference.process(extra);

  const std::string bytes = distributed_small_fleet_bytes(stride, 3);

  // Single-process resume of the distributed checkpoint.
  {
    std::stringstream in(bytes);
    core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
    EXPECT_EQ(restored.stream_position, 192u);
    expect_snapshot_equal(restored.assessor.process(extra), expected);
  }
  // 2-rank distributed resume of the same bytes.
  {
    dist::World world(2);
    world.run([&](dist::Communicator& comm) {
      std::stringstream in(bytes);
      core::RestoredAssessor restored =
          core::load_assessor_checkpoint(in, comm);
      EXPECT_EQ(restored.stream_position, 192u);
      expect_snapshot_equal(restored.assessor.process(extra), expected);
    });
  }
}

TEST(DistributedFleetCheckpoint, ResumesAtAnyRankCountFromAnyProvenance) {
  for_each_stride(resumes_at_any_rank_count_from_any_provenance);
}

void truncation_rejected_at_every_rank_count(std::size_t stride) {
  // The fuzz machinery from the single-process suite, pointed at the
  // distributed load path: every truncation prefix must yield ParseError
  // on every rank (each rank parses independently — no collective to
  // deadlock in), at more than one resume rank count.
  const std::string bytes = small_fleet_bytes(stride);
  ASSERT_GT(bytes.size(), 64u);
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 23);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    dist::World world(2);
    EXPECT_THROW(world.run([&](dist::Communicator& comm) {
                   std::stringstream truncated(bytes.substr(0, cut));
                   core::load_assessor_checkpoint(truncated, comm);
                 }),
                 ParseError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(DistributedFleetCheckpoint, TruncationRejectedAtEveryRankCount) {
  for_each_stride(truncation_rejected_at_every_rank_count);
}

void corrupt_words_rejected_at_every_rank_count(std::size_t stride) {
  // Sparse word-flip fuzz on the distributed load path. The parser is the
  // same one the dense single-process fuzz above hammers at every
  // offset; this pass samples offsets to keep the world spawns cheap while
  // still covering the distributed assembly (ownership slicing) on
  // corrupted parses.
  const std::string bytes = small_fleet_bytes(stride);
  for (std::size_t offset = 8; offset + 8 <= bytes.size(); offset += 8 * 23) {
    std::string corrupt = bytes;
    const std::uint64_t garbage = ~std::uint64_t{0};
    std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
    dist::World world(2);
    try {
      world.run([&](dist::Communicator& comm) {
        std::stringstream in(corrupt);
        core::load_assessor_checkpoint(in, comm);
      });
    } catch (const Error&) {
      // Expected for most offsets.
    }
  }
}

TEST(DistributedFleetCheckpoint, CorruptWordsRejectedWithoutHugeAllocation) {
  for_each_stride(corrupt_words_rejected_at_every_rank_count);
}

// --- rank-local delta checkpoints ----------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream copy;
  copy << in.rdbuf();
  return copy.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

core::CheckpointPolicy delta_policy(std::size_t every,
                                    const std::string& path) {
  core::CheckpointPolicy policy{every, path};
  policy.with_delta(true);
  return policy;
}

void remove_with_parts(const std::string& path) {
  std::remove(path.c_str());
  for (int w = 0; w < 4; ++w) {
    for (int e = 1; e < 6; ++e) {
      std::remove((path + ".r" + std::to_string(w) + ".e" +
                   std::to_string(e))
                      .c_str());
    }
  }
}

// The chunk width is the second input: 64 snapshots fold 4 level-1 grid
// columns per update, 16 snapshots one, so the delta restore replays the
// broken-arrow core solver and must still resume bitwise.
TEST(FleetCheckpoint, DeltaContainerKillAndResumeBitwise) {
  const Mat data = checkpoint_data();
  for (const std::size_t chunk : {std::size_t{64}, std::size_t{16}}) {
    for (const std::size_t stride : {std::size_t{0}, std::size_t{2}}) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + ", coarse stride " +
                   std::to_string(stride));
      AssessorConfig config;
      config.pipeline(checkpoint_pipeline_options())
          .sharded(core::contiguous_groups(data.rows(), 5))
          .sensors(data.rows())
          .hierarchy(stride);
      const auto reference = reference_run(data, config, chunk);
      const std::size_t chunks = 1 + (data.cols() - 256) / chunk;
      ASSERT_EQ(reference.size(), chunks);

      const std::string path = ::testing::TempDir() + "/delta_fleet.ckpt";
      remove_with_parts(path);
      AssessorConfig doomed = config;
      doomed.checkpoint(delta_policy(1, path));
      Assessor engine(doomed);
      MatChunkSource source(data, 256, chunk);
      const auto before = run_collect(engine, source, 2);
      ASSERT_EQ(before.size(), 2u);

      // The main file is the engine container; the model bytes live in the
      // writer's epoch-named part next to it.
      EXPECT_EQ(read_file(path).substr(0, 8), "IMRDFL4\n");
      EXPECT_TRUE(std::filesystem::exists(path + ".r0.e1"));

      // Resume with the journal armed: the continued run matches the
      // uninterrupted reference bitwise and keeps delta-checkpointing.
      AssessorResumeOptions resume;
      resume.checkpoint = delta_policy(1, path);
      core::RestoredAssessor restored =
          core::load_assessor_checkpoint_file(path, resume);
      EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
      EXPECT_EQ(restored.stream_position, 256u + chunk);
      MatChunkSource rest(data, 256, chunk);
      rest.seek(static_cast<std::size_t>(restored.stream_position));
      const auto after = run_collect(restored.assessor, rest);
      ASSERT_EQ(after.size(), chunks - 2);
      for (std::size_t i = 0; i < after.size(); ++i) {
        expect_snapshot_equal(after[i], reference[2 + i]);
      }

      // The resumed engine's base write took a FRESH epoch — the old main's
      // part was never overwritten in place.
      EXPECT_TRUE(std::filesystem::exists(path + ".r0.e2"));
      core::RestoredAssessor again =
          core::load_assessor_checkpoint_file(path);
      EXPECT_EQ(again.assessor.chunks_processed(), chunks);
      EXPECT_EQ(again.stream_position, data.cols());
      remove_with_parts(path);
    }
  }
}

void delta_save_appends_instead_of_rewriting_the_base(std::size_t stride) {
  const Mat data = checkpoint_data();
  const std::string path = ::testing::TempDir() + "/delta_append.ckpt";
  remove_with_parts(path);
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 5))
      .sensors(data.rows())
      .checkpoint(delta_policy(1, path))
      .hierarchy(stride);
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);

  run_collect(engine, source, 1);
  const auto base_part = std::filesystem::file_size(path + ".r0.e1");
  const auto base_main = std::filesystem::file_size(path);
  run_collect(engine, source, 1);
  const auto appended_part = std::filesystem::file_size(path + ".r0.e1");
  const auto appended_main = std::filesystem::file_size(path);

  // The second save appended the chunk's raw rows to the SAME part (no
  // epoch bump, no model re-serialization): the part grows by roughly the
  // chunk payload, and the manifest stays the same size. O(chunk), not
  // O(history).
  EXPECT_FALSE(std::filesystem::exists(path + ".r0.e2"));
  const std::uintmax_t chunk_bytes = data.rows() * 64 * sizeof(double);
  EXPECT_GT(appended_part, base_part);
  EXPECT_LT(appended_part - base_part, chunk_bytes + 256);
  EXPECT_EQ(appended_main, base_main);

  // A growth event forces the next save to compact into a fresh base.
  remove_with_parts(path);
}

TEST(FleetCheckpoint, DeltaSaveAppendsInsteadOfRewritingTheBase) {
  for_each_stride(delta_save_appends_instead_of_rewriting_the_base);
}

void delta_fuzz_rejects_truncation_corruption_and_missing_parts(
    std::size_t stride) {
  const Mat data = checkpoint_data();
  const std::string path = ::testing::TempDir() + "/delta_fuzz.ckpt";
  remove_with_parts(path);
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 5))
      .sensors(data.rows())
      .checkpoint(delta_policy(1, path))
      .hierarchy(stride);
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source);
  ASSERT_EQ(engine.chunks_processed(), 3u);

  const std::string main_bytes = read_file(path);
  const std::string part_name = path + ".r0.e1";
  const std::string part_bytes = read_file(part_name);
  ASSERT_GT(main_bytes.size(), 64u);
  ASSERT_GT(part_bytes.size(), 64u);

  // The stream-level API cannot reach the sidecar parts and says so.
  {
    std::stringstream in(main_bytes);
    EXPECT_THROW(core::load_assessor_checkpoint(in), ParseError);
  }

  // Every truncation prefix of the MAIN manifest is rejected.
  const std::size_t step = std::max<std::size_t>(1, main_bytes.size() / 41);
  for (std::size_t cut = 0; cut < main_bytes.size(); cut += step) {
    write_file(path, main_bytes.substr(0, cut));
    EXPECT_THROW(core::load_assessor_checkpoint_file(path), ParseError)
        << "main prefix of " << cut << " bytes";
  }
  write_file(path, main_bytes);

  // Corrupt words in the main manifest never crash or over-allocate.
  for (std::size_t offset = 8; offset + 8 <= main_bytes.size();
       offset += 8) {
    std::string corrupt = main_bytes;
    const std::uint64_t garbage = ~std::uint64_t{0};
    std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
    write_file(path, corrupt);
    try {
      core::load_assessor_checkpoint_file(path);
    } catch (const Error&) {
      // Expected for most offsets.
    }
  }
  write_file(path, main_bytes);

  // A truncated part (torn base write, lost tail) is rejected...
  write_file(part_name, part_bytes.substr(0, part_bytes.size() - 1));
  EXPECT_THROW(core::load_assessor_checkpoint_file(path), ParseError);
  // ...as is a flipped byte anywhere inside the recorded range...
  for (const std::size_t offset :
       {std::size_t{9}, part_bytes.size() / 2, part_bytes.size() - 2}) {
    std::string corrupt = part_bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x40);
    write_file(part_name, corrupt);
    EXPECT_THROW(core::load_assessor_checkpoint_file(path), ParseError)
        << "part byte " << offset;
  }
  // ...and a missing part.
  std::remove(part_name.c_str());
  EXPECT_THROW(core::load_assessor_checkpoint_file(path), ParseError);

  // A TORN APPEND — bytes past the manifest's recorded length — is the one
  // benign overhang: the loader reads exactly the recorded range.
  write_file(part_name, part_bytes + "torn append garbage");
  core::RestoredAssessor restored = core::load_assessor_checkpoint_file(path);
  EXPECT_EQ(restored.assessor.chunks_processed(), 3u);
  remove_with_parts(path);
}

TEST(FleetCheckpoint, DeltaFuzzRejectsTruncationCorruptionAndMissingParts) {
  for_each_stride(delta_fuzz_rejects_truncation_corruption_and_missing_parts);
}

TEST(DistributedFleetCheckpoint, DeltaPartsResumeAtAnyRankCount) {
  const Mat data = checkpoint_data();
  for (const std::size_t stride : {std::size_t{0}, std::size_t{2}}) {
    AssessorConfig config;
    config.pipeline(checkpoint_pipeline_options())
        .sharded(core::contiguous_groups(data.rows(), 5))
        .sensors(data.rows())
        .hierarchy(stride);
    const auto reference = reference_run(data, config);
    ASSERT_EQ(reference.size(), 3u);

    // Kill a 2-rank run after two chunks: each rank wrote ITS OWN part
    // (no gatherv of model bytes through rank 0).
    const std::string path = ::testing::TempDir() + "/delta_dist.ckpt";
    remove_with_parts(path);
    {
      dist::World world(2);
      world.run([&](dist::Communicator& comm) {
        AssessorConfig local = config;
        local.checkpoint(delta_policy(1, path));
        Assessor engine(local.distributed(comm));
        std::optional<MatChunkSource> source;
        if (comm.rank() == 0) source.emplace(data, 256, 64);
        CollectingSink sink;
        StopCondition two;
        two.max_chunks = 2;
        engine.run_until(comm.rank() == 0 ? &*source : nullptr, sink, two);
      });
    }
    EXPECT_TRUE(std::filesystem::exists(path + ".r0.e1"));
    EXPECT_TRUE(std::filesystem::exists(path + ".r1.e1"));

    // Resume single-process and at 3 ranks: every process replays the
    // journal from the two writers' parts and continues bitwise.
    {
      core::RestoredAssessor restored =
          core::load_assessor_checkpoint_file(path);
      MatChunkSource rest(data, 256, 64);
      rest.seek(static_cast<std::size_t>(restored.stream_position));
      const auto after = run_collect(restored.assessor, rest);
      ASSERT_EQ(after.size(), 1u);
      expect_snapshot_equal(after[0], reference[2]);
    }
    {
      dist::World world(3);
      world.run([&](dist::Communicator& comm) {
        core::RestoredAssessor restored =
            core::load_assessor_checkpoint_file(path, comm);
        EXPECT_EQ(restored.stream_position, 320u);
        std::optional<MatChunkSource> source;
        if (comm.rank() == 0) {
          source.emplace(data, 256, 64);
          source->seek(static_cast<std::size_t>(restored.stream_position));
        }
        CollectingSink sink;
        restored.assessor.run_until(comm.rank() == 0 ? &*source : nullptr,
                                    sink, StopCondition{});
        const auto after = sink.take();
        ASSERT_EQ(after.size(), 1u);
        expect_snapshot_equal(after[0], reference[2]);
      });
    }
    remove_with_parts(path);
  }
}

/// The names of the files a checkpoint at `path` consists of: the main
/// file and every part next to it, sorted.
std::vector<std::string> checkpoint_files(const std::string& path) {
  const std::filesystem::path main(path);
  const std::string prefix = main.filename().string();
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(main.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(DistributedFleetCheckpoint, DeltaResumeRetiresTheLoadedEpochsParts) {
  const Mat data = checkpoint_data();
  for (const std::size_t stride : imrdmd::testing::kStrides) {
    for (const int resumed_ranks : {2, 1}) {
      SCOPED_TRACE("stride " + std::to_string(stride) + ", 2 -> " +
                   std::to_string(resumed_ranks) + " ranks");
      const std::string path = ::testing::TempDir() + "/delta_retire.ckpt";
      remove_with_parts(path);
      AssessorConfig config;
      config.pipeline(checkpoint_pipeline_options())
          .sharded(core::contiguous_groups(data.rows(), 5))
          .sensors(data.rows())
          .hierarchy(stride)
          .checkpoint(delta_policy(1, path));
      // Kill a 2-rank run after two chunks: epoch 1, one part per rank.
      {
        dist::World world(2);
        world.run([&](dist::Communicator& comm) {
          AssessorConfig local = config;
          Assessor engine(local.distributed(comm));
          std::optional<MatChunkSource> source;
          if (comm.rank() == 0) source.emplace(data, 256, 64);
          CollectingSink sink;
          engine.run_until(comm.rank() == 0 ? &*source : nullptr, sink,
                           StopCondition{2, 0, 0.0});
        });
      }
      // Resume and save once more: the base rewrite takes epoch 2 and,
      // once its manifest is durable, removes every epoch-1 part.
      {
        dist::World world(resumed_ranks);
        world.run([&](dist::Communicator& comm) {
          AssessorResumeOptions resume;
          resume.checkpoint = delta_policy(1, path);
          core::RestoredAssessor restored =
              core::load_assessor_checkpoint_file(path, comm, resume);
          std::optional<MatChunkSource> source;
          if (comm.rank() == 0) {
            source.emplace(data, 256, 64);
            source->seek(static_cast<std::size_t>(restored.stream_position));
          }
          CollectingSink sink;
          restored.assessor.run_until(comm.rank() == 0 ? &*source : nullptr,
                                      sink, StopCondition{});
        });
      }
      std::vector<std::string> expected = {"delta_retire.ckpt",
                                           "delta_retire.ckpt.r0.e2"};
      if (resumed_ranks == 2) expected.push_back("delta_retire.ckpt.r1.e2");
      EXPECT_EQ(checkpoint_files(path), expected);
      core::RestoredAssessor resaved =
          core::load_assessor_checkpoint_file(path);
      EXPECT_EQ(resaved.assessor.chunks_processed(), 3u);
      remove_with_parts(path);
    }
  }
}

void fresh_engine_continues_the_delta_epoch_it_finds(std::size_t stride) {
  // An engine saving to a path it has neither written nor loaded takes the
  // epoch after the one the checkpoint already there names, and retires
  // that checkpoint's parts once its own main is durable.
  const Mat data = checkpoint_data();
  const std::string path = ::testing::TempDir() + "/delta_fresh.ckpt";
  const std::string crashed = ::testing::TempDir() + "/delta_crashed.ckpt";
  const std::string kept = ::testing::TempDir() + "/delta_kept_part";
  remove_with_parts(path);
  remove_with_parts(crashed);
  std::remove(kept.c_str());
  const auto run_fresh = [&](std::size_t initial, bool delta) {
    AssessorConfig config;
    config.pipeline(checkpoint_pipeline_options())
        .sharded(core::contiguous_groups(data.rows(), 5))
        .sensors(data.rows())
        .hierarchy(stride)
        .checkpoint(core::CheckpointPolicy{1, path}.with_delta(delta));
    Assessor engine(config);
    MatChunkSource source(data, initial, 64);
    run_collect(engine, source, 1);
  };

  run_fresh(256, true);
  const std::string first_main = read_file(path);
  std::filesystem::create_hard_link(path + ".r0.e1", kept);

  // A second fresh engine with a different base. Had it died between its
  // part write and its main rename, the first main would still be in
  // place, so the part that main names must not be rewritten under it.
  run_fresh(320, true);
  EXPECT_EQ(checkpoint_files(path).size(), 2u);  // the main and its part
  write_file(crashed, first_main);
  std::filesystem::create_hard_link(kept, crashed + ".r0.e1");
  EXPECT_NO_THROW(core::load_assessor_checkpoint_file(crashed));

  // The epoch a resumed run ended on retires under the next fresh engine.
  {
    AssessorResumeOptions resume;
    resume.checkpoint = delta_policy(1, path);
    core::RestoredAssessor restored =
        core::load_assessor_checkpoint_file(path, resume);
    MatChunkSource rest(data, 256, 64);
    rest.seek(static_cast<std::size_t>(restored.stream_position));
    run_collect(restored.assessor, rest, 1);
  }
  run_fresh(256, true);
  EXPECT_EQ(checkpoint_files(path).size(), 2u);

  // A full save over a delta checkpoint retires its parts too.
  run_fresh(256, false);
  EXPECT_EQ(checkpoint_files(path),
            std::vector<std::string>{"delta_fresh.ckpt"});
  EXPECT_EQ(core::load_assessor_checkpoint_file(path)
                .assessor.chunks_processed(),
            1u);
  remove_with_parts(path);
  remove_with_parts(crashed);
  std::remove(kept.c_str());
}

TEST(FleetCheckpoint, FreshEngineContinuesTheDeltaEpochItFinds) {
  for_each_stride(fresh_engine_continues_the_delta_epoch_it_finds);
}

TEST(FleetCheckpoint, GrownHierarchicalStackRoundTripsThroughDelta) {
  // A grown coarse grid (no longer the stride grid) persists through the
  // explicit grid + interp table in the delta main, and the resumed engine
  // continues bitwise.
  Rng rng(23);
  const Mat data = planted_multiscale(18, 384, 0.02, rng);
  PipelineOptions pipeline = checkpoint_pipeline_options();
  pipeline.imrdmd.keep_history = true;
  const std::string path = ::testing::TempDir() + "/delta_grown.ckpt";
  remove_with_parts(path);

  auto make_engine = [&](const std::string& checkpoint_path) {
    AssessorConfig config;
    config.pipeline(pipeline)
        .sharded(core::contiguous_groups(15, 5))
        .sensors(15)
        .hierarchy(2);
    if (!checkpoint_path.empty()) {
      config.checkpoint(delta_policy(1, checkpoint_path));
    }
    return Assessor(config);
  };

  Assessor reference = make_engine("");
  reference.process(data.block(0, 0, 15, 256));
  reference.add_sensors(4, data.block(15, 0, 3, 256));
  reference.process(data.block(0, 256, 18, 64));
  const AssessmentSnapshot expected =
      reference.process(data.block(0, 320, 18, 64));

  Assessor doomed = make_engine(path);
  doomed.process(data.block(0, 0, 15, 256));
  doomed.add_sensors(4, data.block(15, 0, 3, 256));
  doomed.process(data.block(0, 256, 18, 64));
  core::save_assessor_checkpoint_file(path, doomed);

  core::RestoredAssessor restored = core::load_assessor_checkpoint_file(path);
  EXPECT_EQ(restored.assessor.sensors(), 18u);
  EXPECT_EQ(restored.assessor.groups()[4].size(), 6u);
  EXPECT_TRUE(restored.assessor.hierarchical());
  expect_snapshot_equal(restored.assessor.process(data.block(0, 320, 18, 64)),
                        expected);
  remove_with_parts(path);
}

// --- atomic file-level writes -------------------------------------------

void file_writes_are_atomic_and_leave_no_temp(std::size_t stride) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(stride);
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 1);

  const std::string path = ::testing::TempDir() + "/atomic_fleet.ckpt";
  core::save_assessor_checkpoint_file(path, engine);
  std::size_t temps = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    if (entry.path().filename().string().rfind("atomic_fleet.ckpt.tmp", 0) ==
        0) {
      ++temps;
    }
  }
  EXPECT_EQ(temps, 0u) << "temp file left over";
  core::RestoredAssessor restored =
      core::load_assessor_checkpoint_file(path);
  EXPECT_EQ(restored.assessor.chunks_processed(), 1u);

  // A failed save must leave the previous complete checkpoint untouched:
  // saving to a directory that refuses the temp file throws without ever
  // touching `path`.
  std::string before;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream copy;
    copy << in.rdbuf();
    before = copy.str();
  }
  EXPECT_THROW(
      core::save_assessor_checkpoint_file(
          ::testing::TempDir() + "/no-such-dir/fleet.ckpt", engine),
      Error);
  std::ifstream in(path, std::ios::binary);
  std::stringstream copy;
  copy << in.rdbuf();
  EXPECT_EQ(copy.str(), before);
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, FileWritesAreAtomicAndLeaveNoTemp) {
  for_each_stride(file_writes_are_atomic_and_leave_no_temp);
}

void failed_periodic_write_parks_prefetched_chunk(std::size_t stride) {
  // A checkpoint write that fails mid-run must follow the same no-data-loss
  // discipline as a processing failure: the chunk the async prefetch
  // already consumed is parked, and a retry run() continues with it.
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .checkpoint({1, ::testing::TempDir() + "/no-such-dir/fleet.ckpt"})
      .hierarchy(stride);
  config.ingest_options.prefetch_depth = 1;
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  // Each attempt processes exactly one chunk, DELIVERS its snapshot (the
  // sink sees everything before the checkpoint write), fails on the write,
  // and parks the chunk the prefetch already pulled; retries must walk the
  // stream without skipping or re-delivering anything.
  CollectingSink sink;
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(engine.run(source, sink), Error);
    ASSERT_EQ(sink.snapshots().size(), static_cast<std::size_t>(attempt + 1));
  }
  EXPECT_EQ(engine.snapshots_processed(), data.cols());
  const auto delivered = sink.take();
  ASSERT_EQ(delivered.size(), 3u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].chunk_index, i);
  }
  EXPECT_EQ(delivered[2].total_snapshots, data.cols());
  // The stream is fully consumed: a final run() delivers nothing more.
  const auto rest = run_collect(engine, source);
  EXPECT_TRUE(rest.empty());
}

TEST(FleetCheckpoint, FailedPeriodicWriteParksPrefetchedChunk) {
  for_each_stride(failed_periodic_write_parks_prefetched_chunk);
}

void max_chunks_with_parked_snapshots_does_not_drop_a_chunk(
    std::size_t stride) {
  // Regression: the run loop used to pull a chunk from the source (or the
  // carry slot) BEFORE checking whether the parked snapshots already
  // satisfied max_chunks — destroying the pulled chunk unprocessed and
  // silently skipping its telemetry on the following call.
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .checkpoint({1, ::testing::TempDir() + "/no-such-dir/fleet.ckpt"})
      .hierarchy(stride);
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);

  // Every checkpoint write fails AFTER the chunk's snapshot was delivered
  // to the sink. All three chunks must come through, in order, with no gap
  // and no re-delivery — a retry must never pull-and-destroy a chunk that
  // the budget check would have refused anyway.
  CollectingSink sink;
  for (int attempt = 0; attempt < 8 && sink.snapshots().size() < 3;
       ++attempt) {
    try {
      StopCondition one;
      one.max_chunks = 1;
      engine.run_until(source, sink, one);
    } catch (const Error&) {
      // Expected: the checkpoint directory does not exist.
    }
  }
  const auto delivered = sink.take();
  ASSERT_EQ(delivered.size(), 3u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].chunk_index, i);
  }
  // Stream continuity — a dropped chunk would leave the totals short.
  EXPECT_EQ(delivered[0].total_snapshots, 256u);
  EXPECT_EQ(delivered[1].total_snapshots, 320u);
  EXPECT_EQ(delivered[2].total_snapshots, 384u);
  EXPECT_EQ(engine.snapshots_processed(), data.cols());
}

TEST(FleetCheckpoint, MaxChunksWithParkedSnapshotsDoesNotDropAChunk) {
  for_each_stride(max_chunks_with_parked_snapshots_does_not_drop_a_chunk);
}

TEST(ChunkSourceSeek, DefaultThrowsAndMatrixSourceSeeks) {
  class NoSeekSource final : public core::ChunkSource {
   public:
    std::optional<Mat> next_chunk() override { return std::nullopt; }
    std::size_t sensors() const override { return 1; }
  };
  NoSeekSource no_seek;
  EXPECT_EQ(no_seek.position(), core::ChunkSource::kUnknownPosition);
  EXPECT_THROW(no_seek.seek(0), InvalidArgument);

  const Mat data = checkpoint_data();
  MatChunkSource source(data, 256, 64);
  source.seek(320);
  EXPECT_EQ(source.position(), 320u);
  const auto chunk = source.next_chunk();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->cols(), 64u);
  EXPECT_EQ((*chunk)(0, 0), data(0, 320));
  EXPECT_THROW(source.seek(data.cols() + 1), InvalidArgument);
}

}  // namespace
}  // namespace imrdmd
