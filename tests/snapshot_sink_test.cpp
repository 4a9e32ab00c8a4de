// SnapshotSink tests: the delivery-contract conformance harness
// (snapshot_sink_conformance.hpp) instantiated for the monolithic and
// sharded engine topologies (plus a distributed spot check), and behavior
// tests of the shipped sink implementations (CollectingSink, CallbackSink,
// LatestOnlySink, JsonlSink).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/sinks.hpp"
#include "dist/communicator.hpp"
#include "snapshot_sink_conformance.hpp"
#include "test_util.hpp"

namespace imrdmd::testing {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::CallbackSink;
using core::CollectingSink;
using core::JsonlSink;
using core::LatestOnlySink;
using core::Mat;
using core::RunSummary;
using core::StopReason;

// --- conformance harness instantiations ---------------------------------

// Each topology runs flat and, in its Hierarchical twin, at coarse
// stride 2.
template <std::size_t Stride>
struct Monolithic {
  static Assessor make(AssessorConfig base) {
    base.monolithic().hierarchy(Stride);
    base.ingest_options.prefetch_depth = 1;
    return Assessor(std::move(base));
  }
};

template <std::size_t Stride>
struct Sharded {
  static Assessor make(AssessorConfig base) {
    base.sharded(core::contiguous_groups(9, 3), 3).sensors(9).hierarchy(Stride);
    base.ingest_options.prefetch_depth = 2;
    return Assessor(std::move(base));
  }
};

template <std::size_t Stride>
struct SyncSharded {
  static Assessor make(AssessorConfig base) {
    base.sharded(core::contiguous_groups(9, 3), 2).sensors(9).hierarchy(Stride);
    base.ingest_options.prefetch_depth = 0;
    return Assessor(std::move(base));
  }
};

struct MonolithicTopology : Monolithic<0> {};
struct ShardedTopology : Sharded<0> {};
struct SyncShardedTopology : SyncSharded<0> {};
struct HierarchicalMonolithicTopology : Monolithic<2> {};
struct HierarchicalShardedTopology : Sharded<2> {};
struct HierarchicalSyncShardedTopology : SyncSharded<2> {};

using SinkConformanceTopologies =
    ::testing::Types<MonolithicTopology, ShardedTopology, SyncShardedTopology,
                     HierarchicalMonolithicTopology,
                     HierarchicalShardedTopology,
                     HierarchicalSyncShardedTopology>;
INSTANTIATE_TYPED_TEST_SUITE_P(Engine, SnapshotSinkConformance,
                               SinkConformanceTopologies);

void ordered_exactly_once_on_every_rank(std::size_t stride) {
  // The distributed topology delivers the identical stream to every
  // rank's sink, in order, exactly once.
  Rng rng(31);
  const Mat data = planted_multiscale(9, 256, 0.02, rng);
  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 3;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};

  dist::World world(3);
  world.run([&](dist::Communicator& comm) {
    AssessorConfig config;
    config.pipeline(options)
        .sharded(core::contiguous_groups(data.rows(), 3), 1)
        .sensors(data.rows())
        .distributed(comm)
        .hierarchy(stride);
    Assessor assessor(config);
    std::optional<core::MatrixChunkSource> source;
    if (comm.rank() == 0) source.emplace(data, 128, 64);
    RecordingSink sink;
    const RunSummary summary = assessor.run_until(
        comm.rank() == 0 ? &*source : nullptr, sink, core::StopCondition{});
    EXPECT_EQ(summary.reason, StopReason::EndOfStream);
    const auto delivered = sink.snapshot_indices();
    ASSERT_EQ(delivered.size(), 3u);
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      EXPECT_EQ(delivered[i], i);
    }
    EXPECT_EQ(sink.events.back().kind, RecordingSink::Event::kEnd);
  });
}

TEST(DistributedSnapshotSinkConformance, OrderedExactlyOnceOnEveryRank) {
  for_each_stride(ordered_exactly_once_on_every_rank);
}

// --- sink implementations ------------------------------------------------

core::PipelineOptions sink_pipeline_options() {
  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 3;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};
  return options;
}

Mat sink_data() {
  Rng rng(37);
  return planted_multiscale(9, 256, 0.02, rng);
}

Assessor make_monolithic(std::size_t stride) {
  AssessorConfig config;
  config.pipeline(sink_pipeline_options()).monolithic().hierarchy(stride);
  return Assessor(std::move(config));
}

void collecting_sink_binds_an_external_vector(std::size_t stride) {
  const Mat data = sink_data();
  std::vector<AssessmentSnapshot> out;
  {
    Assessor assessor = make_monolithic(stride);
    core::MatrixChunkSource source(data, 128, 64);
    CollectingSink sink(&out);
    assessor.run(source, sink);
    EXPECT_EQ(sink.snapshots().size(), 3u);
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.back().total_snapshots, data.cols());

  // And owns its storage when not bound.
  Assessor assessor = make_monolithic(stride);
  core::MatrixChunkSource source(data, 128, 64);
  CollectingSink owned;
  assessor.run(source, owned);
  EXPECT_EQ(owned.take().size(), 3u);
  EXPECT_TRUE(owned.snapshots().empty());
}

TEST(Sinks, CollectingSinkBindsAnExternalVector) {
  for_each_stride(collecting_sink_binds_an_external_vector);
}

void callback_sink_forwards_and_can_stop_the_run(std::size_t stride) {
  const Mat data = sink_data();
  Assessor assessor = make_monolithic(stride);
  core::MatrixChunkSource source(data, 128, 64);
  std::size_t seen = 0;
  bool ended = false;
  CallbackSink sink(
      [&](const AssessmentSnapshot&) {
        ++seen;
        return seen < 2;  // stop after the second snapshot
      },
      nullptr, [&](const RunSummary& summary) {
        ended = true;
        EXPECT_EQ(summary.reason, StopReason::SinkRequest);
      });
  const RunSummary summary = assessor.run(source, sink);
  EXPECT_EQ(summary.reason, StopReason::SinkRequest);
  EXPECT_EQ(seen, 2u);
  EXPECT_TRUE(ended);
}

TEST(Sinks, CallbackSinkForwardsAndCanStopTheRun) {
  for_each_stride(callback_sink_forwards_and_can_stop_the_run);
}

void latest_only_sink_keeps_only_the_most_recent_snapshot(std::size_t stride) {
  const Mat data = sink_data();
  Assessor assessor = make_monolithic(stride);
  core::MatrixChunkSource source(data, 128, 64);
  LatestOnlySink sink;
  assessor.run(source, sink);
  EXPECT_EQ(sink.delivered(), 3u);
  ASSERT_TRUE(sink.latest().has_value());
  EXPECT_EQ(sink.latest()->chunk_index, 2u);
  EXPECT_EQ(sink.latest()->total_snapshots, data.cols());
}

TEST(Sinks, LatestOnlySinkKeepsOnlyTheMostRecentSnapshot) {
  for_each_stride(latest_only_sink_keeps_only_the_most_recent_snapshot);
}

void jsonl_sink_writes_one_record_per_event(std::size_t stride) {
  const Mat data = sink_data();
  Assessor assessor = make_monolithic(stride);
  core::MatrixChunkSource source(data, 128, 64);
  std::ostringstream out;
  JsonlSink sink(out);
  assessor.run(source, sink);
  // 3 snapshots + 1 end record, one JSON object per line.
  EXPECT_EQ(sink.lines_written(), 4u);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t snapshot_lines = 0;
  std::size_t end_lines = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"event\":\"snapshot\"") != std::string::npos) {
      ++snapshot_lines;
      EXPECT_NE(line.find("\"census\""), std::string::npos);
      EXPECT_NE(line.find("\"total_snapshots\""), std::string::npos);
    }
    if (line.find("\"event\":\"end\"") != std::string::npos) {
      ++end_lines;
      EXPECT_NE(line.find("\"reason\":\"end_of_stream\""),
                std::string::npos);
    }
  }
  EXPECT_EQ(snapshot_lines, 3u);
  EXPECT_EQ(end_lines, 1u);
}

TEST(Sinks, JsonlSinkWritesOneRecordPerEvent) {
  for_each_stride(jsonl_sink_writes_one_record_per_event);
}

void jsonl_sink_records_checkpoints_and_optional_zscores(std::size_t stride) {
  const Mat data = sink_data();
  const std::string ckpt = ::testing::TempDir() + "/jsonl_sink.ckpt";
  AssessorConfig config;
  config.pipeline(sink_pipeline_options())
      .monolithic()
      .checkpoint({1, ckpt})
      .hierarchy(stride);
  Assessor assessor(config);
  core::MatrixChunkSource source(data, 128, 64);
  std::ostringstream out;
  JsonlSink::Options jsonl_options;
  jsonl_options.zscores = true;
  JsonlSink sink(out, jsonl_options);
  assessor.run(source, sink);
  const std::string text = out.str();
  // One checkpoint record per chunk, and the z-score vectors embedded.
  std::size_t checkpoint_lines = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"event\":\"checkpoint\"") != std::string::npos) {
      ++checkpoint_lines;
      EXPECT_NE(line.find(ckpt), std::string::npos);
    }
    if (line.find("\"event\":\"snapshot\"") != std::string::npos) {
      EXPECT_NE(line.find("\"zscores\":["), std::string::npos);
    }
  }
  EXPECT_EQ(checkpoint_lines, 3u);
  std::remove(ckpt.c_str());
}

TEST(Sinks, JsonlSinkRecordsCheckpointsAndOptionalZscores) {
  for_each_stride(jsonl_sink_records_checkpoints_and_optional_zscores);
}

void jsonl_sink_file_variant_writes_and_fails_loudly(std::size_t stride) {
  const Mat data = sink_data();
  const std::string path = ::testing::TempDir() + "/snapshots.jsonl";
  {
    Assessor assessor = make_monolithic(stride);
    core::MatrixChunkSource source(data, 128, 64);
    JsonlSink sink(path);
    assessor.run(source, sink);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) ++count;
  EXPECT_EQ(count, 4u);
  std::remove(path.c_str());

  // An unopenable destination is a typed error at construction, naming it.
  EXPECT_THROW(JsonlSink(::testing::TempDir() + "/no-such-dir/x.jsonl"),
               Error);
}

TEST(Sinks, JsonlSinkFileVariantWritesAndFailsLoudly) {
  for_each_stride(jsonl_sink_file_variant_writes_and_fails_loudly);
}

void jsonl_sink_append_mode_preserves_prior_records(std::size_t stride) {
  const Mat data = sink_data();
  const std::string path = ::testing::TempDir() + "/snapshots_append.jsonl";
  const auto line_count = [&path] {
    std::ifstream in(path);
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) ++count;
    return count;
  };
  {
    Assessor assessor = make_monolithic(stride);
    core::MatrixChunkSource source(data, 128, 64);
    JsonlSink sink(path);
    assessor.run(source, sink);
  }
  ASSERT_EQ(line_count(), 4u);
  // A restarted run with append keeps the prior history...
  {
    Assessor assessor = make_monolithic(stride);
    core::MatrixChunkSource source(data, 128, 64);
    JsonlSink::Options options;
    options.append = true;
    JsonlSink sink(path, options);
    assessor.run(source, sink);
  }
  EXPECT_EQ(line_count(), 8u);
  // ...while the default stays an explicit truncate-on-open.
  {
    Assessor assessor = make_monolithic(stride);
    core::MatrixChunkSource source(data, 128, 64);
    JsonlSink sink(path);
    assessor.run(source, sink);
  }
  EXPECT_EQ(line_count(), 4u);
  std::remove(path.c_str());
}

TEST(Sinks, JsonlSinkAppendModePreservesPriorRecords) {
  for_each_stride(jsonl_sink_append_mode_preserves_prior_records);
}

}  // namespace
}  // namespace imrdmd::testing
