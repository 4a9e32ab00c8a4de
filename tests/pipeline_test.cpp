// Integration tests: telemetry -> monolithic streaming engine -> z-scores
// -> multifidelity alignment -> rack rendering. Exercises the whole paper
// workflow end to end on a seeded scenario through the unified Assessor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/align.hpp"
#include "core/assessor.hpp"
#include "rack/render.hpp"
#include "telemetry/env_stream.hpp"
#include "telemetry/scenario.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::Assessor;
using core::AssessorConfig;
using core::AssessmentSnapshot;
using core::CollectingSink;
using core::PipelineOptions;
using core::ThermalState;
using imrdmd::testing::for_each_stride;
using telemetry::EnvLogStream;
using telemetry::EnvStreamOptions;
using telemetry::Scenario;
using telemetry::ScenarioOptions;

PipelineOptions scenario_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 15.0;
  options.baseline = {44.0, 58.0};
  options.band.max_frequency_hz = 1.0;  // everything below 1 Hz
  return options;
}

std::vector<AssessmentSnapshot> run_collect(Assessor& engine,
                                            core::ChunkSource& stream) {
  CollectingSink sink;
  engine.run(stream, sink);
  return sink.take();
}

void detects_injected_hot_nodes(std::size_t stride) {
  ScenarioOptions scenario_options;
  scenario_options.machine_scale = 0.05;  // ~220 nodes
  scenario_options.horizon = 768;
  Scenario scenario = telemetry::make_case_study_1(scenario_options);

  EnvStreamOptions stream_options;
  stream_options.initial_snapshots = 512;
  stream_options.chunk_snapshots = 128;
  stream_options.total_snapshots = 768;
  stream_options.sensor_subset = scenario.analyzed_nodes;
  EnvLogStream stream(*scenario.sensors, stream_options);

  Assessor engine(
      AssessorConfig{}.pipeline(scenario_pipeline_options()).hierarchy(stride));
  const std::vector<AssessmentSnapshot> snapshots =
      run_collect(engine, stream);
  ASSERT_EQ(snapshots.size(), 3u);  // 512 + 128 + 128

  // In the final snapshot, injected hot nodes must carry the largest
  // z-scores among analyzed nodes.
  const AssessmentSnapshot& last = snapshots.back();
  ASSERT_EQ(last.zscores.zscores.size(), scenario.analyzed_nodes.size());
  // Map machine node id -> analyzed row.
  auto row_of = [&](std::size_t node) -> std::optional<std::size_t> {
    const auto it = std::find(scenario.analyzed_nodes.begin(),
                              scenario.analyzed_nodes.end(), node);
    if (it == scenario.analyzed_nodes.end()) return std::nullopt;
    return static_cast<std::size_t>(it - scenario.analyzed_nodes.begin());
  };
  double min_hot_z = 1e300;
  for (std::size_t node : scenario.hot_nodes) {
    const auto row = row_of(node);
    ASSERT_TRUE(row.has_value());
    min_hot_z = std::min(min_hot_z, last.zscores.zscores[*row]);
  }
  // Hot nodes exceed the overwhelming majority of the population.
  std::size_t above = 0;
  for (double z : last.zscores.zscores) {
    if (z >= min_hot_z) ++above;
  }
  EXPECT_LE(above, scenario.hot_nodes.size() +
                       scenario.analyzed_nodes.size() / 10);
  EXPECT_GT(min_hot_z, 1.0);
}

TEST(PipelineIntegration, DetectsInjectedHotNodes) {
  for_each_stride(detects_injected_hot_nodes);
}

void memory_error_nodes_are_not_thermally_flagged(std::size_t stride) {
  // The case-study-1 narrative: correctable-memory nodes sit near baseline.
  ScenarioOptions scenario_options;
  scenario_options.machine_scale = 0.05;
  scenario_options.horizon = 640;
  Scenario scenario = telemetry::make_case_study_1(scenario_options);

  EnvStreamOptions stream_options;
  stream_options.initial_snapshots = 512;
  stream_options.chunk_snapshots = 128;
  stream_options.total_snapshots = 640;
  stream_options.sensor_subset = scenario.analyzed_nodes;
  EnvLogStream stream(*scenario.sensors, stream_options);

  Assessor engine(
      AssessorConfig{}.pipeline(scenario_pipeline_options()).hierarchy(stride));
  const auto snapshots = run_collect(engine, stream);
  const auto& last = snapshots.back();

  const auto hot_rows = last.zscores.sensors_in_state(ThermalState::Hot);
  // Translate analyzed rows back to machine node ids.
  std::vector<std::size_t> hot_nodes;
  for (std::size_t row : hot_rows) {
    hot_nodes.push_back(scenario.analyzed_nodes[row]);
  }
  for (std::size_t node : scenario.memory_error_nodes) {
    EXPECT_EQ(std::count(hot_nodes.begin(), hot_nodes.end(), node), 0)
        << "memory-error node " << node << " wrongly flagged hot";
  }
}

TEST(PipelineIntegration, MemoryErrorNodesAreNotThermallyFlagged) {
  for_each_stride(memory_error_nodes_are_not_thermally_flagged);
}

void alignment_stats_separate_fault_classes(std::size_t stride) {
  ScenarioOptions scenario_options;
  scenario_options.machine_scale = 0.05;
  scenario_options.horizon = 640;
  Scenario scenario = telemetry::make_case_study_1(scenario_options);

  EnvStreamOptions stream_options;
  stream_options.initial_snapshots = 640;
  stream_options.chunk_snapshots = 640;
  stream_options.total_snapshots = 640;
  stream_options.sensor_subset = scenario.analyzed_nodes;
  EnvLogStream stream(*scenario.sensors, stream_options);

  Assessor engine(
      AssessorConfig{}.pipeline(scenario_pipeline_options()).hierarchy(stride));
  const auto snapshots = run_collect(engine, stream);
  const auto& last = snapshots.back();

  // Thermal flags vs thermal ground truth: strong association.
  std::vector<std::size_t> flagged_rows;
  for (std::size_t row :
       last.zscores.sensors_in_state(ThermalState::Hot)) {
    flagged_rows.push_back(row);
  }
  for (std::size_t row :
       last.zscores.sensors_in_state(ThermalState::Elevated)) {
    flagged_rows.push_back(row);
  }
  std::vector<std::size_t> hot_truth_rows;
  for (std::size_t i = 0; i < scenario.analyzed_nodes.size(); ++i) {
    if (std::count(scenario.hot_nodes.begin(), scenario.hot_nodes.end(),
                   scenario.analyzed_nodes[i])) {
      hot_truth_rows.push_back(i);
    }
  }
  const core::AlignmentStats thermal = core::align_events(
      std::span<const std::size_t>(flagged_rows.data(), flagged_rows.size()),
      std::span<const std::size_t>(hot_truth_rows.data(),
                                   hot_truth_rows.size()),
      scenario.analyzed_nodes.size());
  EXPECT_GT(thermal.recall, 0.7);
  EXPECT_GT(thermal.phi, 0.2);

  // Thermal flags vs memory-error nodes: near-zero association.
  std::vector<std::size_t> memory_rows;
  for (std::size_t i = 0; i < scenario.analyzed_nodes.size(); ++i) {
    if (std::count(scenario.memory_error_nodes.begin(),
                   scenario.memory_error_nodes.end(),
                   scenario.analyzed_nodes[i])) {
      memory_rows.push_back(i);
    }
  }
  const core::AlignmentStats memory = core::align_events(
      std::span<const std::size_t>(flagged_rows.data(), flagged_rows.size()),
      std::span<const std::size_t>(memory_rows.data(), memory_rows.size()),
      scenario.analyzed_nodes.size());
  EXPECT_LT(memory.phi, 0.3);
  // The case-study-1 contrast: thermal flags track thermal ground truth far
  // more strongly than they track the memory-error population.
  EXPECT_GT(thermal.phi, memory.phi + 0.15);
}

TEST(PipelineIntegration, AlignmentStatsSeparateFaultClasses) {
  for_each_stride(alignment_stats_separate_fault_classes);
}

void zscores_render_to_rack_view(std::size_t stride) {
  ScenarioOptions scenario_options;
  scenario_options.machine_scale = 0.05;
  scenario_options.horizon = 512;
  Scenario scenario = telemetry::make_case_study_1(scenario_options);

  EnvStreamOptions stream_options;
  stream_options.initial_snapshots = 512;
  stream_options.total_snapshots = 512;
  EnvLogStream stream(*scenario.sensors, stream_options);

  Assessor engine(
      AssessorConfig{}.pipeline(scenario_pipeline_options()).hierarchy(stride));
  const auto snapshots = run_collect(engine, stream);

  // Render whole-machine z-scores onto the machine's layout.
  const rack::LayoutSpec layout =
      rack::parse_layout(scenario.machine.layout_string);
  ASSERT_GE(layout.total_nodes(), scenario.machine.node_count);
  rack::RackViewData data;
  data.values = snapshots.back().zscores.zscores;
  data.populated = scenario.machine.node_count;
  data.outlined = scenario.memory_error_nodes;
  const std::string svg = rack::render_svg(layout, data);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  const std::string ansi = rack::render_ansi(layout, data);
  EXPECT_FALSE(ansi.empty());
}

TEST(PipelineIntegration, ZscoresRenderToRackView) {
  for_each_stride(zscores_render_to_rack_view);
}

void drift_reports_accumulate_sanely(std::size_t stride) {
  ScenarioOptions scenario_options;
  scenario_options.machine_scale = 0.03;
  scenario_options.horizon = 1024;
  Scenario scenario = telemetry::make_case_study_1(scenario_options);

  EnvStreamOptions stream_options;
  stream_options.initial_snapshots = 512;
  stream_options.chunk_snapshots = 128;
  stream_options.total_snapshots = 1024;
  stream_options.sensor_subset = scenario.analyzed_nodes;
  EnvLogStream stream(*scenario.sensors, stream_options);

  Assessor engine(
      AssessorConfig{}.pipeline(scenario_pipeline_options()).hierarchy(stride));
  const auto snapshots = run_collect(engine, stream);
  for (std::size_t i = 1; i < snapshots.size(); ++i) {
    ASSERT_EQ(snapshots[i].reports.size(), 1u);
    EXPECT_TRUE(std::isfinite(snapshots[i].reports[0].drift_estimate));
    EXPECT_GT(snapshots[i].total_snapshots,
              snapshots[i - 1].total_snapshots);
    EXPECT_GT(snapshots[i].fit_seconds, 0.0);
  }
}

TEST(PipelineIntegration, DriftReportsAccumulateSanely) {
  for_each_stride(drift_reports_accumulate_sanely);
}

void mid_stream_sensor_count_change_rejected(std::size_t stride) {
  // Typed rejection at the API boundary, not a shape error deep in the fit.
  Assessor engine(
      AssessorConfig{}.pipeline(scenario_pipeline_options()).hierarchy(stride));
  Rng rng(3);
  linalg::Mat first(8, 512);
  for (std::size_t i = 0; i < first.size(); ++i) {
    first.data()[i] = 50.0 + rng.normal();
  }
  engine.process(first);
  linalg::Mat bad(9, 64);
  EXPECT_THROW(engine.process(bad), InvalidArgument);
  linalg::Mat fewer(7, 64);
  EXPECT_THROW(engine.process(fewer), InvalidArgument);
}

TEST(PipelineIntegration, MidStreamSensorCountChangeRejected) {
  for_each_stride(mid_stream_sensor_count_change_rejected);
}

void zero_column_chunk_rejected(std::size_t stride) {
  Assessor engine(
      AssessorConfig{}.pipeline(scenario_pipeline_options()).hierarchy(stride));
  EXPECT_THROW(engine.process(linalg::Mat(8, 0)), InvalidArgument);
  // Also rejected after a successful initial fit.
  Rng rng(4);
  linalg::Mat first(8, 512);
  for (std::size_t i = 0; i < first.size(); ++i) {
    first.data()[i] = 50.0 + rng.normal();
  }
  engine.process(first);
  EXPECT_THROW(engine.process(linalg::Mat(8, 0)), InvalidArgument);
}

TEST(PipelineIntegration, ZeroColumnChunkRejected) {
  for_each_stride(zero_column_chunk_rejected);
}

}  // namespace
}  // namespace imrdmd
