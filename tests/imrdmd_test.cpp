// Tests for the incremental mrDMD (I-mrDMD), the paper's contribution.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/imrdmd.hpp"
#include "core/mrdmd.hpp"
#include "linalg/blas.hpp"
#include "test_util.hpp"

namespace imrdmd::core {
namespace {

using imrdmd::testing::expect_magnitudes_match_fresh;
using imrdmd::testing::planted_multiscale;

ImrdmdOptions default_options(std::size_t levels = 4) {
  ImrdmdOptions options;
  options.mrdmd.max_levels = levels;
  options.mrdmd.max_cycles = 2;
  options.mrdmd.use_svht = true;
  options.mrdmd.dt = 1.0;
  return options;
}

TEST(Imrdmd, InitialFitMatchesBatchStructure) {
  Rng rng(1);
  const Mat data = planted_multiscale(12, 512, 0.01, rng);
  IncrementalMrdmd inc(default_options(4));
  inc.initial_fit(data);
  MrdmdTree batch(default_options(4).mrdmd);
  batch.fit(data);
  // Same node structure (level/bin layout) and comparable reconstruction.
  EXPECT_EQ(inc.nodes().size(), batch.nodes().size());
  const double inc_err = linalg::frobenius_diff(inc.reconstruct(), data);
  const double batch_err = linalg::frobenius_diff(batch.reconstruct(), data);
  EXPECT_LT(inc_err, batch_err * 1.1 + 1e-9);
}

TEST(Imrdmd, PartialFitExtendsSpan) {
  Rng rng(2);
  const Mat data = planted_multiscale(10, 768, 0.01, rng);
  IncrementalMrdmd inc(default_options(4));
  inc.initial_fit(data.block(0, 0, 10, 512));
  const PartialFitReport report =
      inc.partial_fit(data.block(0, 512, 10, 256));
  EXPECT_EQ(report.new_snapshots, 256u);
  EXPECT_EQ(report.total_snapshots, 768u);
  EXPECT_EQ(inc.time_steps(), 768u);
  EXPECT_EQ(inc.root().t_end, 768u);
  EXPECT_EQ(inc.root().t_begin, 0u);
  EXPECT_EQ(inc.root().level, 1u);
}

TEST(Imrdmd, PartialFitShiftsOldLevels) {
  Rng rng(3);
  const Mat data = planted_multiscale(8, 768, 0.01, rng);
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(data.block(0, 0, 8, 512));
  std::set<std::size_t> before;
  for (const auto& node : inc.nodes()) before.insert(node.level);
  EXPECT_EQ(before, (std::set<std::size_t>{1, 2, 3}));

  inc.partial_fit(data.block(0, 512, 8, 256));
  // Old levels 2..3 shifted to 3..4; the root stays level 1; the new span
  // gets fresh nodes at levels >= 2.
  std::size_t old_span_max_level = 0;
  bool has_new_span_nodes = false;
  for (const auto& node : inc.nodes()) {
    if (node.t_end <= 512 && node.level > 1) {
      old_span_max_level = std::max(old_span_max_level, node.level);
      EXPECT_GE(node.level, 3u);  // was >= 2 before the shift
    }
    if (node.t_begin >= 512) {
      has_new_span_nodes = true;
      EXPECT_GE(node.level, 2u);
    }
  }
  EXPECT_EQ(old_span_max_level, 4u);
  EXPECT_TRUE(has_new_span_nodes);
}

TEST(Imrdmd, GridColumnsFollowFixedStride) {
  Rng rng(4);
  const Mat data = planted_multiscale(6, 1024, 0.01, rng);
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(data.block(0, 0, 6, 512));
  const std::size_t stride = inc.level1_stride();
  EXPECT_EQ(stride, 512u / 16u);  // 8 * max_cycles = 16 target snapshots
  const PartialFitReport report = inc.partial_fit(data.block(0, 512, 6, 512));
  // 512 new snapshots at stride 32 = 16 new grid columns.
  EXPECT_EQ(report.new_grid_columns, 512u / stride);
}

TEST(Imrdmd, IncrementalCloseToBatchOnFullSpan) {
  // Q2: the incremental result differs from a full recompute by a small,
  // bounded amount.
  Rng rng(5);
  const Mat data = planted_multiscale(12, 1024, 0.02, rng);
  IncrementalMrdmd inc(default_options(4));
  inc.initial_fit(data.block(0, 0, 12, 512));
  inc.partial_fit(data.block(0, 512, 12, 256));
  inc.partial_fit(data.block(0, 768, 12, 256));

  MrdmdTree batch(default_options(4).mrdmd);
  batch.fit(data);

  const double norm = linalg::frobenius_norm(data);
  const double inc_err = linalg::frobenius_diff(inc.reconstruct(), data);
  const double batch_err = linalg::frobenius_diff(batch.reconstruct(), data);
  // Incremental accuracy is within a modest factor of batch accuracy.
  EXPECT_LT(inc_err, batch_err + 0.25 * norm);
}

TEST(Imrdmd, DriftReportedAndSmallForStationaryData) {
  Rng rng(6);
  // Stationary dynamics: the level-1 slow field barely changes.
  const Mat data = planted_multiscale(10, 1024, 0.0, rng);
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(data.block(0, 0, 10, 512));
  const PartialFitReport report = inc.partial_fit(data.block(0, 512, 10, 256));
  EXPECT_GE(report.drift_grid, 0.0);
  EXPECT_GE(report.drift_estimate, report.drift_grid);
  // Stationary signal: the slow-field drift stays below the data norm (the
  // window extension legitimately re-shapes the slowest modes somewhat).
  EXPECT_LT(report.drift_estimate, linalg::frobenius_norm(data));
}

TEST(Imrdmd, DriftDetectsRegimeChange) {
  Rng rng(7);
  const std::size_t p = 10;
  Mat calm(p, 512);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t t = 0; t < 512; ++t) {
      calm(r, t) = std::sin(2.0 * M_PI * t / 512.0 + 0.1 * r);
    }
  }
  Mat spike(p, 256, 25.0);  // large level shift in the stream
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(calm);
  const PartialFitReport quiet = inc.partial_fit(calm.block(0, 0, p, 256));
  const PartialFitReport loud = inc.partial_fit(spike);
  EXPECT_GT(loud.drift_estimate, quiet.drift_estimate * 2.0);
}

TEST(Imrdmd, RecomputeOnDriftRefitsStaleLevels) {
  Rng rng(8);
  const Mat data = planted_multiscale(8, 1024, 0.02, rng);
  ImrdmdOptions options = default_options(3);
  options.drift_threshold = 0.0;  // always trigger
  options.recompute_on_drift = true;
  IncrementalMrdmd inc(options);
  inc.initial_fit(data.block(0, 0, 8, 512));
  const PartialFitReport report = inc.partial_fit(data.block(0, 512, 8, 512));
  EXPECT_TRUE(report.drift_exceeded);
  EXPECT_TRUE(report.recomputed);
  // After recompute, levels >= 2 tile the whole [0, 1024) span in the batch
  // layout (halves at level 2).
  bool found_right_half_level2 = false;
  for (const auto& node : inc.nodes()) {
    if (node.level == 2 && node.t_begin == 512 && node.t_end == 1024) {
      found_right_half_level2 = true;
    }
  }
  EXPECT_TRUE(found_right_half_level2);
}

TEST(Imrdmd, RecomputeRestoresBatchSemantics) {
  // Recomputation refits levels >= 2 against the current root over the whole
  // timeline — i.e. it restores the *batch* decomposition layout. Its
  // accuracy must therefore track batch accuracy (the stale incremental tree
  // can legitimately differ either way: its new-span sub-trees use finer
  // windows).
  Rng rng(9);
  const Mat data = planted_multiscale(10, 1024, 0.02, rng);

  ImrdmdOptions options = default_options(4);
  options.recompute_on_drift = true;
  options.drift_threshold = 0.0;  // always trigger
  IncrementalMrdmd inc(options);
  inc.initial_fit(data.block(0, 0, 10, 512));
  for (std::size_t c = 512; c < 1024; c += 128) {
    inc.partial_fit(data.block(0, c, 10, 128));
  }
  const double fresh_err = linalg::frobenius_diff(inc.reconstruct(), data);

  MrdmdTree batch(default_options(4).mrdmd);
  batch.fit(data);
  const double batch_err = linalg::frobenius_diff(batch.reconstruct(), data);
  EXPECT_NEAR(fresh_err, batch_err, 0.3 * batch_err);
}

TEST(Imrdmd, ManySmallIncrementsStayStable) {
  Rng rng(10);
  const Mat data = planted_multiscale(6, 2048, 0.01, rng);
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(data.block(0, 0, 6, 512));
  for (std::size_t c = 512; c < 2048; c += 64) {
    const PartialFitReport report = inc.partial_fit(data.block(0, c, 6, 64));
    EXPECT_TRUE(std::isfinite(report.drift_estimate));
  }
  EXPECT_EQ(inc.time_steps(), 2048u);
  const Mat recon = inc.reconstruct();
  EXPECT_TRUE(std::isfinite(linalg::frobenius_norm(recon)));
  EXPECT_LT(linalg::frobenius_diff(recon, data),
            linalg::frobenius_norm(data));
}

TEST(Imrdmd, EmptyPartialFitIsNoop) {
  Rng rng(11);
  const Mat data = planted_multiscale(5, 256, 0.01, rng);
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(data);
  const std::size_t nodes_before = inc.nodes().size();
  const PartialFitReport report = inc.partial_fit(Mat(5, 0));
  EXPECT_EQ(report.new_snapshots, 0u);
  EXPECT_EQ(inc.nodes().size(), nodes_before);
  EXPECT_EQ(inc.time_steps(), 256u);
}

TEST(Imrdmd, MisuseThrows) {
  IncrementalMrdmd inc(default_options(3));
  EXPECT_THROW(inc.partial_fit(Mat(4, 16)), InvalidArgument);
  Rng rng(12);
  const Mat data = planted_multiscale(4, 256, 0.01, rng);
  inc.initial_fit(data);
  EXPECT_THROW(inc.initial_fit(data), InvalidArgument);
  EXPECT_THROW(inc.partial_fit(Mat(5, 16)), DimensionError);
}

TEST(Imrdmd, IncrementSmallerThanStrideHandled) {
  Rng rng(13);
  const Mat data = planted_multiscale(6, 600, 0.01, rng);
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(data.block(0, 0, 6, 512));  // stride 32
  // 8-snapshot increments: most updates add no grid column.
  for (std::size_t c = 512; c < 600; c += 8) {
    const std::size_t w = std::min<std::size_t>(8, 600 - c);
    const PartialFitReport report = inc.partial_fit(data.block(0, c, 6, w));
    EXPECT_LE(report.new_grid_columns, 1u);
  }
  EXPECT_EQ(inc.time_steps(), 600u);
}

TEST(Imrdmd, SpectrumAndMagnitudesAvailable) {
  Rng rng(14);
  const Mat data = planted_multiscale(8, 512, 0.01, rng);
  IncrementalMrdmd inc(default_options(4));
  inc.initial_fit(data);
  expect_magnitudes_match_fresh(inc, 1.0, "initial fit");
  // Each partial_fit brings a fresh root and new nodes, whose terms the
  // next read fills next to the old nodes' filled ones.
  const Mat more = planted_multiscale(8, 128, 0.01, rng);
  for (std::size_t c = 0; c < 4; ++c) {
    inc.partial_fit(more.block(0, 32 * c, 8, 32));
    expect_magnitudes_match_fresh(inc, 1.0, "partial fit " + std::to_string(c));
  }
  EXPECT_FALSE(inc.spectrum().empty());
  const auto magnitudes = inc.magnitudes();
  EXPECT_EQ(magnitudes.size(), 8u);
  for (double m : magnitudes) EXPECT_GE(m, 0.0);
}

// Property sweep: the incremental update must be cheaper than refit for all
// tested sizes — structural proxy: partial_fit touches O(T1) snapshots, so
// new node windows never precede T_prev.
class ImrdmdIncrements : public ::testing::TestWithParam<int> {};

TEST_P(ImrdmdIncrements, NewNodesOnlyCoverNewSpan) {
  const int increment = GetParam();
  Rng rng(static_cast<std::uint64_t>(70 + increment));
  const std::size_t t0 = 512;
  const Mat data = planted_multiscale(
      6, t0 + static_cast<std::size_t>(increment), 0.01, rng);
  IncrementalMrdmd inc(default_options(3));
  inc.initial_fit(data.block(0, 0, 6, t0));
  const std::size_t nodes_before = inc.nodes().size();
  inc.partial_fit(
      data.block(0, t0, 6, static_cast<std::size_t>(increment)));
  for (std::size_t i = nodes_before; i < inc.nodes().size(); ++i) {
    EXPECT_GE(inc.nodes()[i].t_begin, t0);
  }
}

INSTANTIATE_TEST_SUITE_P(Increments, ImrdmdIncrements,
                         ::testing::Values(16, 64, 128, 256, 512));

}  // namespace
}  // namespace imrdmd::core
