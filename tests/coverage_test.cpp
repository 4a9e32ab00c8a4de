// Final coverage pass: paths not exercised elsewhere — spectrum power
// filtering, the engine's baseline-pinning mode, checkpoint-after-extension,
// and renderer options.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/assessor.hpp"
#include "core/mrdmd_node.hpp"
#include "dmd/spectrum.hpp"
#include "linalg/blas.hpp"
#include "rack/render.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using imrdmd::testing::for_each_stride;
using imrdmd::testing::planted_multiscale;
using linalg::Complex;
using linalg::Mat;

TEST(Spectrum, PowerFilterDropsWeakModes) {
  // Exact-DMD modes are near-unit-norm (energy lives in the amplitudes), so
  // the Eq. 10 power filter is exercised on an explicit mode set with
  // different column norms, through the engine's band-filtered magnitudes.
  core::MrdmdNode node;
  node.t_end = 16;
  node.modes = linalg::CMat(4, 2);
  for (std::size_t p = 0; p < 4; ++p) {
    node.modes(p, 0) = Complex(1.0, 0.0);   // power 4
    node.modes(p, 1) = Complex(0.05, 0.0);  // power 0.01
  }
  node.eigenvalues = {std::exp(Complex(0, 0.2)), std::exp(Complex(0, 0.2))};
  node.amplitudes = {Complex(1, 0), Complex(1, 0)};
  const std::vector<core::MrdmdNode> nodes{node};

  dmd::ModeBand strong_only;
  strong_only.min_power = 1.0;
  // Only mode 0 passes: |b_0| |phi_p0| = 1 on every sensor (1.05 with both
  // modes, 0.05 with the weak one alone).
  for (const double m : core::mode_magnitudes(nodes, 4, 1.0, &strong_only)) {
    EXPECT_DOUBLE_EQ(m, 1.0);
  }
  // Frequency bounds compose with the power bound.
  strong_only.min_frequency_hz = 1.0;  // above 0.2/(2 pi)
  for (const double m : core::mode_magnitudes(nodes, 4, 1.0, &strong_only)) {
    EXPECT_EQ(m, 0.0);
  }
}

void pinned_baseline_population_stays_fixed(std::size_t stride) {
  // reselect_baseline_per_chunk = false: the population chosen on the
  // initial chunk is reused for every later chunk.
  Rng rng(2);
  Mat data(12, 768);
  for (std::size_t p = 0; p < 12; ++p) {
    for (std::size_t t = 0; t < 768; ++t) {
      // Sensors 0..5 near 50, sensors 6..11 near 70; after t=512 sensor 3
      // heats up (it would leave a re-selected baseline population).
      double value = (p < 6 ? 50.0 : 70.0) + std::sin(0.02 * t + p);
      if (p == 3 && t >= 512) value += 30.0;
      data(p, t) = value;
    }
  }
  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 3;
  options.baseline = {45.0, 55.0};
  options.reselect_baseline_per_chunk = false;
  core::Assessor pinned(
      core::AssessorConfig{}.pipeline(options).hierarchy(stride));
  const auto first = pinned.process(data.block(0, 0, 12, 512));
  const auto second = pinned.process(data.block(0, 512, 12, 256));
  EXPECT_EQ(second.zscores.baseline_sensors, first.zscores.baseline_sensors);

  core::PipelineOptions reselect = options;
  reselect.reselect_baseline_per_chunk = true;
  core::Assessor moving(
      core::AssessorConfig{}.pipeline(reselect).hierarchy(stride));
  moving.process(data.block(0, 0, 12, 512));
  const auto moved = moving.process(data.block(0, 512, 12, 256));
  // The heated sensor 3 leaves the re-selected population.
  EXPECT_EQ(std::count(moved.zscores.baseline_sensors.begin(),
                       moved.zscores.baseline_sensors.end(), 3u),
            0);
  EXPECT_EQ(std::count(second.zscores.baseline_sensors.begin(),
                       second.zscores.baseline_sensors.end(), 3u),
            1);
}

TEST(Pipeline, PinnedBaselinePopulationStaysFixed) {
  for_each_stride(pinned_baseline_population_stays_fixed);
}

TEST(Checkpoint, SurvivesSensorAdditionAndKeepsHistory) {
  Rng rng(3);
  const Mat data = planted_multiscale(10, 512, 0.02, rng);
  core::ImrdmdOptions options;
  options.mrdmd.max_levels = 3;
  options.keep_history = true;
  core::IncrementalMrdmd model(options);
  model.initial_fit(data.block(0, 0, 8, 512));
  model.add_sensors(data.block(8, 0, 2, 512));

  std::stringstream buffer;
  core::save_checkpoint(buffer, model);
  core::IncrementalMrdmd restored = core::load_checkpoint(buffer);
  EXPECT_EQ(restored.sensors(), 10u);
  EXPECT_EQ(imrdmd::testing::max_abs_diff(model.reconstruct(),
                                          restored.reconstruct()),
            0.0);
  // History survived: resaving the restored model, history section
  // included, reproduces the checkpoint byte for byte.
  std::stringstream resaved;
  core::save_checkpoint(resaved, restored);
  EXPECT_EQ(resaved.str(), buffer.str());
}

TEST(Render, CustomValueRangeAndNoLegend) {
  const rack::LayoutSpec spec =
      rack::parse_layout("sys 1 0 row0-0:0-1 0 c:0-1 1 s:0-1 1 b:0 n:0");
  rack::RackViewData data;
  data.populated = spec.total_nodes();
  data.values.assign(spec.total_nodes(), 100.0);
  rack::RenderOptions options;
  options.value_min = 0.0;
  options.value_max = 200.0;  // 100 maps to mid-scale (greenish)
  options.draw_legend = false;
  options.draw_rack_frames = false;
  const std::string svg = rack::render_svg(spec, data, options);
  // Mid-scale Turbo is green-dominant.
  const rack::Rgb mid = rack::turbo(0.5);
  EXPECT_NE(svg.find(mid.hex()), std::string::npos);
  // No legend text.
  EXPECT_EQ(svg.find("z-score"), std::string::npos);
}

TEST(Sparkline, ConstantSeriesIsFlat) {
  const std::vector<double> flat(32, 5.0);
  const std::string line =
      rack::sparkline(std::span<const double>(flat.data(), flat.size()), 16);
  // All glyphs identical for a constant series.
  EXPECT_EQ(line.size() % 3, 0u);  // UTF-8 blocks are 3 bytes
  for (std::size_t i = 3; i < line.size(); i += 3) {
    EXPECT_EQ(line.substr(i, 3), line.substr(0, 3));
  }
}

}  // namespace
}  // namespace imrdmd
