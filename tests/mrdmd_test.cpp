// Tests for the batch multiresolution DMD tree.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/mrdmd.hpp"
#include "linalg/blas.hpp"
#include "test_util.hpp"

namespace imrdmd::core {
namespace {

using imrdmd::testing::expect_magnitudes_match_fresh;
using imrdmd::testing::planted_multiscale;

MrdmdOptions small_options(std::size_t levels = 4) {
  MrdmdOptions options;
  options.max_levels = levels;
  options.max_cycles = 2;
  options.use_svht = true;
  options.dt = 1.0;
  return options;
}

TEST(Mrdmd, FitProducesNodesAtEveryLevel) {
  Rng rng(1);
  const Mat data = planted_multiscale(20, 512, 0.01, rng);
  MrdmdTree tree(small_options(4));
  tree.fit(data);
  std::set<std::size_t> levels;
  for (const auto& node : tree.nodes()) levels.insert(node.level);
  EXPECT_EQ(levels, (std::set<std::size_t>{1, 2, 3, 4}));
}

TEST(Mrdmd, BinStructureIsBinary) {
  Rng rng(2);
  const Mat data = planted_multiscale(10, 512, 0.01, rng);
  MrdmdTree tree(small_options(3));
  tree.fit(data);
  std::size_t level_counts[4] = {0, 0, 0, 0};
  for (const auto& node : tree.nodes()) {
    ASSERT_LE(node.level, 3u);
    ++level_counts[node.level];
    // Bin windows must tile [0, T) at each level.
    EXPECT_EQ(node.span(), 512u >> (node.level - 1));
    EXPECT_EQ(node.t_begin, node.bin_index * node.span());
  }
  EXPECT_EQ(level_counts[1], 1u);
  EXPECT_EQ(level_counts[2], 2u);
  EXPECT_EQ(level_counts[3], 4u);
}

TEST(Mrdmd, StrideFollowsNyquistRule) {
  Rng rng(3);
  const Mat data = planted_multiscale(8, 1024, 0.01, rng);
  MrdmdOptions options = small_options(3);
  MrdmdTree tree(options);
  tree.fit(data);
  for (const auto& node : tree.nodes()) {
    EXPECT_EQ(node.stride, node.span() / options.nyquist_snapshots());
  }
}

TEST(Mrdmd, ReconstructionCapturesSignal) {
  Rng rng(4);
  const Mat clean = planted_multiscale(15, 512, 0.0, rng);
  MrdmdTree tree(small_options(5));
  tree.fit(clean);
  const Mat recon = tree.reconstruct();
  const double rel = linalg::frobenius_diff(recon, clean) /
                     linalg::frobenius_norm(clean);
  // The slow + mid components dominate the energy; the fit must explain the
  // bulk of it (the fast component may fall beyond max_levels).
  EXPECT_LT(rel, 0.35);
}

TEST(Mrdmd, DenoisesHighFrequencyNoise) {
  // Paper Fig. 3 claim: the reconstruction has less high-frequency noise.
  // Needs a realistic sensor count — the SVHT noise-floor estimate and the
  // per-bin mode fits average over sensors.
  Rng rng(5);
  const Mat clean = planted_multiscale(60, 512, 0.0, rng);
  Rng noise_rng(6);
  Mat noisy = clean;
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    noisy.data()[i] += 0.5 * noise_rng.normal();
  }
  MrdmdTree tree(small_options(4));
  tree.fit(noisy);
  const Mat recon = tree.reconstruct();
  // The reconstruction should be closer to the clean signal than the noisy
  // input is.
  const double recon_err = linalg::frobenius_diff(recon, clean);
  const double noise_norm = linalg::frobenius_diff(noisy, clean);
  EXPECT_LT(recon_err, noise_norm);
}

TEST(Mrdmd, SlowModesLiveAtLowLevels) {
  Rng rng(7);
  const Mat data = planted_multiscale(10, 1024, 0.01, rng);
  MrdmdTree tree(small_options(5));
  tree.fit(data);
  // Level-1 cutoff rho decreases with span: every node's retained mode
  // frequencies respect its own rho (by construction); additionally the
  // minimum frequency resolvable grows with level.
  for (const auto& node : tree.nodes()) {
    for (std::size_t i = 0; i < node.mode_count(); ++i) {
      // Modes kept at this node oscillate at most max_cycles times in the
      // node window (with slack for the |ln lambda| criterion's growth
      // component).
      const double cycles_in_window =
          node.frequency_hz(i, 1.0) * static_cast<double>(node.span());
      EXPECT_LE(cycles_in_window, 2.0 + 0.5);
    }
  }
}

TEST(Mrdmd, LevelFilteredReconstructionSeparatesTimescales) {
  Rng rng(8);
  const std::size_t steps = 1024;
  // Pure slow signal vs slow+fast: level-1 reconstruction should look the
  // same for both (the fast part lives at higher levels). Sensor count must
  // exceed the per-bin snapshot count for the SVHT median rule to see a
  // noise floor (always true for the paper's machines).
  Mat slow(16, steps), mixed(16, steps);
  for (std::size_t p = 0; p < 16; ++p) {
    for (std::size_t t = 0; t < steps; ++t) {
      const double x = static_cast<double>(t) / static_cast<double>(steps);
      const double s = std::sin(2.0 * M_PI * 1.0 * x + 0.3 * p);
      const double f = 0.5 * std::sin(2.0 * M_PI * 40.0 * x + 0.7 * p);
      slow(p, t) = s;
      mixed(p, t) = s + f;
    }
  }
  MrdmdTree tree_mixed(small_options(5));
  tree_mixed.fit(mixed);
  const Mat level1 = tree_mixed.reconstruct(0, steps, nullptr, 1, 1);
  // Level-1 reconstruction approximates the slow component.
  EXPECT_LT(linalg::frobenius_diff(level1, slow),
            0.1 * linalg::frobenius_norm(slow));
}

TEST(Mrdmd, ResidualEnergyDecreasesWithDepth) {
  Rng rng(9);
  const Mat data = planted_multiscale(10, 1024, 0.05, rng);
  double previous = linalg::frobenius_norm(data);
  for (std::size_t levels : {1u, 3u, 5u}) {
    MrdmdTree tree(small_options(levels));
    tree.fit(data);
    const double err = linalg::frobenius_diff(tree.reconstruct(), data);
    EXPECT_LE(err, previous * 1.05);  // monotone up to small slack
    previous = err;
  }
}

TEST(Mrdmd, SpectrumCoversPlantedFrequencies) {
  Rng rng(10);
  const Mat data = planted_multiscale(10, 1024, 0.0, rng);
  MrdmdOptions options = small_options(6);
  options.dt = 1.0 / 1024.0;  // makes planted frequencies 1, 12, 70 Hz
  MrdmdTree tree(options);
  tree.fit(data);
  const auto points = tree.spectrum();
  ASSERT_FALSE(points.empty());
  auto has_near = [&](double target, double tol) {
    for (const auto& sp : points) {
      if (std::abs(sp.frequency_hz - target) < tol && sp.power > 1e-4) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_near(1.0, 0.5));
  EXPECT_TRUE(has_near(12.0, 3.0));
}

TEST(Mrdmd, BandFilteredMagnitudesExcludeFastModes) {
  Rng rng(11);
  const Mat data = planted_multiscale(10, 1024, 0.0, rng);
  MrdmdOptions options = small_options(6);
  options.dt = 1.0 / 1024.0;
  MrdmdTree tree(options);
  tree.fit(data);
  dmd::ModeBand slow_only;
  slow_only.max_frequency_hz = 5.0;
  const auto slow_mag = tree.magnitudes(&slow_only);
  const auto all_mag = tree.magnitudes();
  for (std::size_t p = 0; p < slow_mag.size(); ++p) {
    EXPECT_LE(slow_mag[p], all_mag[p] + 1e-12);
  }
  expect_magnitudes_match_fresh(tree, options.dt, "tree");
}

TEST(Mrdmd, ShortDataThrows) {
  MrdmdTree tree(small_options(2));
  EXPECT_THROW(tree.fit(Mat(5, 10)), DimensionError);  // < 16 snapshots
}

TEST(Mrdmd, ConstantDataReconstructsExactly) {
  Mat data(6, 128, 42.0);
  MrdmdTree tree(small_options(3));
  tree.fit(data);
  const Mat recon = tree.reconstruct();
  EXPECT_LT(linalg::frobenius_diff(recon, data),
            1e-6 * linalg::frobenius_norm(data));
}

TEST(Mrdmd, ZeroDataProducesNoModes) {
  MrdmdTree tree(small_options(3));
  tree.fit(Mat(4, 128));
  EXPECT_EQ(tree.total_modes(), 0u);
}

TEST(Mrdmd, SerialAndParallelBinsAgree) {
  Rng rng(12);
  const Mat data = planted_multiscale(8, 512, 0.02, rng);
  MrdmdOptions serial = small_options(5);
  serial.parallel_bins = false;
  MrdmdOptions parallel = small_options(5);
  parallel.parallel_bins = true;
  MrdmdTree a(serial), b(parallel);
  a.fit(data);
  b.fit(data);
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  const Mat ra = a.reconstruct();
  const Mat rb = b.reconstruct();
  EXPECT_LT(linalg::frobenius_diff(ra, rb),
            1e-9 * (linalg::frobenius_norm(ra) + 1.0));
}

TEST(Mrdmd, CriterionAblationBothRun) {
  Rng rng(13);
  const Mat data = planted_multiscale(8, 512, 0.02, rng);
  for (auto criterion :
       {SlowModeCriterion::AbsLog, SlowModeCriterion::ImagLog}) {
    MrdmdOptions options = small_options(4);
    options.criterion = criterion;
    MrdmdTree tree(options);
    tree.fit(data);
    EXPECT_GT(tree.total_modes(), 0u);
  }
}

TEST(MrdmdNode, StridedEvaluationMatchesDenseColumns) {
  // A node away from t = 0 with its own stride, evaluated every third
  // snapshot from an out_t0 that is not on the node's sample grid.
  Rng rng(14);
  MrdmdNode node;
  node.t_begin = 10;
  node.t_end = 40;
  node.stride = 3;
  node.modes = CMat(5, 3);
  for (std::size_t i = 0; i < node.modes.size(); ++i) {
    node.modes.data()[i] = Complex(rng.normal(), rng.normal());
  }
  node.eigenvalues = {0.99 * std::exp(Complex(0, 0.3)),
                      0.99 * std::exp(Complex(0, -0.3)), Complex(0.97, 0)};
  node.amplitudes = {Complex(1.5, -0.5), Complex(1.5, 0.5), Complex(-2, 0)};

  const std::size_t out_t0 = 5;  // 5 % 3 != 10 % 3
  const std::size_t step = 3;
  Mat dense(5, 46);  // snapshots 5 .. 50
  accumulate_node(node, 1.0, nullptr, dense, out_t0);
  // Column c holds snapshot 5 + 3c; c = 2 .. 11 (11 .. 38) is in the window.
  constexpr double kSentinel = -7.25;
  Mat strided(5, 16);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (c < 2 || c > 11) strided(r, c) = kSentinel;
    }
  }
  accumulate_node(node, 1.0, nullptr, strided, out_t0, step);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      if (c < 2 || c > 11) {
        EXPECT_EQ(strided(r, c), kSentinel) << "r=" << r << " c=" << c;
        continue;
      }
      const double want = dense(r, c * step);
      EXPECT_NEAR(strided(r, c), want, 1e-12 * (std::abs(want) + 1.0))
          << "r=" << r << " c=" << c;
    }
  }
  EXPECT_THROW(accumulate_node(node, 1.0, nullptr, strided, out_t0, 0),
               InvalidArgument);
}

// Property sweep over level counts: deeper trees never lose accuracy.
class MrdmdLevels : public ::testing::TestWithParam<int> {};

TEST_P(MrdmdLevels, ReconstructionErrorBounded) {
  const int levels = GetParam();
  Rng rng(static_cast<std::uint64_t>(60 + levels));
  const Mat data = planted_multiscale(12, 1024, 0.0, rng);
  MrdmdTree tree(small_options(static_cast<std::size_t>(levels)));
  tree.fit(data);
  const double rel = linalg::frobenius_diff(tree.reconstruct(), data) /
                     linalg::frobenius_norm(data);
  EXPECT_LT(rel, 0.8);
  EXPECT_GT(tree.total_modes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Levels, MrdmdLevels, ::testing::Values(1, 2, 3, 4, 5, 6, 7));

}  // namespace
}  // namespace imrdmd::core
