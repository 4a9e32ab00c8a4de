// Tests for exact DMD: spectrum recovery on known LTI systems,
// reconstruction fidelity, and the Eq. 9/10 spectrum quantities (read
// through the result wrapped as an mrDMD node, as the engine reads them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/mrdmd_node.hpp"
#include "dmd/dmd.hpp"
#include "dmd/spectrum.hpp"
#include "linalg/blas.hpp"
#include "test_util.hpp"

namespace imrdmd::dmd {
namespace {

using imrdmd::testing::as_node;
using linalg::Complex;
using linalg::Mat;

// x(t) = Re( Phi diag(lambda^t) b ) at t = 0 .. steps-1.
Mat reconstruct(const DmdResult& fit, std::size_t steps) {
  return core::reconstruct_nodes({as_node(fit, steps)}, fit.modes.rows(), 0,
                                 steps, fit.dt);
}

// Synthesizes snapshots of x(t) = sum_k Re( c_k v_k lambda_k^t ) for known
// (lambda, v) pairs, on `sensors` sensors.
Mat lti_snapshots(const std::vector<Complex>& lambdas, std::size_t sensors,
                  std::size_t steps, Rng& rng) {
  const std::size_t k = lambdas.size();
  std::vector<std::vector<Complex>> vectors(k, std::vector<Complex>(sensors));
  for (auto& v : vectors) {
    for (auto& x : v) x = Complex(rng.normal(), rng.normal());
  }
  Mat data(sensors, steps);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t i = 0; i < k; ++i) {
      const Complex scale = std::pow(lambdas[i], static_cast<double>(t));
      for (std::size_t p = 0; p < sensors; ++p) {
        data(p, t) += (scale * vectors[i][p]).real();
      }
    }
  }
  return data;
}

// Checks that every expected eigenvalue appears among the recovered ones.
void expect_contains_eigenvalues(const std::vector<Complex>& recovered,
                                 const std::vector<Complex>& expected,
                                 double tol) {
  for (const Complex& want : expected) {
    double best = 1e300;
    for (const Complex& got : recovered) best = std::min(best, std::abs(got - want));
    EXPECT_LT(best, tol) << "missing eigenvalue " << want.real() << "+"
                         << want.imag() << "i";
  }
}

TEST(Dmd, RecoversOscillatorEigenvalues) {
  // One damped oscillation: conjugate pair 0.98 e^{+-0.3i}.
  const Complex lambda = 0.98 * std::exp(Complex(0, 0.3));
  Rng rng(1);
  const Mat data = lti_snapshots({lambda, std::conj(lambda)}, 10, 60, rng);
  const DmdResult fit = dmd(data, 1.0);
  expect_contains_eigenvalues(fit.eigenvalues, {lambda, std::conj(lambda)},
                              1e-8);
}

TEST(Dmd, RecoversMixedSpectrum) {
  const std::vector<Complex> lambdas{
      Complex(0.999, 0.0),                    // slow decay
      0.95 * std::exp(Complex(0, 0.8)),       // fast oscillation
      0.95 * std::exp(Complex(0, -0.8)),
  };
  Rng rng(2);
  const Mat data = lti_snapshots(lambdas, 12, 80, rng);
  const DmdResult fit = dmd(data, 1.0);
  expect_contains_eigenvalues(fit.eigenvalues, lambdas, 1e-7);
}

TEST(Dmd, ReconstructionMatchesLtiData) {
  const std::vector<Complex> lambdas{0.99 * std::exp(Complex(0, 0.2)),
                                     0.99 * std::exp(Complex(0, -0.2))};
  Rng rng(3);
  const Mat data = lti_snapshots(lambdas, 8, 50, rng);
  const DmdResult fit = dmd(data, 1.0);
  const Mat recon = reconstruct(fit, 50);
  EXPECT_LT(linalg::frobenius_diff(recon, data),
            1e-6 * linalg::frobenius_norm(data));
}

TEST(Dmd, FrequenciesMatchEq9) {
  // lambda = e^{i omega}: frequency must be omega / (2 pi dt).
  const double omega = 0.5;
  const double dt = 0.1;
  const Complex lambda = std::exp(Complex(0, omega));
  Rng rng(4);
  const Mat data = lti_snapshots({lambda, std::conj(lambda)}, 6, 40, rng);
  const DmdResult fit = dmd(data, dt);
  const auto points = as_node(fit, 40).spectrum(dt);
  ASSERT_GE(points.size(), 1u);
  const double expected = omega / (2.0 * M_PI * dt);
  for (const auto& point : points) {
    EXPECT_NEAR(point.frequency_hz, expected, 1e-6);
  }
}

TEST(Dmd, GrowthRateSignMatchesDynamics) {
  Rng rng(5);
  const Mat growing = lti_snapshots({Complex(1.05, 0)}, 5, 30, rng);
  const DmdResult gfit = dmd(growing, 1.0);
  ASSERT_GE(gfit.mode_count(), 1u);
  EXPECT_GT(as_node(gfit, 30).growth_rate(0, 1.0), 0.0);

  const Mat decaying = lti_snapshots({Complex(0.9, 0)}, 5, 30, rng);
  const DmdResult dfit = dmd(decaying, 1.0);
  ASSERT_GE(dfit.mode_count(), 1u);
  EXPECT_LT(as_node(dfit, 30).growth_rate(0, 1.0), 0.0);
}

TEST(Dmd, PowerIsSquaredModeNorm) {
  Rng rng(6);
  const Mat data =
      lti_snapshots({0.98 * std::exp(Complex(0, 0.4)),
                     0.98 * std::exp(Complex(0, -0.4))},
                    7, 40, rng);
  const DmdResult fit = dmd(data, 1.0);
  const core::MrdmdNode node = as_node(fit, 40);
  for (std::size_t i = 0; i < fit.mode_count(); ++i) {
    double norm_sq = 0.0;
    for (std::size_t p = 0; p < fit.modes.rows(); ++p) {
      norm_sq += std::norm(fit.modes(p, i));
    }
    EXPECT_DOUBLE_EQ(node.power(i), norm_sq);
  }
}

TEST(Dmd, SvhtSuppressesNoiseModes) {
  // Strong rank-2 signal + weak noise: SVHT keeps a small rank.
  const std::vector<Complex> lambdas{0.99 * std::exp(Complex(0, 0.3)),
                                     0.99 * std::exp(Complex(0, -0.3))};
  Rng rng(7);
  Mat data = lti_snapshots(lambdas, 20, 100, rng);
  const double scale = linalg::frobenius_norm(data) /
                       std::sqrt(static_cast<double>(data.size()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] += 0.01 * scale * rng.normal();
  }
  DmdOptions options;
  options.use_svht = true;
  const DmdResult fit = dmd(data, 1.0, options);
  EXPECT_LE(fit.svd_rank, 6u);
  expect_contains_eigenvalues(fit.eigenvalues, lambdas, 0.05);
}

TEST(Dmd, MaxRankCapsModes) {
  Rng rng(8);
  const Mat data = imrdmd::testing::random_matrix(10, 30, rng);
  DmdOptions options;
  options.use_svht = false;
  options.max_rank = 3;
  const DmdResult fit = dmd(data, 1.0, options);
  EXPECT_EQ(fit.svd_rank, 3u);
  EXPECT_EQ(fit.mode_count(), 3u);
}

TEST(Dmd, TooFewSnapshotsThrows) {
  EXPECT_THROW(dmd(Mat(5, 1), 1.0), DimensionError);
}

TEST(Dmd, ZeroDataYieldsZeroModes) {
  const DmdResult fit = dmd(Mat(5, 10), 1.0);
  EXPECT_EQ(fit.mode_count(), 0u);
  const Mat recon = reconstruct(fit, 10);
  EXPECT_EQ(linalg::frobenius_norm(recon), 0.0);
}

TEST(Spectrum, BandSelectionFilters) {
  Rng rng(10);
  // Slow pair (omega=0.05) + fast pair (omega=1.0), dt=1.
  const Mat data = lti_snapshots(
      {std::exp(Complex(0, 0.05)), std::exp(Complex(0, -0.05)),
       0.99 * std::exp(Complex(0, 1.0)), 0.99 * std::exp(Complex(0, -1.0))},
      15, 120, rng);
  DmdOptions options;
  options.use_svht = false;
  options.max_rank = 4;
  const DmdResult fit = dmd(data, 1.0, options);
  const auto points = as_node(fit, 120).spectrum(1.0);
  const auto count_in = [&](const ModeBand& band) {
    return std::count_if(points.begin(), points.end(), [&](const auto& pt) {
      return band.contains(pt.frequency_hz, pt.power);
    });
  };

  ModeBand slow_band;
  slow_band.max_frequency_hz = 0.05;  // Hz; omega=0.05 -> f~0.008
  const auto slow = count_in(slow_band);
  ModeBand fast_band;
  fast_band.min_frequency_hz = 0.05;
  const auto fast = count_in(fast_band);
  EXPECT_EQ(static_cast<std::size_t>(slow + fast), fit.mode_count());
  EXPECT_EQ(slow, 2);
  EXPECT_EQ(fast, 2);
}

// Property sweep: DMD must reproduce LTI data for many spectra and sizes.
struct LtiCase {
  double radius;
  double omega;
  int sensors;
  int steps;
};

class DmdLtiSweep : public ::testing::TestWithParam<LtiCase> {};

TEST_P(DmdLtiSweep, ReconstructsAndRecoversSpectrum) {
  const LtiCase c = GetParam();
  const Complex lambda = c.radius * std::exp(Complex(0, c.omega));
  Rng rng(static_cast<std::uint64_t>(c.sensors * 1000 + c.steps));
  const Mat data = lti_snapshots({lambda, std::conj(lambda)},
                                 static_cast<std::size_t>(c.sensors),
                                 static_cast<std::size_t>(c.steps), rng);
  const DmdResult fit = dmd(data, 1.0);
  expect_contains_eigenvalues(fit.eigenvalues, {lambda}, 1e-6);
  const Mat recon = reconstruct(fit, static_cast<std::size_t>(c.steps));
  EXPECT_LT(linalg::frobenius_diff(recon, data),
            1e-5 * (linalg::frobenius_norm(data) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DmdLtiSweep,
    ::testing::Values(LtiCase{0.99, 0.1, 4, 40}, LtiCase{0.95, 0.5, 8, 60},
                      LtiCase{1.0, 0.25, 16, 50}, LtiCase{0.9, 1.2, 6, 80},
                      LtiCase{1.01, 0.3, 10, 40}));

}  // namespace
}  // namespace imrdmd::dmd
