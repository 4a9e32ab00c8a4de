// Shared helpers for the test suites.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/assessor.hpp"
#include "core/mrdmd_node.hpp"
#include "dmd/dmd.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace imrdmd::testing {

/// A stream buffer over `bytes` that cannot seek (the std::streambuf
/// defaults fail), so a reader cannot learn its size: pipe-like input.
class NoSeekBuf : public std::streambuf {
 public:
  explicit NoSeekBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

/// Random matrix with i.i.d. standard normal entries.
inline linalg::Mat random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  linalg::Mat m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

/// Random matrix of the given (approximate numerical) rank.
inline linalg::Mat random_low_rank(std::size_t rows, std::size_t cols,
                                   std::size_t rank, Rng& rng) {
  const linalg::Mat a = random_matrix(rows, rank, rng);
  const linalg::Mat b = random_matrix(rank, cols, rng);
  return linalg::matmul(a, b);
}

/// Max |a - b| over all entries.
inline double max_abs_diff(const linalg::Mat& a, const linalg::Mat& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// ||A^T A - I||_max: orthonormality defect of A's columns.
inline double orthogonality_defect(const linalg::Mat& a) {
  const linalg::Mat gram = linalg::matmul_at_b(a, a);
  double worst = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = 0; j < gram.cols(); ++j) {
      const double target = i == j ? 1.0 : 0.0;
      worst = std::max(worst, std::abs(gram(i, j) - target));
    }
  }
  return worst;
}

/// Multi-timescale planted signal: slow trend + mid oscillation + fast
/// oscillation + optional noise. Sensor p gets phase-shifted copies.
inline linalg::Mat planted_multiscale(std::size_t sensors, std::size_t steps,
                                      double noise, Rng& rng) {
  linalg::Mat m(sensors, steps);
  for (std::size_t p = 0; p < sensors; ++p) {
    const double phase = 0.13 * static_cast<double>(p);
    for (std::size_t t = 0; t < steps; ++t) {
      const double x = static_cast<double>(t) / static_cast<double>(steps);
      double value = 2.0 * std::sin(2.0 * M_PI * 1.0 * x + phase);   // slow
      value += 0.8 * std::sin(2.0 * M_PI * 12.0 * x + 2.0 * phase);  // mid
      value += 0.3 * std::sin(2.0 * M_PI * 70.0 * x + 3.0 * phase);  // fast
      if (noise > 0.0) value += noise * rng.normal();
      m(p, t) = value;
    }
  }
  return m;
}

/// A plain DMD result as an mrDMD node over [0, steps) at stride 1, so its
/// spectrum and reconstruction come from the engine's node functions.
inline core::MrdmdNode as_node(const dmd::DmdResult& fit, std::size_t steps) {
  core::MrdmdNode node;
  node.t_end = steps;
  node.modes = fit.modes;
  node.eigenvalues = fit.eigenvalues;
  node.amplitudes = fit.amplitudes;
  return node;
}

/// The coarse strides the engine tests run every configuration at: flat,
/// and the two-level hierarchy.
inline constexpr std::size_t kStrides[] = {0, 2};

/// Runs `check(stride)` at every stride in kStrides, tracing which one
/// failed.
template <typename Check>
void for_each_stride(const Check& check) {
  for (const std::size_t stride : kStrides) {
    SCOPED_TRACE("coarse stride " + std::to_string(stride));
    check(stride);
  }
}

/// Bit-pattern equality of two doubles (NaN matches NaN, 0.0 differs from
/// -0.0).
inline void expect_bitwise_equal(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

inline void expect_bitwise_equal(const std::vector<double>& a,
                                 const std::vector<double>& b,
                                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_bitwise_equal(a[i], b[i], what + "[" + std::to_string(i) + "]");
  }
}

/// Per-sensor mode magnitude evaluated afresh from the nodes' fields
/// (|b_i|, |phi_{p,i}|, frequency_hz, power): the oracle that
/// core::mode_magnitudes' cached terms must reproduce bitwise.
inline std::vector<double> fresh_mode_magnitudes(
    const std::vector<core::MrdmdNode>& nodes, std::size_t sensors, double dt,
    const dmd::ModeBand* band) {
  std::vector<double> magnitude(sensors, 0.0);
  for (const core::MrdmdNode& node : nodes) {
    for (std::size_t i = 0; i < node.mode_count(); ++i) {
      if (band != nullptr &&
          !band->contains(node.frequency_hz(i, dt), node.power(i))) {
        continue;
      }
      const double weight = std::abs(node.amplitudes[i]);
      for (std::size_t p = 0; p < sensors; ++p) {
        magnitude[p] += weight * std::abs(node.modes(p, i));
      }
    }
  }
  return magnitude;
}

/// Checks model.magnitudes(band) bitwise against fresh_mode_magnitudes on
/// four bands: none, and a max-frequency, a min-power and a min-frequency
/// cut at the medians of the model's spectrum. Each band is read twice:
/// the first read fills the terms of nodes no call has read yet, the
/// second reads them filled.
template <typename Model>
void expect_magnitudes_match_fresh(const Model& model, double dt,
                                   const std::string& what) {
  std::vector<double> hz, power;
  for (const dmd::SpectrumPoint& point : model.spectrum()) {
    hz.push_back(point.frequency_hz);
    power.push_back(point.power);
  }
  ASSERT_FALSE(hz.empty()) << what;
  std::sort(hz.begin(), hz.end());
  std::sort(power.begin(), power.end());
  dmd::ModeBand max_hz, min_power, min_hz;
  max_hz.max_frequency_hz = hz[hz.size() / 2];
  min_power.min_power = power[power.size() / 2];
  min_hz.min_frequency_hz = hz[hz.size() / 2];
  const std::pair<const dmd::ModeBand*, const char*> bands[] = {
      {nullptr, "no band"},
      {&max_hz, "max-frequency band"},
      {&min_power, "min-power band"},
      {&min_hz, "min-frequency band"},
  };
  for (const auto& [band, name] : bands) {
    const std::vector<double> fresh =
        fresh_mode_magnitudes(model.nodes(), model.sensors(), dt, band);
    for (const char* read : {"first read", "second read"}) {
      const std::string label = what + ", " + name + ", " + read;
      expect_bitwise_equal(model.magnitudes(band), fresh, label);
    }
  }
}

inline void expect_report_equal(const core::PartialFitReport& a,
                                const core::PartialFitReport& b,
                                const std::string& what) {
  EXPECT_EQ(a.new_snapshots, b.new_snapshots) << what;
  EXPECT_EQ(a.total_snapshots, b.total_snapshots) << what;
  expect_bitwise_equal(a.drift_grid, b.drift_grid, what + ".drift_grid");
  expect_bitwise_equal(a.drift_estimate, b.drift_estimate,
                       what + ".drift_estimate");
  EXPECT_EQ(a.drift_exceeded, b.drift_exceeded) << what;
  EXPECT_EQ(a.recomputed, b.recomputed) << what;
  EXPECT_EQ(a.new_nodes, b.new_nodes) << what;
  EXPECT_EQ(a.new_grid_columns, b.new_grid_columns) << what;
}

/// Every result field of two snapshots, bitwise: all but the wall-clock
/// times (fit_seconds, coarse_fit_seconds).
inline void expect_snapshot_equal(const core::AssessmentSnapshot& a,
                                  const core::AssessmentSnapshot& b) {
  EXPECT_EQ(a.chunk_index, b.chunk_index);
  EXPECT_EQ(a.chunk_snapshots, b.chunk_snapshots);
  EXPECT_EQ(a.total_snapshots, b.total_snapshots);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t g = 0; g < a.reports.size(); ++g) {
    expect_report_equal(a.reports[g], b.reports[g],
                        "reports[" + std::to_string(g) + "]");
  }
  expect_bitwise_equal(a.magnitudes, b.magnitudes, "magnitudes");
  expect_bitwise_equal(a.sensor_means, b.sensor_means, "sensor_means");
  expect_bitwise_equal(a.zscores.zscores, b.zscores.zscores, "zscores");
  EXPECT_EQ(a.zscores.baseline_sensors, b.zscores.baseline_sensors);
  expect_bitwise_equal(a.zscores.baseline_mean, b.zscores.baseline_mean,
                       "baseline_mean");
  expect_bitwise_equal(a.zscores.baseline_stddev, b.zscores.baseline_stddev,
                       "baseline_stddev");
  expect_bitwise_equal(a.coarse_magnitudes, b.coarse_magnitudes,
                       "coarse_magnitudes");
  expect_bitwise_equal(a.coarse_zscores, b.coarse_zscores, "coarse_zscores");
  expect_bitwise_equal(a.residual_zscores, b.residual_zscores,
                       "residual_zscores");
  expect_report_equal(a.coarse_report, b.coarse_report, "coarse_report");
}

inline void expect_snapshots_equal(
    const std::vector<core::AssessmentSnapshot>& a,
    const std::vector<core::AssessmentSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE("snapshot " + std::to_string(c));
    expect_snapshot_equal(a[c], b[c]);
  }
}

}  // namespace imrdmd::testing
