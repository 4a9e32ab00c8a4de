#include "core/mrdmd_node.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/blas.hpp"

namespace imrdmd::core {

namespace {
constexpr double kTwoPi = 6.283185307179586476925287;
}

double MrdmdNode::frequency_hz(std::size_t i, double dt) const {
  const Complex log_lambda = std::log(eigenvalues[i]);
  return std::abs(log_lambda.imag()) /
         (kTwoPi * static_cast<double>(stride) * dt);
}

double MrdmdNode::growth_rate(std::size_t i, double dt) const {
  const Complex log_lambda = std::log(eigenvalues[i]);
  return log_lambda.real() / (static_cast<double>(stride) * dt);
}

double MrdmdNode::power(std::size_t i) const {
  double sum = 0.0;
  for (std::size_t p = 0; p < modes.rows(); ++p) sum += std::norm(modes(p, i));
  return sum;
}

std::vector<dmd::SpectrumPoint> MrdmdNode::spectrum(double dt) const {
  std::vector<dmd::SpectrumPoint> points(mode_count());
  for (std::size_t i = 0; i < mode_count(); ++i) {
    points[i].frequency_hz = frequency_hz(i, dt);
    points[i].power = power(i);
    points[i].amplitude = std::sqrt(points[i].power);
    points[i].growth_rate = growth_rate(i, dt);
    points[i].mode_index = i;
    points[i].level = level;
  }
  return points;
}

void accumulate_node(const MrdmdNode& node, double dt,
                     const dmd::ModeBand* band, Mat& out, std::size_t out_t0,
                     std::size_t out_step) {
  IMRDMD_REQUIRE_ARG(out_step >= 1, "accumulate_node needs out_step >= 1");
  IMRDMD_REQUIRE_DIMS(out.rows() == node.modes.rows() || node.mode_count() == 0,
                      "accumulate_node sensor count mismatch");
  // First output column at or after snapshot t (clamped to out.cols()):
  // columns [c_lo, c_hi) hold the snapshots inside the node window.
  const auto first_column = [&](std::size_t t) {
    if (t <= out_t0) return std::size_t{0};
    return std::min(out.cols(), (t - out_t0 + out_step - 1) / out_step);
  };
  const std::size_t c_lo = first_column(node.t_begin);
  const std::size_t c_hi = first_column(node.t_end);
  if (c_lo >= c_hi || node.mode_count() == 0) return;

  // Band-filtered mode subset.
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < node.mode_count(); ++i) {
    if (band == nullptr ||
        band->contains(node.frequency_hz(i, dt), node.power(i))) {
      kept.push_back(i);
    }
  }
  if (kept.empty()) return;
  const std::size_t m = kept.size();
  const std::size_t p = node.modes.rows();
  const std::size_t w = c_hi - c_lo;

  // Dynamics over the overlap: dyn(i, t) = b_i lambda_i^{(t - t_begin)/stride}.
  Mat re_dyn(m, w), im_dyn(m, w);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = kept[k];
    const Complex log_lambda = std::log(node.eigenvalues[i]);
    const Complex b = node.amplitudes[i];
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t t = out_t0 + (c_lo + c) * out_step;
      const double local = static_cast<double>(t - node.t_begin) /
                           static_cast<double>(node.stride);
      const Complex value = b * std::exp(log_lambda * local);
      re_dyn(k, c) = value.real();
      im_dyn(k, c) = value.imag();
    }
  }
  // Re(Phi dyn) = Re(Phi) Re(dyn) - Im(Phi) Im(dyn).
  Mat re_phi(p, m), im_phi(p, m);
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t k = 0; k < m; ++k) {
      const Complex value = node.modes(r, kept[k]);
      re_phi(r, k) = value.real();
      im_phi(r, k) = value.imag();
    }
  }
  Mat contribution = linalg::matmul(re_phi, re_dyn);
  contribution -= linalg::matmul(im_phi, im_dyn);
  for (std::size_t r = 0; r < p; ++r) {
    double* dst = out.data() + r * out.cols() + c_lo;
    const double* src = contribution.data() + r * w;
    for (std::size_t c = 0; c < w; ++c) dst[c] += src[c];
  }
}

Mat reconstruct_nodes(const std::vector<MrdmdNode>& nodes, std::size_t sensors,
                      std::size_t t0, std::size_t t1, double dt,
                      const dmd::ModeBand* band, std::size_t level_min,
                      std::size_t level_max) {
  IMRDMD_REQUIRE_ARG(t1 >= t0, "reconstruct_nodes needs t1 >= t0");
  Mat out(sensors, t1 - t0);
  for (const MrdmdNode& node : nodes) {
    if (level_min > 0 && node.level < level_min) continue;
    if (level_max > 0 && node.level > level_max) continue;
    accumulate_node(node, dt, band, out, t0);
  }
  return out;
}

std::vector<double> band_level_means(const std::vector<MrdmdNode>& nodes,
                                     std::size_t sensors, double dt,
                                     const dmd::ModeBand* band,
                                     std::size_t t0, std::size_t t1) {
  IMRDMD_REQUIRE_ARG(t1 > t0, "band_level_means needs a non-empty window");
  const Mat recon = reconstruct_nodes(nodes, sensors, t0, t1, dt, band);
  std::vector<double> level(sensors, 0.0);
  const double inv = 1.0 / static_cast<double>(t1 - t0);
  for (std::size_t p = 0; p < sensors; ++p) {
    double sum = 0.0;
    const double* row = recon.data() + p * recon.cols();
    for (std::size_t t = 0; t < recon.cols(); ++t) sum += row[t];
    level[p] = sum * inv;
  }
  return level;
}

std::size_t total_modes(const std::vector<MrdmdNode>& nodes) {
  std::size_t count = 0;
  for (const MrdmdNode& node : nodes) count += node.mode_count();
  return count;
}

std::vector<dmd::SpectrumPoint> spectrum(const std::vector<MrdmdNode>& nodes,
                                         double dt) {
  std::vector<dmd::SpectrumPoint> points;
  for (const MrdmdNode& node : nodes) {
    const auto node_points = node.spectrum(dt);
    points.insert(points.end(), node_points.begin(), node_points.end());
  }
  return points;
}

namespace {

// Leading words of a magnitude_terms record: ||phi_i||^2, |Im ln lambda_i|
// and |b_i|; the record's |phi_{p,i}| follow.
constexpr std::size_t kModeTerms = 3;

// The node's magnitude_terms, filled on first read with the expressions
// power(), frequency_hz() and the original per-element loop use, so every
// sum built from them is bitwise the one built from the node's fields.
const double* filled_magnitude_terms(const MrdmdNode& node) {
  const std::size_t p = node.modes.rows();
  const std::size_t record = kModeTerms + p;
  std::vector<double>& terms = node.magnitude_terms;
  if (terms.size() != node.mode_count() * record) {
    terms.resize(node.mode_count() * record);
    for (std::size_t i = 0; i < node.mode_count(); ++i) {
      double* out = terms.data() + i * record;
      out[0] = node.power(i);
      out[1] = std::abs(std::log(node.eigenvalues[i]).imag());
      out[2] = std::abs(node.amplitudes[i]);
      for (std::size_t r = 0; r < p; ++r) {
        out[kModeTerms + r] = std::abs(node.modes(r, i));
      }
    }
  }
  return terms.data();
}

}  // namespace

std::vector<double> mode_magnitudes(const std::vector<MrdmdNode>& nodes,
                                    std::size_t sensors, double dt,
                                    const dmd::ModeBand* band) {
  std::vector<double> magnitude(sensors, 0.0);
  for (const MrdmdNode& node : nodes) {
    IMRDMD_REQUIRE_DIMS(node.modes.rows() == sensors || node.mode_count() == 0,
                        "mode_magnitudes sensor count mismatch");
    if (node.mode_count() == 0) continue;
    const double* terms = filled_magnitude_terms(node);
    // frequency_hz(i, dt) = |Im ln lambda_i| / this.
    const double hz_scale = kTwoPi * static_cast<double>(node.stride) * dt;
    for (std::size_t i = 0; i < node.mode_count(); ++i) {
      const double* record = terms + i * (kModeTerms + sensors);
      if (band != nullptr && !band->contains(record[1] / hz_scale, record[0])) {
        continue;
      }
      const double weight = record[2];
      const double* abs_phi = record + kModeTerms;
      for (std::size_t p = 0; p < sensors; ++p) {
        magnitude[p] += weight * abs_phi[p];
      }
    }
  }
  return magnitude;
}

}  // namespace imrdmd::core
