// One node of the multiresolution DMD tree.
//
// A node covers the half-open snapshot window [t_begin, t_end) at a given
// level, was computed on the window subsampled by `stride` (the paper's
// "four times the Nyquist limit" rule, Sec. III-A), and stores only its
// *slow* modes — those whose frequency lies below the node's cutoff `rho`
// (max_cycles oscillations across the window). The node's contribution to
// the reconstruction at global snapshot t in its window is
//     Re( sum_i  phi_i  b_i  lambda_i^{(t - t_begin) / stride} ).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dmd/spectrum.hpp"
#include "linalg/matrix.hpp"

namespace imrdmd::core {

using linalg::CMat;
using linalg::Complex;
using linalg::Mat;

struct MrdmdNode {
  /// 1-based level (1 = slowest timescale, whole timeline).
  std::size_t level = 1;
  /// Bin position within its level (left-to-right).
  std::size_t bin_index = 0;
  /// Global snapshot window [t_begin, t_end).
  std::size_t t_begin = 0;
  std::size_t t_end = 0;
  /// Subsample stride used for this node's DMD.
  std::size_t stride = 1;
  /// Slow-mode cutoff in cycles per (original-resolution) snapshot.
  double rho = 0.0;
  /// SVD rank retained for the projected operator.
  std::size_t svd_rank = 0;

  /// Retained slow modes as columns (P x m).
  CMat modes{};
  /// Discrete eigenvalues of the subsampled propagator (length m).
  std::vector<Complex> eigenvalues{};
  /// Mode amplitudes (length m).
  std::vector<Complex> amplitudes{};

  /// Magnitude terms, derived from modes, eigenvalues and amplitudes and
  /// never serialized: per mode i, one record of ||phi_i||^2,
  /// |Im ln lambda_i|, |b_i|, then |phi_{p,i}| for every sensor p. Filled
  /// by the first mode_magnitudes call that reads the node (so a restored
  /// model pays on its first magnitudes(), not at load). A node's modes,
  /// eigenvalues and amplitudes are not edited once it has been evaluated:
  /// a refit replaces the node instead (level is not an input).
  mutable std::vector<double> magnitude_terms{};

  std::size_t mode_count() const { return eigenvalues.size(); }
  std::size_t span() const { return t_end - t_begin; }

  /// Frequency of mode i in Hz given the snapshot interval dt:
  /// |Im ln(lambda_i)| / (2 pi stride dt).
  double frequency_hz(std::size_t i, double dt) const;

  /// Growth rate of mode i in 1/s: Re ln(lambda_i) / (stride dt).
  double growth_rate(std::size_t i, double dt) const;

  /// ||phi_i||^2 (paper Eq. 10).
  double power(std::size_t i) const;

  /// Spectrum points for all modes of this node.
  std::vector<dmd::SpectrumPoint> spectrum(double dt) const;
};

/// Adds this node's (band-filtered) reconstruction into `out`, whose column
/// c holds global snapshot out_t0 + c * out_step (out_step >= 1). Only the
/// columns whose snapshots fall in the node window are touched. Pass
/// band = nullptr to keep every mode. The one evaluation of
/// Re(Phi diag(b) lambda^t) in the engine: the bins' subtraction, every
/// reconstruction, and I-mrDMD's root on its level-1 grid
/// (out_step = stride) all go through it.
void accumulate_node(const MrdmdNode& node, double dt,
                     const dmd::ModeBand* band, Mat& out, std::size_t out_t0,
                     std::size_t out_step = 1);

/// Sum of accumulate_node over `nodes` restricted to levels in
/// [level_min, level_max] (0 = no bound). Returns a P x (t1 - t0) matrix.
Mat reconstruct_nodes(const std::vector<MrdmdNode>& nodes, std::size_t sensors,
                      std::size_t t0, std::size_t t1, double dt,
                      const dmd::ModeBand* band = nullptr,
                      std::size_t level_min = 0, std::size_t level_max = 0);

/// Number of retained modes across `nodes`.
std::size_t total_modes(const std::vector<MrdmdNode>& nodes);

/// Spectrum points of every node, in node order (Figs. 5/7).
std::vector<dmd::SpectrumPoint> spectrum(const std::vector<MrdmdNode>& nodes,
                                         double dt);

/// Per-sensor aggregate mode magnitude m_p = sum_i |b_i| |phi_{p,i}| over
/// all nodes, band-filtered — the quantity the paper z-scores against a
/// baseline population (Sec. III-A.2). Reads each node's magnitude_terms,
/// filling them on first read, so a call costs one multiply-add per mode
/// element of every node; the result is bitwise that of evaluating |b_i|,
/// |phi_{p,i}|, power(i) and frequency_hz(i, dt) afresh. The fill writes
/// to const nodes: each model is read and updated by one thread at a time.
std::vector<double> mode_magnitudes(const std::vector<MrdmdNode>& nodes,
                                    std::size_t sensors, double dt,
                                    const dmd::ModeBand* band = nullptr);

/// Per-sensor time-mean of the band-filtered reconstruction over [t0, t1):
/// the denoised slow-state level each sensor sits at — the alternative
/// "reading of interest" summary (this is what the rack views effectively
/// color: the state of the node with faster timescales stripped away).
std::vector<double> band_level_means(const std::vector<MrdmdNode>& nodes,
                                     std::size_t sensors, double dt,
                                     const dmd::ModeBand* band,
                                     std::size_t t0, std::size_t t1);

}  // namespace imrdmd::core
