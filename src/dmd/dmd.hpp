// Exact Dynamic Mode Decomposition (Sec. III-A of the paper, Eqs. 1-6).
//
// Given snapshots x_1..x_T sampled every dt, DMD approximates the best-fit
// linear propagator A with Y = A X (X = snapshots 1..T-1, Y = 2..T) through
// the SVD of X, and returns its leading eigenstructure:
//   modes Phi = Y V S^-1 W,  discrete eigenvalues lambda,  amplitudes b
// with x(t) ~= Phi diag(lambda^t) b.
//
// dmd() factors the snapshot matrix itself and fits amplitudes for every
// mode. dmd_from_svd() accepts SVD factors of X and returns modes and
// eigenvalues only: its callers (core::fit_node, for every mrDMD bin and for
// I-mrDMD's incrementally updated root, Algo 1 line 3) keep the slow subset
// and fit amplitudes for that subset alone. The spectrum and reconstruction
// of a mode set live on core::MrdmdNode.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace imrdmd::dmd {

using linalg::CMat;
using linalg::Complex;
using linalg::Mat;

/// How mode amplitudes b are fitted.
enum class AmplitudeFit {
  /// b = argmin ||Phi b - x_0||: the classic choice (Kutz et al.), cheap but
  /// sensitive to noise in the single snapshot.
  FirstSnapshot,
  /// b = argmin sum_t ||Phi diag(lambda^t) b - x_t||^2 over every snapshot:
  /// the optimized amplitudes of Jovanovic et al. [44]; robust to noise.
  AllSnapshots,
};

struct DmdOptions {
  /// Truncate the SVD rank with the Gavish-Donoho optimal hard threshold.
  bool use_svht = true;
  /// Additional hard cap on the rank (0 = none).
  std::size_t max_rank = 0;
  AmplitudeFit amplitude_fit = AmplitudeFit::AllSnapshots;
};

struct DmdResult {
  /// DMD modes as columns (P x r).
  CMat modes;
  /// Discrete-time eigenvalues lambda_i of the propagator.
  std::vector<Complex> eigenvalues;
  /// Mode amplitudes b_i, fitted by DmdOptions::amplitude_fit. Only dmd()
  /// fills them; dmd_from_svd() leaves them empty.
  std::vector<Complex> amplitudes;
  /// Snapshot spacing in seconds.
  double dt = 1.0;
  /// SVD rank retained for the projected operator.
  std::size_t svd_rank = 0;

  std::size_t mode_count() const { return eigenvalues.size(); }
};

/// Exact DMD of a snapshot matrix `data` (P sensors x T snapshots, T >= 2).
DmdResult dmd(const Mat& data, double dt, const DmdOptions& options = {});

/// Modes and eigenvalues from precomputed SVD factors of X
/// (u diag(s) v^T ~= X) plus the shifted snapshot matrix y; amplitudes are
/// left empty and options.amplitude_fit is not read. `s` may be longer than
/// the factors' rank; rank selection (SVHT/cap) happens here.
DmdResult dmd_from_svd(const Mat& u, const std::vector<double>& s,
                       const Mat& v, const Mat& y, double dt,
                       const DmdOptions& options = {});

/// Fits amplitudes for an explicit (modes, eigenvalues) set against
/// `snapshots`, whose column t is assumed to sit at eigenvalue power t.
/// Used by mrDMD to fit amplitudes after slow-mode selection (the
/// reference implementation's order of operations).
std::vector<Complex> fit_amplitudes(const CMat& modes,
                                    const std::vector<Complex>& eigenvalues,
                                    const Mat& snapshots, AmplitudeFit method);

/// Amplitude fit from precomputed inner products: gram = Phi^H Phi (r x r)
/// and proj = Phi^H X (r x T) — the core of the AllSnapshots objective
/// behind fit_amplitudes.
std::vector<Complex> fit_amplitudes_from_products(
    const CMat& gram, const CMat& proj,
    const std::vector<Complex>& eigenvalues);

}  // namespace imrdmd::dmd
