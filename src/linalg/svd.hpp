// Singular value decompositions.
//
// Two algorithms cover the repository's needs:
//   * svd(): one-sided Jacobi — high accuracy, O(max_dim * min_dim^2) per
//     sweep. Its hottest callers are the tall-and-skinny mrDMD bins (a
//     handful of columns after the 4x-Nyquist subsampling) and the square
//     (r+c) x (r+c) core matrix of incremental SVD updates of c > 1
//     columns. A one-column update's core is a broken arrow and takes the
//     O(r^2) secular-equation solver of isvd/arrow_svd.hpp instead, with
//     this Jacobi SVD as its test oracle. Small dense problems like these
//     are where Jacobi's simplicity and accuracy pay off.
//   * randomized_svd(): Halko-Martinsson-Tropp sketching for low-rank
//     approximations of large matrices (used by PCA with n_components=2,
//     mirroring scikit-learn's svd_solver='auto'->'randomized' choice).
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace imrdmd::linalg {

/// Thin SVD: x = U diag(s) V^T with s descending, U: m x r0, V: n x r0 where
/// r0 = min(m, n). Columns are orthonormal wherever s is significant. For
/// exactly-zero singular values the Jacobi backends (reference, avx2)
/// return a zero column in the long-side factor (U when m >= n, V when
/// m < n) and an orthonormal one in the other; openblas completes both
/// orthonormally. Columns at rounding-noise singular values are unit but
/// not necessarily orthogonal to the rest. Callers truncate via svht_rank
/// or a tolerance and rely on neither.
struct SvdResult {
  Mat u;
  std::vector<double> s;
  Mat v;

  /// Keeps only the leading `rank` triplets.
  void truncate(std::size_t rank);
};

/// Full-accuracy thin SVD by one-sided Jacobi (on the transposed input when
/// cols > rows, so the iteration always runs on the skinny side).
SvdResult svd(const Mat& x);

/// Reusable scratch for svd_into; buffers grow on demand and are never
/// shrunk, so repeated decompositions of same-or-smaller shapes (the
/// steady-state core matrices of the incremental SVD, the per-bin mrDMD
/// factorizations) allocate nothing.
struct SvdWorkspace {
  Mat a;
  Mat v;
  Mat xt;
  std::vector<double> norms;
  std::vector<std::size_t> order;
};

/// Workspace variant of svd(): identical algorithm and results, but every
/// temporary and all three output factors reuse caller-provided storage.
void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws);

/// Rank-k approximate SVD by randomized range finding.
/// `oversample` extra sketch columns and `power_iters` subspace iterations
/// trade time for accuracy (defaults follow Halko et al.'s recommendations).
SvdResult randomized_svd(const Mat& x, std::size_t k, Rng& rng,
                         std::size_t oversample = 8,
                         std::size_t power_iters = 2);

/// Moore-Penrose pseudoinverse via svd(); singular values below
/// rcond * s_max are treated as zero.
Mat pinv(const Mat& x, double rcond = 1e-13);

/// Optimal singular value hard threshold of Gavish & Donoho (2014) for
/// unknown noise level: rank = #{ s_i > omega(beta) * median(s) } where
/// beta is the matrix aspect ratio. Returns at least 1 when s[0] > 0 so a
/// DMD step on a noisy-but-nonzero bin always retains one mode; returns 0
/// for an all-zero spectrum.
std::size_t svht_rank(const std::vector<double>& singular_values,
                      std::size_t rows, std::size_t cols);

}  // namespace imrdmd::linalg
