// Householder QR factorizations (real).
//
// Thin QR underpins the incremental SVD (orthogonalizing the out-of-subspace
// residual of each new column block).
#pragma once

#include "linalg/matrix.hpp"

namespace imrdmd::linalg {

/// Thin QR of an m x n matrix with m >= n: A = Q R, Q m x n with
/// orthonormal columns, R n x n upper triangular with non-negative diagonal
/// (sign-normalized so factorizations are unique and comparable in tests).
struct QrResult {
  Mat q;
  Mat r;
};

/// Computes the thin QR of `a`. Requires rows >= cols.
QrResult thin_qr(const Mat& a);

/// Reusable scratch for thin_qr_into; buffers grow on demand and are never
/// shrunk, so repeated factorizations of same-or-smaller shapes allocate
/// nothing.
struct QrWorkspace {
  Mat work;
  std::vector<double> taus;
  std::vector<double> signs;
};

/// Workspace variant of thin_qr: identical algorithm and results, but every
/// temporary and both output factors reuse caller-provided storage.
void thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws);

/// Solves the upper-triangular system R x = b by back substitution.
/// Throws NumericalError when a diagonal entry is ~0 relative to ||R||.
std::vector<double> solve_upper(const Mat& r, std::span<const double> b);

}  // namespace imrdmd::linalg
