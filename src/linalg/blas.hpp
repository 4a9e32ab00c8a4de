// Dense kernels: products, norms, and simple transforms.
//
// GEMM is cache-blocked and OpenMP-parallel over row panels; everything in
// dmd/core funnels its heavy products through these entry points so there is
// exactly one place to tune. Adjoint variants avoid materializing transposes.
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace imrdmd::linalg {

/// C = A * B.
Mat matmul(const Mat& a, const Mat& b);
CMat matmul(const CMat& a, const CMat& b);

/// C = A^T * B (real) — A is used transposed without copying.
Mat matmul_at_b(const Mat& a, const Mat& b);

/// C = A * B^T (real).
Mat matmul_a_bt(const Mat& a, const Mat& b);

// --- Workspace-accepting variants ----------------------------------------
// Write into `out`, reshaping it as needed; the backing storage is reused
// when capacity suffices, so a caller cycling the same `out` through these
// entry points performs zero heap allocations in steady state. The hot
// streaming paths (isvd::Isvd::update, the per-bin mrDMD fits) funnel their
// products through these instead of the value-returning forms above.

/// out = A * B.
void matmul_into(const Mat& a, const Mat& b, Mat& out);
void matmul_into(const CMat& a, const CMat& b, CMat& out);

/// out = A^T * B.
void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out);

/// out = A * B^T.
void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out);

/// out -= A * B; `out` must already have shape (A.rows x B.cols).
void matmul_sub(const Mat& a, const Mat& b, Mat& out);

/// One fused (re)orthogonalization pass of the incremental SVD:
///   coeff_ws    = U^T residual      (projection onto span(U))
///   residual   -= U * coeff_ws      (out-of-subspace remainder)
///   coeff_accum += coeff_ws         (accumulated projection coefficients)
/// Calling it twice is the classical "project + one reorthogonalization"
/// recipe; every temporary lives in the caller's workspace.
void project_out(const Mat& u, Mat& residual, Mat& coeff_accum,
                 Mat& coeff_ws);

/// C = A^H * B (complex adjoint).
CMat matmul_ah_b(const CMat& a, const CMat& b);

/// y = A * x.
std::vector<double> matvec(const Mat& a, std::span<const double> x);
std::vector<Complex> matvec(const CMat& a, std::span<const Complex> x);

/// y = A^T * x.
std::vector<double> matvec_t(const Mat& a, std::span<const double> x);

/// Frobenius norm.
double frobenius_norm(const Mat& m);
double frobenius_norm(const CMat& m);

/// ||a - b||_F without forming the difference.
double frobenius_diff(const Mat& a, const Mat& b);

/// Euclidean norm of a vector.
double norm2(std::span<const double> x);
double norm2(std::span<const Complex> x);

/// Dot products.
double dot(std::span<const double> a, std::span<const double> b);
/// conj(a) . b
Complex cdot(std::span<const Complex> a, std::span<const Complex> b);

/// Per-column Euclidean norms.
std::vector<double> col_norms(const Mat& m);

/// Scales column j of m in place by s.
void scale_col(Mat& m, std::size_t j, double s);

}  // namespace imrdmd::linalg
