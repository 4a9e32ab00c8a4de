#include "linalg/blas.hpp"

#include <cmath>

#include "linalg/backend.hpp"
#include "linalg/kernels.hpp"

namespace imrdmd::linalg {

namespace {

// Row-panel blocking: each OpenMP thread owns a stripe of C rows; the inner
// k-j loop order streams B rows sequentially, which is the cache-friendly
// order for row-major storage. Each output row is owned by exactly one
// thread, so results are bitwise deterministic for any thread count.
// `c` arrives pre-shaped and zero-filled (Backend kernel contract).
template <typename T>
void matmul_into_impl(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const T* __restrict__ bp = b.data();
#pragma omp parallel for schedule(static) if (m * n * k > 1u << 14)
  for (std::size_t i = 0; i < m; ++i) {
    const T* __restrict__ arow = a.data() + i * k;
    T* __restrict__ crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const T aik = arow[kk];
      if (aik == T{}) continue;
      const T* __restrict__ brow = bp + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

}  // namespace

// --- Reference kernels (the "reference" backend; see kernels.hpp) --------

namespace ref {

void matmul_into(const Mat& a, const Mat& b, Mat& out) {
  matmul_into_impl(a, b, out);
}

void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.cols();
  const std::size_t k = a.rows();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  // C += a_row(kk)^T * b_row(kk): rank-1 accumulation keeps both inputs in
  // row-major streaming order. Parallelizing over kk would race on C, so we
  // parallelize over output rows with a transposed access into A instead
  // when the problem is big enough.
#pragma omp parallel for schedule(static) if (m * n * k > 1u << 14)
  for (std::size_t i = 0; i < m; ++i) {
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aki = a(kk, i);
      if (aki == 0.0) continue;
      const double* __restrict__ brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
}

void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  if (m == 0 || k == 0 || n == 0) return;
#pragma omp parallel for schedule(static) if (m * n * k > 1u << 14)
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict__ arow = a.data() + i * k;
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const double* __restrict__ brow = b.data() + j * k;
      double sum = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) sum += arow[kk] * brow[kk];
      crow[j] = sum;
    }
  }
}

void matmul_sub(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
  const double* __restrict__ bp = b.data();
#pragma omp parallel for schedule(static) if (m * n * k > 1u << 14)
  for (std::size_t i = 0; i < m; ++i) {
    const double* __restrict__ arow = a.data() + i * k;
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = arow[kk];
      if (aik == 0.0) continue;
      const double* __restrict__ brow = bp + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] -= aik * brow[j];
    }
  }
}

}  // namespace ref

// --- Dispatching entry points --------------------------------------------
// Validation and output shaping stay here, in exactly one place, so every
// backend sees the same contract (backend.hpp). The complex overloads are
// not part of the seam: no hot path funnels complex GEMMs.

Mat matmul(const Mat& a, const Mat& b) {
  Mat c;
  matmul_into(a, b, c);
  return c;
}
CMat matmul(const CMat& a, const CMat& b) {
  CMat c;
  matmul_into(a, b, c);
  return c;
}

void matmul_into(const Mat& a, const Mat& b, Mat& out) {
  IMRDMD_REQUIRE_DIMS(a.cols() == b.rows(), "matmul inner dimension mismatch");
  out.assign_zero(a.rows(), b.cols());
  active_backend().matmul_into(a, b, out);
}
void matmul_into(const CMat& a, const CMat& b, CMat& out) {
  IMRDMD_REQUIRE_DIMS(a.cols() == b.rows(), "matmul inner dimension mismatch");
  out.assign_zero(a.rows(), b.cols());
  matmul_into_impl(a, b, out);
}

void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) {
  IMRDMD_REQUIRE_DIMS(a.rows() == b.rows(), "matmul_at_b dimension mismatch");
  out.assign_zero(a.cols(), b.cols());
  active_backend().matmul_at_b_into(a, b, out);
}

void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) {
  IMRDMD_REQUIRE_DIMS(a.cols() == b.cols(), "matmul_a_bt dimension mismatch");
  out.assign_zero(a.rows(), b.rows());
  active_backend().matmul_a_bt_into(a, b, out);
}

void matmul_sub(const Mat& a, const Mat& b, Mat& out) {
  IMRDMD_REQUIRE_DIMS(a.cols() == b.rows(), "matmul inner dimension mismatch");
  IMRDMD_REQUIRE_DIMS(out.rows() == a.rows() && out.cols() == b.cols(),
                      "matmul_sub output shape mismatch");
  active_backend().matmul_sub(a, b, out);
}

void project_out(const Mat& u, Mat& residual, Mat& coeff_accum,
                 Mat& coeff_ws) {
  IMRDMD_REQUIRE_DIMS(u.rows() == residual.rows(),
                      "matmul_at_b dimension mismatch");
  IMRDMD_REQUIRE_DIMS(coeff_accum.rows() == u.cols() &&
                          coeff_accum.cols() == residual.cols(),
                      "operator+= shape mismatch");
  active_backend().project_out(u, residual, coeff_accum, coeff_ws);
}

Mat matmul_at_b(const Mat& a, const Mat& b) {
  Mat c;
  matmul_at_b_into(a, b, c);
  return c;
}

Mat matmul_a_bt(const Mat& a, const Mat& b) {
  Mat c;
  matmul_a_bt_into(a, b, c);
  return c;
}

CMat matmul_ah_b(const CMat& a, const CMat& b) {
  IMRDMD_REQUIRE_DIMS(a.rows() == b.rows(), "matmul_ah_b dimension mismatch");
  const std::size_t m = a.cols();
  const std::size_t k = a.rows();
  const std::size_t n = b.cols();
  CMat c(m, n);
  if (m == 0 || k == 0 || n == 0) return c;
#pragma omp parallel for schedule(static) if (m * n * k > 1u << 14)
  for (std::size_t i = 0; i < m; ++i) {
    Complex* __restrict__ crow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const Complex aki = std::conj(a(kk, i));
      const Complex* __restrict__ brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
    }
  }
  return c;
}

std::vector<double> matvec(const Mat& a, std::span<const double> x) {
  IMRDMD_REQUIRE_DIMS(a.cols() == x.size(), "matvec dimension mismatch");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* __restrict__ arow = a.data() + i * a.cols();
    double sum = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) sum += arow[j] * x[j];
    y[i] = sum;
  }
  return y;
}

std::vector<Complex> matvec(const CMat& a, std::span<const Complex> x) {
  IMRDMD_REQUIRE_DIMS(a.cols() == x.size(), "matvec dimension mismatch");
  std::vector<Complex> y(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const Complex* __restrict__ arow = a.data() + i * a.cols();
    Complex sum{};
    for (std::size_t j = 0; j < a.cols(); ++j) sum += arow[j] * x[j];
    y[i] = sum;
  }
  return y;
}

std::vector<double> matvec_t(const Mat& a, std::span<const double> x) {
  IMRDMD_REQUIRE_DIMS(a.rows() == x.size(), "matvec_t dimension mismatch");
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* __restrict__ arow = a.data() + i * a.cols();
    const double xi = x[i];
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += arow[j] * xi;
  }
  return y;
}

double frobenius_norm(const Mat& m) {
  double sum = 0.0;
  const double* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) sum += p[i] * p[i];
  return std::sqrt(sum);
}

double frobenius_norm(const CMat& m) {
  double sum = 0.0;
  const Complex* p = m.data();
  for (std::size_t i = 0; i < m.size(); ++i) sum += std::norm(p[i]);
  return std::sqrt(sum);
}

double frobenius_diff(const Mat& a, const Mat& b) {
  IMRDMD_REQUIRE_DIMS(a.rows() == b.rows() && a.cols() == b.cols(),
                      "frobenius_diff shape mismatch");
  double sum = 0.0;
  const double* pa = a.data();
  const double* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = pa[i] - pb[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

double norm2(std::span<const double> x) {
  double sum = 0.0;
  for (double v : x) sum += v * v;
  return std::sqrt(sum);
}

double norm2(std::span<const Complex> x) {
  double sum = 0.0;
  for (const Complex& v : x) sum += std::norm(v);
  return std::sqrt(sum);
}

double dot(std::span<const double> a, std::span<const double> b) {
  IMRDMD_REQUIRE_DIMS(a.size() == b.size(), "dot length mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

Complex cdot(std::span<const Complex> a, std::span<const Complex> b) {
  IMRDMD_REQUIRE_DIMS(a.size() == b.size(), "cdot length mismatch");
  Complex sum{};
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::conj(a[i]) * b[i];
  return sum;
}

std::vector<double> col_norms(const Mat& m) {
  std::vector<double> norms(m.cols(), 0.0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.data() + i * m.cols();
    for (std::size_t j = 0; j < m.cols(); ++j) norms[j] += row[j] * row[j];
  }
  for (auto& n : norms) n = std::sqrt(n);
  return norms;
}

void scale_col(Mat& m, std::size_t j, double s) {
  IMRDMD_REQUIRE_DIMS(j < m.cols(), "scale_col index out of range");
  for (std::size_t i = 0; i < m.rows(); ++i) m(i, j) *= s;
}

CMat to_complex(const Mat& m) {
  CMat out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) out.data()[i] = m.data()[i];
  return out;
}

Mat real_part(const CMat& m) {
  Mat out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) out.data()[i] = m.data()[i].real();
  return out;
}

Mat abs_part(const CMat& m) {
  Mat out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) out.data()[i] = std::abs(m.data()[i]);
  return out;
}

}  // namespace imrdmd::linalg
