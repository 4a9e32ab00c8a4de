// AVX2/FMA kernels for the GEMM family and the one-sided Jacobi SVD.
//
// This translation unit — and ONLY this one — is compiled with
// -mavx2 -mfma (see the set_source_files_properties call in
// CMakeLists.txt), so nothing outside the guarded block below may be
// reached on a CPU without those extensions. Backend dispatch and the
// runtime CPU check live in backend.cpp, which is built with the project's
// baseline flags; the kernels here are invoked only after both
// kernels_compiled() and the CPU check pass.
//
// Vectorization strategy: the reference kernels' outer structure is kept
// verbatim (OpenMP row panels, each output row owned by one thread, same
// k-loop order), and only the innermost contiguous j-loops become 256-bit
// FMA lanes. That preserves the per-backend determinism contract — a fixed
// operation order for any thread count — while replacing the two-rounding
// multiply-add with single-rounding FMA, which is why avx2 results sit in
// the banded (not bitwise) equivalence class against reference.
//
// The SVD keeps the reference's algorithm (one-sided Jacobi, cyclic pair
// order, same tolerances and output conventions) but not its layout: it
// works on a column-contiguous copy, so every inner loop is a unit-stride
// vector pass, and caches the squared column norms so each pair costs one
// dot product instead of three.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "linalg/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define IMRDMD_AVX2_KERNELS 1
#endif

namespace imrdmd::linalg::avx2 {

bool kernels_compiled() {
#ifdef IMRDMD_AVX2_KERNELS
  return true;
#else
  return false;
#endif
}

#ifdef IMRDMD_AVX2_KERNELS

namespace {

// crow[0..n) += aik * brow[0..n): one broadcast FMA pass, 8 doubles per
// iteration (two 256-bit lanes) to keep both FMA ports busy.
inline void axpy_row(double aik, const double* __restrict__ brow,
                     double* __restrict__ crow, std::size_t n) {
  const __m256d va = _mm256_set1_pd(aik);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j + 4), c1);
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    _mm256_storeu_pd(crow + j, c0);
  }
  for (; j < n; ++j) crow[j] += aik * brow[j];
}

// crow[0..n) -= aik * brow[0..n).
inline void axmy_row(double aik, const double* __restrict__ brow,
                     double* __restrict__ crow, std::size_t n) {
  const __m256d va = _mm256_set1_pd(aik);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    c0 = _mm256_fnmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    c1 = _mm256_fnmadd_pd(va, _mm256_loadu_pd(brow + j + 4), c1);
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    c0 = _mm256_fnmadd_pd(va, _mm256_loadu_pd(brow + j), c0);
    _mm256_storeu_pd(crow + j, c0);
  }
  for (; j < n; ++j) crow[j] -= aik * brow[j];
}

// sum(arow[0..k) * brow[0..k)) with two independent accumulators; the
// horizontal reduction at the end fixes the lane-sum order, keeping the
// kernel deterministic run-to-run.
inline double dot_row(const double* __restrict__ arow,
                      const double* __restrict__ brow, std::size_t k) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk),
                           _mm256_loadu_pd(brow + kk), acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk + 4),
                           _mm256_loadu_pd(brow + kk + 4), acc1);
  }
  for (; kk + 4 <= k; kk += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + kk),
                           _mm256_loadu_pd(brow + kk), acc0);
  }
  acc0 = _mm256_add_pd(acc0, acc1);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc0);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; kk < k; ++kk) sum += arow[kk] * brow[kk];
  return sum;
}

// (x, y) <- (c x - s y, s x + c y) over n contiguous doubles: one Jacobi
// plane rotation applied to two stored columns.
inline void rotate_rows(double c, double s, double* __restrict__ x,
                        double* __restrict__ y, std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(x + i, _mm256_fnmadd_pd(vs, yi, _mm256_mul_pd(vc, xi)));
    _mm256_storeu_pd(y + i, _mm256_fmadd_pd(vs, xi, _mm256_mul_pd(vc, yi)));
  }
  for (; i < n; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

// One-sided Jacobi on a tall m x n operand (m >= n) held column-contiguous:
// operand column j is row j of ws.a (n x m on entry), and V's column j is
// row j of ws.v. Mirrors jacobi_svd_tall_into (svd.cpp) step for step —
// prescale, noise floor, tolerance, sweep cap, exact final norms, stable
// descending sort, zero U columns for zero norms — except that the squared
// column norms live in ws.norms: recomputed exactly at the start of each
// sweep and carried through a rotation by the closed form
// app' = app - t apq, aqq' = aqq + t apq.
void jacobi_svd_columns_into(std::size_t m, std::size_t n, SvdResult& result,
                             SvdWorkspace& ws) {
  Mat& a = ws.a;
  double max_abs = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_abs = std::max(max_abs, std::abs(a.data()[i]));
  }
  const double prescale = max_abs > 0.0 ? 1.0 / max_abs : 1.0;
  if (prescale != 1.0) a *= prescale;
  Mat& v = ws.v;
  v.assign_zero(n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0;

  const double eps = 1e-15;
  const double total_sq = dot_row(a.data(), a.data(), a.size());
  const double noise_floor_sq = (eps * eps) * total_sq;
  std::vector<double>& norms = ws.norms;
  norms.resize(n);
  const std::size_t max_sweeps = 60;
  bool converged = false;
  for (std::size_t sweep = 0; sweep < max_sweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t j = 0; j < n; ++j) {
      const double* col = a.data() + j * m;
      norms[j] = dot_row(col, col, m);
    }
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* ap = a.data() + p * m;
      for (std::size_t q = p + 1; q < n; ++q) {
        const double app = norms[p];
        const double aqq = norms[q];
        if (app <= noise_floor_sq || aqq <= noise_floor_sq) continue;
        double* aq = a.data() + q * m;
        const double apq = dot_row(ap, aq, m);
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) {
          continue;
        }
        converged = false;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotate_rows(c, s, ap, aq, m);
        rotate_rows(c, s, v.data() + p * n, v.data() + q * n, n);
        norms[p] = app - t * apq;
        norms[q] = aqq + t * apq;
      }
    }
  }
  if (!converged) {
    throw NumericalError("jacobi_svd did not converge (input finite?)");
  }

  // The converged sweep rotated nothing, so the norms it opened with are
  // the exact final ones.
  for (auto& norm : norms) norm = std::sqrt(norm);
  std::vector<std::size_t>& order = ws.order;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t i, std::size_t j) { return norms[i] > norms[j]; });

  result.s.resize(n);
  result.u.assign_zero(m, n);
  result.v.assign_zero(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = order[k];
    result.s[k] = norms[j] * (max_abs > 0.0 ? max_abs : 1.0);
    if (norms[j] > 0.0) {
      const double inv = 1.0 / norms[j];
      const double* col = a.data() + j * m;
      for (std::size_t i = 0; i < m; ++i) result.u(i, k) = col[i] * inv;
    }
    const double* vcol = v.data() + j * n;
    for (std::size_t i = 0; i < n; ++i) result.v(i, k) = vcol[i];
  }
}

}  // namespace

void matmul_into(const Mat& a, const Mat& b, Mat& out) {
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
      // Zero-skip kept from the reference kernel: the iSVD core matrices
      // are mostly structural zeros and the branch wins there.
      if (aik == 0.0) continue;
      axpy_row(aik, bp + kk * n, crow, n);
    }
  }
}

void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) {
  const std::size_t m = a.cols();
  const std::size_t k = a.rows();
  const std::size_t n = b.cols();
  if (m == 0 || k == 0 || n == 0) return;
#pragma omp parallel for schedule(static) if (m * n * k > 1u << 14)
  for (std::size_t i = 0; i < m; ++i) {
    double* __restrict__ crow = out.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aki = a(kk, i);
      if (aki == 0.0) continue;
      axpy_row(aki, b.data() + kk * n, crow, n);
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
      crow[j] = dot_row(arow, b.data() + j * k, k);
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
      axmy_row(aik, bp + kk * n, crow, n);
    }
  }
}

void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) {
  if (x.rows() >= x.cols()) {
    x.transposed_into(ws.a);
    jacobi_svd_columns_into(x.rows(), x.cols(), out, ws);
    return;
  }
  // Factor the transpose, whose columns are already the rows of x, and
  // swap the singular vector roles.
  ws.a = x;
  jacobi_svd_columns_into(x.cols(), x.rows(), out, ws);
  std::swap(out.u, out.v);
}

#else  // !IMRDMD_AVX2_KERNELS

// Unreachable by construction (backend.cpp gates on kernels_compiled()),
// but defined so the symbol set is identical on every target.
void matmul_into(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_into(a, b, out);
}
void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_at_b_into(a, b, out);
}
void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_a_bt_into(a, b, out);
}
void matmul_sub(const Mat& a, const Mat& b, Mat& out) {
  ref::matmul_sub(a, b, out);
}
void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) {
  ref::svd_into(x, out, ws);
}

#endif  // IMRDMD_AVX2_KERNELS

}  // namespace imrdmd::linalg::avx2
