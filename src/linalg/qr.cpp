#include "linalg/qr.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/kernels.hpp"

namespace imrdmd::linalg {

namespace {

// In-place Householder factorization. On exit `work` holds R in its upper
// triangle and the Householder vectors below the diagonal; `taus` holds the
// reflector scales.
void householder_factor(Mat& work, std::vector<double>& taus) {
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();
  taus.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Build the reflector annihilating work(k+1..m-1, k).
    double norm_x = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_x += work(i, k) * work(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;  // column already zero below diagonal
    const double alpha = work(k, k) >= 0.0 ? -norm_x : norm_x;
    double v0 = work(k, k) - alpha;
    // v = x - alpha*e1, normalized so v[0] = 1.
    double v_norm_sq = v0 * v0;
    for (std::size_t i = k + 1; i < m; ++i) v_norm_sq += work(i, k) * work(i, k);
    if (v_norm_sq == 0.0) continue;
    const double tau = 2.0 * v0 * v0 / v_norm_sq;
    // Store normalized v below the diagonal (implicit v[0] = 1).
    for (std::size_t i = k + 1; i < m; ++i) work(i, k) /= v0;
    work(k, k) = alpha;
    taus[k] = tau;
    // Apply (I - tau v v^T) to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = work(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += work(i, k) * work(i, j);
      s *= tau;
      work(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) work(i, j) -= s * work(i, k);
    }
  }
}

// Accumulates the thin Q (m x n) from the factored form into `q`.
void accumulate_q_into(const Mat& work, const std::vector<double>& taus,
                       Mat& q) {
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();
  q.assign_zero(m, n);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  // Apply reflectors in reverse order: Q = H_0 H_1 ... H_{n-1} E.
  for (std::size_t kk = n; kk-- > 0;) {
    const double tau = taus[kk];
    if (tau == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      double s = q(kk, j);
      for (std::size_t i = kk + 1; i < m; ++i) s += work(i, kk) * q(i, j);
      s *= tau;
      q(kk, j) -= s;
      for (std::size_t i = kk + 1; i < m; ++i) q(i, j) -= s * work(i, kk);
    }
  }
}

// Extracts R (n x n upper triangle) into `r`; flips signs so diag(R) >= 0
// and flips the matching Q columns via the sign vector.
void extract_r_into(const Mat& work, std::vector<double>& signs, Mat& r) {
  const std::size_t n = work.cols();
  r.assign_zero(n, n);
  signs.assign(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (work(i, i) < 0.0) signs[i] = -1.0;
    for (std::size_t j = i; j < n; ++j) r(i, j) = signs[i] * work(i, j);
  }
}

}  // namespace

// Reference Householder kernel (the "reference" backend; see kernels.hpp).
void ref::thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws) {
  ws.work = a;
  householder_factor(ws.work, ws.taus);
  extract_r_into(ws.work, ws.signs, out.r);
  accumulate_q_into(ws.work, ws.taus, out.q);
  // Apply the diagonal sign normalization to Q columns: A = (Q S)(S R).
  for (std::size_t j = 0; j < out.q.cols(); ++j) {
    if (ws.signs[j] < 0.0) scale_col(out.q, j, -1.0);
  }
}

void thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws) {
  IMRDMD_REQUIRE_DIMS(a.rows() >= a.cols(), "thin_qr requires rows >= cols");
  active_backend().thin_qr_into(a, out, ws);
}

QrResult thin_qr(const Mat& a) {
  QrResult result;
  QrWorkspace ws;
  thin_qr_into(a, result, ws);
  return result;
}

std::vector<double> solve_upper(const Mat& r, std::span<const double> b) {
  IMRDMD_REQUIRE_DIMS(r.rows() == r.cols() && r.rows() == b.size(),
                      "solve_upper shape mismatch");
  const std::size_t n = r.rows();
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_diag = std::max(max_diag, std::abs(r(i, i)));
  std::vector<double> x(b.begin(), b.end());
  for (std::size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) s -= r(ii, j) * x[j];
    const double d = r(ii, ii);
    if (std::abs(d) <= 1e-14 * max_diag || d == 0.0) {
      throw NumericalError("solve_upper: singular triangular factor");
    }
    x[ii] = s / d;
  }
  return x;
}

}  // namespace imrdmd::linalg
