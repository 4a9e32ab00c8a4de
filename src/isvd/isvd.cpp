#include "isvd/isvd.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"

namespace imrdmd::isvd {

using linalg::Mat;

Isvd::Isvd(IsvdOptions options) : options_(options) {
  IMRDMD_REQUIRE_ARG(options_.truncation_tol >= 0.0,
                     "truncation_tol must be non-negative");
}

Isvd Isvd::from_state(IsvdOptions options, linalg::Mat u,
                      std::vector<double> s, linalg::Mat v,
                      std::size_t cols_seen) {
  IMRDMD_REQUIRE_DIMS(u.cols() == s.size(), "from_state U/s rank mismatch");
  IMRDMD_REQUIRE_DIMS(v.cols() == s.size(), "from_state V/s rank mismatch");
  IMRDMD_REQUIRE_DIMS(v.rows() == cols_seen,
                      "from_state V rows must equal cols_seen");
  Isvd isvd(options);
  isvd.u_ = std::move(u);
  isvd.s_ = std::move(s);
  isvd.v_ = std::move(v);
  isvd.cols_seen_ = cols_seen;
  isvd.initialized_ = true;
  return isvd;
}

void Isvd::initialize(const Mat& block) {
  IMRDMD_REQUIRE_ARG(!initialized_, "Isvd::initialize called twice");
  IMRDMD_REQUIRE_DIMS(!block.empty(), "Isvd::initialize on empty block");
  linalg::SvdResult f = linalg::svd(block);
  u_ = std::move(f.u);
  s_ = std::move(f.s);
  v_ = std::move(f.v);
  cols_seen_ = block.cols();
  initialized_ = true;
  truncate();
}

void Isvd::update(const Mat& new_cols) { update(new_cols, workspace_); }

void Isvd::update(const Mat& new_cols, IsvdWorkspace& ws) {
  IMRDMD_REQUIRE_ARG(initialized_, "Isvd::update before initialize");
  IMRDMD_REQUIRE_DIMS(new_cols.rows() == u_.rows(),
                      "Isvd::update row count mismatch");
  // The residual QR needs P >= c; wider inputs fold in as a loop of
  // full-width blocks (mathematically identical, one core SVD per block).
  const std::size_t width = u_.rows();
  for (std::size_t c0 = 0; c0 < new_cols.cols(); c0 += width) {
    update_block(new_cols, c0, std::min(width, new_cols.cols() - c0), ws);
  }
}

void Isvd::update_block(const Mat& src, std::size_t c0, std::size_t c,
                        IsvdWorkspace& ws) {
  const std::size_t p = u_.rows();
  const std::size_t r = rank();
  const Mat* block = &src;
  if (c0 != 0 || c != src.cols()) {
    ws.block.assign_zero(p, c);
    for (std::size_t i = 0; i < p; ++i) {
      const double* from = src.data() + i * src.cols() + c0;
      std::copy(from, from + c, ws.block.data() + i * c);
    }
    block = &ws.block;
  }

  // Projection onto the current left subspace and out-of-subspace residual:
  // two passes of the fused project_out primitive — the second is the
  // classical reorthogonalization (Kühl et al. recommend it; without it the
  // residual loses orthogonality once s spans many decades).
  ws.coeff.assign_zero(r, c);
  ws.residual = *block;
  linalg::project_out(u_, ws.residual, ws.coeff, ws.coeff_pass);
  linalg::project_out(u_, ws.residual, ws.coeff, ws.coeff_pass);
  linalg::thin_qr_into(ws.residual, ws.qr, ws.qr_ws);  // Q: P x c, R: c x c

  // Core matrix K = [diag(s), M; 0, R] of size (r+c) x (r+c). One column
  // makes it a broken arrow, whose SVD is a secular equation in O(r^2);
  // wider blocks take the dense Jacobi SVD.
  if (c == 1) {
    arrow_svd_into(s_, std::span<const double>(ws.coeff.data(), r),
                   ws.qr.r(0, 0), ws.core_svd, ws.arrow);
  } else {
    ws.core.assign_zero(r + c, r + c);
    for (std::size_t i = 0; i < r; ++i) ws.core(i, i) = s_[i];
    ws.core.set_block(0, r, ws.coeff);
    ws.core.set_block(r, r, ws.qr.r);
    linalg::svd_into(ws.core, ws.core_svd, ws.svd_ws);
  }

  // Rotate the outer factors: U <- [U Q] Uk, V <- [[V 0];[0 I]] Vk. The
  // rotated factor is built in a workspace buffer and swapped into place.
  ws.u_ext.assign_zero(p, r + c);
  ws.u_ext.set_block(0, 0, u_);
  ws.u_ext.set_block(0, r, ws.qr.q);
  linalg::matmul_into(ws.u_ext, ws.core_svd.u, ws.u_next);
  std::swap(u_, ws.u_next);

  s_.assign(ws.core_svd.s.begin(), ws.core_svd.s.end());

  // V gains a row per seen column; reserve geometrically so the growth
  // allocations amortize away in steady state.
  const std::size_t need = (cols_seen_ + c) * (r + c);
  if (ws.v_ext.capacity() < need) ws.v_ext.reserve(2 * need);
  if (ws.v_next.capacity() < need) ws.v_next.reserve(2 * need);
  ws.v_ext.assign_zero(cols_seen_ + c, r + c);
  ws.v_ext.set_block(0, 0, v_);
  for (std::size_t j = 0; j < c; ++j) ws.v_ext(cols_seen_ + j, r + j) = 1.0;
  linalg::matmul_into(ws.v_ext, ws.core_svd.v, ws.v_next);
  std::swap(v_, ws.v_next);
  cols_seen_ += c;
  truncate();
}

void Isvd::add_rows(const Mat& new_rows) {
  IMRDMD_REQUIRE_ARG(initialized_, "Isvd::add_rows before initialize");
  IMRDMD_REQUIRE_DIMS(new_rows.cols() == cols_seen_,
                      "Isvd::add_rows column count mismatch");
  if (new_rows.rows() == 0) return;
  // The row-space residual QR needs cols_seen >= w; split taller blocks.
  if (new_rows.rows() > cols_seen_) {
    for (std::size_t r0 = 0; r0 < new_rows.rows(); r0 += cols_seen_) {
      const std::size_t h = std::min(cols_seen_, new_rows.rows() - r0);
      add_rows(new_rows.block(r0, 0, h, new_rows.cols()));
    }
    return;
  }
  const std::size_t r = rank();
  const std::size_t w = new_rows.rows();

  // [X; W] = [U 0; 0 I] [diag(s), 0; W V, R_w^T] [V Q_w]^T where
  // (I - V V^T) W^T = Q_w R_w orthogonalizes the new rows' row space.
  Mat wv = linalg::matmul(new_rows, v_);            // w x r
  Mat wt = new_rows.transposed();                   // T x w
  Mat residual = wt - linalg::matmul(v_, wv.transposed());
  {
    const Mat m2 = linalg::matmul_at_b(v_, residual);
    residual -= linalg::matmul(v_, m2);
    wv += m2.transposed();
  }
  linalg::QrResult qr = linalg::thin_qr(residual);  // Q_w: T x w, R_w: w x w

  Mat k(r + w, r + w);
  for (std::size_t i = 0; i < r; ++i) k(i, i) = s_[i];
  k.set_block(r, 0, wv);
  k.set_block(r, r, qr.r.transposed());
  linalg::SvdResult core = linalg::svd(k);

  Mat u_ext(u_.rows() + w, r + w);
  u_ext.set_block(0, 0, u_);
  for (std::size_t i = 0; i < w; ++i) u_ext(u_.rows() + i, r + i) = 1.0;
  u_ = linalg::matmul(u_ext, core.u);

  Mat v_ext(cols_seen_, r + w);
  v_ext.set_block(0, 0, v_);
  v_ext.set_block(0, r, qr.q);
  v_ = linalg::matmul(v_ext, core.v);

  s_ = std::move(core.s);
  truncate();
}

linalg::Mat Isvd::reconstruct() const {
  IMRDMD_REQUIRE_ARG(initialized_, "reconstruct needs an initialized Isvd");
  Mat us = u_;
  for (std::size_t j = 0; j < s_.size(); ++j) linalg::scale_col(us, j, s_[j]);
  return linalg::matmul_a_bt(us, v_);
}

void Isvd::truncate() {
  std::size_t keep = s_.size();
  if (!s_.empty() && options_.truncation_tol > 0.0) {
    const double cutoff = options_.truncation_tol * s_.front();
    while (keep > 1 && s_[keep - 1] <= cutoff) --keep;
  }
  if (options_.max_rank > 0) keep = std::min(keep, options_.max_rank);
  if (keep == s_.size()) return;
  s_.resize(keep);
  u_.shrink_cols(keep);
  if (!v_.empty()) v_.shrink_cols(keep);
}

}  // namespace imrdmd::isvd
