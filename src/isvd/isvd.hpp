// Incremental (streaming) truncated SVD.
//
// This is the enabling kernel of the paper's contribution: I-mrDMD replaces
// the per-update batch SVD at mrDMD level 1 with an incremental update in
// the style of Brand (2006) / Kühl et al. (2024) [46]. Columns arrive in
// blocks (temporally serial); the maintained factors are
//     X_seen  ~=  U diag(s) V^T,   U: P x r,  V: T_seen x r.
//
// Column updates:   project the new block onto span(U), orthogonalize the
// residual (with one reorthogonalization pass), take the SVD of the small
// core matrix K = [diag(s), U^T B; 0, R_resid] and rotate the outer
// factors. For c > 1 columns K is assembled and decomposed by the dense
// Jacobi SVD, O((r+c)^3) per sweep; for c = 1 it is a broken arrow whose
// SVD is a secular equation, O(r^2) (isvd/arrow_svd.hpp). Rotating U costs
// O(P (r+c)^2) and rotating V O(T_seen (r+c)^2), so only the U side of an
// update is independent of T_seen.
//
// Row updates (add_rows) implement the paper's "future work" extension of
// adding entire new sensors to an existing decomposition.
#pragma once

#include <cstddef>
#include <vector>

#include "isvd/arrow_svd.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace imrdmd::isvd {

struct IsvdOptions {
  /// Hard cap on retained rank (0 = keep everything numerically nonzero).
  std::size_t max_rank = 0;
  /// Drop singular values <= truncation_tol * s_max after each update.
  double truncation_tol = 1e-12;
};

/// Scratch for Isvd::update. Every temporary of the blocked fast path —
/// projection coefficients, residual, core matrix, extended/rotated outer
/// factors, and the QR, Jacobi SVD and broken-arrow solver workspaces —
/// lives here and is reused across updates, so once the buffers have warmed
/// to the steady-state rank a column update performs no heap allocation
/// (V's unbounded growth is amortized by geometric reservation). Isvd owns
/// one internally; callers interleaving updates of many decompositions can
/// share an external one via the two-argument update().
struct IsvdWorkspace {
  linalg::Mat block;         // gathered slice of a wider-than-P input
  linalg::Mat coeff;         // r x c projection coefficients ("M")
  linalg::Mat coeff_pass;    // per-pass coefficients of project_out
  linalg::Mat residual;      // P x c out-of-subspace residual
  linalg::Mat core;          // (r+c) x (r+c) core matrix K (c > 1)
  linalg::Mat u_ext;         // [U Q]
  linalg::Mat v_ext;         // [[V 0]; [0 I]]
  linalg::Mat u_next;        // rotated factors, swapped into the Isvd
  linalg::Mat v_next;
  linalg::QrResult qr;
  linalg::QrWorkspace qr_ws;
  linalg::SvdResult core_svd;
  linalg::SvdWorkspace svd_ws;
  ArrowSvdWorkspace arrow;   // the c = 1 core solver
};

class Isvd {
 public:
  explicit Isvd(IsvdOptions options = {});

  /// Reconstitutes an Isvd from externally persisted factors (checkpoint
  /// restore). The factors are trusted as-is (shapes validated).
  static Isvd from_state(IsvdOptions options, linalg::Mat u,
                         std::vector<double> s, linalg::Mat v,
                         std::size_t cols_seen);

  /// Batch-decomposes the first column block. Must be called exactly once,
  /// before any update().
  void initialize(const linalg::Mat& block);

  /// Folds `new_cols` (P x c) into the decomposition using the internal
  /// workspace. One core SVD per P-column block: the dense Jacobi SVD,
  /// O((r+c)^3) per sweep, for c > 1, and the O(r^2) broken-arrow solver
  /// for c = 1. The outer rotations add O((P + cols_seen()) (r+c)^2).
  void update(const linalg::Mat& new_cols);

  /// Same update through a caller-owned workspace (shareable across Isvd
  /// instances that update in turn; never concurrently).
  void update(const linalg::Mat& new_cols, IsvdWorkspace& workspace);

  /// Extends the decomposition with `new_rows` (w x cols_seen()): the
  /// new-sensor extension. V gains no rows; U gains w rows.
  void add_rows(const linalg::Mat& new_rows);

  bool initialized() const { return initialized_; }
  std::size_t rank() const { return s_.size(); }
  std::size_t rows() const { return u_.rows(); }
  std::size_t cols_seen() const { return cols_seen_; }

  const linalg::Mat& u() const { return u_; }
  const std::vector<double>& s() const { return s_; }
  /// Rows correspond to seen columns.
  const linalg::Mat& v() const { return v_; }

  /// U diag(s) V^T — for tests and small problems only (forms the product).
  linalg::Mat reconstruct() const;

 private:
  /// Folds columns [c0, c0 + c) of `src` (one block, c <= rows) into the
  /// factors; the blocked core of update().
  void update_block(const linalg::Mat& src, std::size_t c0, std::size_t c,
                    IsvdWorkspace& ws);
  void truncate();

  IsvdOptions options_;
  bool initialized_ = false;
  std::size_t cols_seen_ = 0;
  linalg::Mat u_;
  std::vector<double> s_;
  linalg::Mat v_;
  IsvdWorkspace workspace_;
};

}  // namespace imrdmd::isvd
