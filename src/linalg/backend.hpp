// Pluggable linalg backend seam.
//
// Every heavy kernel the streaming hot paths hit — the GEMM family,
// project_out, thin QR, and the Jacobi SVD — dispatches through exactly one
// seam: the active linalg::Backend. The workspace-accepting entry points in
// blas.hpp/qr.hpp/svd.hpp keep their signatures and validation, so isvd,
// dmd, and core/mrdmd call sites never see the indirection; they validate
// shapes, pre-shape the output, and forward to active_backend().
//
// Three backends ship in-tree:
//   * "reference" — today's cache-blocked OpenMP kernels, bitwise-identical
//     to the pre-seam output and always the default.
//   * "avx2"      — hand-vectorized AVX2/FMA GEMM and Jacobi SVD kernels
//     for the small-block shapes the incremental SVD update and the mrDMD
//     bins hit (thin QR stays on the reference). Runtime-detected: selecting
//     it on a CPU without AVX2+FMA silently runs the scalar reference
//     kernels (capabilities() reports which path is live).
//   * "openblas"  — the entry points mapped onto cblas/LAPACKE; only
//     registered when the library was configured with IMRDMD_WITH_OPENBLAS.
//
// Selection precedence: explicit set_active_backend() — e.g. from
// core::AssessorConfig::linalg() — beats the IMRDMD_LINALG_BACKEND
// environment variable, which beats the "reference" default. A future
// CUDA/HIP backend slots in through register_backend() plus the same
// selection surface; nothing above this layer changes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace imrdmd::linalg {

/// One implementation of the heavy linalg kernels. Shape validation and
/// output pre-shaping happen in the dispatching entry points (blas.cpp,
/// qr.cpp, svd.cpp); a backend may assume conforming inputs, and — for the
/// GEMM family — an `out` already shaped and zero-filled (matmul_sub
/// accumulates into the caller's existing values instead).
class Backend {
 public:
  virtual ~Backend() = default;

  /// Stable registry name ("reference", "avx2", "openblas", ...).
  virtual const char* name() const = 0;

  /// One-line human-readable capability report, e.g. which instruction
  /// set is live after runtime detection or which vendor library backs
  /// the kernels.
  virtual std::string capabilities() const = 0;

  /// out = A * B (out pre-shaped to A.rows x B.cols, zero-filled).
  virtual void matmul_into(const Mat& a, const Mat& b, Mat& out) = 0;

  /// out = A^T * B (out pre-shaped to A.cols x B.cols, zero-filled).
  virtual void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) = 0;

  /// out = A * B^T (out pre-shaped to A.rows x B.rows, zero-filled).
  virtual void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) = 0;

  /// out -= A * B (out already holds the minuend; not zero-filled).
  virtual void matmul_sub(const Mat& a, const Mat& b, Mat& out) = 0;

  /// Fused projection pass of the incremental SVD (see blas.hpp). The
  /// default composes this backend's own GEMM kernels; backends may
  /// override to fuse further.
  virtual void project_out(const Mat& u, Mat& residual, Mat& coeff_accum,
                           Mat& coeff_ws);

  /// Thin QR with the sign-normalized R convention of qr.hpp
  /// (diag(R) >= 0). Input satisfies rows >= cols.
  virtual void thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws) = 0;

  /// Thin SVD with the contract of svd.hpp (s descending, U m x r0,
  /// V n x r0, r0 = min(m, n)). Input is non-empty but may be wide.
  virtual void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws) = 0;
};

/// Registered backend names in registration order ("reference" first).
std::vector<std::string> backend_names();

/// Looks a backend up by name; nullptr when unknown. The pointer stays
/// valid for the process lifetime.
Backend* find_backend(const std::string& name);

/// Registers an out-of-tree backend (the CUDA/HIP extension point). The
/// registry takes ownership; re-registering an existing name throws
/// InvalidArgument.
void register_backend(std::unique_ptr<Backend> backend);

/// The backend every linalg entry point dispatches to. First use applies
/// the IMRDMD_LINALG_BACKEND environment variable (unknown names throw
/// InvalidArgument, listing what is registered) and falls back to
/// "reference".
Backend& active_backend();

/// Selects the active backend by name; throws InvalidArgument for names
/// not in the registry. Explicit selection overrides the environment
/// variable. Not safe to call concurrently with in-flight kernels.
void set_active_backend(const std::string& name);

/// The compiled-in default selection ("reference").
const char* default_backend_name();

namespace detail {

/// Factory for the optional cblas/LAPACKE backend (backend_openblas.cpp);
/// returns nullptr when the library was configured without
/// IMRDMD_WITH_OPENBLAS, in which case the name is simply not registered.
std::unique_ptr<Backend> make_openblas_backend();

}  // namespace detail

}  // namespace imrdmd::linalg
