// Internal kernel declarations shared by the linalg backends.
//
// ref::   — the cache-blocked scalar kernels (defined in blas.cpp, qr.cpp,
//           svd.cpp). These are the pre-seam implementations verbatim: the
//           "reference" backend is bitwise-identical to the library's
//           historical output, and other backends reuse them as fallbacks
//           for kernels they do not accelerate.
// avx2::  — the AVX2/FMA translation unit (backend_avx2.cpp): the GEMM
//           family and the Jacobi SVD, compiled with -mavx2 -mfma when the
//           toolchain supports it. Callers must gate on kernels_compiled()
//           AND a runtime CPU check before invoking; see backend.cpp.
//
// All kernels follow the Backend contract (backend.hpp): inputs validated,
// GEMM outputs pre-shaped and zero-filled by the dispatcher.
#pragma once

#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

namespace imrdmd::linalg::ref {

void matmul_into(const Mat& a, const Mat& b, Mat& out);
void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out);
void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out);
void matmul_sub(const Mat& a, const Mat& b, Mat& out);
void thin_qr_into(const Mat& a, QrResult& out, QrWorkspace& ws);
void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws);

}  // namespace imrdmd::linalg::ref

namespace imrdmd::linalg::avx2 {

/// True when backend_avx2.cpp was built with AVX2+FMA codegen (x86-64
/// toolchains that accept -mavx2 -mfma). When false the kernels below
/// delegate to ref:: and must not be treated as accelerated.
bool kernels_compiled();

void matmul_into(const Mat& a, const Mat& b, Mat& out);
void matmul_at_b_into(const Mat& a, const Mat& b, Mat& out);
void matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out);
void matmul_sub(const Mat& a, const Mat& b, Mat& out);
void svd_into(const Mat& x, SvdResult& out, SvdWorkspace& ws);

}  // namespace imrdmd::linalg::avx2
