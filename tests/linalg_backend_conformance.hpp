// Reusable conformance harness for linalg::Backend implementations.
//
// The backend seam (linalg/backend.hpp) promises that every backend
// computes the same seven kernels, differing at most by floating-point
// summation order. This typed suite states that contract once, over the
// shape edge cases the dispatcher can legally hand a backend — empty /
// single-column / odd-column shapes, tall-skinny panels, and sizes
// straddling the OpenMP row-panel threshold — plus the SVD shapes the
// stream produces (iSVD cores, mrDMD bins, exact rank loss). Instantiating
// it for a new backend takes a Traits type:
//
//   struct MyBackendTraits {
//     /// Registry name; the suite skips (not fails) when absent, so one
//     /// test binary serves every build configuration.
//     static constexpr const char* kName = "mybackend";
//     /// True only for the reference backend: results must be bitwise
//     /// identical to the ref:: kernels. Accelerated backends are held to
//     /// the relative-error bands instead.
//     static constexpr bool kBitwise = false;
//   };
//   using MyInstance = ::testing::Types<MyBackendTraits>;
//   INSTANTIATE_TYPED_TEST_SUITE_P(MyBackend, LinalgBackendConformance,
//                                  MyInstance);
//
// See tests/linalg_backend_test.cpp for the in-tree backends.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/kernels.hpp"

namespace imrdmd::testing {

namespace backend_conformance {

struct GemmShape {
  std::size_t m, k, n;
};

/// GEMM shapes covering the dispatcher's legal envelope: degenerate dims,
/// single/odd columns (vector-lane remainders), tall-skinny iSVD panels,
/// and one shape past the OpenMP row-panel threshold (m * n * k > 2^14).
inline std::vector<GemmShape> gemm_shapes() {
  return {{0, 3, 2}, {3, 0, 2}, {3, 2, 0}, {1, 1, 1},   {5, 3, 4},
          {7, 1, 3}, {1, 7, 1}, {33, 7, 5}, {64, 16, 8}, {200, 8, 8},
          {66, 17, 9}, {40, 40, 40}};
}

inline linalg::Mat random_matrix(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  linalg::Mat m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

/// Relative-error band for accelerated kernels: FMA contraction and lane
/// reassociation move results by a few ULP per accumulation term; the
/// band scales with the reference magnitude and leaves ~3 decimal digits
/// of headroom over worst-case growth for the suite's shapes.
inline void expect_banded(const linalg::Mat& got, const linalg::Mat& want,
                          const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  double scale = 1.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::abs(want.data()[i]));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], want.data()[i], 1e-12 * scale)
        << what << " flat index " << i;
  }
}

inline void expect_bitwise(const linalg::Mat& got, const linalg::Mat& want,
                           const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << what << " flat index " << i;
  }
}

inline void expect_svd_bitwise(const linalg::SvdResult& got,
                               const linalg::SvdResult& want) {
  expect_bitwise(got.u, want.u, "svd u");
  expect_bitwise(got.v, want.v, "svd v");
  ASSERT_EQ(got.s.size(), want.s.size());
  for (std::size_t i = 0; i < got.s.size(); ++i) {
    EXPECT_EQ(got.s[i], want.s[i]) << "svd s[" << i << "]";
  }
}

/// The core matrix the incremental SVD factors on every update:
/// [diag(s), k; 0, rho] with s graded over nine decades and one dense
/// appended column k. rho is the norm of the new column's residual; a
/// rho near rounding level is the rank-saturated case (the basis already
/// spans every sensor).
inline linalg::Mat isvd_core(std::size_t n, double rho, Rng& rng) {
  linalg::Mat core(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    core(i, i) = std::pow(10.0, -9.0 * static_cast<double>(i) /
                                    static_cast<double>(n - 2));
    core(i, n - 1) = 0.3 * rng.normal();
  }
  core(n - 1, n - 1) = rho;
  return core;
}

/// A subsampled mrDMD bin: each of `sensors` rows is a temperature-like
/// level plus slow oscillations and a little noise, over `snapshots`
/// columns. Numerically low-rank, so the trailing spectrum sits near the
/// noise.
inline linalg::Mat smooth_bin(std::size_t sensors, std::size_t snapshots,
                              Rng& rng) {
  linalg::Mat bin(sensors, snapshots);
  for (std::size_t i = 0; i < sensors; ++i) {
    const double level = 50.0 + rng.normal();
    const double fast = rng.normal();
    const double slow = rng.normal();
    const double phase = rng.normal();
    for (std::size_t t = 0; t < snapshots; ++t) {
      const double time = static_cast<double>(t);
      bin(i, t) = level + fast * std::sin(0.3 * time + phase) +
                  slow * std::cos(0.05 * time) + 1e-3 * rng.normal();
    }
  }
  return bin;
}

/// Exactly rank-deficient input: column 1 duplicated into the last-but-one
/// column, and the last column zero.
inline linalg::Mat rank_deficient(std::size_t rows, std::size_t cols,
                                  Rng& rng) {
  linalg::Mat x = random_matrix(rows, cols, rng);
  for (std::size_t i = 0; i < rows; ++i) {
    x(i, cols - 2) = x(i, 1);
    x(i, cols - 1) = 0.0;
  }
  return x;
}

struct SvdCase {
  const char* name;
  linalg::Mat x;
};

/// Random tall, wide, square and single-column shapes (empty is rejected
/// at the dispatcher, so backends never see it), then the shapes the
/// stream produces — iSVD cores and mrDMD bins — and exact rank loss.
inline std::vector<SvdCase> svd_cases(Rng& rng) {
  std::vector<SvdCase> cases;
  for (const GemmShape& shape : std::vector<GemmShape>{
           {24, 5, 0}, {5, 24, 0}, {9, 9, 0}, {17, 1, 0}, {1, 17, 0},
           {40, 40, 0}}) {
    cases.push_back({"random", random_matrix(shape.m, shape.k, rng)});
  }
  cases.push_back({"isvd core 57x57", isvd_core(57, 0.5, rng)});
  cases.push_back(
      {"rank-saturated isvd core 57x57", isvd_core(57, 1e-14, rng)});
  cases.push_back({"isvd core 116x116", isvd_core(116, 0.5, rng)});
  cases.push_back({"mrdmd bin 56x15", smooth_bin(56, 15, rng)});
  cases.push_back({"mrdmd bin 560x15", smooth_bin(560, 15, rng)});
  cases.push_back({"rank-deficient 30x8", rank_deficient(30, 8, rng)});
  cases.push_back(
      {"rank-deficient 8x30", rank_deficient(30, 8, rng).transposed()});
  return cases;
}

/// Q^T Q = I over the columns whose singular value exceeds 1e-10 s_max.
/// Columns at exactly-zero or rounding-noise singular values carry no
/// orthonormality promise (see svd.hpp).
inline void expect_orthonormal_columns(const linalg::Mat& q,
                                       const std::vector<double>& s,
                                       const char* what) {
  const linalg::Mat qtq = linalg::matmul_at_b(q, q);
  const double cutoff = s.empty() ? 0.0 : 1e-10 * s.front();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!(s[i] > cutoff)) continue;
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (!(s[j] > cutoff)) continue;
      EXPECT_NEAR(qtq(i, j), i == j ? 1.0 : 0.0, 1e-12)
          << what << " (" << i << ", " << j << ")";
    }
  }
}

}  // namespace backend_conformance

template <class Traits>
class LinalgBackendConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    backend_ = linalg::find_backend(Traits::kName);
    if (backend_ == nullptr) {
      GTEST_SKIP() << "backend \"" << Traits::kName
                   << "\" not registered in this build";
    }
  }

  linalg::Backend& backend() { return *backend_; }

  /// Compares against the reference kernel result: bitwise for the
  /// reference backend itself, banded for accelerated backends.
  void check(const linalg::Mat& got, const linalg::Mat& want,
             const char* what) {
    if (Traits::kBitwise) {
      backend_conformance::expect_bitwise(got, want, what);
    } else {
      backend_conformance::expect_banded(got, want, what);
    }
  }

 private:
  linalg::Backend* backend_ = nullptr;
};

TYPED_TEST_SUITE_P(LinalgBackendConformance);

TYPED_TEST_P(LinalgBackendConformance, ReportsNameAndCapabilities) {
  EXPECT_STREQ(this->backend().name(), TypeParam::kName);
  EXPECT_FALSE(this->backend().capabilities().empty());
}

TYPED_TEST_P(LinalgBackendConformance, MatmulMatchesReference) {
  using namespace backend_conformance;
  Rng rng(42);
  for (const GemmShape& shape : gemm_shapes()) {
    const linalg::Mat a = random_matrix(shape.m, shape.k, rng);
    const linalg::Mat b = random_matrix(shape.k, shape.n, rng);
    linalg::Mat want(shape.m, shape.n);
    linalg::ref::matmul_into(a, b, want);
    linalg::Mat got(shape.m, shape.n);
    this->backend().matmul_into(a, b, got);
    this->check(got, want, "matmul_into");
  }
}

TYPED_TEST_P(LinalgBackendConformance, MatmulAtBMatchesReference) {
  using namespace backend_conformance;
  Rng rng(43);
  for (const GemmShape& shape : gemm_shapes()) {
    // out = A^T B with A stored k x m: reinterpret the shape triple.
    const linalg::Mat a = random_matrix(shape.k, shape.m, rng);
    const linalg::Mat b = random_matrix(shape.k, shape.n, rng);
    linalg::Mat want(shape.m, shape.n);
    linalg::ref::matmul_at_b_into(a, b, want);
    linalg::Mat got(shape.m, shape.n);
    this->backend().matmul_at_b_into(a, b, got);
    this->check(got, want, "matmul_at_b_into");
  }
}

TYPED_TEST_P(LinalgBackendConformance, MatmulABtMatchesReference) {
  using namespace backend_conformance;
  Rng rng(44);
  for (const GemmShape& shape : gemm_shapes()) {
    const linalg::Mat a = random_matrix(shape.m, shape.k, rng);
    const linalg::Mat b = random_matrix(shape.n, shape.k, rng);
    linalg::Mat want(shape.m, shape.n);
    linalg::ref::matmul_a_bt_into(a, b, want);
    linalg::Mat got(shape.m, shape.n);
    this->backend().matmul_a_bt_into(a, b, got);
    this->check(got, want, "matmul_a_bt_into");
  }
}

TYPED_TEST_P(LinalgBackendConformance, MatmulSubMatchesReference) {
  using namespace backend_conformance;
  Rng rng(45);
  for (const GemmShape& shape : gemm_shapes()) {
    const linalg::Mat a = random_matrix(shape.m, shape.k, rng);
    const linalg::Mat b = random_matrix(shape.k, shape.n, rng);
    const linalg::Mat minuend = random_matrix(shape.m, shape.n, rng);
    linalg::Mat want = minuend;
    linalg::ref::matmul_sub(a, b, want);
    linalg::Mat got = minuend;
    this->backend().matmul_sub(a, b, got);
    this->check(got, want, "matmul_sub");
  }
}

TYPED_TEST_P(LinalgBackendConformance, ProjectOutMatchesReference) {
  using namespace backend_conformance;
  Rng rng(46);
  // U orthonormal (thin QR of a random tall panel), residual with odd
  // column counts to exercise vector-lane tails.
  for (const std::size_t cols : {std::size_t{1}, std::size_t{5},
                                 std::size_t{8}, std::size_t{13}}) {
    const std::size_t rows = 67;
    const std::size_t rank = 9;
    const linalg::Mat u = linalg::thin_qr(random_matrix(rows, rank, rng)).q;
    const linalg::Mat residual0 = random_matrix(rows, cols, rng);
    const linalg::Mat accum0 = random_matrix(rank, cols, rng);

    linalg::Mat want_residual = residual0;
    linalg::Mat want_accum = accum0;
    linalg::Mat want_ws(rank, cols);
    linalg::ref::matmul_at_b_into(u, want_residual, want_ws);
    linalg::ref::matmul_sub(u, want_ws, want_residual);
    want_accum += want_ws;

    linalg::Mat got_residual = residual0;
    linalg::Mat got_accum = accum0;
    linalg::Mat got_ws;
    this->backend().project_out(u, got_residual, got_accum, got_ws);
    this->check(got_residual, want_residual, "project_out residual");
    this->check(got_accum, want_accum, "project_out coeff_accum");
  }
}

TYPED_TEST_P(LinalgBackendConformance, ThinQrFactorsAreValid) {
  using namespace backend_conformance;
  Rng rng(47);
  for (const GemmShape& shape : gemm_shapes()) {
    const std::size_t m = std::max(shape.m, shape.k);
    const std::size_t n = std::min({shape.m, shape.k, m});
    const linalg::Mat a = random_matrix(m, n, rng);

    linalg::QrResult want;
    linalg::QrWorkspace want_ws;
    linalg::ref::thin_qr_into(a, want, want_ws);
    linalg::QrResult got;
    linalg::QrWorkspace ws;
    this->backend().thin_qr_into(a, got, ws);

    if (TypeParam::kBitwise) {
      expect_bitwise(got.q, want.q, "thin_qr q");
      expect_bitwise(got.r, want.r, "thin_qr r");
      continue;
    }
    // Accelerated banded gate: structural contract (R upper triangular,
    // diag >= 0, Q^T Q = I, Q R = A) rather than entry equality — a
    // different Householder ordering may flip degenerate columns.
    ASSERT_EQ(got.q.rows(), m);
    ASSERT_EQ(got.q.cols(), n);
    ASSERT_EQ(got.r.rows(), n);
    ASSERT_EQ(got.r.cols(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(got.r(i, i), 0.0);
      for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(got.r(i, j), 0.0);
    }
    const linalg::Mat qtq = linalg::matmul_at_b(got.q, got.q);
    expect_banded(qtq, linalg::Mat::identity(n), "thin_qr Q^T Q");
    const linalg::Mat recon = linalg::matmul(got.q, got.r);
    expect_banded(recon, a, "thin_qr Q R");
  }
}

TYPED_TEST_P(LinalgBackendConformance, SvdFactorsAreValid) {
  using namespace backend_conformance;
  Rng rng(48);
  for (const SvdCase& svd_case : svd_cases(rng)) {
    const linalg::Mat& x = svd_case.x;
    SCOPED_TRACE(::testing::Message()
                 << svd_case.name << " " << x.rows() << "x" << x.cols());
    const std::size_t m = x.rows();
    const std::size_t n = x.cols();
    const std::size_t r0 = std::min(m, n);

    linalg::SvdResult want;
    linalg::SvdWorkspace want_ws;
    linalg::ref::svd_into(x, want, want_ws);
    linalg::SvdResult got;
    linalg::SvdWorkspace ws;
    this->backend().svd_into(x, got, ws);

    if (TypeParam::kBitwise) expect_svd_bitwise(got, want);
    // Every backend, the reference included, meets the decomposition
    // contract: spectra agree with the reference to relative precision,
    // U diag(s) V^T = X, and the factors have orthonormal columns where s
    // is significant. Entrywise U/V equality is not meaningful under
    // sign/rotation ambiguity.
    ASSERT_EQ(got.s.size(), r0);
    ASSERT_EQ(got.u.rows(), m);
    ASSERT_EQ(got.u.cols(), r0);
    ASSERT_EQ(got.v.rows(), n);
    ASSERT_EQ(got.v.cols(), r0);
    for (std::size_t i = 0; i < r0; ++i) {
      EXPECT_NEAR(got.s[i], want.s[i], 1e-10 * (1.0 + want.s.front()))
          << "svd s[" << i << "]";
      if (i + 1 < r0) {
        EXPECT_GE(got.s[i], got.s[i + 1]);
      }
    }
    linalg::Mat us = got.u;
    for (std::size_t j = 0; j < r0; ++j) linalg::scale_col(us, j, got.s[j]);
    const linalg::Mat recon = linalg::matmul_a_bt(us, got.v);
    double scale = 1.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      scale = std::max(scale, std::abs(x.data()[i]));
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(recon.data()[i], x.data()[i], 1e-10 * scale)
          << "svd reconstruction flat index " << i;
    }
    expect_orthonormal_columns(got.u, got.s, "svd U^T U");
    expect_orthonormal_columns(got.v, got.s, "svd V^T V");
  }
}

TYPED_TEST_P(LinalgBackendConformance, SvdWorkspaceReuseMatchesFreshWorkspace) {
  using namespace backend_conformance;
  Rng rng(49);
  // Tall, wide, square, then smaller shapes, two of them with the same
  // column count: the reused buffers keep their peak capacity and stale
  // contents, neither of which may reach the factors.
  const std::vector<linalg::Mat> inputs = {
      random_matrix(40, 12, rng), random_matrix(9, 33, rng),
      isvd_core(57, 0.5, rng),    random_matrix(6, 6, rng),
      random_matrix(9, 6, rng),   random_matrix(3, 7, rng),
      random_matrix(5, 2, rng)};
  linalg::SvdResult reused;
  linalg::SvdWorkspace ws;
  for (const linalg::Mat& x : inputs) {
    SCOPED_TRACE(::testing::Message() << x.rows() << "x" << x.cols());
    this->backend().svd_into(x, reused, ws);
    linalg::SvdResult fresh;
    linalg::SvdWorkspace fresh_ws;
    this->backend().svd_into(x, fresh, fresh_ws);
    expect_svd_bitwise(reused, fresh);
  }
}

REGISTER_TYPED_TEST_SUITE_P(LinalgBackendConformance,
                            ReportsNameAndCapabilities, MatmulMatchesReference,
                            MatmulAtBMatchesReference, MatmulABtMatchesReference,
                            MatmulSubMatchesReference, ProjectOutMatchesReference,
                            ThinQrFactorsAreValid, SvdFactorsAreValid,
                            SvdWorkspaceReuseMatchesFreshWorkspace);

}  // namespace imrdmd::testing
