// Tests for the incremental SVD.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "isvd/arrow_svd.hpp"
#include "isvd/isvd.hpp"
#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "test_util.hpp"

namespace imrdmd::isvd {
namespace {

using imrdmd::testing::max_abs_diff;
using imrdmd::testing::orthogonality_defect;
using imrdmd::testing::random_low_rank;
using imrdmd::testing::random_matrix;
using linalg::Mat;

TEST(Isvd, InitializeMatchesBatchSvd) {
  Rng rng(1);
  const Mat a = random_matrix(20, 6, rng);
  Isvd isvd;
  isvd.initialize(a);
  const linalg::SvdResult batch = linalg::svd(a);
  ASSERT_EQ(isvd.s().size(), batch.s.size());
  for (std::size_t i = 0; i < batch.s.size(); ++i) {
    EXPECT_NEAR(isvd.s()[i], batch.s[i], 1e-10);
  }
  EXPECT_LT(max_abs_diff(isvd.reconstruct(), a), 1e-10);
}

TEST(Isvd, UpdateReconstructsConcatenation) {
  Rng rng(2);
  const Mat first = random_matrix(15, 4, rng);
  const Mat second = random_matrix(15, 3, rng);
  Isvd isvd;
  isvd.initialize(first);
  isvd.update(second);
  EXPECT_EQ(isvd.cols_seen(), 7u);

  Mat full(15, 7);
  full.set_block(0, 0, first);
  full.set_block(0, 4, second);
  EXPECT_LT(max_abs_diff(isvd.reconstruct(), full), 1e-9);
}

TEST(Isvd, SingularValuesMatchBatchAfterManyUpdates) {
  Rng rng(3);
  const Mat full = random_matrix(30, 24, rng);
  Isvd isvd;
  isvd.initialize(full.block(0, 0, 30, 4));
  for (std::size_t c = 4; c < 24; c += 5) {
    const std::size_t w = std::min<std::size_t>(5, 24 - c);
    isvd.update(full.block(0, c, 30, w));
  }
  const linalg::SvdResult batch = linalg::svd(full);
  ASSERT_EQ(isvd.s().size(), batch.s.size());
  for (std::size_t i = 0; i < batch.s.size(); ++i) {
    EXPECT_NEAR(isvd.s()[i], batch.s[i], 1e-8 * batch.s[0]);
  }
}

TEST(Isvd, FactorsStayOrthonormal) {
  Rng rng(4);
  Isvd isvd;
  isvd.initialize(random_matrix(25, 5, rng));
  for (int i = 0; i < 6; ++i) isvd.update(random_matrix(25, 3, rng));
  EXPECT_LT(orthogonality_defect(isvd.u()), 1e-10);
  EXPECT_LT(orthogonality_defect(isvd.v()), 1e-10);
}

TEST(Isvd, RankCapTruncates) {
  Rng rng(5);
  IsvdOptions options;
  options.max_rank = 3;
  Isvd isvd(options);
  isvd.initialize(random_matrix(20, 6, rng));
  EXPECT_EQ(isvd.rank(), 3u);
  isvd.update(random_matrix(20, 4, rng));
  EXPECT_EQ(isvd.rank(), 3u);
  EXPECT_EQ(isvd.u().cols(), 3u);
  EXPECT_EQ(isvd.v().cols(), 3u);
}

TEST(Isvd, TruncatedRankStillTracksDominantSubspace) {
  // Low-rank signal + tiny noise: a rank-capped iSVD must reconstruct the
  // signal part accurately even after many updates.
  Rng rng(6);
  const std::size_t p = 40;
  const Mat signal = random_low_rank(p, 60, 3, rng);
  Mat noisy = signal;
  for (std::size_t i = 0; i < noisy.size(); ++i) {
    noisy.data()[i] += 1e-6 * rng.normal();
  }
  IsvdOptions options;
  options.max_rank = 6;
  Isvd isvd(options);
  isvd.initialize(noisy.block(0, 0, p, 10));
  for (std::size_t c = 10; c < 60; c += 10) {
    isvd.update(noisy.block(0, c, p, 10));
  }
  const Mat approx = isvd.reconstruct();
  EXPECT_LT(linalg::frobenius_diff(approx, signal),
            1e-3 * linalg::frobenius_norm(signal));
}

TEST(Isvd, NewColumnsInExistingSpanDoNotGrowRank) {
  Rng rng(7);
  const Mat basis = random_matrix(20, 3, rng);
  const Mat coeffs1 = random_matrix(3, 5, rng);
  const Mat coeffs2 = random_matrix(3, 4, rng);
  IsvdOptions options;
  options.truncation_tol = 1e-10;
  Isvd isvd(options);
  isvd.initialize(linalg::matmul(basis, coeffs1));
  isvd.update(linalg::matmul(basis, coeffs2));
  EXPECT_EQ(isvd.rank(), 3u);
}

TEST(Isvd, UpdateBeforeInitializeThrows) {
  Isvd isvd;
  EXPECT_THROW(isvd.update(Mat(3, 2)), InvalidArgument);
}

TEST(Isvd, RowMismatchThrows) {
  Rng rng(8);
  Isvd isvd;
  isvd.initialize(random_matrix(10, 3, rng));
  EXPECT_THROW(isvd.update(Mat(11, 2)), DimensionError);
}

TEST(Isvd, AddRowsExtendsDecomposition) {
  Rng rng(9);
  const Mat top = random_matrix(12, 8, rng);
  const Mat bottom = random_matrix(4, 8, rng);
  Isvd isvd;
  isvd.initialize(top);
  isvd.add_rows(bottom);
  EXPECT_EQ(isvd.rows(), 16u);

  Mat full(16, 8);
  full.set_block(0, 0, top);
  full.set_block(12, 0, bottom);
  EXPECT_LT(max_abs_diff(isvd.reconstruct(), full), 1e-9);
  const linalg::SvdResult batch = linalg::svd(full);
  for (std::size_t i = 0; i < std::min(isvd.s().size(), batch.s.size()); ++i) {
    EXPECT_NEAR(isvd.s()[i], batch.s[i], 1e-8 * batch.s[0]);
  }
}

TEST(Isvd, AddRowsThenUpdateColumnsStaysConsistent) {
  Rng rng(10);
  Isvd isvd;
  const Mat a = random_matrix(10, 6, rng);
  isvd.initialize(a);
  const Mat new_rows = random_matrix(2, 6, rng);
  isvd.add_rows(new_rows);
  const Mat new_cols = random_matrix(12, 3, rng);
  isvd.update(new_cols);

  Mat full(12, 9);
  full.set_block(0, 0, a);
  full.set_block(10, 0, new_rows);
  full.set_block(0, 6, new_cols);
  EXPECT_LT(max_abs_diff(isvd.reconstruct(), full), 1e-8);
}

// Property sweep: iSVD == batch under different chunkings.
class IsvdChunking : public ::testing::TestWithParam<int> {};

TEST_P(IsvdChunking, MatchesBatchForAnyChunkSize) {
  const int chunk = GetParam();
  Rng rng(static_cast<std::uint64_t>(50 + chunk));
  const std::size_t total = 30;
  const Mat full = random_matrix(25, total, rng);
  Isvd isvd;
  isvd.initialize(full.block(0, 0, 25, chunk));
  for (std::size_t c = chunk; c < total;) {
    const std::size_t w = std::min<std::size_t>(chunk, total - c);
    isvd.update(full.block(0, c, 25, w));
    c += w;
  }
  EXPECT_LT(max_abs_diff(isvd.reconstruct(), full),
            1e-8 * linalg::frobenius_norm(full));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, IsvdChunking,
                         ::testing::Values(1, 2, 3, 5, 10, 15));

// --- the single-column core solver ---------------------------------------

// One broken-arrow core K = [diag(s) m; 0 rho].
struct ArrowCase {
  std::string name;
  std::vector<double> s;
  std::vector<double> m;
  double rho;
};

Mat assemble(const ArrowCase& c) {
  const std::size_t r = c.s.size();
  Mat k(r + 1, r + 1);
  for (std::size_t i = 0; i < r; ++i) {
    k(i, i) = c.s[i];
    k(i, r) = c.m[i];
  }
  k(r, r) = c.rho;
  return k;
}

std::vector<double> descending(std::vector<double> s) {
  std::sort(s.begin(), s.end(), [](double a, double b) { return a > b; });
  return s;
}

std::vector<double> normals(std::size_t n, double scale, Rng& rng) {
  std::vector<double> out(n);
  for (double& x : out) x = scale * rng.normal();
  return out;
}

std::vector<double> graded(std::size_t n) {
  std::vector<double> s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::pow(10.0, -9.0 * static_cast<double>(i) /
                              static_cast<double>(n - 1));
  }
  return s;
}

std::vector<ArrowCase> arrow_cases() {
  Rng rng(21);
  std::vector<ArrowCase> cases;
  for (const std::size_t r : {1, 2, 7, 56, 115}) {
    std::vector<double> s = normals(r, 3.0, rng);
    for (double& x : s) x = std::abs(x);
    cases.push_back({"random r=" + std::to_string(r), descending(s),
                     normals(r, 1.0, rng), std::abs(rng.normal())});
  }
  for (const double rho : {0.5, 1e-14}) {
    cases.push_back({"graded rho=" + std::to_string(rho), graded(56),
                     normals(56, 0.3, rng), rho});
  }
  {
    // A saturated group (r = P): the new column lies in span(U), so the
    // residual norm is rounding noise far below the deflation tolerance.
    std::vector<double> s(56);
    for (std::size_t i = 0; i < s.size(); ++i) s[i] = 100.0 * std::pow(0.8, i);
    cases.push_back({"saturated", s, normals(56, 10.0, rng), 1e-27});
  }
  {
    std::vector<double> s(20, 2.0);
    s.resize(30, 0.5);
    cases.push_back({"equal s", s, normals(30, 1.0, rng), 0.7});
  }
  {
    std::vector<double> s(24);
    std::vector<double> m = normals(24, 1.0, rng);
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] = 24.5 - static_cast<double>(i);
      if (i % 3 == 0) m[i] = 0.0;
      if (i % 3 == 1) m[i] = 1e-17;  // below the deflation tolerance
    }
    cases.push_back({"zero and tiny z", s, m, 0.7});
  }
  cases.push_back({"m = 0", graded(20), std::vector<double>(20), 0.3});
  cases.push_back({"|m| >> s_max", graded(20), normals(20, 1e16, rng), 0.3});
  cases.push_back({"s = 0 (zero initial block)", {0.0}, {0.0}, 0.7});
  cases.push_back({"s = 0, dense m", std::vector<double>(5),
                   normals(5, 1.0, rng), 0.7});
  cases.push_back({"all zero", std::vector<double>(3),
                   std::vector<double>(3), 0.0});
  // A column far larger than the history it joins: several poles between
  // the deflation tolerance and 1e-8 of the scale, so the last root lies
  // within rounding of its upper bound sum(z^2).
  for (const double m_scale : {1e8, 1e10, 1e12}) {
    cases.push_back({"graded, |m| ~ " + std::to_string(m_scale), graded(20),
                     normals(20, m_scale, rng), 0.3});
  }
  for (const double s_scale : {1e-9, 1e-10, 1e-12}) {
    std::vector<double> s = graded(12);
    for (double& x : s) x *= s_scale;
    cases.push_back({"s ~ " + std::to_string(s_scale) + ", |m| ~ 1", s,
                     normals(12, 1.0, rng), 0.8});
  }
  {
    // The column lies almost entirely on the top singular direction.
    std::vector<double> m(20, 1e-9);
    m[0] = 1e3;
    cases.push_back({"m on the top direction", graded(20), m, 1e-6});
  }
  return cases;
}

TEST(ArrowSvd, MatchesJacobiOnTheAssembledCore) {
  for (const ArrowCase& c : arrow_cases()) {
    SCOPED_TRACE(c.name);
    linalg::SvdResult got;
    ArrowSvdWorkspace ws;
    arrow_svd_into(c.s, c.m, c.rho, got, ws);
    const Mat k = assemble(c);
    const linalg::SvdResult want = linalg::svd(k);
    ASSERT_EQ(got.s.size(), want.s.size());
    for (std::size_t i = 0; i < got.s.size(); ++i) {
      EXPECT_GE(got.s[i], 0.0);
      if (i > 0) {
        EXPECT_LE(got.s[i], got.s[i - 1]);
      }
      if (want.s[i] > 1e-10 * want.s[0]) {
        EXPECT_NEAR(got.s[i], want.s[i], 1e-13 * want.s[i]) << "sigma " << i;
      }
    }
    EXPECT_LE(orthogonality_defect(got.u), 1e-13);
    EXPECT_LE(orthogonality_defect(got.v), 1e-13);
    Mat us = got.u;
    for (std::size_t j = 0; j < got.s.size(); ++j) {
      linalg::scale_col(us, j, got.s[j]);
    }
    EXPECT_LE(linalg::frobenius_diff(linalg::matmul_a_bt(us, got.v), k),
              1e-13 * linalg::frobenius_norm(k));
  }
}

TEST(ArrowSvd, NonFiniteInputThrowsNumericalError) {
  const double poisons[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity()};
  for (const double poison : poisons) {
    std::vector<double> s = {3.0, 2.0, 1.0};
    std::vector<double> m = {0.5, 0.25, 0.125};
    linalg::SvdResult out;
    ArrowSvdWorkspace ws;
    EXPECT_THROW(arrow_svd_into(s, m, poison, out, ws), NumericalError);
    m[1] = poison;
    EXPECT_THROW(arrow_svd_into(s, m, 0.5, out, ws), NumericalError);
    m[1] = 0.25;
    s[0] = poison;
    EXPECT_THROW(arrow_svd_into(s, m, 0.5, out, ws), NumericalError);
  }
  // The solver's precondition: s non-negative and non-increasing.
  linalg::SvdResult out;
  ArrowSvdWorkspace ws;
  EXPECT_THROW(arrow_svd_into(std::vector<double>{1.0, 2.0},
                              std::vector<double>{1.0, 1.0}, 1.0, out, ws),
               InvalidArgument);
  EXPECT_THROW(arrow_svd_into(std::vector<double>{1.0, -0.5},
                              std::vector<double>{1.0, 1.0}, 1.0, out, ws),
               InvalidArgument);
}

// Poles a few to a few thousand ulps apart, over nine decades of weights
// and sixteen of corners: z recomputed from the roots (the Loewner
// formula) keeps the vectors orthogonal to a few ulps, where vectors built
// from the input z drift to 1e-13.
TEST(ArrowSvd, ClusteredPolesStayOrthonormal) {
  Rng rng(41);
  double worst = 0.0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t r = 2 + static_cast<std::size_t>(trial) % 119;
    const double gap = std::pow(10.0, -14.7 + 3.0 * rng.uniform());
    const double weight = std::pow(10.0, -15.0 + 15.0 * rng.uniform());
    const double rho = std::pow(10.0, -16.0 + 16.0 * rng.uniform());
    std::vector<double> s(r);
    std::vector<double> m(r);
    double level = 1.0;
    for (std::size_t i = 0; i < r; ++i) {
      level -= gap * (0.5 + rng.uniform());
      s[i] = level;
      m[i] = weight * rng.normal();
    }
    linalg::SvdResult out;
    ArrowSvdWorkspace ws;
    arrow_svd_into(s, m, rho, out, ws);
    worst = std::max({worst, orthogonality_defect(out.u),
                      orthogonality_defect(out.v)});
  }
  EXPECT_LE(worst, 1e-14);
}

// One workspace and result reused across growing and shrinking cores gives
// the bits a fresh pair gives.
TEST(ArrowSvd, ReusedWorkspaceMatchesFreshWorkspace) {
  const std::vector<ArrowCase> cases = arrow_cases();
  linalg::SvdResult reused;
  ArrowSvdWorkspace shared;
  for (const std::size_t i : {3u, 7u, 0u, 4u, 1u, 8u, 2u}) {
    const ArrowCase& c = cases[i];
    SCOPED_TRACE(c.name);
    arrow_svd_into(c.s, c.m, c.rho, reused, shared);
    linalg::SvdResult fresh;
    ArrowSvdWorkspace ws;
    arrow_svd_into(c.s, c.m, c.rho, fresh, ws);
    EXPECT_EQ(reused.s, fresh.s);
    EXPECT_EQ(max_abs_diff(reused.u, fresh.u), 0.0);
    EXPECT_EQ(max_abs_diff(reused.v, fresh.v), 0.0);
  }
}

// A long stream of one-column updates keeps both factors orthonormal to
// working precision. The rank saturates at P early, so most updates take
// the deflated-corner path (the new column lies in span(U)).
TEST(ArrowSvd, LongStreamKeepsFactorsOrthonormal) {
  Rng rng(31);
  const std::size_t p = 24;
  const std::size_t steps = 1008;
  Mat data = random_low_rank(p, steps, 6, rng);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data.data()[i] += 1e-3 * rng.normal();
  }
  Isvd isvd;
  isvd.initialize(data.block(0, 0, p, 8));
  for (std::size_t t = 8; t < steps; ++t) isvd.update(data.block(0, t, p, 1));
  EXPECT_EQ(isvd.rank(), p);
  EXPECT_LE(orthogonality_defect(isvd.u()), 1e-13);
  EXPECT_LE(orthogonality_defect(isvd.v()), 1e-13);
  EXPECT_LT(linalg::frobenius_diff(isvd.reconstruct(), data),
            1e-12 * linalg::frobenius_norm(data));
}

}  // namespace
}  // namespace imrdmd::isvd
