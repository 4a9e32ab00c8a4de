// Tests for the incremental SVD.
#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace imrdmd::isvd
