// Unit + property tests for Householder QR.
#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "test_util.hpp"

namespace imrdmd::linalg {
namespace {

using imrdmd::testing::max_abs_diff;
using imrdmd::testing::orthogonality_defect;
using imrdmd::testing::random_matrix;

TEST(Qr, ReconstructsInput) {
  Rng rng(1);
  const Mat a = random_matrix(10, 4, rng);
  const QrResult f = thin_qr(a);
  EXPECT_LT(max_abs_diff(matmul(f.q, f.r), a), 1e-12);
}

TEST(Qr, QHasOrthonormalColumns) {
  Rng rng(2);
  const Mat a = random_matrix(20, 6, rng);
  const QrResult f = thin_qr(a);
  EXPECT_LT(orthogonality_defect(f.q), 1e-12);
}

TEST(Qr, RIsUpperTriangularWithNonNegativeDiagonal) {
  Rng rng(3);
  const Mat a = random_matrix(8, 8, rng);
  const QrResult f = thin_qr(a);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_GE(f.r(i, i), 0.0);
    for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(f.r(i, j), 0.0);
  }
}

TEST(Qr, HandlesRankDeficiency) {
  // Two identical columns: R gets a ~0 diagonal, A = QR must still hold.
  Mat a(6, 2);
  Rng rng(5);
  for (std::size_t i = 0; i < 6; ++i) {
    a(i, 0) = rng.normal();
    a(i, 1) = a(i, 0);
  }
  const QrResult f = thin_qr(a);
  EXPECT_LT(max_abs_diff(matmul(f.q, f.r), a), 1e-12);
  EXPECT_NEAR(f.r(1, 1), 0.0, 1e-12);
}

TEST(Qr, HandlesZeroMatrix) {
  const Mat a(5, 3);
  const QrResult f = thin_qr(a);
  EXPECT_LT(max_abs_diff(matmul(f.q, f.r), a), 1e-14);
}

TEST(Qr, RequiresTallInput) {
  EXPECT_THROW(thin_qr(Mat(2, 5)), DimensionError);
}

TEST(Qr, SolveUpperSolvesSystem) {
  const Mat r{{2, 1, 0}, {0, 3, -1}, {0, 0, 4}};
  const std::vector<double> b{5, 7, 8};
  const auto x = solve_upper(r, std::span<const double>(b.data(), 3));
  // Verify R x = b.
  const auto back = matvec(r, std::span<const double>(x.data(), 3));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(back[i], b[i], 1e-12);
}

TEST(Qr, SolveUpperDetectsSingularity) {
  const Mat r{{1, 2}, {0, 0}};
  const std::vector<double> b{1, 1};
  EXPECT_THROW(solve_upper(r, std::span<const double>(b.data(), 2)),
               NumericalError);
}

// Property sweep across shapes, including extreme scaling.
class QrShapes : public ::testing::TestWithParam<std::tuple<int, int, double>> {
};

TEST_P(QrShapes, FactorizationInvariants) {
  const auto [rows, cols, scale] = GetParam();
  Rng rng(static_cast<std::uint64_t>(rows * 131 + cols));
  Mat a = random_matrix(rows, cols, rng);
  a *= scale;
  const QrResult f = thin_qr(a);
  const double norm = frobenius_norm(a);
  EXPECT_LT(max_abs_diff(matmul(f.q, f.r), a), 1e-13 * (norm + 1.0));
  EXPECT_LT(orthogonality_defect(f.q), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QrShapes,
    ::testing::Values(std::make_tuple(1, 1, 1.0), std::make_tuple(5, 1, 1.0),
                      std::make_tuple(10, 10, 1.0),
                      std::make_tuple(50, 7, 1e-8),
                      std::make_tuple(50, 7, 1e8),
                      std::make_tuple(128, 16, 1.0),
                      std::make_tuple(300, 3, 1.0)));

}  // namespace
}  // namespace imrdmd::linalg
