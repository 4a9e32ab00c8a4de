// Tests for the blocked, workspace-reusing iSVD fast path: workspace reuse
// must not change results, blocked updates must match column-by-column
// updates, and the error paths must raise typed imrdmd exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "isvd/isvd.hpp"
#include "linalg/blas.hpp"
#include "test_util.hpp"

namespace imrdmd::isvd {
namespace {

using imrdmd::testing::max_abs_diff;
using imrdmd::testing::orthogonality_defect;
using imrdmd::testing::random_matrix;
using linalg::Mat;

// Two identical update sequences — one through a fresh per-call workspace,
// one through a single reused (and deliberately polluted) external
// workspace — must produce bitwise-identical factors: every workspace
// buffer is fully overwritten before use.
TEST(IsvdWorkspace, ReusedWorkspaceMatchesFreshWorkspace) {
  Rng rng(7);
  const Mat initial = random_matrix(24, 6, rng);
  std::vector<Mat> updates;
  for (int i = 0; i < 5; ++i) updates.push_back(random_matrix(24, 3, rng));

  Isvd fresh;
  fresh.initialize(initial);
  for (const Mat& block : updates) {
    IsvdWorkspace per_call;
    fresh.update(block, per_call);
  }

  IsvdWorkspace shared;
  // Pollute the shared workspace with an unrelated decomposition between
  // every step of the sequence under test.
  Isvd decoy;
  decoy.initialize(random_matrix(24, 4, rng));

  Isvd reused;
  reused.initialize(initial);
  for (const Mat& block : updates) {
    decoy.update(random_matrix(24, 2, rng), shared);
    reused.update(block, shared);
  }

  ASSERT_EQ(fresh.rank(), reused.rank());
  for (std::size_t i = 0; i < fresh.rank(); ++i) {
    EXPECT_EQ(fresh.s()[i], reused.s()[i]);
  }
  EXPECT_EQ(max_abs_diff(fresh.u(), reused.u()), 0.0);
  EXPECT_EQ(max_abs_diff(fresh.v(), reused.v()), 0.0);
}

// The internal workspace (one-argument update) is just a private instance
// of the same machinery.
TEST(IsvdWorkspace, InternalWorkspaceMatchesExternal) {
  Rng rng(8);
  const Mat initial = random_matrix(20, 5, rng);
  const Mat block = random_matrix(20, 4, rng);

  Isvd internal;
  internal.initialize(initial);
  internal.update(block);

  Isvd external;
  IsvdWorkspace ws;
  external.initialize(initial);
  external.update(block, ws);

  ASSERT_EQ(internal.rank(), external.rank());
  EXPECT_EQ(max_abs_diff(internal.u(), external.u()), 0.0);
  EXPECT_EQ(max_abs_diff(internal.v(), external.v()), 0.0);
}

// One blocked update and the equivalent column-by-column stream describe
// the same matrix; the reconstructions must agree to tight tolerance (they
// are different round-off paths of the same factorization: the blocked
// update's core goes through the Jacobi SVD, a one-column update's through
// the broken-arrow solver). The first shape keeps everything for exact
// equivalence; in the second the rank reaches P, so the later columns lie
// in span(U) and the default truncation drops their zero singular values.
TEST(IsvdWorkspace, BlockedMatchesColumnByColumn) {
  struct Shape {
    std::size_t p;
    double truncation_tol;
  };
  for (const Shape shape : {Shape{18, 0.0}, Shape{8, 1e-12}}) {
    SCOPED_TRACE("P = " + std::to_string(shape.p));
    Rng rng(9);
    const std::size_t p = shape.p;
    const Mat initial = random_matrix(p, 5, rng);
    const Mat stream = random_matrix(p, 12, rng);

    IsvdOptions options;
    options.truncation_tol = shape.truncation_tol;

    Isvd blocked(options);
    blocked.initialize(initial);
    blocked.update(stream);

    Isvd percol(options);
    percol.initialize(initial);
    for (std::size_t j = 0; j < stream.cols(); ++j) {
      percol.update(stream.block(0, j, p, 1));
    }

    ASSERT_EQ(blocked.cols_seen(), percol.cols_seen());
    ASSERT_EQ(blocked.rank(), percol.rank());
    EXPECT_EQ(blocked.rank(), std::min<std::size_t>(p, 17));
    for (std::size_t i = 0; i < blocked.rank(); ++i) {
      EXPECT_NEAR(blocked.s()[i], percol.s()[i], 1e-9 * blocked.s()[0]);
    }
    EXPECT_LT(max_abs_diff(blocked.reconstruct(), percol.reconstruct()),
              1e-8);
    EXPECT_LT(orthogonality_defect(blocked.u()), 1e-10);
    EXPECT_LT(orthogonality_defect(percol.u()), 1e-10);
    EXPECT_LT(orthogonality_defect(percol.v()), 1e-10);
  }
}

// Inputs wider than the sensor dimension fold in as a loop of full-width
// blocks; the result must match feeding those blocks explicitly.
TEST(IsvdWorkspace, WideBlockFoldsAsFullWidthBlocks) {
  Rng rng(10);
  const std::size_t p = 6;
  const Mat initial = random_matrix(p, 4, rng);
  const Mat wide = random_matrix(p, 15, rng);  // > p columns

  Isvd folded;
  folded.initialize(initial);
  folded.update(wide);

  Isvd manual;
  manual.initialize(initial);
  for (std::size_t c0 = 0; c0 < wide.cols(); c0 += p) {
    manual.update(wide.block(0, c0, p, std::min(p, wide.cols() - c0)));
  }

  ASSERT_EQ(folded.cols_seen(), manual.cols_seen());
  EXPECT_EQ(max_abs_diff(folded.u(), manual.u()), 0.0);
  EXPECT_EQ(max_abs_diff(folded.v(), manual.v()), 0.0);
}

// Regression: the error paths must raise typed imrdmd exceptions (callers
// catch imrdmd::Error at the pipeline boundary), never a crash or a raw
// std exception.
TEST(IsvdErrors, UpdateBeforeInitializeThrowsTypedError) {
  Isvd isvd;
  const Mat block = Mat(4, 2, 1.0);
  EXPECT_THROW(isvd.update(block), InvalidArgument);
  // Also catchable as the library-wide base class.
  try {
    isvd.update(block);
    FAIL() << "expected imrdmd::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("before initialize"),
              std::string::npos);
  }
  IsvdWorkspace ws;
  EXPECT_THROW(isvd.update(block, ws), InvalidArgument);
}

TEST(IsvdErrors, UpdateRowMismatchThrowsDimensionError) {
  Rng rng(11);
  Isvd isvd;
  isvd.initialize(random_matrix(8, 3, rng));
  EXPECT_THROW(isvd.update(random_matrix(9, 2, rng)), DimensionError);
  EXPECT_THROW(isvd.update(random_matrix(7, 2, rng)), DimensionError);
  // The failed update must not have corrupted the decomposition.
  EXPECT_EQ(isvd.cols_seen(), 3u);
  isvd.update(random_matrix(8, 2, rng));
  EXPECT_EQ(isvd.cols_seen(), 5u);
}

TEST(IsvdErrors, ZeroColumnUpdateIsANoOp) {
  Rng rng(12);
  Isvd isvd;
  isvd.initialize(random_matrix(8, 3, rng));
  const Mat before_u = isvd.u();
  isvd.update(Mat(8, 0));
  EXPECT_EQ(isvd.cols_seen(), 3u);
  EXPECT_EQ(max_abs_diff(isvd.u(), before_u), 0.0);
}

TEST(IsvdErrors, InitializeTwiceThrows) {
  Rng rng(13);
  Isvd isvd;
  isvd.initialize(random_matrix(5, 2, rng));
  EXPECT_THROW(isvd.initialize(random_matrix(5, 2, rng)), InvalidArgument);
}

}  // namespace
}  // namespace imrdmd::isvd
