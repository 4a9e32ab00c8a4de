// SVD of the incremental SVD's single-column core.
//
// When Isvd::update folds in one column, its core matrix is the "broken
// arrow"
//     K = [diag(s) m; 0 rho],   s: r values, m: r values, rho: scalar,
// a diagonal plus one dense column. Permuting the last row and column to
// the front gives M = diag(0, s) + z e0^T with z = (rho, m), so
// M M^T = D^2 + z z^T is a rank-one modification of a diagonal, and K's
// singular values are the roots of the secular equation
//     1 + sum_i z_i^2 / (d_i^2 - sigma^2) = 0.
// arrow_svd_into solves it in O(r^2) (Gu & Eisenstat 1995, the method of
// LAPACK's dlasd2-dlasd4; Brand 2006 for its use in the incremental SVD):
//   * deflation: tiny |z_i|, d_i ~ 0 (rotated into the corner) and
//     near-equal d_i (a two-sided rotation) leave the secular problem; a
//     tiny corner z_0 = rho becomes an exact zero singular value whose
//     left vector is the new column's residual direction;
//   * each root is found relative to its nearer pole, so d_i^2 - sigma^2
//     is formed without cancellation, by a two-pole rational model with a
//     bisection fallback;
//   * z is recomputed from the roots (the Loewner formula) before the
//     singular vectors are formed, which keeps them orthogonal to working
//     precision however close the roots are.
// Blocks of more than one column, Isvd::initialize and add_rows keep the
// dense Jacobi SVD (linalg/svd.hpp), which is also this solver's oracle in
// the tests.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/svd.hpp"

namespace imrdmd::isvd {

/// Scratch for arrow_svd_into: vectors of length r + 1, reused across calls
/// (no (r+1)^2 buffer besides the result itself).
struct ArrowSvdWorkspace {
  struct Deflated {
    std::size_t index;  // position in M = diag(0, s) + z e0^T
    double diag;        // its remaining diagonal entry (sign goes to U)
  };
  struct Rotation {
    std::size_t keep, zeroed;  // z[zeroed] rotated into z[keep]
    double c, s;
    bool two_sided;            // applied to V as well as U
  };
  std::vector<double> d, z;             // scaled diagonal and column of M
  std::vector<std::size_t> kept;        // M indices left in the secular problem
  std::vector<Deflated> deflated;
  std::vector<Rotation> rotations;
  std::vector<double> pole, w2, delta;  // kept d, z^2, poles shifted per root
  std::vector<std::size_t> shift;       // per root: the pole it is found from
  std::vector<double> tau;              // per root: sigma^2 - pole[shift]^2
  std::vector<double> zhat, work, sigma;
  std::vector<std::size_t> order, column;
};

/// SVD of K = [diag(s) m; 0 rho] ((r+1) x (r+1), r = s.size()) into `out`
/// with the contract of linalg::svd: s descending, U and V orthonormal.
/// Requires s non-negative and non-increasing (InvalidArgument otherwise);
/// throws NumericalError on non-finite input, as the Jacobi SVD does.
void arrow_svd_into(std::span<const double> s, std::span<const double> m,
                    double rho, linalg::SvdResult& out, ArrowSvdWorkspace& ws);

}  // namespace imrdmd::isvd
