#include "dmd/dmd.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "linalg/blas.hpp"
#include "linalg/eig.hpp"
#include "linalg/svd.hpp"

namespace imrdmd::dmd {

std::vector<Complex> fit_amplitudes(const CMat& modes,
                                    const std::vector<Complex>& eigenvalues,
                                    const Mat& snapshots, AmplitudeFit method) {
  IMRDMD_REQUIRE_DIMS(modes.cols() == eigenvalues.size(),
                      "fit_amplitudes mode/eigenvalue count mismatch");
  IMRDMD_REQUIRE_DIMS(modes.rows() == snapshots.rows(),
                      "fit_amplitudes sensor dimension mismatch");
  IMRDMD_REQUIRE_DIMS(snapshots.cols() >= 1, "fit_amplitudes needs snapshots");
  const std::size_t m = eigenvalues.size();
  if (m == 0) return {};

  if (method == AmplitudeFit::FirstSnapshot) {
    std::vector<Complex> x0(snapshots.rows());
    for (std::size_t p = 0; p < snapshots.rows(); ++p) x0[p] = snapshots(p, 0);
    return linalg::lstsq_complex(modes,
                                 std::span<const Complex>(x0.data(), x0.size()));
  }
  const CMat gram = linalg::matmul_ah_b(modes, modes);  // m x m
  const CMat proj = linalg::matmul_ah_b(modes, linalg::to_complex(snapshots));
  return fit_amplitudes_from_products(gram, proj, eigenvalues);
}

std::vector<Complex> fit_amplitudes_from_products(
    const CMat& gram, const CMat& proj,
    const std::vector<Complex>& eigenvalues) {
  const std::size_t m = eigenvalues.size();
  IMRDMD_REQUIRE_DIMS(gram.rows() == m && gram.cols() == m,
                      "fit_amplitudes gram shape mismatch");
  IMRDMD_REQUIRE_DIMS(proj.rows() == m && proj.cols() >= 1,
                      "fit_amplitudes proj shape mismatch");
  if (m == 0) return {};
  // AllSnapshots: minimize sum_t ||Phi diag(lambda^t) b - x_t||^2.
  // Normal equations: A_ij = (Phi^H Phi)_ij * sum_t conj(l_i)^t l_j^t,
  //                   r_i  = sum_t conj(l_i)^t (Phi^H x_t)_i.
  const std::size_t steps = proj.cols();
  CMat a(m, m);
  std::vector<Complex> rhs(m, Complex{});
  // Accumulate the Vandermonde sums incrementally: powers[i] = lambda_i^t.
  std::vector<Complex> powers(m, Complex(1.0, 0.0));
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t i = 0; i < m; ++i) {
      const Complex ci = std::conj(powers[i]);
      rhs[i] += ci * proj(i, t);
      for (std::size_t j = 0; j < m; ++j) {
        a(i, j) += ci * powers[j] * gram(i, j);
      }
    }
    for (std::size_t i = 0; i < m; ++i) powers[i] *= eigenvalues[i];
  }
  try {
    return linalg::complex_solve(a, rhs);
  } catch (const NumericalError&) {
    double trace = 0.0;
    for (std::size_t i = 0; i < m; ++i) trace += a(i, i).real();
    const double ridge = 1e-12 * (trace > 0.0 ? trace : 1.0);
    for (std::size_t i = 0; i < m; ++i) a(i, i) += ridge;
    return linalg::complex_solve(a, rhs);
  }
}

DmdResult dmd_from_svd(const Mat& u, const std::vector<double>& s,
                       const Mat& v, const Mat& y, double dt,
                       const DmdOptions& options) {
  IMRDMD_REQUIRE_ARG(dt > 0.0, "dmd requires dt > 0");
  IMRDMD_REQUIRE_DIMS(u.rows() == y.rows(),
                      "dmd_from_svd sensor dimension mismatch");
  IMRDMD_REQUIRE_DIMS(v.rows() == y.cols(),
                      "dmd_from_svd snapshot dimension mismatch");

  // Rank selection on the available spectrum.
  std::size_t rank = std::min({u.cols(), v.cols(), s.size()});
  if (options.use_svht) {
    rank = std::min(rank, linalg::svht_rank(s, u.rows(), v.rows()));
  }
  if (options.max_rank > 0) rank = std::min(rank, options.max_rank);
  // Guard the inverse below against numerically-zero singular values (SVHT's
  // median rule can admit them when the data is exactly low rank).
  const double floor = s.empty() ? 0.0 : 1e-12 * s.front();
  while (rank > 0 && s[rank - 1] <= floor) --rank;

  DmdResult result;
  result.dt = dt;
  result.svd_rank = rank;
  if (rank == 0) {
    result.modes = CMat(u.rows(), 0);
    return result;
  }

  const Mat u_r = u.cols() == rank ? u : u.block(0, 0, u.rows(), rank);
  const Mat v_r = v.cols() == rank ? v : v.block(0, 0, v.rows(), rank);

  // Atilde = U_r^T Y V_r S_r^-1  (Eq. 3).
  Mat yv = linalg::matmul(y, v_r);  // P x r
  for (std::size_t j = 0; j < rank; ++j) linalg::scale_col(yv, j, 1.0 / s[j]);
  const Mat atilde = linalg::matmul_at_b(u_r, yv);  // r x r

  const linalg::EigResult eigen = linalg::eig(atilde, true);

  // Phi = Y V_r S_r^-1 W  (Eq. 5, "exact" DMD modes).
  result.modes = linalg::matmul(linalg::to_complex(yv), eigen.vectors);
  result.eigenvalues = eigen.values;
  return result;
}

DmdResult dmd(const Mat& data, double dt, const DmdOptions& options) {
  IMRDMD_REQUIRE_DIMS(data.cols() >= 2, "dmd needs at least two snapshots");
  const std::size_t t = data.cols();
  const Mat x = data.block(0, 0, data.rows(), t - 1);
  const Mat y = data.block(0, 1, data.rows(), t - 1);
  linalg::SvdResult f = linalg::svd(x);
  DmdResult result = dmd_from_svd(f.u, f.s, f.v, y, dt, options);
  result.amplitudes = fit_amplitudes(result.modes, result.eigenvalues, data,
                                     options.amplitude_fit);
  return result;
}

}  // namespace imrdmd::dmd
