#include "isvd/arrow_svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace imrdmd::isvd {

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();
// Every iteration shrinks the root's bracket, by bisection whenever the
// model step leaves it; running out of iterations means a bracket that no
// longer shrinks, a defect reported like Jacobi's sweep cap.
constexpr int kMaxIterations = 200;

double square(double x) { return x * x; }

// The secular function g(tau) = 1 + sum_i w2_i / (delta_i - tau) at one
// point, split at root j into the poles at or left of it (psi) and the
// poles right of it (phi).
struct Secular {
  double g = 1.0;
  double magnitude = 1.0;  // 1 + sum |term|: the scale of g's rounding
  double dpsi = 0.0;       // slopes of the left and right sums
  double dphi = 0.0;
  double far = 1.0;        // the model's constant: 1 + every pole's term
                           // but the two nearest, each taken relative to
                           // the nearest pole on its side
};

Secular evaluate(const std::vector<double>& delta,
                 const std::vector<double>& w2, std::size_t j, double tau) {
  const std::size_t n = delta.size();
  const double left = delta[j];
  const double right = j + 1 < n ? delta[j + 1] : 0.0;
  Secular e;
  for (std::size_t i = 0; i < n; ++i) {
    const double inv = 1.0 / (delta[i] - tau);
    const double term = w2[i] * inv;
    const double slope = term * inv;
    e.g += term;
    e.magnitude += std::abs(term);
    if (i <= j) {
      e.dpsi += slope;
      if (i < j) e.far += slope * (delta[i] - left);
    } else {
      e.dphi += slope;
      if (i > j + 1) e.far += slope * (delta[i] - right);
    }
  }
  return e;
}

// Root of the two-pole rational model of g at tau (Li's "middle way"): the
// left and right sums become constant + s/(pole - y) matched in value and
// slope at tau, with the poles at the two nearest ones. One of the two
// poles is the origin (zero), so the quadratic's constant has no
// cancellation. The last root has no right pole and uses the left half
// alone. Returns NaN when the model has no root to offer.
double model_root(const std::vector<double>& delta, std::size_t j,
                  double tau, const Secular& e) {
  const double left = delta[j];
  const double sl = e.dpsi * square(left - tau);
  if (j + 1 == delta.size()) {
    return e.far > 0.0 ? left + sl / e.far
                       : std::numeric_limits<double>::quiet_NaN();
  }
  const double right = delta[j + 1];
  const double sr = e.dphi * square(right - tau);
  // far (left - y)(right - y) + sl (right - y) + sr (left - y) = 0.
  const double b = e.far * (left + right) + sl + sr;
  const double c = e.far * left * right + sl * right + sr * left;
  const double disc = std::sqrt(std::max(0.0, b * b - 4.0 * e.far * c));
  const double q = 0.5 * (b + std::copysign(disc, b));
  const double y = q / e.far;
  return y > left && y < right ? y : c / q;
}

// Shifts the poles' squares to the origin pole[k]: delta_i = pole_i^2 -
// pole_k^2, formed as a product of a difference and a sum.
void shift_poles(const std::vector<double>& pole, std::size_t k,
                 std::vector<double>& delta) {
  delta.resize(pole.size());
  for (std::size_t i = 0; i < pole.size(); ++i) {
    delta[i] = (pole[i] - pole[k]) * (pole[i] + pole[k]);
  }
}

// Root j of 1 + sum w2_i / (pole_i^2 - sigma^2) = 0, which lies in
// (pole_j, pole_{j+1}) (above pole_j for the last). It is found as
// sigma^2 = pole_k^2 + tau from the nearer pole k; returns k, writes tau.
std::size_t solve_root(std::size_t j, ArrowSvdWorkspace& ws, double& tau) {
  const std::size_t n = ws.pole.size();
  std::size_t k = j;
  double lo = 0.0;
  double hi = 0.0;
  shift_poles(ws.pole, j, ws.delta);
  if (j + 1 < n) {
    // The midpoint of the two poles tells which one the root is nearer.
    tau = 0.5 * ws.delta[j + 1];
    hi = tau;
  } else {
    // sigma^2 <= pole_j^2 + |z|^2, where g >= 0 in exact arithmetic. A
    // computed g below zero there puts the root at hi to within rounding,
    // which the iteration below accepts; there is no pole to shift to.
    for (double w : ws.w2) hi += w;
    tau = hi;
  }
  Secular e = evaluate(ws.delta, ws.w2, j, tau);
  if (j + 1 < n && e.g < 0.0) {
    k = j + 1;
    shift_poles(ws.pole, k, ws.delta);
    lo = -tau;
    hi = 0.0;
    tau = lo;
    e = evaluate(ws.delta, ws.w2, j, tau);
  }
  for (int iteration = 0;; ++iteration) {
    if (std::abs(e.g) <= 8.0 * kEps * e.magnitude) break;
    (e.g < 0.0 ? lo : hi) = tau;
    double next = model_root(ws.delta, j, tau, e);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (next == tau) break;  // the bracket is down to adjacent doubles
    if (iteration == kMaxIterations) {
      throw NumericalError("arrow_svd: secular equation did not converge");
    }
    tau = next;
    e = evaluate(ws.delta, ws.w2, j, tau);
  }
  return k;
}

// Rows `keep` and `zeroed` of U (or V) of M from those of the rotated
// problem: the transpose of the rotation that moved z[zeroed] into z[keep].
void unrotate_rows(linalg::Mat& x, std::size_t keep, std::size_t zeroed,
                   double c, double s) {
  double* rk = x.data() + keep * x.cols();
  double* rz = x.data() + zeroed * x.cols();
  for (std::size_t j = 0; j < x.cols(); ++j) {
    const double a = rk[j];
    const double b = rz[j];
    rk[j] = c * a - s * b;
    rz[j] = s * a + c * b;
  }
}

}  // namespace

void arrow_svd_into(std::span<const double> s, std::span<const double> m,
                    double rho, linalg::SvdResult& out,
                    ArrowSvdWorkspace& ws) {
  IMRDMD_REQUIRE_DIMS(s.size() == m.size(),
                      "arrow_svd: s and m differ in length");
  const std::size_t r = s.size();
  const std::size_t n = r + 1;
  bool finite = std::isfinite(rho);
  for (std::size_t i = 0; i < r; ++i) {
    finite = finite && std::isfinite(s[i]) && std::isfinite(m[i]);
  }
  if (!finite) throw NumericalError("arrow_svd: non-finite input");
  for (std::size_t i = 0; i < r; ++i) {
    IMRDMD_REQUIRE_ARG(s[i] >= 0.0 && (i == 0 || s[i] <= s[i - 1]),
                       "arrow_svd needs s non-negative and non-increasing");
  }

  out.s.assign(n, 0.0);
  out.u.assign_zero(n, n);
  out.v.assign_zero(n, n);
  // M index i is K's row and column row(i): the corner is K's last.
  const auto row = [r](std::size_t i) { return i == 0 ? r : i - 1; };

  double scale = std::abs(rho);
  for (std::size_t i = 0; i < r; ++i) {
    scale = std::max({scale, s[i], std::abs(m[i])});
  }
  if (scale == 0.0) {
    for (std::size_t i = 0; i < n; ++i) out.u(i, i) = out.v(i, i) = 1.0;
    return;
  }
  const double tol = 8.0 * kEps;
  std::vector<double>& d = ws.d;
  std::vector<double>& z = ws.z;
  d.resize(n);
  z.resize(n);
  d[0] = 0.0;
  z[0] = rho / scale;
  for (std::size_t i = 1; i < n; ++i) {
    d[i] = s[i - 1] / scale;
    z[i] = m[i - 1] / scale;
  }

  // Deflation, in ascending d (M indices r down to 1 after the corner).
  ws.kept.assign(1, 0);
  ws.deflated.clear();
  ws.rotations.clear();
  for (std::size_t i = r; i >= 1; --i) {
    const std::size_t prev = ws.kept.back();
    if (std::abs(z[i]) <= tol) {
      ws.deflated.push_back({i, d[i]});
    } else if (d[i] - d[prev] > tol) {
      ws.kept.push_back(i);
    } else if (prev == 0) {
      // d_i ~ 0: a rotation from the left moves z_i into the corner and
      // leaves row i with c d_i on the diagonal (s d_i <= tol is dropped).
      const double h = std::hypot(z[0], z[i]);
      const double c = z[0] / h;
      ws.rotations.push_back({0, i, c, z[i] / h, false});
      z[0] = h;
      z[i] = 0.0;
      ws.deflated.push_back({i, c * d[i]});
    } else {
      // d_i ~ d_prev: the same rotation on both sides keeps the diagonal
      // (to within tol) and moves z_prev into z_i.
      const double h = std::hypot(z[i], z[prev]);
      ws.rotations.push_back({i, prev, z[i] / h, z[prev] / h, true});
      z[i] = h;
      z[prev] = 0.0;
      ws.deflated.push_back({prev, d[prev]});
      ws.kept.back() = i;
    }
  }
  // A tiny corner is an exact zero: the new column lies in span(U). Its
  // left vector is the residual slot, which no kept vector then touches.
  const bool null_corner = std::abs(z[0]) <= tol;
  if (null_corner) ws.kept.erase(ws.kept.begin());

  const std::size_t nk = ws.kept.size();
  ws.pole.resize(nk);
  ws.w2.resize(nk);
  for (std::size_t j = 0; j < nk; ++j) {
    ws.pole[j] = d[ws.kept[j]];
    ws.w2[j] = square(z[ws.kept[j]]);
  }
  ws.shift.resize(nk);
  ws.tau.resize(nk);
  for (std::size_t j = 0; j < nk; ++j) {
    ws.shift[j] = solve_root(j, ws, ws.tau[j]);
  }

  // pole_i^2 - sigma_k^2, without cancellation.
  const std::vector<double>& pole = ws.pole;
  const auto pole_gap = [&](std::size_t i, std::size_t k) {
    const double pk = pole[ws.shift[k]];
    return (pole[i] - pk) * (pole[i] + pk) - ws.tau[k];
  };

  // z recomputed so the computed roots are exact (Loewner formula). Every
  // factor lies in (0, 1], so the products neither overflow nor underflow
  // past z_i^2 itself.
  ws.zhat.resize(nk);
  for (std::size_t i = 0; i < nk; ++i) ws.zhat[i] = -pole_gap(i, nk - 1);
  for (std::size_t k = 0; k + 1 < nk; ++k) {
    for (std::size_t i = 0; i < nk; ++i) {
      const double pq = pole[k < i ? k : k + 1];
      ws.zhat[i] *= -pole_gap(i, k) / ((pq - pole[i]) * (pq + pole[i]));
    }
  }
  for (std::size_t i = 0; i < nk; ++i) {
    ws.zhat[i] = std::copysign(std::sqrt(ws.zhat[i]), z[ws.kept[i]]);
  }

  // Columns in descending sigma: the kept roots, then the deflated
  // entries, then the null corner.
  ws.sigma.resize(n);
  for (std::size_t j = 0; j < nk; ++j) {
    ws.sigma[j] = std::sqrt(square(pole[ws.shift[j]]) + ws.tau[j]);
  }
  for (std::size_t t = 0; t < ws.deflated.size(); ++t) {
    ws.sigma[nk + t] = std::abs(ws.deflated[t].diag);
  }
  if (null_corner) ws.sigma[n - 1] = 0.0;
  ws.order.resize(n);
  std::iota(ws.order.begin(), ws.order.end(), 0);
  std::stable_sort(ws.order.begin(), ws.order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return ws.sigma[a] > ws.sigma[b];
                   });
  ws.column.resize(n);
  for (std::size_t col = 0; col < n; ++col) {
    ws.column[ws.order[col]] = col;
    out.s[col] = ws.sigma[ws.order[col]] * scale;
  }

  // Kept roots: u ~ zhat / (d^2 - sigma^2), v ~ d zhat / (d^2 - sigma^2) - e0.
  ws.work.resize(nk);
  for (std::size_t j = 0; j < nk; ++j) {
    double u_norm = 0.0;
    double v_norm = 1.0;
    for (std::size_t i = 0; i < nk; ++i) {
      const double ui = ws.zhat[i] / pole_gap(i, j);
      ws.work[i] = ui;
      u_norm += ui * ui;
      v_norm += square(pole[i] * ui);
    }
    const double u_scale = 1.0 / std::sqrt(u_norm);
    const double v_scale = 1.0 / std::sqrt(v_norm);
    const std::size_t col = ws.column[j];
    for (std::size_t i = 0; i < nk; ++i) {
      const std::size_t k_row = row(ws.kept[i]);
      out.u(k_row, col) = ws.work[i] * u_scale;
      out.v(k_row, col) = pole[i] * ws.work[i] * v_scale;
    }
    out.v(r, col) = -v_scale;
  }
  for (std::size_t t = 0; t < ws.deflated.size(); ++t) {
    const std::size_t k_row = row(ws.deflated[t].index);
    const std::size_t col = ws.column[nk + t];
    out.u(k_row, col) = ws.deflated[t].diag < 0.0 ? -1.0 : 1.0;
    out.v(k_row, col) = 1.0;
  }
  if (null_corner) {
    // u = the corner, v = M's null vector (1, -zhat_i / d_i).
    const std::size_t col = ws.column[n - 1];
    double norm = 1.0;
    for (std::size_t i = 0; i < nk; ++i) norm += square(ws.zhat[i] / pole[i]);
    const double v_scale = 1.0 / std::sqrt(norm);
    out.u(r, col) = 1.0;
    out.v(r, col) = v_scale;
    for (std::size_t i = 0; i < nk; ++i) {
      out.v(row(ws.kept[i]), col) = -ws.zhat[i] / pole[i] * v_scale;
    }
  }

  // Undo the deflating rotations, last first.
  for (auto it = ws.rotations.rbegin(); it != ws.rotations.rend(); ++it) {
    unrotate_rows(out.u, row(it->keep), row(it->zeroed), it->c, it->s);
    if (it->two_sided) {
      unrotate_rows(out.v, row(it->keep), row(it->zeroed), it->c, it->s);
    }
  }
}

}  // namespace imrdmd::isvd
