// Microbenchmark of the linalg backend seam on the iSVD hot-path shapes:
// every registered backend (reference / avx2 / openblas when built in)
// times the same small-block kernels — the tall-skinny GEMM rotation, the
// orthogonal-complement projection, the thin QR of an update panel, and
// the SVD of the shapes the stream produces (iSVD core matrices and mrDMD
// bins) — and is checked against the reference result under the banded
// contract while it runs. Not a paper artifact: these curves track the
// substrate every experiment is built from, and the emitted
// BENCH_linalg.json records speedup_vs_reference per kernel so CI can
// watch accelerated backends stay accelerated. The two iSVD cores are also
// timed through the broken-arrow solver (isvd/arrow_svd.hpp) that
// one-column updates take instead of the Jacobi SVD, as speedup_vs_jacobi
// against the reference backend (the solver's accuracy is gated by its
// unit tests).
//
// Exit status: 0 when every backend stays inside its accuracy band;
// nonzero on divergence (the speedups themselves are informational —
// debug builds legitimately invert them).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "isvd/arrow_svd.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

using namespace imrdmd;
using bench::BenchArgs;

namespace {

linalg::Mat random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Mat m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

// The iSVD core [diag(s), k; 0, rho]: s graded over nine decades, one
// dense appended column k, and the new column's residual norm rho.
linalg::Mat isvd_core(std::size_t n, double rho, Rng& rng) {
  linalg::Mat core(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    core(i, i) = std::pow(10.0, -9.0 * static_cast<double>(i) /
                                    static_cast<double>(n - 2));
    core(i, n - 1) = 0.3 * rng.normal();
  }
  core(n - 1, n - 1) = rho;
  return core;
}

// A subsampled mrDMD bin: per-sensor level plus slow oscillations and a
// little noise.
linalg::Mat smooth_bin(std::size_t sensors, std::size_t snapshots, Rng& rng) {
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

double max_rel_err(const linalg::Mat& got, const linalg::Mat& want) {
  double scale = 1.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::abs(want.data()[i]));
  }
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, std::abs(got.data()[i] - want.data()[i]) / scale);
  }
  return err;
}

// max |Q^T Q - I| over the columns whose singular value exceeds
// 1e-10 s_max (the conformance suite's orthonormality check).
double orthonormality_err(const linalg::Mat& q, const std::vector<double>& s) {
  const linalg::Mat qtq = linalg::matmul_at_b(q, q);
  const double cutoff = s.empty() ? 0.0 : 1e-10 * s.front();
  double err = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = 0; j < s.size(); ++j) {
      if (!(s[i] > cutoff) || !(s[j] > cutoff)) continue;
      err = std::max(err, std::abs(qtq(i, j) - (i == j ? 1.0 : 0.0)));
    }
  }
  return err;
}

// The conformance suite's bands (tests/linalg_backend_conformance.hpp):
// relative error for results and reconstructions, absolute for Q^T Q.
constexpr double kRelBand = 1e-10;
constexpr double kOrthoBand = 1e-12;

struct KernelTiming {
  std::string kernel;
  double mean_seconds = 0.0;
  // vs the reference result (SVD: the larger of the spectrum and the
  // reconstruction error)
  double rel_err = 0.0;
  // SVD only: orthonormality of U and V
  std::optional<double> ortho_err = std::nullopt;
};

struct SvdShape {
  std::string kernel;
  linalg::Mat x;
  int iters;  // decompositions per timed run
};

struct BackendCurve {
  std::string backend;
  std::string capabilities;
  std::vector<KernelTiming> kernels;
};

}  // namespace

int main(int argc, char** argv) try {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  bench::banner(
      "linalg backend seam (reference vs accelerated kernels)",
      "accelerated backends match reference within the banded contract "
      "on iSVD small-block shapes");

  // The steady-state iSVD shapes: a P x r basis rotated/projected against
  // c-column update panels. The SVDs take the shapes the stream produces:
  // the (r+1)-sized core of a saturated 56-sensor group and of a rank-115
  // model, and 16-snapshot mrDMD bins of one and of ten 56-sensor groups.
  const std::size_t P = args.full ? 4392 : 1000;
  const std::size_t r = 16;
  const std::size_t c = 8;
  const std::size_t repeats = std::max<std::size_t>(args.repeats, 3);

  Rng rng(17);
  const linalg::Mat u = linalg::thin_qr(random_matrix(P, r, rng)).q;
  const linalg::Mat rot = random_matrix(r, r + c, rng);
  const linalg::Mat panel = random_matrix(P, c, rng);
  const std::vector<SvdShape> svd_shapes = {
      {"svd_core_57x57", isvd_core(57, 0.5, rng), 5},
      {"svd_core_116x116", isvd_core(116, 0.5, rng), 1},
      {"svd_bin_56x15", smooth_bin(56, 15, rng), 20},
      {"svd_bin_560x15", smooth_bin(560, 15, rng), 5}};

  std::printf("shapes: P=%zu r=%zu c=%zu, svd cores 57x57 116x116, svd bins "
              "56x15 560x15, repeats=%zu\n\n",
              P, r, c, repeats);

  // Reference results once, as the accuracy anchor for every backend.
  linalg::Backend* reference = linalg::find_backend("reference");
  IMRDMD_REQUIRE_ARG(reference != nullptr, "reference backend missing");

  linalg::Mat ref_gemm(P, r + c);
  reference->matmul_into(u, rot, ref_gemm);
  linalg::Mat ref_residual = panel;
  linalg::Mat ref_accum(r, c);
  linalg::Mat ref_ws;
  reference->project_out(u, ref_residual, ref_accum, ref_ws);
  linalg::QrResult ref_qr;
  linalg::QrWorkspace ref_qr_ws;
  reference->thin_qr_into(panel, ref_qr, ref_qr_ws);
  std::vector<linalg::SvdResult> ref_svds(svd_shapes.size());
  for (std::size_t i = 0; i < svd_shapes.size(); ++i) {
    linalg::SvdWorkspace ws;
    reference->svd_into(svd_shapes[i].x, ref_svds[i], ws);
  }

  std::vector<BackendCurve> curves;
  bool in_band = true;

  for (const std::string& name : linalg::backend_names()) {
    linalg::Backend* backend = linalg::find_backend(name);
    BackendCurve curve;
    curve.backend = name;
    curve.capabilities = backend->capabilities();
    std::printf("backend %-10s %s\n", name.c_str(),
                curve.capabilities.c_str());

    // GEMM rotation: out = U * rot, the dominant iSVD update flop count.
    {
      linalg::Mat out(P, r + c);
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < 20; ++it) {
              out.assign_zero(P, r + c);
              backend->matmul_into(u, rot, out);
            }
          },
          repeats, 1);
      curve.kernels.push_back({"gemm_rotation", stats.mean / 20.0,
                               max_rel_err(out, ref_gemm)});
    }

    // Orthogonal-complement projection of the update panel.
    {
      linalg::Mat residual;
      linalg::Mat accum;
      linalg::Mat ws;
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < 20; ++it) {
              residual = panel;
              accum.assign_zero(r, c);
              backend->project_out(u, residual, accum, ws);
            }
          },
          repeats, 1);
      curve.kernels.push_back({"project_out", stats.mean / 20.0,
                               max_rel_err(residual, ref_residual)});
    }

    // Thin QR of the projected panel (re-orthogonalization step). Compared
    // through the factors' product: accelerated QR may pick different
    // (equally valid) factor signs on degenerate columns.
    {
      linalg::QrResult qr;
      linalg::QrWorkspace ws;
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < 10; ++it) backend->thin_qr_into(panel, qr, ws);
          },
          repeats, 1);
      curve.kernels.push_back({"thin_qr", stats.mean / 10.0,
                               max_rel_err(linalg::matmul(qr.q, qr.r), panel)});
    }

    // SVDs gated like the conformance suite: the spectrum against the
    // reference, U diag(s) V^T against the input, and orthonormal factors
    // (entrywise factors carry sign/rotation ambiguity).
    for (std::size_t shape = 0; shape < svd_shapes.size(); ++shape) {
      const SvdShape& svd_shape = svd_shapes[shape];
      const linalg::SvdResult& ref_svd = ref_svds[shape];
      linalg::SvdResult svd;
      linalg::SvdWorkspace ws;
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < svd_shape.iters; ++it) {
              backend->svd_into(svd_shape.x, svd, ws);
            }
          },
          repeats, 1);
      double err = 0.0;
      for (std::size_t i = 0; i < svd.s.size(); ++i) {
        err = std::max(err, std::abs(svd.s[i] - ref_svd.s[i]) /
                                (1.0 + ref_svd.s.front()));
      }
      linalg::Mat us = svd.u;
      for (std::size_t j = 0; j < svd.s.size(); ++j) {
        linalg::scale_col(us, j, svd.s[j]);
      }
      err = std::max(err, max_rel_err(linalg::matmul_a_bt(us, svd.v),
                                      svd_shape.x));
      const double ortho = std::max(orthonormality_err(svd.u, svd.s),
                                    orthonormality_err(svd.v, svd.s));
      curve.kernels.push_back(
          {svd_shape.kernel, stats.mean / svd_shape.iters, err, ortho});
    }

    const BackendCurve* ref_curve = curves.empty() ? nullptr : &curves.front();
    for (const KernelTiming& k : curve.kernels) {
      double speedup = 1.0;
      if (ref_curve != nullptr) {
        for (const KernelTiming& rk : ref_curve->kernels) {
          if (rk.kernel == k.kernel && k.mean_seconds > 0.0) {
            speedup = rk.mean_seconds / k.mean_seconds;
          }
        }
      }
      const bool ok =
          k.rel_err <= kRelBand && k.ortho_err.value_or(0.0) <= kOrthoBand;
      in_band = in_band && ok;
      std::printf("  %-17s %9.1f us  speedup %5.2fx  rel_err %.2e",
                  k.kernel.c_str(), k.mean_seconds * 1e6, speedup, k.rel_err);
      if (k.ortho_err) std::printf("  ortho_err %.2e", *k.ortho_err);
      std::printf("%s\n", ok ? "" : "  OUT OF BAND");
    }
    curves.push_back(std::move(curve));
  }

  struct ArrowTiming {
    std::string kernel;
    double mean_seconds;
    double speedup_vs_jacobi;
  };
  std::vector<ArrowTiming> arrow;
  std::printf("broken-arrow core solver\n");
  for (std::size_t shape = 0; shape < 2; ++shape) {
    const SvdShape& svd_shape = svd_shapes[shape];
    const linalg::Mat& x = svd_shape.x;
    const std::size_t n = x.rows() - 1;
    std::vector<double> s(n);
    std::vector<double> m(n);
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = x(i, i);
      m[i] = x(i, n);
    }
    linalg::SvdResult svd;
    isvd::ArrowSvdWorkspace ws;
    const RunStats stats = time_repeated(
        [&](std::size_t) {
          for (int it = 0; it < svd_shape.iters; ++it) {
            isvd::arrow_svd_into(s, m, x(n, n), svd, ws);
          }
        },
        repeats, 1);
    const double seconds = stats.mean / svd_shape.iters;
    const std::vector<KernelTiming>& ref_kernels = curves.front().kernels;
    const auto jacobi = std::find_if(
        ref_kernels.begin(), ref_kernels.end(),
        [&](const KernelTiming& k) { return k.kernel == svd_shape.kernel; });
    arrow.push_back({"arrow_core_" + std::to_string(x.rows()), seconds,
                     seconds > 0.0 ? jacobi->mean_seconds / seconds : 1.0});
    std::printf("  %-17s %9.1f us  speedup_vs_jacobi %5.2fx\n",
                arrow.back().kernel.c_str(), seconds * 1e6,
                arrow.back().speedup_vs_jacobi);
  }

  JsonWriter json;
  json.begin_object();
  json.field("bench", "linalg_backends");
  json.field("mode", args.full ? "full" : "default");
  json.key("workload");
  json.begin_object();
  json.field("sensors", P);
  json.field("rank", r);
  json.field("panel_cols", c);
  json.field("repeats", repeats);
  json.end_object();
  json.key("backends");
  json.begin_array();
  const BackendCurve& ref_curve = curves.front();
  for (const BackendCurve& curve : curves) {
    json.begin_object();
    json.field("backend", curve.backend);
    json.field("capabilities", curve.capabilities);
    json.key("kernels");
    json.begin_array();
    for (std::size_t i = 0; i < curve.kernels.size(); ++i) {
      const KernelTiming& k = curve.kernels[i];
      json.begin_object();
      json.field("kernel", k.kernel);
      json.field("mean_seconds", k.mean_seconds);
      json.field("speedup_vs_reference",
                 k.mean_seconds > 0.0
                     ? ref_curve.kernels[i].mean_seconds / k.mean_seconds
                     : 1.0);
      json.field("rel_err_vs_reference", k.rel_err);
      if (k.ortho_err) json.field("orthonormality_err", *k.ortho_err);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("arrow_core");
  json.begin_array();
  for (const ArrowTiming& a : arrow) {
    json.begin_object();
    json.field("kernel", a.kernel);
    json.field("mean_seconds", a.mean_seconds);
    json.field("speedup_vs_jacobi", a.speedup_vs_jacobi);
    json.end_object();
  }
  json.end_array();
  json.field("in_band", in_band);
  json.end_object();
  const std::string path = args.out_dir + "/BENCH_linalg.json";
  json.write_file(path);
  std::printf("\nwrote %s\n", path.c_str());

  std::printf("shape claim %s\n", in_band ? "HOLDS" : "VIOLATED");
  return in_band ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
