#include "core/mrdmd.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dmd/dmd.hpp"
#include "linalg/blas.hpp"
#include "linalg/svd.hpp"

namespace imrdmd::core {

namespace {
constexpr double kTwoPi = 6.283185307179586476925287;
}

Mat subsample(const Mat& data, std::size_t lo, std::size_t hi,
              std::size_t stride) {
  IMRDMD_REQUIRE_ARG(stride >= 1 && lo <= hi && hi <= data.cols(),
                     "subsample needs stride >= 1 and lo <= hi <= cols");
  const std::size_t count = (hi - lo + stride - 1) / stride;
  Mat out(data.rows(), count);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const double* src = data.data() + r * data.cols();
    double* dst = out.data() + r * count;
    for (std::size_t j = 0; j < count; ++j) dst[j] = src[lo + j * stride];
  }
  return out;
}

MrdmdNode fit_node(MrdmdNode node, const Mat& grid, const Mat& u,
                   const std::vector<double>& s, const Mat& v,
                   const MrdmdOptions& options) {
  IMRDMD_REQUIRE_DIMS(grid.cols() >= 2, "fit_node needs two grid columns");
  dmd::DmdOptions dmd_options;
  dmd_options.use_svht = options.use_svht;
  dmd_options.max_rank = options.max_rank;
  const dmd::DmdResult fit = dmd::dmd_from_svd(
      u, s, v, grid.block(0, 1, grid.rows(), grid.cols() - 1),
      options.dt * static_cast<double>(node.stride), dmd_options);
  node.rho = static_cast<double>(options.max_cycles) /
             static_cast<double>(node.span());
  node.svd_rank = fit.svd_rank;

  // Slow-mode selection: frequency in cycles per original-resolution
  // snapshot must not exceed rho.
  std::vector<std::size_t> slow;
  for (std::size_t i = 0; i < fit.mode_count(); ++i) {
    const Complex log_lambda = std::log(fit.eigenvalues[i]);
    const double magnitude = options.criterion == SlowModeCriterion::AbsLog
                                 ? std::abs(log_lambda)
                                 : std::abs(log_lambda.imag());
    const double cycles_per_snapshot =
        magnitude / (kTwoPi * static_cast<double>(node.stride));
    if (cycles_per_snapshot <= node.rho) slow.push_back(i);
  }
  node.modes = CMat(grid.rows(), slow.size());
  node.eigenvalues.resize(slow.size());
  for (std::size_t j = 0; j < slow.size(); ++j) {
    for (std::size_t r = 0; r < grid.rows(); ++r) {
      node.modes(r, j) = fit.modes(r, slow[j]);
    }
    node.eigenvalues[j] = fit.eigenvalues[slow[j]];
  }
  // Amplitudes are fitted against the grid using only the retained slow
  // modes (reference implementation order): the slow field must be the
  // best slow-only explanation of the window.
  node.amplitudes = dmd::fit_amplitudes(node.modes, node.eigenvalues, grid,
                                        options.amplitude_fit);
  return node;
}

namespace {

// Fits one bin on residual[:, lo:hi), subtracts its slow reconstruction in
// place, and returns the node (nullopt when the bin is too short or yields
// no usable snapshot pair).
std::optional<MrdmdNode> process_bin(Mat& residual, std::size_t t_offset,
                                     std::size_t lo, std::size_t hi,
                                     std::size_t level, std::size_t bin_index,
                                     const MrdmdOptions& options) {
  const std::size_t bin = hi - lo;
  const std::size_t nyq = options.nyquist_snapshots();
  if (bin < nyq) return std::nullopt;
  const std::size_t stride = bin / nyq;  // >= 1 since bin >= nyq

  const Mat grid = subsample(residual, lo, hi, stride);
  const std::size_t k = grid.cols();
  if (k < 2) return std::nullopt;

  // Per-thread scratch: pool workers and the main thread keep their SVD
  // buffers warm across the many bins each processes.
  thread_local linalg::SvdWorkspace svd_ws;
  thread_local linalg::SvdResult f;
  linalg::svd_into(grid.block(0, 0, grid.rows(), k - 1), f, svd_ws);
  MrdmdNode node = fit_node({.level = level,
                             .bin_index = bin_index,
                             .t_begin = t_offset + lo,
                             .t_end = t_offset + hi,
                             .stride = stride},
                            grid, f.u, f.s, f.v, options);
  if (node.mode_count() > 0) {
    // Subtract the slow reconstruction over the FULL bin (original
    // resolution), leaving faster dynamics for the children.
    Mat window(residual.rows(), bin);
    accumulate_node(node, options.dt, nullptr, window, node.t_begin);
    for (std::size_t r = 0; r < residual.rows(); ++r) {
      double* dst = residual.data() + r * residual.cols() + lo;
      const double* src = window.data() + r * bin;
      for (std::size_t t = 0; t < bin; ++t) dst[t] -= src[t];
    }
  }
  return node;
}

}  // namespace

std::vector<MrdmdNode> fit_levels(Mat& residual, std::size_t t0,
                                  std::size_t level0, std::size_t levels,
                                  const MrdmdOptions& options) {
  std::vector<LevelBin> bins{{0, residual.cols(), 0}};
  return fit_levels(residual, t0, level0, levels, options, std::move(bins));
}

std::vector<MrdmdNode> fit_levels(Mat& residual, std::size_t t0,
                                  std::size_t level0, std::size_t levels,
                                  const MrdmdOptions& options,
                                  std::vector<LevelBin> bins) {
  IMRDMD_REQUIRE_ARG(options.max_cycles >= 1, "max_cycles must be >= 1");
  IMRDMD_REQUIRE_ARG(level0 >= 1, "levels are 1-based");
  std::vector<MrdmdNode> nodes;
  if (residual.empty() || levels == 0) return nodes;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    IMRDMD_REQUIRE_DIMS(bins[b].lo <= bins[b].hi &&
                            bins[b].hi <= residual.cols(),
                        "fit_levels seed bin out of range");
    // Overlapping bins would race on the shared residual in the parallel
    // pass below; require sorted, disjoint column ranges.
    IMRDMD_REQUIRE_DIMS(b == 0 || bins[b - 1].hi <= bins[b].lo,
                        "fit_levels seed bins must be disjoint and sorted");
  }

  for (std::size_t depth = 0; depth < levels && !bins.empty(); ++depth) {
    const std::size_t level = level0 + depth;
    std::vector<std::optional<MrdmdNode>> produced(bins.size());
    auto work = [&](std::size_t b) {
      produced[b] = process_bin(residual, t0, bins[b].lo, bins[b].hi, level,
                                bins[b].index, options);
    };
    // Bins of one level touch disjoint residual columns, so they run
    // concurrently on the global pool; gathering `produced` in worklist
    // order keeps the node sequence deterministic for any thread count.
    if (options.parallel_bins && bins.size() > 1) {
      parallel_for(0, bins.size(), work);
    } else {
      for (std::size_t b = 0; b < bins.size(); ++b) work(b);
    }
    std::vector<LevelBin> next;
    next.reserve(bins.size() * 2);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (produced[b].has_value()) nodes.push_back(std::move(*produced[b]));
      // Split in half; children below the Nyquist floor die in process_bin,
      // but avoid queueing them at all when obviously too small.
      const LevelBin& bin = bins[b];
      const std::size_t mid = bin.lo + (bin.hi - bin.lo) / 2;
      if (mid - bin.lo >= options.nyquist_snapshots()) {
        next.push_back({bin.lo, mid, bin.index * 2});
      }
      if (bin.hi - mid >= options.nyquist_snapshots()) {
        next.push_back({mid, bin.hi, bin.index * 2 + 1});
      }
    }
    bins = std::move(next);
  }
  return nodes;
}

MrdmdTree::MrdmdTree(MrdmdOptions options) : options_(options) {}

void MrdmdTree::fit(const Mat& data) {
  IMRDMD_REQUIRE_DIMS(data.cols() >= options_.nyquist_snapshots(),
                      "mrDMD needs at least 8*max_cycles snapshots");
  Mat residual = data;
  nodes_ = fit_levels(residual, 0, 1, options_.max_levels, options_);
  sensors_ = data.rows();
  time_steps_ = data.cols();
  fitted_ = true;
}

Mat MrdmdTree::reconstruct(const dmd::ModeBand* band) const {
  return reconstruct(0, time_steps_, band);
}

Mat MrdmdTree::reconstruct(std::size_t t0, std::size_t t1,
                           const dmd::ModeBand* band, std::size_t level_min,
                           std::size_t level_max) const {
  IMRDMD_REQUIRE_ARG(fitted_, "reconstruct before fit");
  return reconstruct_nodes(nodes_, sensors_, t0, t1, options_.dt, band,
                           level_min, level_max);
}

std::vector<double> MrdmdTree::magnitudes(const dmd::ModeBand* band) const {
  IMRDMD_REQUIRE_ARG(fitted_, "magnitudes before fit");
  return mode_magnitudes(nodes_, sensors_, options_.dt, band);
}

}  // namespace imrdmd::core
