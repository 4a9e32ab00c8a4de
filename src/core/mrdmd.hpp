// Batch multiresolution DMD (paper Sec. III-A, after Kutz et al. and the
// reference implementation the paper adopts as [45]).
//
// The recursion, expressed as a level-ordered worklist (bins at one level are
// independent and processed in parallel):
//
//   residual <- data
//   bins(level 1) = { [0, T) }
//   for level = 1 .. max_levels:
//     for each bin [lo, hi):                       (parallel)
//       stride = floor(bin / (8 max_cycles))       (4x-Nyquist subsampling)
//       fit_node: DMD on residual[:, lo:hi:stride] (SVHT-truncated rank),
//         keep modes with frequency <= rho = max_cycles / bin ("slow"),
//         fit the slow modes' amplitudes
//       residual[:, lo:hi] -= slow reconstruction over the full bin
//     bins(level+1) = both halves of every bin
//
// Bins shorter than 8 max_cycles snapshots terminate their branch. I-mrDMD's
// level-1 root (core/imrdmd.hpp) is fitted by the same fit_node, from its
// incrementally updated SVD instead of a per-bin one.
#pragma once

#include <cstddef>
#include <vector>

#include "core/mrdmd_node.hpp"
#include "dmd/dmd.hpp"

namespace imrdmd::core {

/// Which eigenvalue magnitude defines "slow" (an ablation knob; the paper's
/// reference implementation uses the full |ln lambda| including growth rate,
/// the original mrDMD papers the imaginary part only).
enum class SlowModeCriterion { AbsLog, ImagLog };

struct MrdmdOptions {
  /// Tree depth (paper uses 4-9 depending on the experiment).
  std::size_t max_levels = 6;
  /// Slow-mode cutoff: modes oscillating at most `max_cycles` times across
  /// a bin are "slow" (paper/reference default: 2).
  std::size_t max_cycles = 2;
  /// Truncate each bin's SVD with the optimal hard threshold (do_svht).
  bool use_svht = true;
  /// Extra hard cap on per-bin SVD rank (0 = none).
  std::size_t max_rank = 0;
  /// Snapshot interval in seconds (used for Hz conversions only).
  double dt = 1.0;
  SlowModeCriterion criterion = SlowModeCriterion::AbsLog;
  /// Process the bins of a level in parallel on the global pool (they touch
  /// disjoint columns); inline when the fit already runs on a pool worker.
  bool parallel_bins = true;
  /// Amplitude fitting for the retained slow modes (fitted after the slow
  /// selection, on the bin's subsampled snapshots). AllSnapshots is the
  /// noise-robust optimized-amplitude choice of Jovanovic et al. [44];
  /// FirstSnapshot reproduces the classic pinv(Phi) x_0 of the reference
  /// implementation (an ablation bench compares them).
  dmd::AmplitudeFit amplitude_fit = dmd::AmplitudeFit::AllSnapshots;

  /// Snapshots per bin below which a branch terminates (and the subsample
  /// target): 8 * max_cycles.
  std::size_t nyquist_snapshots() const { return 8 * max_cycles; }
};

/// Gathers columns lo, lo + stride, ... (< hi) of `data` into a dense block:
/// the subsample grid of a node over [lo, hi) at that stride.
Mat subsample(const Mat& data, std::size_t lo, std::size_t hi,
              std::size_t stride);

/// Fits one mrDMD node from its subsample `grid` and the SVD factors
/// u diag(s) v^T of grid[:, :-1]: exact DMD, the slow-mode cut (at most
/// max_cycles oscillations across the window, rho = max_cycles / span), and
/// the slow-only amplitude fit against `grid`. `placement` carries the
/// node's level, bin_index, window and stride; the fit fills in rho,
/// svd_rank, modes, eigenvalues and amplitudes. Every batch bin (from its
/// own SVD) and I-mrDMD's root (from the incremental one) go through here.
MrdmdNode fit_node(MrdmdNode placement, const Mat& grid, const Mat& u,
                   const std::vector<double>& s, const Mat& v,
                   const MrdmdOptions& options);

/// A seed bin of the level recursion: column range [lo, hi) of the residual
/// and the bin's index within `level0`.
struct LevelBin {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t index = 0;
};

/// Runs the level-ordered recursion on `residual` **in place** (the slow
/// reconstructions are subtracted bin by bin; on return `residual` holds
/// what no retained mode explains). Produced nodes carry global snapshot
/// indices offset by `t0` and levels starting at `level0`; `levels` bounds
/// the number of levels processed (bins split in half between levels).
///
/// This is the shared engine of MrdmdTree (t0 = 0, level0 = 1) and of
/// IncrementalMrdmd's new-span sub-fits (t0 = T_prev, level0 = 2).
std::vector<MrdmdNode> fit_levels(Mat& residual, std::size_t t0,
                                  std::size_t level0, std::size_t levels,
                                  const MrdmdOptions& options);

/// As above, but seeded with an explicit worklist of level0 bins instead of
/// the single whole-span bin. Bins must cover disjoint column ranges. This
/// lets a caller with several independent sub-trees (I-mrDMD's descendant
/// refits: the two halves of the shifted timeline) drive every bin of a
/// level through one ThreadPool::parallel_for instead of fitting the
/// sub-trees serially. Nodes are gathered in (level, worklist) order, so the
/// output is deterministic and independent of thread scheduling.
std::vector<MrdmdNode> fit_levels(Mat& residual, std::size_t t0,
                                  std::size_t level0, std::size_t levels,
                                  const MrdmdOptions& options,
                                  std::vector<LevelBin> bins);

/// Convenience owner of a batch mrDMD decomposition.
class MrdmdTree {
 public:
  explicit MrdmdTree(MrdmdOptions options = {});

  /// Decomposes `data` (P sensors x T snapshots).
  void fit(const Mat& data);

  bool fitted() const { return fitted_; }
  std::size_t sensors() const { return sensors_; }
  std::size_t time_steps() const { return time_steps_; }
  const MrdmdOptions& options() const { return options_; }
  const std::vector<MrdmdNode>& nodes() const { return nodes_; }

  /// Number of retained modes across all nodes.
  std::size_t total_modes() const { return core::total_modes(nodes_); }

  /// Reconstruction over [0, T) (all levels, optional band filter).
  Mat reconstruct(const dmd::ModeBand* band = nullptr) const;

  /// Reconstruction over [t0, t1) restricted to levels [level_min,
  /// level_max] (0 = unbounded).
  Mat reconstruct(std::size_t t0, std::size_t t1,
                  const dmd::ModeBand* band = nullptr,
                  std::size_t level_min = 0, std::size_t level_max = 0) const;

  /// Collective spectrum across every node (Figs. 5/7).
  std::vector<dmd::SpectrumPoint> spectrum() const {
    return core::spectrum(nodes_, options_.dt);
  }

  /// Per-sensor aggregate mode magnitude (input to z-scoring). const, but
  /// fills each node's magnitude_terms on first read (mode_magnitudes), so
  /// one thread at a time may use the tree.
  std::vector<double> magnitudes(const dmd::ModeBand* band = nullptr) const;

 private:
  MrdmdOptions options_;
  bool fitted_ = false;
  std::size_t sensors_ = 0;
  std::size_t time_steps_ = 0;
  std::vector<MrdmdNode> nodes_;
};

}  // namespace imrdmd::core
